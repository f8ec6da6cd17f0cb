#!/usr/bin/env sh
# Repository CI gate: formatting, lints, build, tests.
#
# Usage: scripts/ci.sh
# Works fully offline; every dependency is in-tree.
set -eu

cd "$(dirname "$0")/.."
ROOT=$(pwd)

# The gate must leave every tracked file as it found it; the harness
# experiments below write their BENCH_*.json / TRACE_*.json into
# target/ci-bench/, never over the committed baselines.
tracked_state() {
    git status --porcelain --untracked-files=no
    git diff --no-ext-diff | cksum
}
tracked_before=$(tracked_state)

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links left dangling by a deleted item fail here.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# The examples drive the FAS executor end to end; cargo test only
# compiles them. Any non-zero exit fails the gate. The second mini_spice
# run takes the transistor netlist through a transient and reads a stored
# waveform back out of the result.
echo "==> examples"
for ex in quickstart comparator motor model_check; do
    cargo run --release --quiet --example "$ex" > /dev/null
done
cargo run --release --quiet --example mini_spice -- netlists/cmos_comparator.cir > /dev/null
cargo run --release --quiet --example mini_spice -- netlists/cmos_comparator.cir --tran 10u out \
    > /dev/null

# Drive the fixer end to end over every FAS fixture and every built-in
# construct: exit 2 means a usage/IO failure or a panic, and unparseable
# JSON output means the machine interface regressed. Exit 1 (diagnostics
# remain after fixing) is expected for fixtures with unfixable errors.
echo "==> gabm lint --fix --dry-run smoke"
GABM=target/release/gabm
for f in tests/fixtures/*.fas; do
    out=$("$GABM" lint "$f" --fix --dry-run --format json) || status=$?
    status=${status:-0}
    if [ "$status" -ge 2 ]; then
        echo "FAIL: gabm lint --fix --dry-run $f exited $status" >&2
        exit 1
    fi
    case "$out" in
        '{'*'"fix"'*) ;;
        *) echo "FAIL: unparseable --fix output for $f: $out" >&2; exit 1 ;;
    esac
    status=0
done
for c in input-stage output-stage power-supply slew-rate; do
    out=$("$GABM" lint --construct "$c" --fix --dry-run --format json) || {
        echo "FAIL: gabm lint --fix --dry-run --construct $c failed" >&2
        exit 1
    }
    case "$out" in
        '{'*'"fix"'*) ;;
        *) echo "FAIL: unparseable --fix output for construct $c: $out" >&2; exit 1 ;;
    esac
done

# Bytecode VM gate: the differential suite holds the VM to ulp-scale
# agreement with the interpreter, and the disasm golden pins the listing
# format that `gabm compile --disasm` promises.
echo "==> fasvm differential suite + disasm golden"
cargo test -q -p gabm-fasvm --test differential --test disasm_golden

# Perf rows: the harness experiments below write their BENCH_*.json
# into $BENCH_DIR.
BENCH_DIR=target/ci-bench
HARNESS="$ROOT/target/release/harness"
rm -rf "$BENCH_DIR"
mkdir -p "$BENCH_DIR"

# Exact-counter gate: `check_counters FILE KEY...` fails unless each
# named key's line in the fresh $BENCH_DIR/FILE equals its line in the
# committed FILE baseline.
check_counters() {
    file=$1
    shift
    for key in "$@"; do
        want=$(grep "\"$key\":" "$file" || true)
        got=$(grep "\"$key\":" "$BENCH_DIR/$file" || true)
        if [ -z "$want" ] || [ "$want" != "$got" ]; then
            echo "FAIL: $file $key is '$got', committed baseline '$want'" >&2
            exit 1
        fi
    done
}

# Interpreter vs VM on the comparator transient. The harness asserts the
# backends take the same trajectory; the counters pin that trajectory, the
# size of the comparator's bytecode program and the waveform difference.
echo "==> harness fasvm ($BENCH_DIR/BENCH_fasvm.json)"
(cd "$BENCH_DIR" && "$HARNESS" fasvm)
check_counters BENCH_fasvm.json newton_iterations accepted_steps rejected_steps ops regs \
    waveform_rms_diff

# Parallel characterization gate: the harness asserts in-process that the
# Monte-Carlo distribution is bitwise identical on pools of 1/2/4/8
# workers, and that the comparator transient factors its dense LU once
# per Newton iteration (so `refactorizations` is 0); a failed assertion
# aborts the run and fails this step.
echo "==> harness parchar ($BENCH_DIR/BENCH_parchar.json)"
(cd "$BENCH_DIR" && "$HARNESS" parchar)
check_counters BENCH_parchar.json factorizations refactorizations newton_iterations \
    accepted_steps rejected_steps mc_failures mc_mean_s mc_std_s

# Tracing gate: the disabled-probe overhead on the comparator transient
# must stay within 2% (asserted in-process by the harness — a violation
# aborts the run), and the traced phase must produce a valid Chrome
# trace covering all four instrumented layers.
echo "==> harness traceov ($BENCH_DIR/BENCH_traceov.json + TRACE_traceov.json)"
(cd "$BENCH_DIR" && "$HARNESS" traceov)
case "$(cat "$BENCH_DIR/BENCH_traceov.json")" in
    *'"overhead_disabled_pct"'*) ;;
    *) echo "FAIL: BENCH_traceov.json missing overhead_disabled_pct" >&2; exit 1 ;;
esac
check_counters BENCH_traceov.json accepted_steps rejected_steps probes_per_run traced_spans
trace_report=$("$GABM" trace "$BENCH_DIR/TRACE_traceov.json") || {
    echo "FAIL: gabm trace rejected TRACE_traceov.json" >&2
    exit 1
}
for root in sim.tran fasvm.compile charac.monte_carlo par.job; do
    case "$trace_report" in
        *"$root"*) ;;
        *) echo "FAIL: trace is missing the $root root: $trace_report" >&2; exit 1 ;;
    esac
done

# A traced end-to-end run through the gabm CLI round-trips its own
# validator (the --trace plumbing is shared with the harness).
echo "==> gabm --trace smoke"
"$GABM" lint --construct slew-rate --trace "$BENCH_DIR/TRACE_lint.json"
"$GABM" trace "$BENCH_DIR/TRACE_lint.json" > /dev/null

# Exact-counter gate: a traced benchmark run must repeat round 0's
# deterministic counters in every round and, at the reference seed 1 and
# the held-out seed 2, match perfbench/fingerprints.json. The benchmark
# is only run, never edited; --locked keeps perfbench/Cargo.lock as is.
# comparator-cmos is the one workload whose 17-unknown dense LU pivots
# through MOSFET limiting.
echo "==> perfbench fingerprint gate"
for workload in comparator-fas characterize comparator-cmos; do
    for seed in 1 2; do
        out=$(cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 1)
        case "$out" in
            *'"fingerprint.match": {"value": 1.0,'*) ;;
            *)
                echo "FAIL: perfbench $workload seed $seed: fingerprint.match is not 1.0" >&2
                echo "$out" >&2
                exit 1
                ;;
        esac
    done
done

echo "==> tracked files unchanged"
tracked_after=$(tracked_state)
if [ "$tracked_before" != "$tracked_after" ]; then
    echo "FAIL: CI modified tracked files:" >&2
    git status --porcelain --untracked-files=no >&2
    exit 1
fi

echo "CI OK"
