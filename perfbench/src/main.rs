//! The gabm benchmark: drives the pipeline (definition card → GBS diagram →
//! generated FAS → MNA simulation → §2.4 check) through public APIs only,
//! in a closed loop of jobs, and times each layer from outside.
//!
//! ```text
//! gabm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gabm-perfbench --fingerprint --workload <name> --seed <n>
//! ```
//!
//! A run warms the host up, then repeats rounds of the seed's jobs for
//! `--seconds`, measuring set-up once after every round. Every round runs
//! the same jobs, so each job's time is its minimum over rounds and the
//! job-time percentiles are taken over those. The last line of standard
//! output is the result,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`);
//! the line before it records the run's context.

mod benches;
mod characterize;
mod fingerprint;
mod kernels;
mod oracle;
mod probe;
mod round;
mod stats;
mod tally;

use benches::TranBench;
use characterize::Characterize;
use fingerprint::{recorded, Fingerprint};
use gabm_models::ComparatorSpec;
use round::{timed, Inputs, Round, Workload};
use stats::{busy_ratio, median, percentile, ratio, residual_share};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use tally::Tally;

/// Set-up is measured once after every round, so its samples are spread
/// over the whole timed period like the job times, and reduced to this
/// percentile, taken on the fast side: host noise only ever adds time, and
/// on a shared host it comes in slow phases of a few seconds.
const FAST_QUANTILE: f64 = 10.0;
/// Model builds a traced `comparator-fas` run times for its front-end
/// attribution.
const FRONTEND_REPS: usize = 11;
/// Untimed work before anything is measured: the host's cores run at about
/// half speed for over a second after being idle.
const WARMUP_S: f64 = 2.0;
/// Fewest timed rounds in a run, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Workers of the `characterize` pool. One: on a shared 2-vCPU host the
/// throughput of two workers follows how busy the other guests keep the
/// second core, and in ten 45-s runs it ranged from 587 to 1087 jobs/s.
const CHARACTERIZE_WORKERS: usize = 1;

/// The end-to-end metrics of `--trace 0` runs.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of `--trace 1` runs. A layer that does no work on
/// a workload, or cannot be observed from outside on it, reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("run.rounds", "count"),
    ("run.fail_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("fingerprint.match", "bool"),
    ("attr.residual_share", "ratio"),
    ("sim.newton_iterations", "count"),
    ("sim.accepted_steps", "count"),
    ("sim.rejected_steps", "count"),
    ("sim.factorizations", "count"),
    ("sim.refactorizations", "count"),
    ("sim.device_evals", "count"),
    ("sim.job0_newton_iterations", "count"),
    ("sim.step_accept_ratio", "ratio"),
    ("sim.build_ms", "ms"),
    ("sim.tran_ms", "ms"),
    ("sim.us_per_newton", "us"),
    ("sim.bridge_stamp_ms", "ms"),
    ("sim.bridge_stamp_calls", "count"),
    ("sim.engine_self_ms", "ms"),
    ("fas.eval_ms", "ms"),
    ("fas.eval_calls", "count"),
    ("fas.fd_eval_calls", "count"),
    ("fas.compile_ms", "ms"),
    ("fasvm.compile_ms", "ms"),
    ("core.diagram_ms", "ms"),
    ("core.check_ms", "ms"),
    ("codegen.generate_ms", "ms"),
    ("models.build_ms", "ms"),
    ("models.frontend_share", "ratio"),
    ("charac.response_time_ms", "ms"),
    ("charac.supply_currents_ms", "ms"),
    ("charac.rig_failures", "count"),
    ("par.workers", "count"),
    ("par.busy_ratio", "ratio"),
    ("numeric.dense_lu_n12_ns", "ns"),
    ("numeric.dense_lu_n17_ns", "ns"),
    ("numeric.splu_full_n68_ns", "ns"),
    ("numeric.splu_refactor_n68_ns", "ns"),
    ("numeric.splu_solve_n68_ns", "ns"),
    ("numeric.lu_est_share", "ratio"),
];

const USAGE: &str =
    "usage: gabm-perfbench --workload <comparator-fas|comparator-cmos|characterize> \
                     --seed <n> --seconds <s> [--trace <0|1>]\n       \
     gabm-perfbench --fingerprint --workload <name> --seed <n>";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    /// Length of the timed period; required unless `fingerprint`.
    seconds: Option<f64>,
    trace: bool,
    fingerprint: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut fingerprint = false;
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds out of range: {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--fingerprint" => fingerprint = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if seconds.is_none() && !fingerprint {
            return Err("--seconds is required".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            fingerprint,
        })
    }
}

/// What a run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(&'static str, String)>,
}

impl Outcome {
    fn result_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn info_line(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gabm-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.fingerprint {
        fingerprint_of(&args.workload, args.seed).map(|fp| {
            println!("{}", fp.to_json());
            None
        })
    } else {
        run(&args).map(Some)
    };
    match run {
        Ok(Some(outcome)) => {
            println!("{}", outcome.info_line());
            let names = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", outcome.result_line(names));
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gabm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds a workload's state: the set-up that `setup_s` measures, without
/// the first result.
fn build(workload: &str) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "characterize" => Box::new(Characterize::setup(CHARACTERIZE_WORKERS)?),
        other => Box::new(TranBench::setup(other)?),
    })
}

/// Peak resident set of this process (MB), from the kernel's accounting.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's commit, read from `.git` without running git.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => Some(head),
    });
    format!("\"{}\"", rev.unwrap_or_else(|| "unknown".into()))
}

/// Fingerprint of one round of `workload` at `seed`.
fn fingerprint_of(workload: &str, seed: u64) -> Result<Fingerprint, String> {
    let w = build(workload)?;
    Ok(w.round(&w.inputs(seed), true).fingerprint)
}

/// Whether every round repeated round 0's fingerprint and round 0 matches
/// the one recorded for `seed`, if there is one.
fn fingerprint_holds(workload: &str, seed: u64, rounds: &[Round]) -> bool {
    let fp = rounds[0].fingerprint;
    rounds.iter().all(|r| r.fingerprint == fp) && recorded(workload, seed).is_none_or(|r| r == fp)
}

/// Each job's time at the host's fastest: its minimum over rounds. Every
/// round runs the same jobs in the same order and host noise only adds
/// time, so this keeps the spread of cost between jobs and drops the
/// host's slow phases.
fn job_floor_ms(rounds: &[Round]) -> Vec<f64> {
    let jobs = rounds.iter().map(|r| r.job_ms.len()).min().unwrap_or(0);
    (0..jobs)
        .map(|j| {
            rounds
                .iter()
                .map(|r| r.job_ms[j])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Time (s) of one set-up: building the workload and its first result.
/// Tearing the workload down is not part of it.
fn setup_once(workload: &str, inputs: &Inputs) -> Result<f64, String> {
    let t0 = Instant::now();
    let w = build(workload)?;
    w.first_result(inputs)?;
    Ok(t0.elapsed().as_secs_f64())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let seconds = args.seconds.ok_or("--seconds is required")?;
    let w = build(&args.workload)?;
    let inputs = w.inputs(args.seed);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < WARMUP_S {
        w.round(&inputs, false);
    }
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is a difference between neighbours.
    let mut setup = Vec::new();
    let mut rounds = Vec::new();
    let mut plain = Vec::new();
    let t_start = Instant::now();
    while rounds.len() < MIN_ROUNDS || t_start.elapsed().as_secs_f64() < seconds {
        if !args.trace {
            rounds.push(w.round(&inputs, false));
        } else if rounds.len() % 2 == 0 {
            plain.push(w.round(&inputs, false));
            rounds.push(w.round(&inputs, true));
        } else {
            rounds.push(w.round(&inputs, true));
            plain.push(w.round(&inputs, false));
        }
        setup.push(setup_once(&args.workload, &inputs)?);
    }
    let attempted: usize = rounds.iter().map(|r| r.job_ms.len()).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();
    let jobs_per_round = rounds[0].job_ms.len();
    let setup_s = percentile(&setup, FAST_QUANTILE).unwrap_or(0.0);

    let mut m = BTreeMap::new();
    if !args.trace {
        let floor = job_floor_ms(&rounds);
        m.insert("setup_s", setup_s);
        m.insert(
            "jobs_per_s",
            ratio(jobs_per_round as f64 * 1e3, floor.iter().sum()),
        );
        m.insert("job_ms_p50", percentile(&floor, 50.0).unwrap_or(0.0));
        m.insert("job_ms_p90", percentile(&floor, 90.0).unwrap_or(0.0));
        m.insert(
            "pass_ratio",
            ratio((attempted - failed) as f64, attempted as f64),
        );
        m.insert("peak_rss_mb", peak_rss_mb());
    } else {
        per_layer(&mut m, args, w.as_ref(), &rounds, &plain, setup_s)?;
    }
    let fp = rounds[0].fingerprint;
    let info = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{seconds:?}")),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", git_rev()),
        ("nproc", hardware_threads().to_string()),
        ("pool_workers", w.workers().to_string()),
        ("rounds", rounds.len().to_string()),
        ("jobs_per_round", jobs_per_round.to_string()),
        ("jobs", attempted.to_string()),
        ("setup_reps", setup.len().to_string()),
        ("job0_newton_iterations", rounds[0].job0_newton.to_string()),
        ("fingerprint", fp.to_json()),
        (
            "fingerprint_recorded",
            recorded(&args.workload, args.seed).is_some().to_string(),
        ),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        info,
    })
}

/// Front-end attribution of the set-up model build (comparator-fas): the
/// build as set-up runs it, then each front-end call on its own.
fn setup_frontend() -> Result<Tally, String> {
    let spec = ComparatorSpec::default();
    let mut t = Tally::default();
    for _ in 0..FRONTEND_REPS {
        let (built, ms) = timed(|| TranBench::setup("comparator-fas"));
        built?;
        t.add("models.build_ms", ms / FRONTEND_REPS as f64);
        let calls = characterize::frontend_calls(&spec)?;
        for name in FRONTEND {
            t.add(name, calls.get(name) / FRONTEND_REPS as f64);
        }
    }
    Ok(t)
}

/// Front-end metrics, per model build.
const FRONTEND: [&str; 5] = [
    "core.diagram_ms",
    "core.check_ms",
    "codegen.generate_ms",
    "fas.compile_ms",
    "fasvm.compile_ms",
];

fn per_layer(
    m: &mut BTreeMap<&'static str, f64>,
    args: &Args,
    w: &dyn Workload,
    rounds: &[Round],
    plain: &[Round],
    setup_s: f64,
) -> Result<(), String> {
    let jobs: usize = rounds.iter().map(|r| r.job_ms.len()).sum();
    let failed: usize = rounds.iter().map(|r| r.failed).sum();
    let mut sum = Tally::default();
    for r in rounds {
        sum.absorb(&r.layers);
    }
    // Times are per-job means over every traced job; counts, and the
    // ratios built on them, cover one round.
    let mean = |name: &str| sum.get(name) / jobs as f64;
    let job_ms = rounds.iter().flat_map(|r| &r.job_ms).sum::<f64>() / jobs as f64;
    let round0 = |name: &str| rounds[0].layers.get(name);
    let [newton, accepted, rejected, fact, refact, evals] =
        rounds[0].fingerprint.counts.map(|c| c as f64);
    let characterize = args.workload == "characterize";

    m.insert("run.rounds", rounds.len() as f64);
    m.insert("run.fail_ratio", ratio(failed as f64, jobs as f64));
    let p50 = |rs: &[Round]| percentile(&job_floor_ms(rs), 50.0).unwrap_or(0.0);
    let (traced_p50, plain_p50) = (p50(rounds), p50(plain));
    m.insert("trace.overhead_ms", traced_p50 - plain_p50);
    m.insert(
        "trace.overhead_share",
        ratio(traced_p50 - plain_p50, plain_p50),
    );
    m.insert(
        "fingerprint.match",
        f64::from(u8::from(fingerprint_holds(
            &args.workload,
            args.seed,
            rounds,
        ))),
    );
    for (name, v) in [
        ("sim.newton_iterations", newton),
        ("sim.accepted_steps", accepted),
        ("sim.rejected_steps", rejected),
        ("sim.factorizations", fact),
        ("sim.refactorizations", refact),
        ("sim.device_evals", evals),
    ] {
        m.insert(name, v);
    }
    m.insert("par.workers", w.workers() as f64);
    let busy: Vec<f64> = plain
        .iter()
        .map(|r| busy_ratio(r.busy_ms, r.wall_ms, w.workers()))
        .collect();
    m.insert("par.busy_ratio", median(&busy).unwrap_or(0.0));
    let kernels = kernels::measure();
    for name in [
        "numeric.dense_lu_n12_ns",
        "numeric.dense_lu_n17_ns",
        "numeric.splu_full_n68_ns",
        "numeric.splu_refactor_n68_ns",
        "numeric.splu_solve_n68_ns",
    ] {
        m.insert(name, kernels.get(name));
    }

    if characterize {
        let rigs = mean("charac.response_time_ms") + mean("charac.supply_currents_ms");
        let rigs_round0 = round0("charac.response_time_ms") + round0("charac.supply_currents_ms");
        m.insert(
            "attr.residual_share",
            residual_share(job_ms, &[mean("models.build_ms"), rigs]),
        );
        m.insert("sim.us_per_newton", ratio(rigs_round0 * 1e3, newton));
        for name in FRONTEND.into_iter().chain([
            "models.build_ms",
            "charac.response_time_ms",
            "charac.supply_currents_ms",
        ]) {
            m.insert(name, mean(name));
        }
        m.insert(
            "models.frontend_share",
            ratio(mean("models.build_ms"), job_ms),
        );
        m.insert(
            "charac.rig_failures",
            rounds.iter().map(|r| r.rig_failures).sum::<usize>() as f64,
        );
        // Rig circuits are 12–14-unknown dense systems: one LU per sweep.
        m.insert(
            "numeric.lu_est_share",
            ratio(
                kernels.get("numeric.dense_lu_n12_ns") * newton,
                rigs_round0 * 1e6,
            ),
        );
        return Ok(());
    }

    // A job is building the circuit plus the transient, so the bridge and
    // the engine leave the build unexplained.
    let engine_self = mean("sim.tran_ms") - mean("sim.bridge_stamp_ms");
    m.insert(
        "attr.residual_share",
        residual_share(job_ms, &[mean("sim.bridge_stamp_ms"), engine_self]),
    );
    m.insert("sim.job0_newton_iterations", rounds[0].job0_newton as f64);
    m.insert(
        "sim.step_accept_ratio",
        ratio(accepted, accepted + rejected),
    );
    m.insert("sim.build_ms", mean("sim.build_ms"));
    m.insert("sim.tran_ms", mean("sim.tran_ms"));
    m.insert(
        "sim.us_per_newton",
        ratio(round0("sim.tran_ms") * 1e3, newton),
    );
    m.insert("sim.bridge_stamp_ms", mean("sim.bridge_stamp_ms"));
    m.insert("sim.bridge_stamp_calls", round0("sim.bridge_stamp_calls"));
    m.insert("sim.engine_self_ms", engine_self);
    m.insert("fas.eval_ms", mean("fas.eval_ms"));
    m.insert("fas.eval_calls", round0("fas.eval_calls"));
    m.insert("fas.fd_eval_calls", round0("fas.fd_eval_calls"));
    let tran_ns = round0("sim.tran_ms") * 1e6;
    // Both benches are on the dense path: one LU per Newton iteration.
    let lu_ns = match args.workload.as_str() {
        "comparator-fas" => kernels.get("numeric.dense_lu_n12_ns") * fact,
        _ => kernels.get("numeric.dense_lu_n17_ns") * fact,
    };
    m.insert("numeric.lu_est_share", ratio(lu_ns, tran_ns));
    if args.workload == "comparator-fas" {
        let front = setup_frontend()?;
        for name in FRONTEND.into_iter().chain(["models.build_ms"]) {
            m.insert(name, front.get(name));
        }
        // The model is built in set-up here, so its share is of set-up.
        m.insert(
            "models.frontend_share",
            ratio(front.get("models.build_ms"), setup_s * 1e3),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments() {
        let a = parse("--workload characterize --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!(a.workload, "characterize");
        assert_eq!((a.seed, a.seconds, a.trace), (3, Some(2.0), true));
        assert!(parse("--workload x").is_err());
        assert!(
            parse("--workload x --seed 1").is_err(),
            "--seconds is required"
        );
        assert!(parse("--fingerprint --workload x --seed 1").is_ok());
        assert!(parse("--workload x --seed 1 --trace 2").is_err());
        assert!(parse("--workload x --seed 1 --bogus").is_err());
        assert!(parse("--workload x --seed 1 --seconds -1").is_err());
    }

    #[test]
    fn metrics_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let def = gabm_core::json::Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = def
                .get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap();
                    (s("name"), s("unit"))
                })
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn job_floor_is_each_jobs_fastest_round() {
        let round = |job_ms: &[f64]| Round {
            job_ms: job_ms.to_vec(),
            ..Round::default()
        };
        let rounds = [round(&[3.0, 1.0]), round(&[2.0, 4.0]), round(&[5.0, 2.0])];
        assert_eq!(job_floor_ms(&rounds), [2.0, 1.0]);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", 0.25);
        let o = Outcome {
            attempted: 4,
            failed: 0,
            metrics,
            info: Vec::new(),
        };
        let line = o.result_line(END_TO_END);
        let v = gabm_core::json::Value::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|x| x.as_bool()), Some(true));
        let m = v.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name).unwrap().get("unit").unwrap().as_str(),
                Some(*unit)
            );
        }
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.25)
        );
    }
}
