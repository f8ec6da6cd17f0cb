//! Trace output tests: a golden Chrome trace-event file for a fixed
//! 3-step transient (timestamps zeroed, so the golden pins span names,
//! ordering and nesting), a round-trip parse through the in-tree JSON
//! parser, thread-count invariance of the logical span structure, and an
//! AC sweep's LU counter agreeing with its `SimStats`.
//!
//! Regenerate the golden with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test trace_output
//! ```

use gabm::core::json::Value;
use gabm::sim::analysis::tran::TranSpec;
use gabm::sim::devices::SourceWave;
use gabm::sim::Circuit;
use std::sync::Mutex;

/// Trace state is process-global; tests that enable it must not overlap
/// under the parallel test runner.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Traces a linear resistor-divider transient pinned to exactly three
/// accepted steps (`dt_init = dt_max = tstop/3`, no LTE rejections on a
/// constant solution). Runs on a named thread so the recorded thread
/// name does not depend on the test runner.
fn run_3step(thread_name: &str) -> gabm::trace::Trace {
    gabm::trace::enable();
    std::thread::Builder::new()
        .name(thread_name.into())
        .spawn(|| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
            c.add_resistor("R1", a, b, 1.0e3).unwrap();
            c.add_resistor("R2", b, Circuit::GROUND, 1.0e3).unwrap();
            let tstop = 3.0e-6;
            let spec = TranSpec {
                dt_init: Some(tstop / 3.0),
                dt_max: Some(tstop / 3.0),
                ..TranSpec::new(tstop)
            };
            let r = c.tran(&spec).unwrap();
            assert_eq!(
                r.stats.accepted_steps, 3,
                "fixture must take exactly 3 steps"
            );
            assert_eq!(r.stats.rejected_steps, 0, "fixture must reject nothing");
        })
        .unwrap()
        .join()
        .unwrap();
    gabm::trace::finish()
}

#[test]
fn golden_chrome_json_3step_transient() {
    let _g = lock();
    let trace = run_3step("golden-3step");
    let json = trace.to_chrome_json(true);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/trace_3step.golden.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        json, expected,
        "trace JSON drifted from tests/fixtures/trace_3step.golden.json;\n\
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn three_step_transient_has_expected_span_structure() {
    let _g = lock();
    let trace = run_3step("structure-3step");
    let s = trace.structure();
    assert_eq!(s.get("sim.tran"), Some(&1), "{s:?}");
    assert_eq!(s.get("sim.tran/sim.op"), Some(&1), "{s:?}");
    assert_eq!(s.get("sim.tran/sim.op/sim.newton"), Some(&1), "{s:?}");
    assert_eq!(s.get("sim.tran/sim.tran.step"), Some(&3), "{s:?}");
    assert_eq!(
        s.get("sim.tran/sim.tran.step/sim.newton"),
        Some(&3),
        "{s:?}"
    );
    let counters: std::collections::BTreeMap<&str, u64> = trace
        .counters
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert_eq!(counters.get("sim.tran.accepted"), Some(&3), "{counters:?}");
    assert_eq!(counters.get("sim.tran.rejected"), None, "{counters:?}");
    assert_eq!(
        counters.get("sim.newton.iterations"),
        Some(&4),
        "{counters:?}"
    );
    // Four Newton solves on a small dense system: one full LU each.
    assert_eq!(counters.get("sim.lu.full"), Some(&4), "{counters:?}");
}

/// Every factorization `SimStats` counts is a `sim.lu.full` or
/// `sim.lu.refactor` in the trace, AC sweep points included.
#[test]
fn traced_ac_sweep_counts_every_factorization() {
    use gabm::sim::analysis::ac::{AcSpec, AcSweep};
    use gabm::sim::devices::vsource::Vsource;

    let _g = lock();
    let freqs = vec![1.0, 10.0, 100.0, 1.0e3, 1.0e4];
    let k = freqs.len();
    gabm::trace::enable();
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.add_device(Box::new(
        Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(0.0)).with_ac(1.0),
    ))
    .unwrap();
    c.add_resistor("R1", a, b, 1.0e3).unwrap();
    c.add_capacitor("C1", b, Circuit::GROUND, 1.0e-6);
    let r = c
        .ac(&AcSpec {
            sweep: AcSweep::List(freqs),
        })
        .unwrap();
    let trace = gabm::trace::finish();
    let counter = |name: &str| {
        trace
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v as usize)
    };
    assert_eq!(r.stats.refactorizations, 0);
    assert!(r.stats.factorizations > k, "{:?}", r.stats);
    assert_eq!(
        counter("sim.lu.full"),
        r.stats.factorizations,
        "{:?}",
        trace.counters
    );
}

#[test]
fn chrome_json_round_trips_through_core_json() {
    let _g = lock();
    let trace = run_3step("roundtrip-3step");
    let json = trace.to_chrome_json(false);
    let v = Value::parse(&json).expect("trace JSON parses with core::json");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents is an array");
    // process_name + one thread_name per thread + span events + one C
    // event per counter.
    let expected = 1 + trace.threads.len() + trace.event_count() + trace.counters.len();
    assert_eq!(events.len(), expected);
    let mut begins = 0usize;
    let mut ends = 0usize;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .expect("ph is a string");
        assert!(ev.get("name").and_then(Value::as_str).is_some(), "{ev:?}");
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            "C" | "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(begins, trace.span_count());
    assert_eq!(begins, ends, "begin/end events must balance");
    // The thread the fixture ran on is named in the metadata.
    assert!(json.contains("roundtrip-3step"), "{json}");
}

/// The logical span structure of a deterministic characterization run
/// must not depend on the worker-pool size: pool jobs are detached
/// roots, so a job inlined on the caller (1 thread) and a job on a
/// worker (4 threads) produce the same paths.
#[test]
fn span_structure_is_thread_count_invariant() {
    use gabm::charac::monte_carlo::{monte_carlo_on, Scatter};
    use gabm::charac::{CharacError, ThreadPool};
    use std::collections::BTreeMap;

    let _g = lock();
    let measure = |p: &BTreeMap<String, f64>| -> Result<f64, CharacError> {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
        c.add_resistor("R1", a, b, p["r"])
            .map_err(CharacError::Sim)?;
        c.add_resistor("R2", b, Circuit::GROUND, 1.0e3)
            .map_err(CharacError::Sim)?;
        let op = c.op().map_err(CharacError::Sim)?;
        Ok(op.voltage(b))
    };
    let run = |threads: usize| {
        let mut scatters = BTreeMap::new();
        scatters.insert("r".to_string(), Scatter::new(1.0e3, 0.05));
        let pool = ThreadPool::new(threads);
        gabm::trace::enable();
        monte_carlo_on(&pool, &scatters, 6, 1994, measure).expect("MC runs");
        gabm::trace::finish()
    };
    let serial = run(1);
    let pooled = run(4);
    assert_eq!(
        serial.structure(),
        pooled.structure(),
        "span structure changed with the pool size"
    );
    // Work counters from the deterministic layers agree too.
    let sim_counters = |t: &gabm::trace::Trace| -> Vec<(String, u64)> {
        t.counters
            .iter()
            .filter(|(k, _)| k.starts_with("sim."))
            .cloned()
            .collect()
    };
    assert_eq!(sim_counters(&serial), sim_counters(&pooled));
    let jobs = serial.structure()["par.job"];
    assert_eq!(jobs, 6, "one detached par.job root per sample");
}
