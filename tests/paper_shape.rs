//! Shape assertions for the paper's evaluation (E8 Fig. 7 and E9 timing):
//! the behavioural comparator must agree with the transistor circuit on
//! every strobed decision, and must cost less to simulate.

use gabm::sim::analysis::tran::TranSpec;
use gabm::sim::devices::{BehavioralModel, EvalCtx};
use gabm_bench::experiments::comparator_bench::{
    behavioural_comparator_circuit_around, behavioural_comparator_spec,
};
use gabm_bench::{behavioural_comparator_circuit, cmos_comparator_circuit, ComparatorStimulus};
use std::cell::Cell;
use std::rc::Rc;

#[test]
fn fig7_decisions_agree_and_behavioural_is_cheaper() {
    let stim = ComparatorStimulus::default();
    let tstop = 40.0e-6;

    let (mut beh, bn) = behavioural_comparator_circuit(&stim).unwrap();
    let rb = beh.tran(&TranSpec::new(tstop)).unwrap();
    let w_beh = rb.voltage_waveform(bn[3]).unwrap();

    let (mut cmos, cn) = cmos_comparator_circuit(&stim).unwrap();
    let rc = cmos.tran(&TranSpec::new(tstop)).unwrap();
    let w_cmos = rc.voltage_waveform(cn[3]).unwrap();

    let mut agree = 0;
    let mut total = 0;
    for (lo, hi) in stim.strobe_windows(tstop) {
        let t = 0.5 * (lo + hi);
        let vb = w_beh.value_at(t).unwrap();
        let vc = w_cmos.value_at(t).unwrap();
        if vb.abs() > 0.5 && vc.abs() > 0.5 {
            total += 1;
            if vb.signum() == vc.signum() {
                agree += 1;
            }
        }
    }
    assert!(total >= 3, "too few comparable strobe windows ({total})");
    assert_eq!(agree, total, "only {agree}/{total} decisions agree");

    // E9: the behavioural model needs less Newton work (the paper's 4.9 s
    // vs 15.2 s in machine-independent terms).
    let work_beh = rb.stats.newton_iterations * beh.n_unknowns();
    let work_cmos = rc.stats.newton_iterations * cmos.n_unknowns();
    assert!(
        work_cmos as f64 > 1.5 * work_beh as f64,
        "expected >=1.5x work ratio, got beh={work_beh}, cmos={work_cmos}"
    );
}

/// The §4 note: behavioural models full of `if…then…else` discontinuities
/// must not break the transient engine — the run completes and every
/// accepted point is finite.
#[test]
fn discontinuities_do_not_break_convergence() {
    let stim = ComparatorStimulus {
        input_freq: 100.0e3,
        strobe_period: 5.0e-6,
        strobe_width: 2.0e-6,
        ..ComparatorStimulus::default()
    };
    let (mut beh, bn) = behavioural_comparator_circuit(&stim).unwrap();
    let r = beh.tran(&TranSpec::new(30.0e-6)).unwrap();
    let w = r.voltage_waveform(bn[3]).unwrap();
    assert!(w.values().iter().all(|v| v.is_finite()));
    assert!(r.stats.accepted_steps > 50);
}

/// Counts the calls the behavioural bridge makes into the model it wraps.
#[derive(Debug)]
struct Counting {
    inner: Box<dyn BehavioralModel>,
    /// Plain `eval` calls: the bridge's finite-difference path.
    evals: Rc<Cell<usize>>,
    /// `eval_with_jacobian` calls: the analytic path.
    jacobian_evals: Rc<Cell<usize>>,
}

impl BehavioralModel for Counting {
    fn pin_count(&self) -> usize {
        self.inner.pin_count()
    }

    fn eval(&mut self, ctx: &EvalCtx, v: &[f64], i: &mut [f64]) {
        self.evals.set(self.evals.get() + 1);
        self.inner.eval(ctx, v, i);
    }

    fn eval_with_jacobian(
        &mut self,
        ctx: &EvalCtx,
        v: &[f64],
        i: &mut [f64],
        j: &mut [f64],
    ) -> bool {
        self.jacobian_evals.set(self.jacobian_evals.get() + 1);
        self.inner.eval_with_jacobian(ctx, v, i, j)
    }

    fn accept(&mut self, ctx: &EvalCtx, v: &[f64]) {
        self.inner.accept(ctx, v);
    }

    fn begin_solve(&mut self) {
        self.inner.begin_solve();
    }
}

/// The Fig. 7 bench linearizes the FAS comparator analytically on every
/// Newton iteration of its operating point and transient: the bridge's
/// finite-difference path never runs, so deleting it costs this bench
/// nothing.
#[test]
fn fig7_bench_never_takes_the_finite_difference_path() {
    let stim = ComparatorStimulus::default();
    let evals = Rc::new(Cell::new(0));
    let jacobian_evals = Rc::new(Cell::new(0));
    let model = Counting {
        inner: behavioural_comparator_spec(&stim).machine().unwrap(),
        evals: Rc::clone(&evals),
        jacobian_evals: Rc::clone(&jacobian_evals),
    };
    let (mut ckt, _) = behavioural_comparator_circuit_around(&stim, Box::new(model)).unwrap();
    let r = ckt.tran(&TranSpec::new(60.0e-6)).unwrap();
    assert!(r.stats.device_evals > 0);
    assert_eq!(evals.get(), 0, "finite-difference evaluations");
    assert_eq!(jacobian_evals.get(), r.stats.device_evals);
}
