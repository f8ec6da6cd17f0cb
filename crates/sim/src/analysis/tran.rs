//! Adaptive-step transient analysis.
//!
//! Implements the variable-time-interval engine the paper's §3.3 note
//! presupposes: the implicit trapezoidal rule, Newton at every candidate
//! point, local-truncation-error step control, breakpoint handling at source
//! corners and shorter retries on convergence failures (the "simulation
//! expertise" of §4's note on discontinuities). The whole step policy is
//! the private `StepPolicy`.

use crate::analysis::engine::{newton_solve, SolveSetup};
use crate::analysis::op::solve_op;
use crate::analysis::Solutions;
use crate::circuit::{Circuit, NodeId};
use crate::device::{Mode, StateView, Unknown};
use crate::options::SimStats;
use crate::SimError;
use gabm_numeric::integrate::{local_truncation_error, Coefficients};
use gabm_numeric::Waveform;

/// Specification of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TranSpec {
    /// Stop time in seconds.
    pub tstop: f64,
    /// Initial/seed step (default `tstop / 1000`).
    pub dt_init: Option<f64>,
    /// Smallest allowed step (default `tstop · 1e-9`).
    pub dt_min: Option<f64>,
    /// Largest allowed step (default `tstop / 50`).
    pub dt_max: Option<f64>,
}

impl TranSpec {
    /// Creates a spec with default step bounds.
    pub fn new(tstop: f64) -> Self {
        TranSpec {
            tstop,
            dt_init: None,
            dt_min: None,
            dt_max: None,
        }
    }

    /// Builder-style maximum-step override.
    pub fn with_dt_max(mut self, dt_max: f64) -> Self {
        self.dt_max = Some(dt_max);
        self
    }
}

/// Result of a transient analysis: the full solution at every accepted time
/// point.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    states: Solutions<f64>,
    /// Work counters for the whole run.
    pub stats: SimStats,
}

impl TranResult {
    /// Accepted time points (starting at 0).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no points were stored.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage of `node` at stored point `idx`.
    pub fn voltage_at(&self, idx: usize, node: NodeId) -> f64 {
        self.states.at(idx, Unknown::Node(node))
    }

    /// Branch current by global index at stored point `idx`.
    pub fn branch_current_at(&self, idx: usize, branch: usize) -> f64 {
        self.states.at(idx, Unknown::Branch(branch))
    }

    /// The voltage of `node` over time as a [`Waveform`].
    ///
    /// # Errors
    ///
    /// [`SimError::MissingResult`] if the run stored no points.
    pub fn voltage_waveform(&self, node: NodeId) -> Result<Waveform, SimError> {
        self.waveform(Unknown::Node(node))
    }

    /// The current of global `branch` over time as a [`Waveform`].
    ///
    /// # Errors
    ///
    /// [`SimError::MissingResult`] if the run stored no points.
    pub fn branch_waveform(&self, branch: usize) -> Result<Waveform, SimError> {
        self.waveform(Unknown::Branch(branch))
    }

    /// Current waveform through a named branch device (voltage source or
    /// inductor).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDevice`] for devices without a branch current.
    pub fn current_waveform(&self, circuit: &Circuit, device: &str) -> Result<Waveform, SimError> {
        self.branch_waveform(circuit.branch_of(device)?)
    }

    fn waveform(&self, u: Unknown) -> Result<Waveform, SimError> {
        if self.is_empty() {
            return Err(SimError::MissingResult("empty transient result".into()));
        }
        let values = (0..self.len()).map(|i| self.states.at(i, u)).collect();
        Waveform::from_samples(self.times.clone(), values)
            .map_err(|e| SimError::BadAnalysis(e.to_string()))
    }
}

/// Relative tolerance used when merging breakpoints.
const BP_MERGE: f64 = 1e-12;

/// The most points one analysis may store (time points, DC or AC sweep
/// points). A transient needing more has collapsed its step (or has a
/// source with more corners than this) and fails rather than filling
/// memory; a sweep asking for more fails before it runs.
pub const MAX_TIME_POINTS: usize = 2_000_000;

pub(crate) fn solve_tran(circuit: &mut Circuit, spec: &TranSpec) -> Result<TranResult, SimError> {
    if !(spec.tstop > 0.0 && spec.tstop.is_finite()) {
        return Err(SimError::BadAnalysis(format!(
            "tstop must be positive, got {}",
            spec.tstop
        )));
    }
    for (field, value) in [
        ("dt_init", spec.dt_init),
        ("dt_min", spec.dt_min),
        ("dt_max", spec.dt_max),
    ] {
        if let Some(v) = value.filter(|v| !(*v > 0.0 && v.is_finite())) {
            return Err(SimError::BadAnalysis(format!(
                "{field} must be positive and finite, got {v}"
            )));
        }
    }
    let _span = gabm_trace::span("sim.tran");
    let tstop = spec.tstop;
    let mut policy = StepPolicy::new(spec, circuit.options.tran_tol);
    let layout = circuit.layout();

    // Initial condition: DC operating point, committed into device state.
    let op_result = solve_op(circuit)?;
    let mut stats = op_result.stats;
    let mut times = vec![0.0];
    let mut states = Solutions::new(layout);
    states.push(op_result.solution());
    if layout.n_unknowns() == 0 {
        return Ok(TranResult {
            times,
            states,
            stats,
        });
    }

    // Breakpoints from all devices, merged and sorted. Every corner costs a
    // time point, so a device with more corners than the budget fails here,
    // before the run.
    let mut breakpoints = Vec::new();
    for d in circuit.devices() {
        let corners = d.breakpoints(tstop);
        if corners.len() > MAX_TIME_POINTS {
            return Err(SimError::BadParameter {
                device: d.name().to_string(),
                message: format!(
                    "more than {MAX_TIME_POINTS} waveform corners before tstop = {tstop:e}"
                ),
            });
        }
        breakpoints.extend(corners);
    }
    breakpoints.push(tstop);
    breakpoints.sort_by(|a, b| a.partial_cmp(b).expect("breakpoints are finite"));
    breakpoints.dedup_by(|a, b| (*a - *b).abs() <= BP_MERGE * tstop);
    let mut bp_iter = breakpoints.into_iter().peekable();

    // The Newton iterate: the last accepted point in, the candidate out.
    let mut x = op_result.solution().to_vec();
    let mut dt_prev = 0.0f64;
    let mut t = 0.0f64;

    while t < tstop * (1.0 - 1e-12) {
        // Advance past consumed breakpoints.
        while let Some(&bp) = bp_iter.peek() {
            if bp <= t * (1.0 + BP_MERGE) + policy.dt_min * 0.5 {
                bp_iter.next();
            } else {
                break;
            }
        }
        let next_bp = bp_iter.peek().copied().unwrap_or(tstop);
        let (dt, hit_bp) = policy.propose(t, next_bp, tstop);
        let coeffs = Coefficients::new(dt);
        let mode = Mode::Tran {
            time: t + dt,
            coeffs,
        };
        let last = times.len() - 1;
        x.copy_from_slice(states.point(last));
        let step_span = gabm_trace::span("sim.tran.step");
        let solved = newton_solve(circuit, mode, &mut x, SolveSetup::default(), &mut stats);
        drop(step_span);
        let accepted = match solved {
            Err(e @ (SimError::SingularMatrix { .. } | SimError::NonFinite { .. })) => {
                return Err(e);
            }
            Err(_) => {
                policy.newton_failed(t)?;
                false
            }
            Ok(_) => {
                // Local truncation error over node voltages, against the
                // last two accepted points.
                let mut lte_max = 0.0f64;
                if dt_prev > 0.0 {
                    let (x1, x2) = (states.point(last), states.point(last - 1));
                    let h_prev = times[last] - times[last - 1];
                    for i in 0..layout.n_nodes {
                        let lte = local_truncation_error(dt, x[i], x1[i], x2[i], h_prev);
                        lte_max = lte_max.max(lte);
                    }
                }
                policy.judge(lte_max, dt, hit_bp)
            }
        };
        if !accepted {
            stats.rejected_steps += 1;
            gabm_trace::add("sim.tran.rejected", 1);
            continue;
        }
        let t_new = t + dt;
        let sv = StateView {
            x: &x,
            n_nodes: layout.n_nodes,
            time: t_new,
            mode,
            temperature: circuit.options.temperature,
        };
        for d in circuit.devices_mut() {
            d.accept_step(&sv);
        }
        times.push(t_new);
        states.push(&x);
        stats.accepted_steps += 1;
        gabm_trace::add("sim.tran.accepted", 1);
        t = t_new;
        // A breakpoint is a discontinuity: the next step starts without
        // integration history.
        dt_prev = if hit_bp { 0.0 } else { dt };
        // Runaway guard: an implausible number of points indicates a step
        // collapse; fail loudly rather than filling memory.
        if times.len() > MAX_TIME_POINTS {
            return Err(SimError::NoConvergence {
                analysis: "tran",
                detail: format!("more than {MAX_TIME_POINTS} time points at t = {t:.3e}"),
            });
        }
    }

    Ok(TranResult {
        times,
        states,
        stats,
    })
}

/// The variable-step policy of the transient: the step each attempt starts
/// from, whether a converged step is kept, and the step after every outcome.
#[derive(Debug)]
struct StepPolicy {
    /// Step the next attempt starts from, before breakpoint clipping.
    dt: f64,
    dt_init: f64,
    dt_min: f64,
    dt_max: f64,
    /// Largest local truncation error a kept step may carry.
    tol: f64,
}

impl StepPolicy {
    /// Starts at `dt_init` (default `tstop / 1000`) within
    /// `dt_min ≤ dt_init ≤ dt_max` (defaults `tstop · 1e-9`, `tstop / 50`);
    /// `spec` has been validated.
    fn new(spec: &TranSpec, tol: f64) -> Self {
        let tstop = spec.tstop;
        let dt_init = spec.dt_init.unwrap_or(tstop / 1000.0);
        StepPolicy {
            dt: dt_init,
            dt_init,
            dt_min: spec.dt_min.unwrap_or(tstop * 1e-9).min(dt_init),
            dt_max: spec.dt_max.unwrap_or(tstop / 50.0).max(dt_init),
            tol,
        }
    }

    /// The step to attempt from `t`, and whether it ends on `next_bp`: a
    /// step reaching within `dt_min / 2` of the breakpoint is cut or
    /// stretched to end exactly on it, and no step passes `tstop`.
    fn propose(&self, t: f64, next_bp: f64, tstop: f64) -> (f64, bool) {
        let mut dt = self.dt;
        let mut hit_bp = false;
        if t + dt >= next_bp - self.dt_min * 0.5 {
            dt = next_bp - t;
            hit_bp = true;
        }
        if t + dt > tstop {
            dt = tstop - t;
        }
        (dt, hit_bp)
    }

    /// Newton failed on the step from `t`: retry with an eighth of the
    /// step, or fail once the step is already at `dt_min`.
    fn newton_failed(&mut self, t: f64) -> Result<(), SimError> {
        if self.dt <= self.dt_min * (1.0 + 1e-12) {
            return Err(SimError::TimestepTooSmall { time: t });
        }
        self.dt = (self.dt / 8.0).max(self.dt_min);
        Ok(())
    }

    /// Judges the converged step `taken` by its largest local truncation
    /// error `lte`, sets the next step and returns whether `taken` is kept.
    /// Above `tol` (and above `dt_min`) the next step shrinks by
    /// `√(tol/lte)`, clamped to 0.1–0.5, and `taken` is rejected unless it
    /// was within 1.5·`dt_min`. Otherwise the next step grows by
    /// `(tol/lte)^0.33`, clamped to 1–2, up to `dt_max`. A kept step that
    /// ends on a breakpoint (`hit_bp`) restarts the next one at `dt_init`.
    fn judge(&mut self, lte: f64, taken: f64, hit_bp: bool) -> bool {
        if lte > self.tol && self.dt > self.dt_min {
            let shrink = (self.tol / lte).powf(0.5).clamp(0.1, 0.5);
            self.dt = (self.dt * shrink).max(self.dt_min);
            if taken > self.dt_min * 1.5 {
                return false;
            }
        } else {
            let grow = if lte <= 0.0 {
                2.0
            } else {
                (self.tol / lte).powf(0.33).clamp(1.0, 2.0)
            };
            self.dt = (self.dt * grow).min(self.dt_max);
        }
        if hit_bp {
            self.dt = self.dt_init;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWave;

    #[test]
    fn rejects_bad_tstop() {
        let mut c = Circuit::new();
        assert!(c.tran(&TranSpec::new(0.0)).is_err());
        assert!(c.tran(&TranSpec::new(-1.0)).is_err());
    }

    /// An RC low-pass driven by a 1 V step at t = 0.
    fn rc_step() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            SourceWave::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0),
        );
        c.add_resistor("R1", a, b, 1.0e3).unwrap();
        c.add_capacitor("C1", b, Circuit::GROUND, 1.0e-6);
        c
    }

    #[test]
    fn rejects_bad_step_bounds() {
        for (field, spec) in [
            (
                "dt_init",
                TranSpec {
                    dt_init: Some(0.0),
                    ..TranSpec::new(1e-6)
                },
            ),
            (
                "dt_min",
                TranSpec {
                    dt_min: Some(-1.0),
                    ..TranSpec::new(1e-6)
                },
            ),
            (
                "dt_init",
                TranSpec {
                    dt_init: Some(f64::NAN),
                    ..TranSpec::new(1e-6)
                },
            ),
            ("dt_max", TranSpec::new(1e-6).with_dt_max(f64::INFINITY)),
        ] {
            match rc_step().tran(&spec) {
                Err(SimError::BadAnalysis(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field}: expected BadAnalysis, got {other:?}"),
            }
        }
    }

    /// A policy at `dt = dt_init = 1 µs` within [1 ns, 1 ms], `tol = 1e-4`.
    fn policy() -> StepPolicy {
        let spec = TranSpec {
            dt_init: Some(1e-6),
            dt_min: Some(1e-9),
            dt_max: Some(1e-3),
            ..TranSpec::new(1e-2)
        };
        StepPolicy::new(&spec, 1e-4)
    }

    #[test]
    fn policy_defaults_follow_tstop() {
        let p = StepPolicy::new(&TranSpec::new(1.0), 1e-4);
        assert_eq!((p.dt, p.dt_init), (1e-3, 1e-3));
        assert_eq!((p.dt_min, p.dt_max), (1e-9, 1.0 / 50.0));
        // The bounds widen to include an explicit initial step.
        let spec = TranSpec {
            dt_init: Some(1.0),
            dt_min: Some(2.0),
            ..TranSpec::new(1.0)
        };
        let p = StepPolicy::new(&spec, 1e-4);
        assert_eq!((p.dt_min, p.dt, p.dt_max), (1.0, 1.0, 1.0));
    }

    #[test]
    fn policy_growth_is_capped_at_twice_and_dt_max() {
        let mut p = policy();
        assert!(p.judge(0.0, 1e-6, false));
        assert_eq!(p.dt, 2e-6);
        assert!(p.judge(1e-30, 2e-6, false));
        assert_eq!(p.dt, 4e-6);
        // (tol/lte)^0.33 below the cap.
        assert!(p.judge(1e-4 / 8.0, 4e-6, false));
        assert!((p.dt / 4e-6 - 8f64.powf(0.33)).abs() < 1e-12, "{}", p.dt);
        // An error at the tolerance keeps the step.
        let dt = p.dt;
        assert!(p.judge(1e-4, dt, false));
        assert_eq!(p.dt, dt);
        p.dt = 0.8e-3;
        assert!(p.judge(0.0, 0.8e-3, false));
        assert_eq!(p.dt, 1e-3);
    }

    #[test]
    fn policy_shrinks_by_a_half_to_a_tenth_and_rejects() {
        let mut p = policy();
        assert!(!p.judge(1e-4 * 1.01, 1e-6, false));
        assert_eq!(p.dt, 0.5e-6);
        assert!(!p.judge(1e-4 * 16.0, 0.5e-6, false));
        assert_eq!(p.dt, 0.5e-6 * 0.25);
        assert!(!p.judge(1.0, 0.125e-6, false));
        assert_eq!(p.dt, 0.125e-6 * 0.1);
        // The shrunken step stops at dt_min.
        p.dt = 5e-9;
        assert!(!p.judge(1.0, 5e-9, false));
        assert_eq!(p.dt, 1e-9);
    }

    #[test]
    fn policy_keeps_steps_near_dt_min_despite_their_error() {
        // At dt_min the error is not checked: the step is kept, and the
        // next one stays at dt_min.
        let mut p = policy();
        p.dt = 1e-9;
        assert!(p.judge(1.0, 1e-9, false));
        assert_eq!(p.dt, 1e-9);
        // Above dt_min the next step shrinks, but a step taken within
        // 1.5·dt_min (here cut short by a breakpoint) is kept.
        p.dt = 1e-6;
        assert!(p.judge(1.0, 1.4e-9, false));
        assert_eq!(p.dt, 1e-6 * 0.1);
        assert!(!p.judge(1.0, 1.6e-9, false));
    }

    #[test]
    fn policy_newton_failure_cuts_by_eight_down_to_dt_min() {
        let mut p = policy();
        p.dt = 16e-9;
        p.newton_failed(0.0).unwrap();
        assert_eq!(p.dt, 2e-9);
        p.newton_failed(0.0).unwrap();
        assert_eq!(p.dt, 1e-9);
        match p.newton_failed(3e-6) {
            Err(SimError::TimestepTooSmall { time }) => assert_eq!(time, 3e-6),
            other => panic!("expected TimestepTooSmall, got {other:?}"),
        }
        assert_eq!(p.dt, 1e-9);
    }

    #[test]
    fn policy_lands_on_breakpoints_and_restarts_after_them() {
        let mut p = policy();
        // Far from the breakpoint the step is the policy's own.
        assert_eq!(p.propose(0.0, 1e-3, 1e-2), (1e-6, false));
        // A step ending within dt_min/2 of it is stretched onto it.
        assert_eq!(p.propose(0.0, 1.0004e-6, 1e-2), (1.0004e-6, true));
        // A longer step is cut to end on it; tstop caps every step.
        assert_eq!(p.propose(0.0, 0.25e-6, 1e-2), (0.25e-6, true));
        assert_eq!(p.propose(0.5e-6, 2e-6, 1e-6), (0.5e-6, false));
        // A kept step on a breakpoint restarts at dt_init, even one kept
        // near dt_min after its error shrank the step.
        p.dt = 1e-4;
        assert!(p.judge(0.0, 1e-4, true));
        assert_eq!(p.dt, 1e-6);
        p.dt = 1e-4;
        assert!(p.judge(1.0, 1.2e-9, true));
        assert_eq!(p.dt, 1e-6);
        // A rejected one does not.
        p.dt = 1e-4;
        assert!(!p.judge(1.0, 1e-4, true));
        assert_eq!(p.dt, 1e-4 * 0.1);
    }

    #[test]
    fn identical_runs_have_equal_stats() {
        let a = rc_step().tran(&TranSpec::new(5.0e-3)).unwrap();
        let b = rc_step().tran(&TranSpec::new(5.0e-3)).unwrap();
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.accepted_steps > 0);
    }

    #[test]
    fn a_source_with_too_many_corners_is_an_error() {
        // A 1e-21 s period puts ~4e18 corners before tstop; enumerating
        // them used to exhaust memory.
        let src = "t\nV1 a 0 PULSE(0 1 0 1n 1n 1n 1e-21)\nR1 a 0 1k\n";
        let mut c = crate::netlist::parse_netlist(src).unwrap();
        match c.tran(&TranSpec::new(1e-3)) {
            Err(SimError::BadParameter { device, message }) => {
                assert_eq!(device, "V1");
                assert!(message.contains("corners"), "{message}");
            }
            other => panic!("expected BadParameter, got {other:?}"),
        }
    }

    #[test]
    fn rc_charge_curve() {
        let mut c = rc_step();
        let b = c.find_node("b").unwrap();
        let r = c.tran(&TranSpec::new(5.0e-3)).unwrap();
        let w = r.voltage_waveform(b).unwrap();
        // v(t) = 1 − e^{−t/RC}; at t = 1 ms = 1 RC: 0.632.
        let v_tau = w.value_at(1.0e-3).unwrap();
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        // At t = 5 RC the exact value is 1 − e⁻⁵ ≈ 0.99326.
        let v_end = *w.values().last().unwrap();
        assert!((v_end - 0.99326).abs() < 2e-3, "v(end) = {v_end}");
    }

    #[test]
    fn sine_through_rc_attenuates() {
        // 1 kHz sine, RC pole at 159 Hz → gain ≈ 0.157.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::sine(0.0, 1.0, 1.0e3));
        c.add_resistor("R1", a, b, 1.0e3).unwrap();
        c.add_capacitor("C1", b, Circuit::GROUND, 1.0e-6);
        let r = c.tran(&TranSpec::new(5.0e-3)).unwrap();
        let w = r.voltage_waveform(b).unwrap();
        // Steady-state amplitude over the last two cycles.
        let tail: Vec<f64> = w
            .times()
            .iter()
            .zip(w.values())
            .filter(|(t, _)| **t > 3.0e-3)
            .map(|(_, v)| *v)
            .collect();
        let peak = tail.iter().cloned().fold(0.0f64, f64::max);
        let expect = 1.0 / (1.0 + (2.0 * std::f64::consts::PI * 1.0e3 * 1.0e-3).powi(2)).sqrt();
        assert!((peak - expect).abs() < 0.05, "peak {peak} vs {expect}");
    }

    #[test]
    fn lc_oscillation_frequency() {
        // An LC tank kicked by an initial inductor current via a pulse.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource(
            "I1",
            Circuit::GROUND,
            a,
            SourceWave::pulse(0.0, 1e-3, 0.0, 1e-9, 1e-9, 1e-4, 1.0),
        );
        c.add_inductor("L1", a, Circuit::GROUND, 1.0e-3).unwrap();
        c.add_capacitor("C1", a, Circuit::GROUND, 1.0e-6);
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e5).unwrap();
        let r = c.tran(&TranSpec::new(1.0e-3).with_dt_max(2e-6)).unwrap();
        let w = r.voltage_waveform(a).unwrap();
        // f0 = 1/(2π√(LC)) ≈ 5.03 kHz → period 198.7 µs. Count zero
        // crossings in the ringing tail.
        let crossings =
            gabm_numeric::measure::crossings(&w, 0.0, gabm_numeric::measure::Edge::Rising).unwrap();
        assert!(crossings.len() >= 2, "no oscillation detected");
        let period = crossings[crossings.len() - 1] - crossings[crossings.len() - 2];
        assert!((period - 198.7e-6).abs() < 20e-6, "period = {period:.3e} s");
    }

    #[test]
    fn breakpoints_are_hit() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource(
            "V1",
            a,
            Circuit::GROUND,
            SourceWave::pulse(0.0, 1.0, 0.5e-3, 1e-6, 1e-6, 0.2e-3, 0.0),
        );
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        let r = c.tran(&TranSpec::new(1.0e-3)).unwrap();
        // The pulse edges must appear as exact time points.
        let has = |t0: f64| r.times().iter().any(|t| (t - t0).abs() < 1e-12);
        assert!(has(0.5e-3), "missing breakpoint at pulse start");
        assert!(has(0.5e-3 + 1e-6), "missing breakpoint at rise end");
    }

    #[test]
    fn stats_are_populated() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::sine(0.0, 1.0, 1.0e3));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        let r = c.tran(&TranSpec::new(1.0e-3)).unwrap();
        assert!(r.stats.accepted_steps > 10);
        assert!(r.stats.newton_iterations >= r.stats.accepted_steps);
        assert_eq!(r.times().len(), r.stats.accepted_steps + 1);
    }
}
