//! The behavioural bridge: couples an arbitrary pin-current model (e.g. a
//! compiled FAS program) into the Newton iteration.
//!
//! This is the crate's analogue of ELDO's FAS runtime. A
//! [`BehavioralModel`] reads its pin voltages and returns the currents it
//! imposes on each pin — exactly the probe/generator interface-element
//! semantics of the paper's §3.1a. The wrapping [`BehavioralDevice`]
//! linearizes the model — with the exact Jacobian from
//! [`BehavioralModel::eval_with_jacobian`] (the FAS executors' forward-mode
//! AD), or by finite differences for a model without one or at an iterate
//! where the exact tangents are not finite — and stamps Norton companions so
//! the coupled behavioural/electrical system converges like any other
//! nonlinear circuit.

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Mode, Stamper, StateView, Unknown};
use crate::SimError;
use gabm_numeric::Complex64;
use std::fmt;

/// Evaluation context handed to behavioural models.
///
/// Mirrors the simulator variables a FAS model may access: the analysis
/// `mode`, the current `time` and the current time step `dt` (the paper's
/// slew-rate construct divides by "the current time step of the simulation
/// engine").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalCtx {
    /// `true` during DC solves — time derivatives must evaluate to zero,
    /// matching the generated `if (mode = dc)` branches.
    pub mode_dc: bool,
    /// Simulated time (0 in DC).
    pub time: f64,
    /// Current step size (0 in DC).
    pub dt: f64,
    /// Analysis temperature in kelvin.
    pub temperature: f64,
}

/// A behavioural model: computes the current *into each pin* from the pin
/// voltages.
///
/// Implementations must be **pure with respect to committed state** during
/// [`BehavioralModel::eval`] and [`BehavioralModel::eval_with_jacobian`]:
/// the engine calls them once or more per Newton iteration (`pins + 1`
/// times for a finite-difference Jacobian) and across rejected steps.
/// State (delays, previous values) is only committed in
/// [`BehavioralModel::accept`].
pub trait BehavioralModel: fmt::Debug {
    /// Number of electrical pins.
    fn pin_count(&self) -> usize;

    /// Computes `currents[k]` = current flowing *into* the model through pin
    /// `k`, given `pin_voltages[k]`.
    fn eval(&mut self, ctx: &EvalCtx, pin_voltages: &[f64], currents: &mut [f64]);

    /// Computes currents **and** the exact pin Jacobian
    /// `jacobian[k·n + j] = ∂i_k/∂v_j` in one pass (e.g. by forward-mode
    /// automatic differentiation). Returns `false` when unsupported, in
    /// which case the device falls back to `pins + 1` finite-difference
    /// evaluations per Newton iteration — the dominant cost of behavioural
    /// simulation, so implementing this is how a model earns the paper's
    /// §5 speedup.
    fn eval_with_jacobian(
        &mut self,
        _ctx: &EvalCtx,
        _pin_voltages: &[f64],
        _currents: &mut [f64],
        _jacobian: &mut [f64],
    ) -> bool {
        false
    }

    /// Commits internal state after an accepted time point.
    fn accept(&mut self, ctx: &EvalCtx, pin_voltages: &[f64]);

    /// Called before every Newton solve (optional hook).
    fn begin_solve(&mut self) {}
}

/// MNA device wrapping a [`BehavioralModel`].
#[derive(Debug)]
pub struct BehavioralDevice {
    name: String,
    pins: Vec<NodeId>,
    model: Box<dyn BehavioralModel>,
    // Scratch buffers reused across iterations.
    v: Vec<f64>,
    i0: Vec<f64>,
    i_pert: Vec<f64>,
    // The pin Jacobian of the last stamp, `jac[k·n + j] = ∂i_k/∂v_j`, and
    // its per-pin gmin floor: the resistive small-signal linearization
    // replayed by stamp_ac.
    jac: Vec<f64>,
    gmin_last: f64,
}

/// Relative perturbation used for the finite-difference Jacobian.
const FD_REL: f64 = 1e-6;
/// Absolute perturbation floor (volts).
const FD_ABS: f64 = 1e-6;

impl BehavioralDevice {
    /// Wraps `model`, connecting its pins to `pins` in order.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] if the pin counts disagree.
    pub fn new(
        name: &str,
        pins: &[NodeId],
        model: Box<dyn BehavioralModel>,
    ) -> Result<Self, SimError> {
        if pins.len() != model.pin_count() {
            return Err(SimError::BadParameter {
                device: name.to_string(),
                message: format!(
                    "model has {} pins, {} nodes supplied",
                    model.pin_count(),
                    pins.len()
                ),
            });
        }
        let n = pins.len();
        Ok(BehavioralDevice {
            name: name.to_string(),
            pins: pins.to_vec(),
            model,
            v: vec![0.0; n],
            i0: vec![0.0; n],
            i_pert: vec![0.0; n],
            jac: vec![0.0; n * n],
            gmin_last: 0.0,
        })
    }

    fn ctx_of(s_mode: Mode, temperature: f64) -> EvalCtx {
        match s_mode {
            Mode::Dc => EvalCtx {
                mode_dc: true,
                time: 0.0,
                dt: 0.0,
                temperature,
            },
            Mode::Tran { time, coeffs } => EvalCtx {
                mode_dc: false,
                time,
                dt: coeffs.dt(),
                temperature,
            },
        }
    }
}

impl Device for BehavioralDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn begin_solve(&mut self) {
        self.model.begin_solve();
    }

    fn stamp(&mut self, s: &mut Stamper) {
        let n = self.pins.len();
        let ctx = Self::ctx_of(s.mode, s.temperature);
        for (k, pin) in self.pins.iter().enumerate() {
            self.v[k] = s.v(*pin);
        }
        // Jacobian G[k][j] = ∂i_k/∂v_j in `jac`: analytic (one AD
        // evaluation) when the model supports it, finite differences
        // (pins + 1 evaluations) otherwise; stamp i(v) ≈ i0 + G·(v_new − v0).
        //
        // KCL: the current into the model leaves node k, so the matrix gets
        // +G and the right-hand side −(i0 − G·v0).
        let analytic = self
            .model
            .eval_with_jacobian(&ctx, &self.v, &mut self.i0, &mut self.jac);
        // At pathological iterates (e.g. a 1/T model evaluated at T = 0)
        // exact derivative propagation can produce non-finite tangents where
        // the value itself is still benign; fall back to finite differences
        // for that iteration, which inherit the value's saturation.
        if !analytic
            || self.jac.iter().any(|g| !g.is_finite())
            || self.i0.iter().any(|i| !i.is_finite())
        {
            self.model.eval(&ctx, &self.v, &mut self.i0);
            for j in 0..n {
                let vj = self.v[j];
                let dv = FD_ABS.max(vj.abs() * FD_REL);
                self.v[j] = vj + dv;
                self.model.eval(&ctx, &self.v, &mut self.i_pert);
                self.v[j] = vj;
                for k in 0..n {
                    self.jac[k * n + j] = (self.i_pert[k] - self.i0[k]) / dv;
                }
            }
        }
        for (k, pin) in self.pins.iter().enumerate() {
            let node = Unknown::Node(*pin);
            let row = &self.jac[k * n..(k + 1) * n];
            let mut gv0 = 0.0;
            for (j, &g) in row.iter().enumerate() {
                if g != 0.0 {
                    s.add(node, Unknown::Node(self.pins[j]), g);
                    gv0 += g * self.v[j];
                }
            }
            s.add_rhs(node, -(self.i0[k] - gv0));
        }
        // gmin floor: in saturated model regions (current limiters, clipped
        // rails) the Jacobian row is exactly zero and the pin
        // would float; the junction-conductance floor keeps the MNA matrix
        // non-singular, exactly as ELDO's GMIN does for devices.
        let gmin = s.gmin;
        self.gmin_last = gmin;
        for &pin in &self.pins {
            s.stamp_conductance(pin, crate::circuit::Circuit::GROUND, gmin);
        }
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        // Resistive small-signal model from the last (operating-point)
        // linearization: the exact Jacobian, or its finite-difference
        // stand-in where the model has none. Reactive behaviour inside the
        // model (its `state.dt` terms) vanishes at the DC point, so AC
        // through behavioural devices sees conductances only — documented
        // limitation; use the transient frequency-response rig for full
        // dynamics.
        let n = self.pins.len();
        for (k, pin) in self.pins.iter().enumerate() {
            for (j, &g) in self.jac[k * n..(k + 1) * n].iter().enumerate() {
                if g != 0.0 {
                    s.add(
                        Unknown::Node(*pin),
                        Unknown::Node(self.pins[j]),
                        Complex64::from_real(g),
                    );
                }
            }
        }
        let gmin = Complex64::from_real(self.gmin_last);
        for pin in &self.pins {
            s.add(Unknown::Node(*pin), Unknown::Node(*pin), gmin);
        }
    }

    fn accept_step(&mut self, state: &StateView<'_>) {
        let ctx = Self::ctx_of(state.mode, state.temperature);
        for (k, pin) in self.pins.iter().enumerate() {
            self.v[k] = state.v(*pin);
        }
        self.model.accept(&ctx, &self.v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A behavioural resistor-to-ground on each pin plus a cross
    /// transconductance: i0 = g·v0 + gm·v1, i1 = g·v1.
    #[derive(Debug)]
    struct TestModel {
        g: f64,
        gm: f64,
        accepted: usize,
    }

    impl BehavioralModel for TestModel {
        fn pin_count(&self) -> usize {
            2
        }
        fn eval(&mut self, _ctx: &EvalCtx, v: &[f64], i: &mut [f64]) {
            i[0] = self.g * v[0] + self.gm * v[1];
            i[1] = self.g * v[1];
        }
        fn accept(&mut self, _ctx: &EvalCtx, _v: &[f64]) {
            self.accepted += 1;
        }
    }

    #[test]
    fn pin_count_checked() {
        let m = Box::new(TestModel {
            g: 1.0,
            gm: 0.0,
            accepted: 0,
        });
        let err = BehavioralDevice::new("X1", &[NodeId::from_index(1)], m).unwrap_err();
        assert!(matches!(err, SimError::BadParameter { .. }));
    }

    #[test]
    fn jacobian_matches_model() {
        let m = Box::new(TestModel {
            g: 1e-3,
            gm: 2e-3,
            accepted: 0,
        });
        let pins = [NodeId::from_index(1), NodeId::from_index(2)];
        let mut dev = BehavioralDevice::new("X1", &pins, m).unwrap();
        let mut s = Stamper::new(2, 0, Mode::Dc);
        s.reset(&[1.0, 2.0], Mode::Dc);
        dev.stamp(&mut s);
        let (mat, rhs) = s.finish();
        // The current into the model leaves the node, so the conductances
        // appear with positive sign on the left-hand side.
        assert!((mat[(0, 0)] - 1e-3).abs() < 1e-9, "got {}", mat[(0, 0)]);
        assert!((mat[(0, 1)] - 2e-3).abs() < 1e-9);
        assert!((mat[(1, 1)] - 1e-3).abs() < 1e-9);
        // The model is linear ⇒ the affine offset must vanish.
        assert!(rhs[0].abs() < 1e-9);
        assert!(rhs[1].abs() < 1e-9);
    }

    /// Records the temperature every call sees; a 1 mS conductance.
    #[derive(Debug)]
    struct TempProbe(std::rc::Rc<std::cell::RefCell<Vec<(&'static str, f64)>>>);

    impl BehavioralModel for TempProbe {
        fn pin_count(&self) -> usize {
            1
        }
        fn eval(&mut self, _ctx: &EvalCtx, v: &[f64], i: &mut [f64]) {
            i[0] = 1e-3 * v[0];
        }
        fn eval_with_jacobian(
            &mut self,
            ctx: &EvalCtx,
            v: &[f64],
            i: &mut [f64],
            jac: &mut [f64],
        ) -> bool {
            self.0
                .borrow_mut()
                .push(("eval_with_jacobian", ctx.temperature));
            i[0] = 1e-3 * v[0];
            jac[0] = 1e-3;
            true
        }
        fn accept(&mut self, ctx: &EvalCtx, _v: &[f64]) {
            self.0.borrow_mut().push(("accept", ctx.temperature));
        }
    }

    #[test]
    fn model_sees_the_analysis_temperature() {
        use crate::analysis::tran::TranSpec;
        use crate::circuit::Circuit;
        use crate::devices::SourceWave;
        let seen = std::rc::Rc::default();
        let mut c = Circuit::new();
        c.options.temperature = 350.0;
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
        c.add_resistor("R1", a, b, 1e3).unwrap();
        c.add_behavioral("X1", &[b], Box::new(TempProbe(std::rc::Rc::clone(&seen))))
            .unwrap();
        c.tran(&TranSpec::new(1e-6)).unwrap();
        let seen = seen.borrow();
        for call in ["eval_with_jacobian", "accept"] {
            assert!(seen.iter().any(|&(c, _)| c == call), "{call} never called");
        }
        assert!(seen.iter().all(|&(_, t)| t == 350.0), "{seen:?}");
    }

    #[test]
    fn accept_commits() {
        let m = Box::new(TestModel {
            g: 1.0,
            gm: 0.0,
            accepted: 0,
        });
        let pins = [NodeId::from_index(1), NodeId::from_index(2)];
        let mut dev = BehavioralDevice::new("X1", &pins, m).unwrap();
        let x = [0.5, 0.25];
        let sv = StateView {
            x: &x,
            n_nodes: 2,
            time: 0.0,
            mode: Mode::Dc,
            temperature: 300.15,
        };
        dev.accept_step(&sv);
        // Downcast not available; observe via Debug formatting.
        let dbg = format!("{dev:?}");
        assert!(dbg.contains("accepted: 1"), "{dbg}");
    }
}
