//! Junction diode with pn-junction voltage limiting.

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Stamper, StateView};
use gabm_numeric::integrate::History;
use gabm_numeric::newton::{critical_voltage, pnjlim};
use gabm_numeric::Complex64;

/// Diode model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiodeParams {
    /// Saturation current (A).
    pub is: f64,
    /// Emission coefficient (ideality factor).
    pub n: f64,
    /// Junction capacitance at zero bias (F); stamped as a constant
    /// capacitance (no bias dependence).
    pub cj0: f64,
}

impl Default for DiodeParams {
    fn default() -> Self {
        DiodeParams {
            is: 1e-14,
            n: 1.0,
            cj0: 0.0,
        }
    }
}

/// A pn-junction diode: `i = Is·(exp(v/(n·Vt)) − 1) + gmin·v`.
///
/// The per-iteration junction voltage is limited with the classic SPICE
/// `pnjlim` to keep the exponential bounded (part of the "simulation
/// expertise" the paper's §4 note asks the code generator to bake in).
#[derive(Debug, Clone)]
pub struct Diode {
    name: String,
    anode: NodeId,
    cathode: NodeId,
    params: DiodeParams,
    /// Junction voltage used in the previous iteration (for limiting).
    v_iter: f64,
    /// Small-signal conductance at the last computed point (for AC).
    gd_last: f64,
    // Committed junction voltage, for the junction capacitance.
    history: History,
}

impl Diode {
    /// Creates a diode from `anode` to `cathode`.
    pub fn new(name: &str, anode: NodeId, cathode: NodeId, params: DiodeParams) -> Self {
        Diode {
            name: name.to_string(),
            anode,
            cathode,
            params,
            v_iter: 0.0,
            gd_last: 0.0,
            history: History::default(),
        }
    }

    /// Current and conductance at junction voltage `v`.
    fn iv(&self, v: f64, vt_eff: f64, gmin: f64) -> (f64, f64) {
        // Clip the exponent: beyond this the limiter should have fired, but a
        // hard cap makes the device safe under any iterate.
        let x = (v / vt_eff).min(200.0);
        let e = x.exp();
        let i = self.params.is * (e - 1.0) + gmin * v;
        let g = self.params.is * e / vt_eff + gmin;
        (i, g)
    }
}

impl Device for Diode {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn begin_solve(&mut self) {
        // Start each solve from a mildly forward-biased guess so that the
        // limiter has a sensible reference.
        self.v_iter = self.v_iter.clamp(-10.0, 0.8);
    }

    fn stamp(&mut self, s: &mut Stamper) {
        let vt_eff = self.params.n * s.vt;
        let v_raw = s.v(self.anode) - s.v(self.cathode);
        let v_crit = critical_voltage(self.params.is, vt_eff);
        let v = pnjlim(v_raw, self.v_iter, vt_eff, v_crit);
        if (v - v_raw).abs() > 1e-15 {
            s.mark_limited();
        }
        self.v_iter = v;
        let (i, g) = self.iv(v, vt_eff, s.gmin);
        self.gd_last = g;
        // Norton companion: i(v) ≈ i0 + g·(v_new − v) ⇒ source i0 − g·v.
        s.stamp_conductance(self.anode, self.cathode, g);
        s.stamp_current(self.anode, self.cathode, i - g * v);
        // Constant junction capacitance in transient.
        if self.params.cj0 > 0.0 {
            s.stamp_capacitance(self.anode, self.cathode, self.params.cj0, &self.history);
        }
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        let y = Complex64::new(self.gd_last, s.omega * self.params.cj0);
        s.stamp_admittance(self.anode, self.cathode, y);
    }

    fn accept_step(&mut self, state: &StateView<'_>) {
        let v = state.v(self.anode) - state.v(self.cathode);
        self.v_iter = v;
        state.commit(&mut self.history, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Mode;

    fn stamper_at(v: f64) -> Stamper {
        let mut s = Stamper::new(1, 0, Mode::Dc);
        s.reset(&[v], Mode::Dc);
        s
    }

    #[test]
    fn reverse_bias_leaks_gmin() {
        let a = NodeId::from_index(1);
        let mut d = Diode::new("D1", a, NodeId::ground(), DiodeParams::default());
        let mut s = stamper_at(-5.0);
        d.stamp(&mut s);
        let (m, _) = s.finish();
        // Conductance ≈ gmin in reverse bias.
        assert!(m[(0, 0)] < 1e-11, "g = {}", m[(0, 0)]);
    }

    #[test]
    fn forward_bias_conducts() {
        let a = NodeId::from_index(1);
        let mut d = Diode::new("D1", a, NodeId::ground(), DiodeParams::default());
        d.v_iter = 0.6;
        let mut s = stamper_at(0.6);
        d.stamp(&mut s);
        let (m, _) = s.finish();
        // ~1e-14 · e^{0.6/0.02585} / 0.02585 ≈ large conductance.
        assert!(m[(0, 0)] > 1e-5, "g = {}", m[(0, 0)]);
    }

    #[test]
    fn wild_iterate_is_limited() {
        let a = NodeId::from_index(1);
        let mut d = Diode::new("D1", a, NodeId::ground(), DiodeParams::default());
        d.v_iter = 0.6;
        let mut s = stamper_at(50.0);
        d.stamp(&mut s);
        assert!(s.was_limited());
        // The limited voltage stays near the junction scale.
        assert!(d.v_iter < 2.0, "v_iter = {}", d.v_iter);
    }

    #[test]
    fn iv_consistency() {
        let a = NodeId::from_index(1);
        let d = Diode::new("D1", a, NodeId::ground(), DiodeParams::default());
        let (i, g) = d.iv(0.6, 0.02585, 1e-12);
        // Finite-difference check of the conductance.
        let (i2, _) = d.iv(0.6001, 0.02585, 1e-12);
        let g_fd = (i2 - i) / 0.0001;
        assert!((g - g_fd).abs() / g < 1e-2, "g={g}, fd={g_fd}");
    }

    #[test]
    fn accept_commits_voltage() {
        let a = NodeId::from_index(1);
        let mut d = Diode::new("D1", a, NodeId::ground(), DiodeParams::default());
        let x = [0.7];
        let sv = StateView {
            x: &x,
            n_nodes: 1,
            time: 0.0,
            mode: Mode::Dc,
            temperature: 300.15,
        };
        d.accept_step(&sv);
        assert_eq!(d.v_iter, 0.7);
        assert_eq!(d.history, History { x: 0.7, dx: 0.0 });
    }
}
