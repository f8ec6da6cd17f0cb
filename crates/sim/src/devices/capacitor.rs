//! Linear capacitor with companion-model transient stamping.

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Mode, Stamper, StateView};
use gabm_numeric::integrate::History;
use gabm_numeric::Complex64;

/// A two-terminal linear capacitor.
///
/// In DC analyses the capacitor is an open circuit (plus a tiny `gmin` leak
/// keeping otherwise-floating nodes solvable). In transient analyses it
/// stamps the trapezoidal companion model `i = C·(coeff0·v + history)`.
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    farads: f64,
    // Committed branch voltage from the last accepted time point.
    history: History,
}

impl Capacitor {
    /// Creates a capacitor of `farads` between `a` and `b`. Negative values
    /// are clamped to zero (a zero capacitor only stamps its DC leak).
    pub fn new(name: &str, a: NodeId, b: NodeId, farads: f64) -> Self {
        Capacitor {
            name: name.to_string(),
            a,
            b,
            farads: farads.max(0.0),
            history: History::default(),
        }
    }

    /// Capacitance in farads.
    pub fn farads(&self) -> f64 {
        self.farads
    }

    /// Committed branch voltage from the last accepted point (test hook).
    pub fn committed_voltage(&self) -> f64 {
        self.history.x
    }
}

impl Device for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&mut self, s: &mut Stamper) {
        match s.mode {
            Mode::Dc => {
                // Open in DC; leak keeps cap-only nodes non-singular.
                let g = s.gmin;
                s.stamp_conductance(self.a, self.b, g);
            }
            Mode::Tran { .. } => s.stamp_capacitance(self.a, self.b, self.farads, &self.history),
        }
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        let y = Complex64::new(0.0, s.omega * self.farads);
        s.stamp_admittance(self.a, self.b, y);
    }

    fn accept_step(&mut self, state: &StateView<'_>) {
        let v = state.v(self.a) - state.v(self.b);
        state.commit(&mut self.history, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_numeric::integrate::Coefficients;

    #[test]
    fn dc_stamp_is_leak_only() {
        let a = NodeId::from_index(1);
        let mut c = Capacitor::new("C1", a, NodeId::ground(), 1e-6);
        let mut s = Stamper::new(1, 0, Mode::Dc);
        s.gmin = 1e-12;
        c.stamp(&mut s);
        let (m, rhs) = s.finish();
        assert!((m[(0, 0)] - 1e-12).abs() < 1e-24);
        assert_eq!(rhs[0], 0.0);
    }

    #[test]
    fn tran_stamp_trapezoidal() {
        let a = NodeId::from_index(1);
        let mut c = Capacitor::new("C1", a, NodeId::ground(), 1e-6);
        // Committed state: 2 V across the cap, rising at 1 V/ms.
        c.history = History { x: 2.0, dx: 1e3 };
        let coeffs = Coefficients::new(1e-3);
        let mode = Mode::Tran { time: 1e-3, coeffs };
        let mut s = Stamper::new(1, 0, mode);
        s.reset(&[2.0], mode);
        c.stamp(&mut s);
        let (m, rhs) = s.finish();
        // geq = 2C/dt = 2e-3; ieq = C·(-2·vprev/dt - dvdt) = -5e-3 leaving
        // node a.
        assert!((m[(0, 0)] - 2e-3).abs() < 1e-15);
        assert!((rhs[0] - 5e-3).abs() < 1e-15);
    }

    #[test]
    fn accept_rotates_history() {
        let a = NodeId::from_index(1);
        let mut c = Capacitor::new("C1", a, NodeId::ground(), 1e-6);
        let coeffs = Coefficients::new(1.0);
        let x = [3.0];
        let sv = StateView {
            x: &x,
            n_nodes: 1,
            time: 1.0,
            mode: Mode::Tran { time: 1.0, coeffs },
            temperature: 300.15,
        };
        c.accept_step(&sv);
        assert_eq!(c.committed_voltage(), 3.0);
        // Trapezoid from rest: dv/dt = 2·(3-0)/1 - 0 = 6.
        assert!((c.history.dx - 6.0).abs() < 1e-15);
    }

    #[test]
    fn dc_accept_clears_derivative() {
        let a = NodeId::from_index(1);
        let mut c = Capacitor::new("C1", a, NodeId::ground(), 1e-6);
        c.history.dx = 42.0;
        let x = [1.5];
        let sv = StateView {
            x: &x,
            n_nodes: 1,
            time: 0.0,
            mode: Mode::Dc,
            temperature: 300.15,
        };
        c.accept_step(&sv);
        assert_eq!(c.history.dx, 0.0);
        assert_eq!(c.committed_voltage(), 1.5);
    }

    #[test]
    fn negative_capacitance_clamped() {
        let c = Capacitor::new("C", NodeId::from_index(1), NodeId::ground(), -1.0);
        assert_eq!(c.farads(), 0.0);
    }

    #[test]
    fn ac_admittance() {
        let a = NodeId::from_index(1);
        let mut c = Capacitor::new("C1", a, NodeId::ground(), 1e-6);
        let omega = 2.0 * std::f64::consts::PI * 1000.0;
        let mut s = AcStamper::new(1, 0, omega);
        c.stamp_ac(&mut s);
        let (m, _) = s.finish();
        assert!((m[(0, 0)].im - omega * 1e-6).abs() < 1e-12);
        assert_eq!(m[(0, 0)].re, 0.0);
    }
}
