//! Linear inductor (one extra MNA branch).

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Mode, Stamper, StateView, Unknown};
use crate::SimError;
use gabm_numeric::integrate::History;
use gabm_numeric::Complex64;

/// A two-terminal linear inductor.
///
/// Carries its current as an extra MNA unknown. DC: a short circuit
/// (`v_a − v_b = 0`); transient: `v_a − v_b = L·di/dt` via the trapezoidal
/// companion model.
#[derive(Debug, Clone)]
pub struct Inductor {
    name: String,
    a: NodeId,
    b: NodeId,
    henries: f64,
    branch: usize,
    // Committed branch current from the last accepted time point.
    history: History,
}

impl Inductor {
    /// Creates an inductor of `henries` between `a` and `b`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] unless `henries > 0` and finite.
    pub fn new(name: &str, a: NodeId, b: NodeId, henries: f64) -> Result<Self, SimError> {
        if !(henries > 0.0 && henries.is_finite()) {
            return Err(SimError::BadParameter {
                device: name.to_string(),
                message: format!("inductance must be positive and finite, got {henries}"),
            });
        }
        Ok(Inductor {
            name: name.to_string(),
            a,
            b,
            henries,
            branch: usize::MAX,
            history: History::default(),
        })
    }

    /// Inductance in henries.
    pub fn henries(&self) -> f64 {
        self.henries
    }
}

impl Device for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_branches(&self) -> usize {
        1
    }

    fn set_branch_base(&mut self, base: usize) {
        self.branch = base;
    }

    fn branch_index(&self) -> Option<usize> {
        Some(self.branch)
    }

    fn stamp(&mut self, s: &mut Stamper) {
        let br = Unknown::Branch(self.branch);
        let na = Unknown::Node(self.a);
        let nb = Unknown::Node(self.b);
        // KCL: branch current leaves a, enters b.
        s.add(na, br, 1.0);
        s.add(nb, br, -1.0);
        // Branch equation.
        s.add(br, na, 1.0);
        s.add(br, nb, -1.0);
        match s.mode {
            Mode::Dc => {
                // v_a - v_b = 0 — nothing more to stamp.
            }
            Mode::Tran { coeffs, .. } => {
                // v_a - v_b - L(coeff0·i + hist) = 0.
                s.add(br, br, -self.henries * coeffs.coeff0);
                s.add_rhs(br, self.henries * self.history.term(&coeffs));
            }
        }
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        let br = Unknown::Branch(self.branch);
        let na = Unknown::Node(self.a);
        let nb = Unknown::Node(self.b);
        s.add(na, br, Complex64::ONE);
        s.add(nb, br, -Complex64::ONE);
        s.add(br, na, Complex64::ONE);
        s.add(br, nb, -Complex64::ONE);
        s.add(br, br, Complex64::new(0.0, -s.omega * self.henries));
    }

    fn accept_step(&mut self, state: &StateView<'_>) {
        let i = state.branch_current(self.branch);
        state.commit(&mut self.history, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_numeric::integrate::Coefficients;

    #[test]
    fn rejects_bad_values() {
        let a = NodeId::from_index(1);
        assert!(Inductor::new("L", a, NodeId::ground(), 0.0).is_err());
        assert!(Inductor::new("L", a, NodeId::ground(), -1.0).is_err());
    }

    #[test]
    fn dc_stamp_is_short() {
        let a = NodeId::from_index(1);
        let mut l = Inductor::new("L1", a, NodeId::ground(), 1e-3).unwrap();
        l.set_branch_base(0);
        assert_eq!(l.branch_index(), Some(0));
        let mut s = Stamper::new(1, 1, Mode::Dc);
        l.stamp(&mut s);
        let (m, rhs) = s.finish();
        // KCL column and branch row, no branch-branch term in DC.
        assert_eq!(m[(0, 1)], 1.0);
        assert_eq!(m[(1, 0)], 1.0);
        assert_eq!(m[(1, 1)], 0.0);
        assert_eq!(rhs[1], 0.0);
    }

    #[test]
    fn tran_stamp_includes_l_terms() {
        let a = NodeId::from_index(1);
        let mut l = Inductor::new("L1", a, NodeId::ground(), 2e-3).unwrap();
        l.set_branch_base(0);
        l.history = History { x: 1.0, dx: 0.0 };
        let coeffs = Coefficients::new(1e-3);
        let mode = Mode::Tran { time: 1e-3, coeffs };
        let mut s = Stamper::new(1, 1, mode);
        s.reset(&[0.0, 1.0], mode);
        l.stamp(&mut s);
        let (m, rhs) = s.finish();
        // -2L/dt = -4.0 on the branch diagonal.
        assert!((m[(1, 1)] + 4.0).abs() < 1e-12);
        // rhs = L·(-2·i_prev/dt - di/dt) = -4.0.
        assert!((rhs[1] + 4.0).abs() < 1e-12);
    }

    #[test]
    fn accept_tracks_current() {
        let a = NodeId::from_index(1);
        let mut l = Inductor::new("L1", a, NodeId::ground(), 1e-3).unwrap();
        l.set_branch_base(0);
        let x = [0.0, 0.5];
        let sv = StateView {
            x: &x,
            n_nodes: 1,
            time: 0.0,
            mode: Mode::Dc,
            temperature: 300.15,
        };
        l.accept_step(&sv);
        assert_eq!(l.history, History { x: 0.5, dx: 0.0 });
    }
}
