//! Level-1 (Shichman–Hodges) MOSFET.
//!
//! The era-accurate transistor model for the paper's 11-MOS CMOS comparator
//! baseline: square-law drain current with channel-length modulation and
//! body effect, plus constant gate capacitances for transient dynamics.

use crate::circuit::NodeId;
use crate::device::{AcStamper, Device, Stamper, StateView, Unknown};
use crate::SimError;
use gabm_numeric::integrate::History;
use gabm_numeric::Complex64;

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Level-1 model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosfetParams {
    /// Zero-bias threshold voltage (V). Positive for NMOS, negative for PMOS
    /// by SPICE convention; the sign is handled internally, so pass e.g.
    /// `-0.8` for a PMOS.
    pub vto: f64,
    /// Transconductance parameter KP = µ·Cox (A/V²).
    pub kp: f64,
    /// Channel-length modulation λ (1/V).
    pub lambda: f64,
    /// Body-effect coefficient γ (√V).
    pub gamma: f64,
    /// Surface potential 2φF (V).
    pub phi: f64,
    /// Channel width (m).
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Constant gate–source capacitance (F).
    pub cgs: f64,
    /// Constant gate–drain capacitance (F).
    pub cgd: f64,
    /// Constant gate–bulk capacitance (F).
    pub cgb: f64,
}

impl Default for MosfetParams {
    fn default() -> Self {
        MosfetParams {
            vto: 0.8,
            kp: 50e-6,
            lambda: 0.02,
            gamma: 0.4,
            phi: 0.65,
            w: 10e-6,
            l: 1e-6,
            cgs: 0.0,
            cgd: 0.0,
            cgb: 0.0,
        }
    }
}

/// DC solution of the square-law equations at one bias point.
#[derive(Debug, Clone, Copy, Default)]
struct MosOp {
    ids: f64,
    gm: f64,
    gds: f64,
    gmbs: f64,
}

/// A four-terminal level-1 MOSFET (drain, gate, source, bulk).
#[derive(Debug, Clone)]
pub struct Mosfet {
    name: String,
    mos_type: MosType,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    b: NodeId,
    params: MosfetParams,
    beta: f64,
    // NMOS-space bias of the previous iteration, for step limiting.
    vgs_iter: f64,
    vds_iter: f64,
    // Last linearization (for AC).
    op_last: MosOp,
    swapped_last: bool,
    // Committed gate–source, gate–drain and gate–bulk voltages.
    cgs_history: History,
    cgd_history: History,
    cgb_history: History,
}

/// Maximum per-iteration change of the NMOS-space gate and drain voltages
/// before the device clamps the step (simplified `fetlim`).
const MAX_FET_STEP: f64 = 0.5;

impl Mosfet {
    /// Creates a level-1 MOSFET.
    ///
    /// # Errors
    ///
    /// [`SimError::BadParameter`] for non-positive `W`, `L` or `KP`.
    pub fn new(
        name: &str,
        mos_type: MosType,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        params: MosfetParams,
    ) -> Result<Self, SimError> {
        if params.w <= 0.0 || params.l <= 0.0 || params.kp <= 0.0 {
            return Err(SimError::BadParameter {
                device: name.to_string(),
                message: "W, L and KP must be positive".to_string(),
            });
        }
        let beta = params.kp * params.w / params.l;
        Ok(Mosfet {
            name: name.to_string(),
            mos_type,
            d,
            g,
            s,
            b,
            params,
            beta,
            vgs_iter: 0.0,
            vds_iter: 0.0,
            op_last: MosOp::default(),
            swapped_last: false,
            cgs_history: History::default(),
            cgd_history: History::default(),
            cgb_history: History::default(),
        })
    }

    fn polarity(&self) -> f64 {
        match self.mos_type {
            MosType::Nmos => 1.0,
            MosType::Pmos => -1.0,
        }
    }

    /// Square-law evaluation in NMOS space (`vds >= 0` assumed).
    fn square_law(&self, vgs: f64, vds: f64, vbs: f64) -> MosOp {
        let p = &self.params;
        // Body effect: vth = vto' + γ(√(φ − vbs) − √φ), with vto' the
        // NMOS-space magnitude of the threshold.
        let vto = p.vto * self.polarity();
        let phi_vbs = (p.phi - vbs).max(1e-6);
        let sqrt_phi_vbs = phi_vbs.sqrt();
        let vth = vto + p.gamma * (sqrt_phi_vbs - p.phi.max(0.0).sqrt());
        let dvth_dvbs = -p.gamma / (2.0 * sqrt_phi_vbs);
        let vov = vgs - vth;
        if vov <= 0.0 {
            return MosOp::default();
        }
        let clm = 1.0 + p.lambda * vds;
        if vds < vov {
            // Linear (triode) region.
            let ids = self.beta * (vov * vds - 0.5 * vds * vds) * clm;
            let gm = self.beta * vds * clm;
            let gds = self.beta * ((vov - vds) * clm + (vov * vds - 0.5 * vds * vds) * p.lambda);
            let gmbs = gm * (-dvth_dvbs);
            MosOp { ids, gm, gds, gmbs }
        } else {
            // Saturation.
            let ids = 0.5 * self.beta * vov * vov * clm;
            let gm = self.beta * vov * clm;
            let gds = 0.5 * self.beta * vov * vov * p.lambda;
            let gmbs = gm * (-dvth_dvbs);
            MosOp { ids, gm, gds, gmbs }
        }
    }

    fn limit(&mut self, vgs: f64, vds: f64, s: &mut Stamper) -> (f64, f64) {
        let mut out = (vgs, vds);
        if (vgs - self.vgs_iter).abs() > 2.0 * MAX_FET_STEP {
            out.0 = self.vgs_iter + MAX_FET_STEP * (vgs - self.vgs_iter).signum();
            s.mark_limited();
        }
        if (vds - self.vds_iter).abs() > 2.0 * MAX_FET_STEP {
            out.1 = self.vds_iter + MAX_FET_STEP * (vds - self.vds_iter).signum();
            s.mark_limited();
        }
        self.vgs_iter = out.0;
        self.vds_iter = out.1;
        out
    }
}

impl Device for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp(&mut self, st: &mut Stamper) {
        let p = self.polarity();
        let (vd, vg, vs, vb) = (st.v(self.d), st.v(self.g), st.v(self.s), st.v(self.b));
        // Source/drain swap so the effective vds is non-negative in NMOS
        // space.
        let swapped = p * (vd - vs) < 0.0;
        let (nd, ns) = if swapped {
            (self.s, self.d)
        } else {
            (self.d, self.s)
        };
        let (vd_e, vs_e) = if swapped { (vs, vd) } else { (vd, vs) };
        let vgs_raw = p * (vg - vs_e);
        let vds_raw = p * (vd_e - vs_e);
        let vbs = p * (vb - vs_e);
        let (vgs, vds) = self.limit(vgs_raw, vds_raw, st);
        let op = self.square_law(vgs, vds, vbs.min(0.0));
        self.op_last = op;
        self.swapped_last = swapped;

        let gm = op.gm;
        let gds = op.gds + st.gmin;
        let gmbs = op.gmbs;
        let gss = gm + gds + gmbs;
        let i_d = p * op.ids; // physical current into effective drain

        let (und, uns) = (Unknown::Node(nd), Unknown::Node(ns));
        let ung = Unknown::Node(self.g);
        let unb = Unknown::Node(self.b);
        // Jacobian (identical signs for NMOS/PMOS after the p-flips cancel).
        st.add(und, ung, gm);
        st.add(und, und, gds);
        st.add(und, unb, gmbs);
        st.add(und, uns, -gss);
        st.add(uns, ung, -gm);
        st.add(uns, und, -gds);
        st.add(uns, unb, -gmbs);
        st.add(uns, uns, gss);
        // Norton right-hand side. Note the linearization uses the *limited*
        // bias, so reconstruct terminal voltages from it.
        let vg_lin = vs_e + p * vgs;
        let vd_lin = vs_e + p * vds;
        let ieq = i_d - gm * vg_lin - gds * vd_lin - gmbs * vb + gss * vs_e;
        st.add_rhs(und, -ieq);
        st.add_rhs(uns, ieq);

        // Gate capacitances (physical terminals, not swapped).
        for (c, other, h) in [
            (self.params.cgs, self.s, &self.cgs_history),
            (self.params.cgd, self.d, &self.cgd_history),
            (self.params.cgb, self.b, &self.cgb_history),
        ] {
            if c <= 0.0 {
                continue;
            }
            st.stamp_capacitance(self.g, other, c, h);
        }
    }

    fn stamp_ac(&mut self, s: &mut AcStamper) {
        // Small-signal model about the last linearization. Terminal roles
        // follow the last swap state.
        let (nd, ns) = if self.swapped_last {
            (self.s, self.d)
        } else {
            (self.d, self.s)
        };
        let op = self.op_last;
        let (und, uns) = (Unknown::Node(nd), Unknown::Node(ns));
        let ung = Unknown::Node(self.g);
        let unb = Unknown::Node(self.b);
        let gm = Complex64::from_real(op.gm);
        let gds = Complex64::from_real(op.gds);
        let gmbs = Complex64::from_real(op.gmbs);
        let gss = gm + gds + gmbs;
        s.add(und, ung, gm);
        s.add(und, und, gds);
        s.add(und, unb, gmbs);
        s.add(und, uns, -gss);
        s.add(uns, ung, -gm);
        s.add(uns, und, -gds);
        s.add(uns, unb, -gmbs);
        s.add(uns, uns, gss);
        s.stamp_admittance(
            self.g,
            self.s,
            Complex64::new(0.0, s.omega * self.params.cgs),
        );
        s.stamp_admittance(
            self.g,
            self.d,
            Complex64::new(0.0, s.omega * self.params.cgd),
        );
        s.stamp_admittance(
            self.g,
            self.b,
            Complex64::new(0.0, s.omega * self.params.cgb),
        );
    }

    fn accept_step(&mut self, state: &StateView<'_>) {
        let (vd, vg, vs, vb) = (
            state.v(self.d),
            state.v(self.g),
            state.v(self.s),
            state.v(self.b),
        );
        let p = self.polarity();
        // Refresh limiting references in NMOS space of the (possibly
        // swapped) configuration.
        let swapped = p * (vd - vs) < 0.0;
        let vs_e = if swapped { vd } else { vs };
        let vd_e = if swapped { vs } else { vd };
        self.vgs_iter = p * (vg - vs_e);
        self.vds_iter = p * (vd_e - vs_e);
        state.commit(&mut self.cgs_history, vg - vs);
        state.commit(&mut self.cgd_history, vg - vd);
        state.commit(&mut self.cgb_history, vg - vb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Mode;

    fn nmos() -> Mosfet {
        Mosfet::new(
            "M1",
            MosType::Nmos,
            NodeId::from_index(1), // d
            NodeId::from_index(2), // g
            NodeId::ground(),      // s
            NodeId::ground(),      // b
            MosfetParams {
                lambda: 0.0,
                gamma: 0.0,
                ..MosfetParams::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_geometry() {
        let p = MosfetParams {
            w: 0.0,
            ..MosfetParams::default()
        };
        assert!(Mosfet::new(
            "M",
            MosType::Nmos,
            NodeId::from_index(1),
            NodeId::from_index(2),
            NodeId::ground(),
            NodeId::ground(),
            p
        )
        .is_err());
    }

    #[test]
    fn cutoff_region() {
        let m = nmos();
        let op = m.square_law(0.5, 1.0, 0.0); // vgs < vto = 0.8
        assert_eq!(op.ids, 0.0);
        assert_eq!(op.gm, 0.0);
    }

    #[test]
    fn saturation_current_square_law() {
        let m = nmos();
        // beta = 50e-6 * 10 = 5e-4; vov = 1.0 ⇒ ids = 0.5·5e-4 = 2.5e-4.
        let op = m.square_law(1.8, 3.0, 0.0);
        assert!((op.ids - 2.5e-4).abs() < 1e-9, "ids = {}", op.ids);
        assert!((op.gm - 5e-4).abs() < 1e-9);
        assert_eq!(op.gds, 0.0); // lambda = 0
    }

    #[test]
    fn triode_region() {
        let m = nmos();
        // vov = 1.0, vds = 0.5 < vov ⇒ triode.
        let op = m.square_law(1.8, 0.5, 0.0);
        let expect = 5e-4 * (1.0 * 0.5 - 0.125);
        assert!((op.ids - expect).abs() < 1e-9);
        assert!(op.gds > 0.0);
    }

    #[test]
    fn current_continuity_at_pinchoff() {
        let m = nmos();
        let below = m.square_law(1.8, 1.0 - 1e-9, 0.0);
        let above = m.square_law(1.8, 1.0 + 1e-9, 0.0);
        assert!((below.ids - above.ids).abs() < 1e-9);
        assert!((below.gm - above.gm).abs() < 1e-9);
    }

    #[test]
    fn body_effect_raises_threshold() {
        let mut m = nmos();
        m.params.gamma = 0.4;
        let no_bias = m.square_law(1.8, 3.0, 0.0);
        let reverse = m.square_law(1.8, 3.0, -2.0);
        assert!(reverse.ids < no_bias.ids);
        assert!(reverse.gmbs > 0.0);
    }

    #[test]
    fn gm_matches_finite_difference() {
        let m = nmos();
        let op = m.square_law(1.8, 3.0, 0.0);
        let dv = 1e-6;
        let ids2 = m.square_law(1.8 + dv, 3.0, 0.0).ids;
        let gm_fd = (ids2 - op.ids) / dv;
        assert!((op.gm - gm_fd).abs() / op.gm < 1e-4);
    }

    #[test]
    fn lambda_gives_output_conductance() {
        let mut m = nmos();
        m.params.lambda = 0.05;
        let op = m.square_law(1.8, 3.0, 0.0);
        let dv = 1e-6;
        let ids2 = m.square_law(1.8, 3.0 + dv, 0.0).ids;
        let gds_fd = (ids2 - op.ids) / dv;
        assert!((op.gds - gds_fd).abs() / op.gds < 1e-3);
    }

    #[test]
    fn stamp_in_saturation_produces_current() {
        let mut m = nmos();
        let mode = Mode::Dc;
        let mut s = Stamper::new(2, 0, mode);
        // vd = 3 V, vg = 1.8 V.
        s.reset(&[3.0, 1.8], mode);
        m.vgs_iter = 1.8;
        m.vds_iter = 3.0;
        m.stamp(&mut s);
        let (mat, rhs) = s.finish();
        // gm entry row d (index 0), col g (index 1).
        assert!((mat[(0, 1)] - 5e-4).abs() < 1e-9);
        // The companion model must reproduce ids at the linearization point:
        // G·v − rhs = current leaving node d = ids = 2.5e-4 A.
        let i_left = mat[(0, 0)] * 3.0 + mat[(0, 1)] * 1.8 - rhs[0];
        assert!((i_left - 2.5e-4).abs() < 1e-8, "i = {i_left}");
    }

    #[test]
    fn pmos_mirror_symmetry() {
        // A PMOS with vto = -0.8 biased with vsg = 1.8, vsd = 3 must mirror
        // the NMOS current.
        let m = Mosfet::new(
            "MP",
            MosType::Pmos,
            NodeId::from_index(1),
            NodeId::from_index(2),
            NodeId::ground(),
            NodeId::ground(),
            MosfetParams {
                vto: -0.8,
                lambda: 0.0,
                gamma: 0.0,
                ..MosfetParams::default()
            },
        )
        .unwrap();
        // NMOS-space: vgs = p·(vg − vs) with p = −1 … square_law sees the
        // magnitudes directly.
        let op = m.square_law(1.8, 3.0, 0.0);
        assert!((op.ids - 2.5e-4).abs() < 1e-9);
    }

    #[test]
    fn limiting_fires_on_big_steps() {
        let mut m = nmos();
        m.vgs_iter = 0.0;
        m.vds_iter = 0.0;
        let mode = Mode::Dc;
        let mut s = Stamper::new(2, 0, mode);
        s.reset(&[10.0, 10.0], mode);
        m.stamp(&mut s);
        assert!(s.was_limited());
        assert!(m.vgs_iter <= MAX_FET_STEP + 1e-12);
    }
}
