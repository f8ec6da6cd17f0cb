//! The [`Device`] trait and the MNA [`Stamper`].
//!
//! Every circuit element — primitive or behavioural — participates in the
//! analyses by *stamping* its linearized contribution into the modified nodal
//! analysis (MNA) system once per Newton iteration. The [`Stamper`] hides the
//! unknown numbering (ground elision, branch currents after node voltages)
//! and exposes the current iterate so nonlinear devices can evaluate their
//! companion models.

use crate::circuit::NodeId;
use gabm_numeric::integrate::Coefficients;
use gabm_numeric::{Complex64, DenseMatrix, TripletBuilder};
use std::fmt;

/// An MNA unknown: a node voltage or a branch current.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unknown {
    /// The voltage of a (non-ground) node.
    Node(NodeId),
    /// The current of an extra MNA branch (voltage sources, inductors, …).
    Branch(usize),
}

/// Analysis mode a stamp is requested for.
///
/// Mirrors the FAS `mode` variable that the paper's generated code branches
/// on (`if (mode = dc) then … else … endif`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// DC: capacitors open, inductors short, time derivatives are zero.
    Dc,
    /// Transient at time `time` with the current discretization.
    Tran {
        /// Simulated time of the point being solved.
        time: f64,
        /// Integration coefficients for the current step.
        coeffs: Coefficients,
    },
}

impl Mode {
    /// `true` in DC mode.
    pub fn is_dc(&self) -> bool {
        matches!(self, Mode::Dc)
    }

    /// Simulated time (0 in DC mode).
    pub fn time(&self) -> f64 {
        match self {
            Mode::Dc => 0.0,
            Mode::Tran { time, .. } => *time,
        }
    }

    /// Integration coefficients, if in transient mode.
    pub fn coeffs(&self) -> Option<Coefficients> {
        match self {
            Mode::Dc => None,
            Mode::Tran { coeffs, .. } => Some(*coeffs),
        }
    }
}

/// Backing store for the assembled Jacobian: dense for small systems,
/// coordinate triplets (solved by the sparse LU) above the
/// `sparse_threshold` option.
#[derive(Debug)]
pub(crate) enum MatrixStore {
    /// Dense row-major storage.
    Dense(DenseMatrix<f64>),
    /// Sparse triplet accumulation.
    Sparse(TripletBuilder),
}

impl MatrixStore {
    fn add_at(&mut self, row: usize, col: usize, val: f64) {
        match self {
            MatrixStore::Dense(m) => m.add_at(row, col, val),
            MatrixStore::Sparse(t) => t.push(row, col, val),
        }
    }

    fn clear(&mut self) {
        match self {
            MatrixStore::Dense(m) => m.clear(),
            MatrixStore::Sparse(t) => t.clear(),
        }
    }
}

impl std::ops::Index<(usize, usize)> for MatrixStore {
    type Output = f64;
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        match self {
            MatrixStore::Dense(m) => &m[(row, col)],
            MatrixStore::Sparse(_) => {
                panic!("indexing a sparse store by reference is not supported")
            }
        }
    }
}

/// Assembly surface for one Newton iteration of a real (DC or transient)
/// solve.
#[derive(Debug)]
pub struct Stamper {
    n_nodes: usize,
    mat: MatrixStore,
    rhs: Vec<f64>,
    x: Vec<f64>,
    /// Analysis mode of this solve.
    pub mode: Mode,
    /// Junction conductance floor (options `GMIN`).
    pub gmin: f64,
    /// Thermal voltage at the analysis temperature.
    pub vt: f64,
    /// Analysis temperature in kelvin (options `temperature`).
    pub temperature: f64,
    /// Source-stepping scale in `[0, 1]`; independent sources multiply their
    /// value by this factor.
    pub source_scale: f64,
    /// Extra conductance to ground on every node (gmin stepping).
    pub gshunt: f64,
    limited: bool,
}

impl Stamper {
    /// Creates a stamper for `n_nodes` node voltages plus `n_branches`
    /// branch currents.
    pub fn new(n_nodes: usize, n_branches: usize, mode: Mode) -> Self {
        Stamper::with_backend(n_nodes, n_branches, mode, false)
    }

    /// Creates a stamper with an explicit matrix backend (`sparse = true`
    /// accumulates triplets for the sparse LU).
    pub(crate) fn with_backend(
        n_nodes: usize,
        n_branches: usize,
        mode: Mode,
        sparse: bool,
    ) -> Self {
        let n = n_nodes + n_branches;
        Stamper {
            n_nodes,
            mat: if sparse {
                MatrixStore::Sparse(TripletBuilder::new(n, n))
            } else {
                MatrixStore::Dense(DenseMatrix::zeros(n, n))
            },
            rhs: vec![0.0; n],
            x: vec![0.0; n],
            mode,
            gmin: 1e-12,
            vt: 0.02585,
            temperature: 300.15,
            source_scale: 1.0,
            gshunt: 0.0,
            limited: false,
        }
    }

    /// Total number of unknowns.
    pub fn n_unknowns(&self) -> usize {
        self.rhs.len()
    }

    /// Number of node-voltage unknowns.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Resets matrix, right-hand side and the limiting flag; loads the
    /// iterate `x` the devices will linearize around.
    pub fn reset(&mut self, x: &[f64], mode: Mode) {
        self.mat.clear();
        for r in &mut self.rhs {
            *r = 0.0;
        }
        self.x.copy_from_slice(x);
        self.mode = mode;
        self.limited = false;
    }

    fn row_of(&self, u: Unknown) -> Option<usize> {
        match u {
            Unknown::Node(n) => {
                if n.is_ground() {
                    None
                } else {
                    Some(n.index() - 1)
                }
            }
            Unknown::Branch(b) => Some(self.n_nodes + b),
        }
    }

    /// Voltage of `node` in the current iterate (0 for ground).
    pub fn v(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current `idx` in the current iterate.
    pub fn branch_current(&self, idx: usize) -> f64 {
        self.x[self.n_nodes + idx]
    }

    /// Adds `val` to the Jacobian entry `(row, col)`, silently skipping
    /// ground rows/columns.
    pub fn add(&mut self, row: Unknown, col: Unknown, val: f64) {
        if let (Some(r), Some(c)) = (self.row_of(row), self.row_of(col)) {
            self.mat.add_at(r, c, val);
        }
    }

    /// Adds `val` to the right-hand side at `row` (skipping ground).
    pub fn add_rhs(&mut self, row: Unknown, val: f64) {
        if let Some(r) = self.row_of(row) {
            self.rhs[r] += val;
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        self.add(Unknown::Node(a), Unknown::Node(a), g);
        self.add(Unknown::Node(b), Unknown::Node(b), g);
        self.add(Unknown::Node(a), Unknown::Node(b), -g);
        self.add(Unknown::Node(b), Unknown::Node(a), -g);
    }

    /// Stamps a current source driving `i` amps from node `a` through the
    /// device into node `b` (i.e. `i` leaves node `a`).
    pub fn stamp_current(&mut self, a: NodeId, b: NodeId, i: f64) {
        self.add_rhs(Unknown::Node(a), -i);
        self.add_rhs(Unknown::Node(b), i);
    }

    /// Records that a device applied junction/FET limiting this iteration —
    /// convergence is deferred until an un-limited iteration.
    pub fn mark_limited(&mut self) {
        self.limited = true;
    }

    /// Whether any device limited during the last assembly.
    pub fn was_limited(&self) -> bool {
        self.limited
    }

    /// Finishes assembly: applies the gmin-stepping shunt and hands the
    /// system to the linear solver.
    pub(crate) fn finish(&mut self) -> (&MatrixStore, &[f64]) {
        if self.gshunt > 0.0 {
            for i in 0..self.n_nodes {
                self.mat.add_at(i, i, self.gshunt);
            }
        }
        (&self.mat, &self.rhs)
    }
}

/// Assembly surface for a complex-valued AC small-signal solve.
#[derive(Debug)]
pub struct AcStamper {
    n_nodes: usize,
    mat: DenseMatrix<Complex64>,
    rhs: Vec<Complex64>,
    /// Angular frequency ω = 2πf of the current analysis point.
    pub omega: f64,
}

impl AcStamper {
    /// Creates an AC stamper for the given unknown counts and angular
    /// frequency.
    pub fn new(n_nodes: usize, n_branches: usize, omega: f64) -> Self {
        let n = n_nodes + n_branches;
        AcStamper {
            n_nodes,
            mat: DenseMatrix::zeros(n, n),
            rhs: vec![Complex64::ZERO; n],
            omega,
        }
    }

    /// Clears matrix and right-hand side for the next frequency point.
    pub fn reset(&mut self, omega: f64) {
        self.mat.clear();
        for r in &mut self.rhs {
            *r = Complex64::ZERO;
        }
        self.omega = omega;
    }

    fn row_of(&self, u: Unknown) -> Option<usize> {
        match u {
            Unknown::Node(n) => {
                if n.is_ground() {
                    None
                } else {
                    Some(n.index() - 1)
                }
            }
            Unknown::Branch(b) => Some(self.n_nodes + b),
        }
    }

    /// Adds a complex admittance entry.
    pub fn add(&mut self, row: Unknown, col: Unknown, val: Complex64) {
        if let (Some(r), Some(c)) = (self.row_of(row), self.row_of(col)) {
            self.mat.add_at(r, c, val);
        }
    }

    /// Adds to the complex right-hand side.
    pub fn add_rhs(&mut self, row: Unknown, val: Complex64) {
        if let Some(r) = self.row_of(row) {
            self.rhs[r] += val;
        }
    }

    /// Stamps a complex admittance `y` between nodes `a` and `b`.
    pub fn stamp_admittance(&mut self, a: NodeId, b: NodeId, y: Complex64) {
        self.add(Unknown::Node(a), Unknown::Node(a), y);
        self.add(Unknown::Node(b), Unknown::Node(b), y);
        self.add(Unknown::Node(a), Unknown::Node(b), -y);
        self.add(Unknown::Node(b), Unknown::Node(a), -y);
    }

    pub(crate) fn finish(&self) -> (&DenseMatrix<Complex64>, &[Complex64]) {
        (&self.mat, &self.rhs)
    }
}

/// Read-only view of an accepted solution, handed to
/// [`Device::accept_step`].
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    /// Full solution vector (node voltages then branch currents).
    pub x: &'a [f64],
    /// Number of node unknowns in `x`.
    pub n_nodes: usize,
    /// Accepted simulated time.
    pub time: f64,
    /// Mode of the accepted point.
    pub mode: Mode,
    /// Analysis temperature in kelvin (options `temperature`).
    pub temperature: f64,
}

impl StateView<'_> {
    /// Voltage of `node` in the accepted solution (0 for ground).
    pub fn v(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current `idx` in the accepted solution.
    pub fn branch_current(&self, idx: usize) -> f64 {
        self.x[self.n_nodes + idx]
    }
}

/// A circuit element.
///
/// Implementations stamp a *linearized companion model* each Newton
/// iteration: nonlinear devices read the current iterate from the
/// [`Stamper`], linearize about it, and stamp conductances plus Norton
/// current sources.
pub trait Device: fmt::Debug {
    /// Unique instance name (`"R1"`, `"M3"`, `"XCOMP"`).
    fn name(&self) -> &str;

    /// Number of extra branch-current unknowns this device needs.
    fn num_branches(&self) -> usize {
        0
    }

    /// Receives the global index of this device's first branch unknown.
    fn set_branch_base(&mut self, _base: usize) {}

    /// `true` if the device's stamp depends on the iterate (forces Newton
    /// iteration rather than a single linear solve).
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Called once before each Newton solve begins; resets limiting state.
    fn begin_solve(&mut self) {}

    /// Writes the device's contribution for the current iterate.
    fn stamp(&mut self, s: &mut Stamper);

    /// Writes the AC small-signal contribution, linearized about the most
    /// recent operating point. Default: no contribution (open circuit).
    fn stamp_ac(&mut self, _s: &mut AcStamper) {}

    /// Commits internal state after a time step (or the operating point) is
    /// accepted.
    fn accept_step(&mut self, _state: &StateView<'_>) {}

    /// Time points in `(0, tstop)` the transient must land on exactly
    /// (source corners, strobe edges).
    fn breakpoints(&self, _tstop: f64) -> Vec<f64> {
        Vec::new()
    }

    /// Global index of this device's branch current, if it owns exactly one
    /// (voltage sources, inductors). Used by current-controlled sources and
    /// the current probes of the extraction rigs.
    fn branch_index(&self) -> Option<usize> {
        None
    }

    /// DC value accessor/mutator used by DC sweeps; only independent sources
    /// implement it.
    fn set_dc_value(&mut self, _value: f64) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NodeId;

    #[test]
    fn stamper_skips_ground() {
        let mut s = Stamper::new(2, 0, Mode::Dc);
        let gnd = NodeId::ground();
        let n1 = NodeId::from_index(1);
        s.stamp_conductance(n1, gnd, 0.5);
        let (m, _) = s.finish();
        assert_eq!(m[(0, 0)], 0.5);
        // Only the (n1, n1) entry exists; ground row/col were skipped.
        assert_eq!(m[(1, 1)], 0.0);
    }

    #[test]
    fn stamper_conductance_pattern() {
        let mut s = Stamper::new(2, 0, Mode::Dc);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        s.stamp_conductance(n1, n2, 2.0);
        let (m, _) = s.finish();
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(0, 1)], -2.0);
        assert_eq!(m[(1, 0)], -2.0);
    }

    #[test]
    fn stamper_current_direction() {
        let mut s = Stamper::new(2, 0, Mode::Dc);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        // 1 A leaves n1, enters n2.
        s.stamp_current(n1, n2, 1.0);
        let (_, rhs) = s.finish();
        assert_eq!(rhs[0], -1.0);
        assert_eq!(rhs[1], 1.0);
    }

    #[test]
    fn stamper_branch_rows() {
        let mut s = Stamper::new(1, 1, Mode::Dc);
        let n1 = NodeId::from_index(1);
        s.add(Unknown::Branch(0), Unknown::Node(n1), 1.0);
        s.add_rhs(Unknown::Branch(0), 5.0);
        let (m, rhs) = s.finish();
        assert_eq!(m[(1, 0)], 1.0);
        assert_eq!(rhs[1], 5.0);
    }

    #[test]
    fn stamper_iterate_access() {
        let mut s = Stamper::new(2, 1, Mode::Dc);
        s.reset(&[1.0, 2.0, 0.5], Mode::Dc);
        assert_eq!(s.v(NodeId::ground()), 0.0);
        assert_eq!(s.v(NodeId::from_index(1)), 1.0);
        assert_eq!(s.v(NodeId::from_index(2)), 2.0);
        assert_eq!(s.branch_current(0), 0.5);
    }

    #[test]
    fn gshunt_applied_on_finish() {
        let mut s = Stamper::new(2, 0, Mode::Dc);
        s.gshunt = 1e-3;
        let (m, _) = s.finish();
        assert_eq!(m[(0, 0)], 1e-3);
        assert_eq!(m[(1, 1)], 1e-3);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn limited_flag_roundtrip() {
        let mut s = Stamper::new(1, 0, Mode::Dc);
        assert!(!s.was_limited());
        s.mark_limited();
        assert!(s.was_limited());
        s.reset(&[0.0], Mode::Dc);
        assert!(!s.was_limited());
    }

    #[test]
    fn mode_helpers() {
        assert!(Mode::Dc.is_dc());
        assert_eq!(Mode::Dc.time(), 0.0);
        assert!(Mode::Dc.coeffs().is_none());
        let c = Coefficients::new(gabm_numeric::integrate::Method::BackwardEuler, 1e-6, 0.0);
        let m = Mode::Tran {
            time: 2e-6,
            coeffs: c,
        };
        assert!(!m.is_dc());
        assert_eq!(m.time(), 2e-6);
        assert!(m.coeffs().is_some());
    }

    #[test]
    fn state_view_access() {
        let x = [3.0, 4.0, 0.1];
        let sv = StateView {
            x: &x,
            n_nodes: 2,
            time: 0.0,
            mode: Mode::Dc,
            temperature: 300.15,
        };
        assert_eq!(sv.v(NodeId::from_index(2)), 4.0);
        assert_eq!(sv.branch_current(0), 0.1);
    }

    #[test]
    fn ac_stamper_admittance() {
        let mut s = AcStamper::new(2, 0, 1.0);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        s.stamp_admittance(n1, n2, Complex64::new(0.0, 1.0));
        let (m, _) = s.finish();
        assert_eq!(m[(0, 0)], Complex64::new(0.0, 1.0));
        assert_eq!(m[(0, 1)], Complex64::new(0.0, -1.0));
    }
}
