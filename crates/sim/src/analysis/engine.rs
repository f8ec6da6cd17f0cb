//! The damped Newton–Raphson core shared by all real-valued analyses.

use crate::circuit::Circuit;
use crate::device::{Layout, Mode, Stamper};
use crate::options::SimStats;
use crate::SimError;
use gabm_numeric::newton::{damp_update, Tolerances};
use gabm_numeric::{LuFactor, SparseLu};

/// Newton iterations per solve attempt of a nonlinear circuit (SPICE `ITL1`).
const MAX_NEWTON_ITERS: usize = 250;

/// Largest change of any unknown in one Newton iteration before the update
/// is damped.
const MAX_VOLTAGE_STEP: f64 = 2.0;

/// Extra knobs for the homotopy (continuation) strategies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveSetup {
    /// Shunt conductance to ground on every node (gmin stepping).
    pub gshunt: f64,
    /// Scale factor applied to independent sources (source stepping).
    pub source_scale: f64,
}

impl Default for SolveSetup {
    fn default() -> Self {
        SolveSetup {
            gshunt: 0.0,
            source_scale: 1.0,
        }
    }
}

/// The buffers one circuit's Newton solves reuse: the assembly surface,
/// the LU factor of the active backend and the iterate pair.
///
/// It lives on the [`Circuit`], is built by the first solve and rebuilt
/// only when the unknown count or the dense/sparse backend changes, so a
/// dense Newton iteration allocates nothing.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    stamper: Stamper,
    sparse: bool,
    /// Dense factor, refactored in place every iteration.
    dense_lu: LuFactor,
    /// Sparse factor: its symbolic analysis and pivot order survive across
    /// solves (and time steps), so iterations with an unchanged matrix
    /// pattern only pay a numeric refactorization.
    sparse_lu: Option<SparseLu>,
    /// Current iterate.
    x: Vec<f64>,
    /// Next iterate: the linear solve's result, then the damped update.
    x_next: Vec<f64>,
}

impl NewtonWorkspace {
    fn new(layout: Layout, sparse: bool) -> Self {
        let n = layout.n_unknowns();
        NewtonWorkspace {
            stamper: Stamper::with_backend(layout, Mode::Dc, sparse),
            sparse,
            dense_lu: LuFactor::default(),
            sparse_lu: None,
            x: vec![0.0; n],
            x_next: vec![0.0; n],
        }
    }

    fn fits(&self, layout: Layout, sparse: bool) -> bool {
        self.stamper.layout == layout && self.sparse == sparse
    }
}

/// Runs a damped Newton iteration for the given mode. `solution` holds the
/// initial guess; on success it receives the converged iterate, on failure
/// it is left as it was. Returns the iterations used.
///
/// Uses the Norton-companion formulation: each assembled linear system yields
/// the *next iterate* directly, and damping interpolates between iterates
/// when a step is too violent.
pub(crate) fn newton_solve(
    circuit: &mut Circuit,
    mode: Mode,
    solution: &mut [f64],
    setup: SolveSetup,
    stats: &mut SimStats,
) -> Result<usize, SimError> {
    let _span = gabm_trace::span("sim.newton");
    let layout = circuit.layout();
    let sparse = layout.n_unknowns() >= circuit.options.sparse_threshold;
    // Take the workspace out for the iteration and put it back on every
    // exit path.
    let mut ws = match circuit.newton.take() {
        Some(ws) if ws.fits(layout, sparse) => ws,
        _ => NewtonWorkspace::new(layout, sparse),
    };
    let iters_before = stats.newton_iterations;
    let result = newton_iterate(circuit, mode, solution, setup, stats, &mut ws);
    circuit.newton = Some(ws);
    gabm_trace::add(
        "sim.newton.iterations",
        (stats.newton_iterations - iters_before) as u64,
    );
    result
}

fn newton_iterate(
    circuit: &mut Circuit,
    mode: Mode,
    solution: &mut [f64],
    setup: SolveSetup,
    stats: &mut SimStats,
    ws: &mut NewtonWorkspace,
) -> Result<usize, SimError> {
    let n_nodes = circuit.n_nodes();
    debug_assert_eq!(solution.len(), ws.x.len(), "initial guess length mismatch");
    let nonlinear = circuit.is_nonlinear();
    let NewtonWorkspace {
        stamper,
        dense_lu,
        sparse_lu,
        x,
        x_next,
        ..
    } = ws;
    let opts = &circuit.options;
    stamper.gmin = opts.gmin;
    stamper.vt = opts.thermal_voltage();
    stamper.temperature = opts.temperature;
    stamper.source_scale = setup.source_scale;
    stamper.gshunt = setup.gshunt;
    let max_iters = if nonlinear { MAX_NEWTON_ITERS } else { 1 };

    for d in circuit.devices_mut() {
        d.begin_solve();
    }

    x.copy_from_slice(solution);
    for iter in 0..max_iters {
        stamper.reset(x, mode);
        for d in circuit.devices_mut() {
            d.stamp(stamper);
        }
        stats.device_evals += 1;
        let limited = stamper.was_limited();
        let (mat, rhs) = stamper.finish();
        let singular = |e: gabm_numeric::NumericError| match e {
            gabm_numeric::NumericError::Singular { pivot } => SimError::SingularMatrix {
                detail: circuit.unknown_name(pivot),
            },
            other => SimError::from(other),
        };
        match mat {
            crate::device::MatrixStore::Dense(m) => {
                dense_lu.refactor(m).map_err(singular)?;
                stats.factorizations += 1;
                gabm_trace::add("sim.lu.full", 1);
                x_next.copy_from_slice(rhs);
                dense_lu.solve_in_place(x_next)?;
            }
            crate::device::MatrixStore::Sparse(t) => {
                let a = t.to_csc();
                // Numeric-only refactorization while the pattern holds; a
                // pattern change (e.g. from gmin stepping) or a pivot
                // collapsing under the frozen order makes `refactor` fail,
                // and a full re-pivoting factorization replaces the factor.
                let lu = match sparse_lu.take().map(|mut lu| lu.refactor(&a).map(|()| lu)) {
                    Some(Ok(lu)) => {
                        stats.refactorizations += 1;
                        gabm_trace::add("sim.lu.refactor", 1);
                        lu
                    }
                    _ => {
                        stats.factorizations += 1;
                        gabm_trace::add("sim.lu.full", 1);
                        SparseLu::new(&a).map_err(singular)?
                    }
                };
                x_next.copy_from_slice(rhs);
                lu.solve_in_place(x_next)?;
                *sparse_lu = Some(lu);
            }
        }
        stats.newton_iterations += 1;
        // A non-finite iterate never recovers (damping turns it into NaN),
        // so fail at once, naming the unknown.
        if let Some(bad) = x_next.iter().position(|v| !v.is_finite()) {
            return Err(SimError::NonFinite {
                unknown: circuit.unknown_name(bad),
            });
        }
        if !nonlinear {
            solution.copy_from_slice(x_next);
            return Ok(1);
        }
        // Damped update, in place: x_next ← x + damp(x_next − x).
        for (next, cur) in x_next.iter_mut().zip(x.iter()) {
            *next -= cur;
        }
        let scale = damp_update(x_next, MAX_VOLTAGE_STEP);
        for (next, cur) in x_next.iter_mut().zip(x.iter()) {
            *next += cur;
        }
        let converged =
            scale == 1.0 && !limited && Tolerances::default().converged(x_next, x, n_nodes);
        std::mem::swap(x, x_next);
        if converged {
            solution.copy_from_slice(x);
            return Ok(iter + 1);
        }
    }
    Err(SimError::NoConvergence {
        analysis: "newton",
        detail: format!("no convergence in {max_iters} iterations"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::SourceWave;

    #[test]
    fn linear_divider_single_iteration() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(10.0));
        c.add_resistor("R1", a, b, 1.0e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1.0e3).unwrap();
        let mut x = vec![0.0; c.n_unknowns()];
        let mut stats = SimStats::default();
        let iterations =
            newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap();
        assert_eq!(iterations, 1);
        // b is node index 2 → x[1].
        assert!((x[1] - 5.0).abs() < 1e-9);
        // Source current = −10/2k = −5 mA (into + terminal).
        assert!((x[2] + 5.0e-3).abs() < 1e-9);
    }

    #[test]
    fn floating_node_reports_singular() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("floating");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        // b only connects to a resistor to itself-ish: make it truly floating
        // by adding a resistor between b and b (no-op is impossible) — use a
        // node with no devices instead.
        let _ = b;
        let mut x = vec![0.0; c.n_unknowns()];
        let mut stats = SimStats::default();
        let err =
            newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap_err();
        match err {
            SimError::SingularMatrix { detail } => {
                assert!(detail.contains("floating"), "detail: {detail}");
            }
            other => panic!("expected singular matrix, got {other:?}"),
        }
    }

    /// An infinite source makes the linear solve non-finite.
    fn infinite_source() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(f64::INFINITY));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        c
    }

    /// An infinite source driving a diode through a resistor: the first
    /// nonlinear iterate is non-finite.
    fn infinite_source_diode() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(f64::INFINITY));
        c.add_resistor("R1", a, d, 1.0e3).unwrap();
        c.add_diode(
            "D1",
            d,
            Circuit::GROUND,
            crate::devices::DiodeParams::default(),
        );
        c
    }

    #[test]
    fn non_finite_op_is_an_error_naming_the_unknown() {
        for mut c in [infinite_source(), infinite_source_diode()] {
            let err = c.op().unwrap_err();
            assert_eq!(err.to_string(), "non-finite solution value at node 'a'");
        }
    }

    #[test]
    fn non_finite_tran_is_an_error_naming_the_unknown() {
        for mut c in [infinite_source(), infinite_source_diode()] {
            let err = c
                .tran(&crate::analysis::tran::TranSpec::new(1.0e-6))
                .unwrap_err();
            assert_eq!(err.to_string(), "non-finite solution value at node 'a'");
        }
    }

    #[test]
    fn non_finite_nonlinear_iterate_stops_after_one_iteration() {
        let mut c = infinite_source_diode();
        let mut x = vec![0.0; c.n_unknowns()];
        let mut stats = SimStats::default();
        let err =
            newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap_err();
        assert!(matches!(err, SimError::NonFinite { .. }), "{err:?}");
        assert_eq!(stats.newton_iterations, 1);
        // A failed solve leaves the caller's guess as it was.
        assert!(x.iter().all(|v| *v == 0.0));
    }

    /// Nonlinear diode/resistor ladder, forced onto the sparse backend.
    fn diode_ladder() -> Circuit {
        let mut c = Circuit::new();
        c.options.sparse_threshold = 1;
        let top = c.node("top");
        c.add_vsource("V1", top, Circuit::GROUND, SourceWave::dc(5.0));
        let mut prev = top;
        for k in 0..6 {
            let n = c.node(&format!("n{k}"));
            c.add_resistor(&format!("R{k}"), prev, n, 500.0).unwrap();
            c.add_diode(
                &format!("D{k}"),
                n,
                Circuit::GROUND,
                crate::devices::DiodeParams::default(),
            );
            prev = n;
        }
        c
    }

    #[test]
    fn sparse_lu_reuse_is_bitwise_identical_to_full_factorization() {
        // Only the first iteration factors in full; every later one reuses
        // its symbolic analysis (`SparseLu::refactor`, which reproduces a
        // fresh factorization to the ulp, see `splu::tests`).
        let mut c = diode_ladder();
        let mut x = vec![0.0; c.n_unknowns()];
        let mut stats = SimStats::default();
        let iterations =
            newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap();
        assert!(iterations > 1);
        assert_eq!(stats.factorizations, 1);
        assert_eq!(stats.refactorizations, iterations - 1);
    }

    #[test]
    fn sparse_factor_survives_consecutive_solves() {
        let mut c = diode_ladder();
        let mut x = vec![0.0; c.n_unknowns()];
        let mut stats = SimStats::default();
        let iterations =
            newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap();
        // Second solve from the converged point: same pattern, so no new
        // full factorization at all.
        newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap();
        assert_eq!(stats.factorizations, 1);
        assert!(stats.refactorizations >= iterations);
    }

    #[test]
    fn workspace_follows_backend_and_size_changes() {
        let mut c = diode_ladder();
        c.options.sparse_threshold = usize::MAX;
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let mut dense = vec![0.0; n];
        newton_solve(
            &mut c,
            Mode::Dc,
            &mut dense,
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.refactorizations, 0);
        // Switching to the sparse backend rebuilds the workspace: one full
        // factorization, numeric refactorizations after it, same answer.
        c.options.sparse_threshold = 1;
        let mut stats = SimStats::default();
        let mut sparse = vec![0.0; n];
        let iterations = newton_solve(
            &mut c,
            Mode::Dc,
            &mut sparse,
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(stats.factorizations, 1);
        assert_eq!(stats.refactorizations, iterations - 1);
        for (d, s) in dense.iter().zip(&sparse) {
            assert!((d - s).abs() <= 1e-9 * d.abs().max(1.0), "{d} vs {s}");
        }
        // A new node changes the unknown count: the workspace is rebuilt
        // at the new size.
        let top = c.find_node("top").unwrap();
        let extra = c.node("extra");
        c.add_resistor("RX", top, extra, 1.0e3).unwrap();
        c.add_resistor("RY", extra, Circuit::GROUND, 1.0e3).unwrap();
        let mut x = vec![0.0; c.n_unknowns()];
        newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap();
        let v_extra = x[extra.index() - 1];
        assert!((v_extra - 2.5).abs() < 1e-9, "v(extra) = {v_extra}");
    }

    #[test]
    fn diode_resistor_converges() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(5.0));
        c.add_resistor("R1", a, d, 1.0e3).unwrap();
        c.add_diode(
            "D1",
            d,
            Circuit::GROUND,
            crate::devices::DiodeParams::default(),
        );
        let mut x = vec![0.0; c.n_unknowns()];
        let mut stats = SimStats::default();
        let iterations =
            newton_solve(&mut c, Mode::Dc, &mut x, SolveSetup::default(), &mut stats).unwrap();
        // Diode drop should be ~0.6–0.8 V.
        let vd = x[1];
        assert!((0.5..0.9).contains(&vd), "vd = {vd}");
        assert!(iterations > 1);
        // KCL: (5 − vd)/1k = Is(e^{vd/vt} − 1) within tolerance.
        let i_r = (5.0 - vd) / 1.0e3;
        let i_d = 1e-14 * ((vd / 0.025861).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-2, "ir={i_r}, id={i_d}");
    }
}
