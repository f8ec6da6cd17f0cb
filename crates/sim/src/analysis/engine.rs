//! The damped Newton–Raphson core shared by all real-valued analyses.

use crate::circuit::Circuit;
use crate::device::{Mode, Stamper};
use crate::options::SimStats;
use crate::SimError;
use gabm_numeric::newton::damp_update;
use gabm_numeric::{LuFactor, SparseLu};

/// Result of one Newton solve.
#[derive(Debug, Clone)]
pub(crate) struct NewtonOutcome {
    /// Converged solution.
    pub x: Vec<f64>,
    /// Iterations used (exposed for diagnostics and the engine tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub iterations: usize,
}

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

/// Runs a damped Newton iteration for the given mode, starting from `x0`.
///
/// Uses the Norton-companion formulation: each assembled linear system yields
/// the *next iterate* directly, and damping interpolates between iterates
/// when a step is too violent.
pub(crate) fn newton_solve(
    circuit: &mut Circuit,
    mode: Mode,
    x0: &[f64],
    setup: SolveSetup,
    stats: &mut SimStats,
) -> Result<NewtonOutcome, SimError> {
    let _span = gabm_trace::span("sim.newton");
    // The cached sparse factorization lives on the circuit so its
    // symbolic analysis survives across solves (and time steps). Take it
    // out for the iteration and put it back on every exit path.
    let mut lu_cache = circuit.lu_cache.take();
    let iters_before = stats.newton_iterations;
    let result = newton_iterate(circuit, mode, x0, setup, stats, &mut lu_cache);
    circuit.lu_cache = lu_cache;
    gabm_trace::add(
        "sim.newton.iterations",
        (stats.newton_iterations - iters_before) as u64,
    );
    result
}

fn newton_iterate(
    circuit: &mut Circuit,
    mode: Mode,
    x0: &[f64],
    setup: SolveSetup,
    stats: &mut SimStats,
    lu_cache: &mut Option<SparseLu>,
) -> Result<NewtonOutcome, SimError> {
    let n_nodes = circuit.n_nodes();
    let n = circuit.n_unknowns();
    debug_assert_eq!(x0.len(), n, "initial guess length mismatch");
    let opts = circuit.options.clone();
    let nonlinear = circuit.is_nonlinear();
    let is_voltage: Vec<bool> = (0..n).map(|i| i < n_nodes).collect();

    let sparse = n >= opts.sparse_threshold;
    let mut stamper = Stamper::with_backend(n_nodes, n - n_nodes, mode, sparse);
    stamper.gmin = opts.gmin;
    stamper.vt = opts.thermal_voltage();
    stamper.temperature = opts.temperature;
    stamper.source_scale = setup.source_scale;
    stamper.gshunt = setup.gshunt;

    for d in circuit.devices_mut() {
        d.begin_solve();
    }

    let mut x = x0.to_vec();
    let max_iters = if nonlinear { opts.max_newton_iters } else { 1 };
    for iter in 0..max_iters {
        stamper.reset(&x, mode);
        stamper.gmin = opts.gmin;
        stamper.vt = opts.thermal_voltage();
        stamper.temperature = opts.temperature;
        stamper.source_scale = setup.source_scale;
        stamper.gshunt = setup.gshunt;
        for d in circuit.devices_mut() {
            d.stamp(&mut stamper);
        }
        stats.device_evals += 1;
        let limited = stamper.was_limited();
        let (mat, rhs) = stamper.finish();
        let singular = |e: gabm_numeric::NumericError| match e {
            gabm_numeric::NumericError::Singular { pivot } => SimError::SingularMatrix {
                detail: unknown_name(circuit, pivot, n_nodes),
            },
            other => SimError::from(other),
        };
        let x_new = match mat {
            crate::device::MatrixStore::Dense(m) => {
                let lu = LuFactor::new(m).map_err(singular)?;
                stats.factorizations += 1;
                gabm_trace::add("sim.lu.full", 1);
                lu.solve(rhs)?
            }
            crate::device::MatrixStore::Sparse(t) => {
                let a = t.to_csc();
                // Numeric-only refactorization while the pattern holds; a
                // pivot collapsing under the frozen order (or a pattern
                // change from e.g. gmin stepping) falls back to a full
                // re-pivoting factorization.
                let lu = match lu_cache.take() {
                    Some(mut lu) if lu.pattern_matches(&a) => match lu.refactor(&a) {
                        Ok(()) => {
                            stats.refactorizations += 1;
                            gabm_trace::add("sim.lu.refactor", 1);
                            lu
                        }
                        Err(_) => {
                            stats.factorizations += 1;
                            gabm_trace::add("sim.lu.full", 1);
                            SparseLu::new(&a).map_err(singular)?
                        }
                    },
                    _ => {
                        stats.factorizations += 1;
                        gabm_trace::add("sim.lu.full", 1);
                        SparseLu::new(&a).map_err(singular)?
                    }
                };
                let solved = lu.solve(rhs)?;
                *lu_cache = Some(lu);
                solved
            }
        };
        stats.newton_iterations += 1;
        // A non-finite iterate never recovers (damping turns it into NaN),
        // so fail at once, naming the unknown.
        if let Some(bad) = x_new.iter().position(|v| !v.is_finite()) {
            return Err(SimError::NonFinite {
                unknown: unknown_name(circuit, bad, n_nodes),
            });
        }
        if !nonlinear {
            return Ok(NewtonOutcome {
                x: x_new,
                iterations: 1,
            });
        }
        // Damped update.
        let mut delta: Vec<f64> = x_new.iter().zip(&x).map(|(a, b)| a - b).collect();
        let scale = damp_update(&mut delta, opts.max_voltage_step);
        let x_next: Vec<f64> = x.iter().zip(&delta).map(|(a, d)| a + d).collect();
        let converged =
            scale == 1.0 && !limited && opts.tolerances.converged(&x_next, &x, &is_voltage);
        x = x_next;
        if converged {
            return Ok(NewtonOutcome {
                x,
                iterations: iter + 1,
            });
        }
    }
    Err(SimError::NoConvergence {
        analysis: "newton",
        detail: format!("no convergence in {max_iters} iterations"),
    })
}

/// Human-readable name of MNA unknown `idx` for solver diagnostics.
fn unknown_name(circuit: &Circuit, idx: usize, n_nodes: usize) -> String {
    if idx < n_nodes {
        format!(
            "node '{}'",
            circuit.node_name(crate::circuit::NodeId::from_index(idx + 1))
        )
    } else {
        format!("branch current #{}", idx - n_nodes)
    }
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
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let out = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(out.iterations, 1);
        // b is node index 2 → x[1].
        assert!((out.x[1] - 5.0).abs() < 1e-9);
        // Source current = −10/2k = −5 mA (into + terminal).
        assert!((out.x[2] + 5.0e-3).abs() < 1e-9);
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
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let err = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap_err();
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
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let err = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::NonFinite { .. }), "{err:?}");
        assert_eq!(stats.newton_iterations, 1);
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
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let out = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        assert!(out.iterations > 1);
        assert_eq!(stats.factorizations, 1);
        assert_eq!(stats.refactorizations, out.iterations - 1);
    }

    #[test]
    fn lu_cache_survives_consecutive_solves() {
        let mut c = diode_ladder();
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let out = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        // Second solve from the converged point: same pattern, so no new
        // full factorization at all.
        newton_solve(&mut c, Mode::Dc, &out.x, SolveSetup::default(), &mut stats).unwrap();
        assert_eq!(stats.factorizations, 1);
        assert!(stats.refactorizations >= out.iterations);
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
        let n = c.n_unknowns();
        let mut stats = SimStats::default();
        let out = newton_solve(
            &mut c,
            Mode::Dc,
            &vec![0.0; n],
            SolveSetup::default(),
            &mut stats,
        )
        .unwrap();
        // Diode drop should be ~0.6–0.8 V.
        let vd = out.x[1];
        assert!((0.5..0.9).contains(&vd), "vd = {vd}");
        assert!(out.iterations > 1);
        // KCL: (5 − vd)/1k = Is(e^{vd/vt} − 1) within tolerance.
        let i_r = (5.0 - vd) / 1.0e3;
        let i_d = 1e-14 * ((vd / 0.025861).exp() - 1.0);
        assert!((i_r - i_d).abs() / i_r < 1e-2, "ir={i_r}, id={i_d}");
    }
}
