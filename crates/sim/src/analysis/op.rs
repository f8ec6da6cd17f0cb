//! DC operating-point analysis with gmin and source stepping.

use crate::analysis::engine::{newton_solve, SolveSetup};
use crate::circuit::{Circuit, NodeId};
use crate::device::{Layout, Mode, StateView, Unknown};
use crate::options::SimStats;
use crate::SimError;

/// Shunt decades tried by gmin stepping (10 mS down to 1 pS) when the plain
/// operating-point solve fails.
const GMIN_STEPS: usize = 12;

/// Source-stepping points tried when gmin stepping also fails.
const SOURCE_STEPS: usize = 10;

/// Result of an operating-point solve.
#[derive(Debug, Clone)]
pub struct OpResult {
    x: Vec<f64>,
    layout: Layout,
    /// Work counters accumulated during the solve.
    pub stats: SimStats,
}

impl OpResult {
    /// Node voltage at the operating point.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.layout.value(&self.x, Unknown::Node(node))
    }

    /// Branch current by global branch index.
    pub fn branch_current(&self, idx: usize) -> f64 {
        self.layout.value(&self.x, Unknown::Branch(idx))
    }

    /// Current through a named branch device (voltage source or inductor),
    /// positive from its `plus`/`a` terminal through the device.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDevice`] if the device is absent or has no branch.
    pub fn current_through(&self, circuit: &Circuit, device: &str) -> Result<f64, SimError> {
        Ok(self.branch_current(circuit.branch_of(device)?))
    }

    /// Full solution vector (node voltages, then branch currents).
    pub fn solution(&self) -> &[f64] {
        &self.x
    }
}

/// Solves the operating point: plain Newton first, then gmin stepping, then
/// source stepping — the same escalation ladder SPICE/ELDO use.
pub(crate) fn solve_op(circuit: &mut Circuit) -> Result<OpResult, SimError> {
    let layout = circuit.layout();
    let mut x = vec![0.0; layout.n_unknowns()];
    let stats = solve_op_from(circuit, &mut x)?;
    // Commit the operating point into every device's state (capacitor
    // voltages etc.): the initial condition of a following transient.
    let sv = StateView {
        x: &x,
        n_nodes: layout.n_nodes,
        time: 0.0,
        mode: Mode::Dc,
        temperature: circuit.options.temperature,
    };
    for d in circuit.devices_mut() {
        d.accept_step(&sv);
    }
    Ok(OpResult { x, layout, stats })
}

/// Operating point from the initial guess in `x`, which receives the
/// solution (used by DC sweeps to track the previous point's solution) —
/// does *not* commit device state.
pub(crate) fn solve_op_from(circuit: &mut Circuit, x: &mut [f64]) -> Result<SimStats, SimError> {
    let _span = gabm_trace::span("sim.op");
    let mut stats = SimStats::default();
    if x.is_empty() {
        return Ok(stats);
    }

    // 1. Plain Newton.
    match newton_solve(circuit, Mode::Dc, x, SolveSetup::default(), &mut stats) {
        Ok(_) => return Ok(stats),
        Err(e @ (SimError::SingularMatrix { .. } | SimError::NonFinite { .. })) => return Err(e),
        Err(_) => {}
    }

    // 2. gmin stepping: solve with a strong shunt everywhere, then relax it
    //    decade by decade, carrying the solution.
    let mut ok = true;
    let mut gshunt = 1e-2;
    for _ in 0..GMIN_STEPS {
        let setup = SolveSetup {
            gshunt,
            source_scale: 1.0,
        };
        if newton_solve(circuit, Mode::Dc, x, setup, &mut stats).is_err() {
            ok = false;
            break;
        }
        gshunt /= 10.0;
    }
    // Final solve with the shunt removed entirely.
    if ok && newton_solve(circuit, Mode::Dc, x, SolveSetup::default(), &mut stats).is_ok() {
        return Ok(stats);
    }

    // 3. Source stepping: ramp the sources from 0 to 100 %.
    x.fill(0.0);
    for k in 1..=SOURCE_STEPS {
        let setup = SolveSetup {
            gshunt: 0.0,
            source_scale: k as f64 / SOURCE_STEPS as f64,
        };
        newton_solve(circuit, Mode::Dc, x, setup, &mut stats).map_err(|_| {
            SimError::NoConvergence {
                analysis: "op",
                detail: "plain Newton, gmin stepping and source stepping all failed".to_string(),
            }
        })?;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{DiodeParams, SourceWave};

    #[test]
    fn resistive_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(9.0));
        c.add_resistor("R1", a, b, 2.0e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1.0e3).unwrap();
        let op = c.op().unwrap();
        assert!((op.voltage(b) - 3.0).abs() < 1e-9);
        assert!((op.voltage(a) - 9.0).abs() < 1e-9);
        assert_eq!(op.voltage(Circuit::GROUND), 0.0);
        let i = op.current_through(&c, "V1").unwrap();
        assert!((i + 3.0e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource("I1", Circuit::GROUND, a, SourceWave::dc(1.0e-3));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        let op = c.op().unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diode_clamp() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(5.0));
        c.add_resistor("R1", a, d, 1.0e3).unwrap();
        c.add_diode("D1", d, Circuit::GROUND, DiodeParams::default());
        let op = c.op().unwrap();
        let vd = op.voltage(d);
        assert!((0.5..0.9).contains(&vd), "vd = {vd}");
    }

    #[test]
    fn unknown_device_error() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let op = c.op().unwrap();
        assert!(op.current_through(&c, "VX").is_err());
        assert!(op.current_through(&c, "R1").is_err());
    }

    #[test]
    fn empty_circuit_solves() {
        let mut c = Circuit::new();
        let op = c.op().unwrap();
        assert!(op.solution().is_empty());
    }

    #[test]
    fn back_to_back_diodes_need_homotopy() {
        // A floating-ish midpoint between two diodes biased hard: a stress
        // test that commonly requires gmin stepping.
        let mut c = Circuit::new();
        let a = c.node("a");
        let m = c.node("m");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.4));
        c.add_diode("D1", a, m, DiodeParams::default());
        c.add_diode("D2", m, Circuit::GROUND, DiodeParams::default());
        let op = c.op().unwrap();
        // Symmetric stack: midpoint at half the supply.
        assert!((op.voltage(m) - 0.7).abs() < 0.05, "vm = {}", op.voltage(m));
    }
}
