//! DC sweep analysis.

use crate::analysis::op::solve_op_guess;
use crate::circuit::{Circuit, NodeId};
use crate::options::SimStats;
use crate::SimError;

/// Result of a DC sweep: one solved operating point per source value.
#[derive(Debug, Clone)]
pub struct DcResult {
    values: Vec<f64>,
    solutions: Vec<Vec<f64>>,
    n_nodes: usize,
    /// Work counters accumulated over the whole sweep.
    pub stats: SimStats,
}

impl DcResult {
    /// The swept source values.
    pub fn sweep_values(&self) -> &[f64] {
        &self.values
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Voltage of `node` at sweep point `idx`.
    pub fn voltage_at(&self, idx: usize, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.solutions[idx][node.index() - 1]
        }
    }

    /// The voltage of `node` across the whole sweep, parallel to
    /// [`DcResult::sweep_values`].
    pub fn voltage_series(&self, node: NodeId) -> Vec<f64> {
        (0..self.len()).map(|i| self.voltage_at(i, node)).collect()
    }

    /// Branch current by global index at sweep point `idx`.
    pub fn branch_current_at(&self, idx: usize, branch: usize) -> f64 {
        self.solutions[idx][self.n_nodes + branch]
    }
}

/// Sweeps the DC value of the named independent source from `from` to `to`
/// (inclusive, within half a step) in increments of `step`, tracking each
/// point's solution as the next point's initial guess.
pub(crate) fn sweep(
    circuit: &mut Circuit,
    source: &str,
    from: f64,
    to: f64,
    step: f64,
) -> Result<DcResult, SimError> {
    if step == 0.0 || (to - from) * step < 0.0 {
        return Err(SimError::BadAnalysis(format!(
            "inconsistent sweep: from {from} to {to} step {step}"
        )));
    }
    let idx = circuit
        .device_index(source)
        .ok_or_else(|| SimError::UnknownDevice(source.to_string()))?;

    let _span = gabm_trace::span("sim.dc");
    let n = circuit.n_unknowns();
    let mut guess = vec![0.0; n];
    let mut values = Vec::new();
    let mut solutions = Vec::new();
    let mut stats = SimStats::default();

    let count = ((to - from) / step).round() as isize;
    for k in 0..=count.max(0) {
        let v = from + step * k as f64;
        if !circuit.devices_mut()[idx].set_dc_value(v) {
            return Err(SimError::UnknownDevice(format!(
                "{source} is not an independent source"
            )));
        }
        let (x, s) = solve_op_guess(circuit, &guess)?;
        stats.absorb(s);
        guess.copy_from_slice(&x);
        values.push(v);
        solutions.push(x);
    }
    Ok(DcResult {
        values,
        solutions,
        n_nodes: circuit.n_nodes(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{DiodeParams, SourceWave};

    #[test]
    fn linear_sweep_tracks_divider() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(0.0));
        c.add_resistor("R1", a, b, 1.0e3).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1.0e3).unwrap();
        let r = c.dc_sweep("V1", 0.0, 10.0, 1.0).unwrap();
        assert_eq!(r.len(), 11);
        assert_eq!(r.sweep_values()[0], 0.0);
        assert_eq!(r.sweep_values()[10], 10.0);
        let vb = r.voltage_series(b);
        for (v, out) in r.sweep_values().iter().zip(&vb) {
            assert!((out - v / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn diode_iv_curve_is_exponentialish() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(0.0));
        c.add_diode("D1", a, Circuit::GROUND, DiodeParams::default());
        let r = c.dc_sweep("V1", 0.0, 0.7, 0.05).unwrap();
        // Source current grows superlinearly (exponential diode).
        let i_mid = -r.branch_current_at(7, 0);
        let i_end = -r.branch_current_at(14, 0);
        assert!(i_end > 10.0 * i_mid, "i_mid={i_mid}, i_end={i_end}");
    }

    #[test]
    fn descending_sweep() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(0.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let r = c.dc_sweep("V1", 1.0, -1.0, -0.5).unwrap();
        assert_eq!(r.sweep_values(), &[1.0, 0.5, 0.0, -0.5, -1.0]);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(0.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(c.dc_sweep("V1", 0.0, 1.0, 0.0).is_err());
        assert!(c.dc_sweep("V1", 0.0, 1.0, -0.1).is_err());
        assert!(c.dc_sweep("VX", 0.0, 1.0, 0.1).is_err());
        assert!(c.dc_sweep("R1", 0.0, 1.0, 0.1).is_err());
    }
}
