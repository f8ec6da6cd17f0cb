//! The §5 evaluation vehicle: the triggered comparator, behavioural (FAS)
//! and transistor-level (11 MOS), under the same stimulus.
//!
//! Used by Fig. 7 (waveform comparison) and the timing table ("ELDO needed
//! 4.9 s … to simulate the FAS model and 15.2 s to simulate the circuit").

use gabm_models::comparator::{ComparatorSpec, OffState};
use gabm_models::CmosComparator;
use gabm_sim::circuit::{Circuit, NodeId};
use gabm_sim::devices::{BehavioralModel, SourceWave};
use gabm_sim::SimError;

/// The common Fig. 7 stimulus: a differential input sine plus a strobe
/// pulse train, on ±2.5 V supplies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorStimulus {
    /// Differential input amplitude (V).
    pub amplitude: f64,
    /// Differential input frequency (Hz).
    pub input_freq: f64,
    /// Strobe period (s).
    pub strobe_period: f64,
    /// Strobe active width (s).
    pub strobe_width: f64,
    /// Supply magnitude (V).
    pub supply: f64,
}

impl Default for ComparatorStimulus {
    fn default() -> Self {
        ComparatorStimulus {
            amplitude: 0.5,
            input_freq: 50.0e3,
            strobe_period: 10.0e-6,
            strobe_width: 4.0e-6,
            supply: 2.5,
        }
    }
}

impl ComparatorStimulus {
    fn add_sources(&self, ckt: &mut Circuit, inp: NodeId, inn: NodeId, strobe: NodeId) {
        ckt.add_vsource(
            "VINP",
            inp,
            Circuit::GROUND,
            SourceWave::sine(0.0, self.amplitude / 2.0, self.input_freq),
        );
        ckt.add_vsource(
            "VINN",
            inn,
            Circuit::GROUND,
            SourceWave::Sine {
                offset: 0.0,
                ampl: self.amplitude / 2.0,
                freq: self.input_freq,
                delay: 0.0,
                phase: std::f64::consts::PI,
            },
        );
        ckt.add_vsource(
            "VSTB",
            strobe,
            Circuit::GROUND,
            SourceWave::pulse(
                -self.supply,
                self.supply,
                self.strobe_period / 4.0,
                50.0e-9,
                50.0e-9,
                self.strobe_width,
                self.strobe_period,
            ),
        );
    }

    /// Time windows (within `tstop`) where the strobe is fully active —
    /// where behavioural and transistor outputs are comparable.
    pub fn strobe_windows(&self, tstop: f64) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut base = self.strobe_period / 4.0;
        while base < tstop {
            let lo = base + 0.5e-6;
            let hi = (base + self.strobe_width - 0.2e-6).min(tstop);
            if hi > lo {
                out.push((lo, hi));
            }
            base += self.strobe_period;
        }
        out
    }
}

/// The comparator the behavioural bench runs for `stim`. `Hold` mirrors
/// the transistor circuit's dynamic behaviour: with the tail current
/// cut, the CMOS second stage keeps its last state on the gate
/// capacitances for (much longer than) one strobe period.
pub fn behavioural_comparator_spec(stim: &ComparatorStimulus) -> ComparatorSpec {
    ComparatorSpec {
        v_high: stim.supply - 0.5,
        v_low: -(stim.supply - 0.5),
        off_state: OffState::Hold,
        ..ComparatorSpec::default()
    }
}

/// Builds the behavioural (FAS) comparator test bench. Returns the
/// circuit and the nodes `(inp, inn, strobe, outp, outn)`.
///
/// # Errors
///
/// Model-pipeline or netlist errors.
pub fn behavioural_comparator_circuit(
    stim: &ComparatorStimulus,
) -> Result<(Circuit, [NodeId; 5]), SimError> {
    let machine = behavioural_comparator_spec(stim)
        .machine()
        .map_err(|e| SimError::BadAnalysis(e.to_string()))?;
    behavioural_comparator_circuit_around(stim, machine)
}

/// Builds the behavioural comparator test bench around an instance of
/// the [`behavioural_comparator_spec`] model.
///
/// # Errors
///
/// Netlist errors.
pub fn behavioural_comparator_circuit_around(
    stim: &ComparatorStimulus,
    machine: Box<dyn BehavioralModel>,
) -> Result<(Circuit, [NodeId; 5]), SimError> {
    let mut ckt = Circuit::new();
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    let strobe = ckt.node("strobe");
    let outp = ckt.node("outp");
    let outn = ckt.node("outn");
    let vdd = ckt.node("vdd");
    let vss = ckt.node("vss");
    ckt.add_behavioral("XCMP", &[inp, inn, strobe, outp, outn, vdd, vss], machine)?;
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(stim.supply));
    ckt.add_vsource("VSS", vss, Circuit::GROUND, SourceWave::dc(-stim.supply));
    stim.add_sources(&mut ckt, inp, inn, strobe);
    ckt.add_resistor("RLP", outp, Circuit::GROUND, 10.0e3)?;
    ckt.add_resistor("RLN", outn, Circuit::GROUND, 10.0e3)?;
    Ok((ckt, [inp, inn, strobe, outp, outn]))
}

/// Builds the transistor-level (11 MOS) comparator test bench. Returns the
/// circuit and the nodes `(inp, inn, strobe, out)`.
///
/// # Errors
///
/// Netlist errors.
pub fn cmos_comparator_circuit(
    stim: &ComparatorStimulus,
) -> Result<(Circuit, [NodeId; 4]), SimError> {
    let mut ckt = Circuit::new();
    let nodes: Vec<NodeId> = CmosComparator::pin_order()
        .iter()
        .map(|p| ckt.node(p))
        .collect();
    CmosComparator::new()
        .instantiate(&mut ckt, "XCMP", &nodes)
        .map_err(|e| SimError::BadAnalysis(e.to_string()))?;
    let (inp, inn, strobe, out, vdd, vss) =
        (nodes[0], nodes[1], nodes[2], nodes[3], nodes[4], nodes[5]);
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(stim.supply));
    ckt.add_vsource("VSS", vss, Circuit::GROUND, SourceWave::dc(-stim.supply));
    stim.add_sources(&mut ckt, inp, inn, strobe);
    ckt.add_resistor("RL", out, Circuit::GROUND, 10.0e3)?;
    Ok((ckt, [inp, inn, strobe, out]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_sim::analysis::tran::TranSpec;

    #[test]
    fn strobe_windows_cover_run() {
        let stim = ComparatorStimulus::default();
        let w = stim.strobe_windows(60e-6);
        assert!(w.len() >= 5, "windows: {w:?}");
        assert!(w.iter().all(|(lo, hi)| hi > lo));
    }

    /// The headline §5 experiment in miniature: both benches run the same
    /// transient, the decisions agree inside strobe windows, and the
    /// behavioural model costs less.
    #[test]
    fn behavioural_and_cmos_agree_in_strobe_windows() {
        let stim = ComparatorStimulus::default();
        let tstop = 60.0e-6;
        let (mut beh, bn) = behavioural_comparator_circuit(&stim).unwrap();
        let rb = beh.tran(&TranSpec::new(tstop)).unwrap();
        let wb = rb.voltage_waveform(bn[3]).unwrap();
        let (mut cmos, cn) = cmos_comparator_circuit(&stim).unwrap();
        let rc = cmos.tran(&TranSpec::new(tstop)).unwrap();
        let wc = rc.voltage_waveform(cn[3]).unwrap();
        let mut checked = 0;
        for (lo, hi) in stim.strobe_windows(tstop) {
            // Sample the window centre: decisions must agree in sign.
            let t = 0.5 * (lo + hi);
            let vb = wb.value_at(t).unwrap();
            let vc = wc.value_at(t).unwrap();
            if vb.abs() > 0.5 && vc.abs() > 0.5 {
                assert_eq!(
                    vb.signum(),
                    vc.signum(),
                    "decision mismatch at t = {t:.2e}: beh {vb:.2}, cmos {vc:.2}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 3, "only {checked} comparable windows");
        // Cost comparison (machine-independent): the behavioural run needs
        // fewer device-evaluation sweeps per unknown… assert on the overall
        // Newton work, the quantity wall-clock follows.
        let work_beh = rb.stats.newton_iterations * beh.n_unknowns();
        let work_cmos = rc.stats.newton_iterations * cmos.n_unknowns();
        assert!(
            work_cmos > work_beh,
            "expected the transistor circuit to cost more: beh {work_beh}, cmos {work_cmos}"
        );
    }
}
