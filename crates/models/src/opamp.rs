//! A single-pole behavioural operational amplifier.
//!
//! Demonstrates the transfer-function GBS (§3.1b "time/frequency symbols
//! represent … transfer functions"): the open-loop gain is `A0/(1 + s/ωp)`,
//! followed by rail limiting and an output stage.

use crate::comparator::OffState;
use crate::ModelError;
use gabm_codegen::{generate, Backend};
use gabm_core::card::{CharacteristicClass, DefinitionCard, PinDomain};
use gabm_core::constructs::{InputStageSpec, OutputStageSpec};
use gabm_core::diagram::{FunctionalDiagram, PortRef, SymbolId};
use gabm_core::quantity::Dimension;
use gabm_core::symbol::{PropertyValue, SymbolKind};
use gabm_sim::devices::BehavioralModel;

/// Parameterized single-pole opamp.
#[derive(Debug, Clone, PartialEq)]
pub struct OpampSpec {
    /// DC open-loop gain (V/V).
    pub a0: f64,
    /// Dominant pole frequency (Hz).
    pub pole_hz: f64,
    /// Output rails (V).
    pub v_high: f64,
    /// Low rail (V).
    pub v_low: f64,
    /// Input resistance per input (Ω).
    pub rin: f64,
    /// Input capacitance per input (F).
    pub cin: f64,
    /// Output conductance (S).
    pub gout: f64,
    /// Output current limit (A).
    pub ilim: f64,
}

impl Default for OpampSpec {
    fn default() -> Self {
        OpampSpec {
            a0: 1.0e5,
            pole_hz: 100.0,
            v_high: 2.2,
            v_low: -2.2,
            rin: 10.0e6,
            cin: 1.0e-12,
            gout: 1.0e-2,
            ilim: 25.0e-3,
        }
    }
}

fn merged_port(sub: &FunctionalDiagram, name: &str, offset: usize) -> Result<PortRef, ModelError> {
    let itf = sub.interface_port(name)?;
    Ok(PortRef {
        symbol: SymbolId(itf.inner.symbol.0 + offset),
        port: itf.inner.port,
    })
}

impl OpampSpec {
    /// Builds the functional diagram (pins: inp, inn, out).
    ///
    /// # Errors
    ///
    /// Diagram-construction errors (none occur for valid specs).
    pub fn diagram(&self) -> Result<FunctionalDiagram, ModelError> {
        let mut d = FunctionalDiagram::new("opamp");
        d.add_parameter("vhigh", self.v_high, Dimension::VOLTAGE);
        d.add_parameter("vlow", self.v_low, Dimension::VOLTAGE);

        let inp_sub = InputStageSpec::new("inp", 1.0 / self.rin, self.cin)
            .with_param_prefix("inp_")
            .diagram()?;
        let o_inp = d.merge(inp_sub.clone());
        let v_p = merged_port(&inp_sub, "v", o_inp)?;
        let inn_sub = InputStageSpec::new("inn", 1.0 / self.rin, self.cin)
            .with_param_prefix("inn_")
            .diagram()?;
        let o_inn = d.merge(inn_sub.clone());
        let v_n = merged_port(&inn_sub, "v", o_inn)?;

        let diff = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false],
        });
        d.connect(v_p, d.port(diff, "in0")?)?;
        d.connect(v_n, d.port(diff, "in1")?)?;

        // Single-pole open-loop gain A0/(1 + s·tau).
        let tau = 1.0 / (2.0 * std::f64::consts::PI * self.pole_hz);
        let pole = d.add_symbol(SymbolKind::TransferFunction {
            num: vec![self.a0],
            den: vec![1.0, tau],
        });
        d.connect(d.port(diff, "out")?, d.port(pole, "in")?)?;
        let clip = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Param("vlow".into())),
                ("max", PropertyValue::Param("vhigh".into())),
            ],
            Some("rails"),
        );
        d.connect(d.port(pole, "out")?, d.port(clip, "in")?)?;

        let out_sub = OutputStageSpec::new("out", self.gout)
            .with_current_limit(self.ilim)
            .with_param_prefix("out_")
            .diagram()?;
        let o_out = d.merge(out_sub.clone());
        d.connect(d.port(clip, "out")?, merged_port(&out_sub, "vin", o_out)?)?;
        Ok(d)
    }

    /// Builds the definition card.
    ///
    /// # Errors
    ///
    /// Card validation errors (none occur for valid specs).
    pub fn card(&self) -> Result<DefinitionCard, ModelError> {
        Ok(DefinitionCard::builder("opamp")
            .describe("single-pole behavioural operational amplifier")
            .pin("inp", PinDomain::Electrical, "non-inverting input")
            .pin("inn", PinDomain::Electrical, "inverting input")
            .pin("out", PinDomain::Electrical, "output")
            .parameter("vhigh", self.v_high, Dimension::VOLTAGE, "high rail")
            .parameter("vlow", self.v_low, Dimension::VOLTAGE, "low rail")
            .parameter(
                "inp_gin",
                1.0 / self.rin,
                Dimension::CONDUCTANCE,
                "inp conductance",
            )
            .parameter(
                "inp_cin",
                self.cin,
                Dimension::CAPACITANCE,
                "inp capacitance",
            )
            .parameter(
                "inn_gin",
                1.0 / self.rin,
                Dimension::CONDUCTANCE,
                "inn conductance",
            )
            .parameter(
                "inn_cin",
                self.cin,
                Dimension::CAPACITANCE,
                "inn capacitance",
            )
            .parameter(
                "out_gout",
                self.gout,
                Dimension::CONDUCTANCE,
                "output conductance",
            )
            .parameter(
                "out_ilim",
                self.ilim,
                Dimension::CURRENT,
                "output current limit",
            )
            .characteristic(
                "transfer function",
                CharacteristicClass::Primary,
                "A0 / (1 + s/wp)",
            )
            .characteristic(
                "input impedance",
                CharacteristicClass::Primary,
                "Rin || Cin",
            )
            .characteristic(
                "output impedance",
                CharacteristicClass::Primary,
                "1/gout with current limit",
            )
            .build()?)
    }

    /// Generates the FAS code.
    ///
    /// # Errors
    ///
    /// Diagram or generation errors.
    pub fn fas_code(&self) -> Result<String, ModelError> {
        Ok(generate(&self.diagram()?, Backend::Fas)?.text)
    }

    /// Compiles and instantiates the model on the FAS executor.
    ///
    /// # Errors
    ///
    /// Any pipeline stage error.
    pub fn machine(&self) -> Result<Box<dyn BehavioralModel>, ModelError> {
        crate::fas_machine(&self.fas_code()?)
    }

    /// Pin order of the generated model.
    pub fn pin_order() -> [&'static str; 3] {
        ["inp", "inn", "out"]
    }

    /// Convenience: `OffState` is re-exported via the comparator; keep the
    /// two models' APIs symmetrical for downstream users.
    pub fn off_state_hint() -> OffState {
        OffState::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::check::check_diagram;
    use gabm_fas::compile;
    use gabm_sim::analysis::tran::TranSpec;
    use gabm_sim::circuit::Circuit;
    use gabm_sim::devices::SourceWave;

    #[test]
    fn diagram_consistent_and_card_matches() {
        let spec = OpampSpec::default();
        let d = spec.diagram().unwrap();
        let r = check_diagram(&d);
        assert!(r.is_consistent(), "{:?}", r.diagnostics);
        assert!(spec.card().unwrap().matches_diagram(&d).is_ok());
    }

    #[test]
    fn fas_code_contains_first_order_lag() {
        let code = OpampSpec::default().fas_code().unwrap();
        assert!(code.contains("state.delay("), "{code}");
        assert!(code.contains("timestep /"));
        assert!(compile(&code).is_ok());
    }

    /// Unity-gain buffer: out follows inp thanks to feedback through the
    /// behavioural model.
    #[test]
    fn unity_follower_tracks_input() {
        let machine = OpampSpec::default().machine().unwrap();
        let mut ckt = Circuit::new();
        let inp = ckt.node("inp");
        let out = ckt.node("out");
        // Feedback: inn tied to out.
        ckt.add_behavioral("XOP", &[inp, out, out], machine)
            .unwrap();
        ckt.add_vsource(
            "VIN",
            inp,
            Circuit::GROUND,
            SourceWave::pulse(0.0, 1.0, 1e-4, 1e-6, 1e-6, 1.0, 0.0),
        );
        ckt.add_resistor("RL", out, Circuit::GROUND, 10e3).unwrap();
        let result = ckt.tran(&TranSpec::new(20e-3)).unwrap();
        let w = result.voltage_waveform(out).unwrap();
        let v_end = *w.values().last().unwrap();
        assert!((v_end - 1.0).abs() < 0.01, "follower output {v_end}");
    }

    /// The dominant pole limits closed-loop bandwidth: the buffered step
    /// settles with a finite time constant ≈ 1/(2π·GBW) … just assert the
    /// output is slower than the input edge but settles.
    #[test]
    fn pole_gives_finite_settling() {
        // Low gain-bandwidth: a0 = 10, pole 1 kHz ⇒ GBW 10 kHz, so the
        // follower settles with τ ≈ 1/(2π·10 kHz) ≈ 16 µs and its final
        // value is the classic a0/(1 + a0).
        let a0 = 10.0;
        let machine = OpampSpec {
            a0,
            pole_hz: 1000.0,
            ..OpampSpec::default()
        }
        .machine()
        .unwrap();
        let mut ckt = Circuit::new();
        let inp = ckt.node("inp");
        let out = ckt.node("out");
        ckt.add_behavioral("XOP", &[inp, out, out], machine)
            .unwrap();
        ckt.add_vsource(
            "VIN",
            inp,
            Circuit::GROUND,
            SourceWave::pulse(0.0, 1.0, 1e-5, 1e-7, 1e-7, 1.0, 0.0),
        );
        ckt.add_resistor("RL", out, Circuit::GROUND, 10e3).unwrap();
        let result = ckt.tran(&TranSpec::new(1e-3)).unwrap();
        let w = result.voltage_waveform(out).unwrap();
        // Mid-transient (one closed-loop tau after the step) the output is
        // still rising; at the end it settles at a0/(1+a0).
        let v_early = w.value_at(2.5e-5).unwrap();
        let v_end = *w.values().last().unwrap();
        let expect = a0 / (1.0 + a0);
        assert!(v_early < 0.8 * expect, "output too fast: {v_early}");
        assert!((v_end - expect).abs() < 0.02, "v_end = {v_end} vs {expect}");
    }
}
