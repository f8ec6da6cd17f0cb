//! The triggered comparator of the paper's Fig. 6.
//!
//! "It includes a differential input stage, a fully balanced output stage
//! with current-limitation, a complete power-supply and an extra input for
//! the strobe signal. The slew-rate is also modelled."
//!
//! The model is assembled graphically from the §3.3 constructs, generated
//! to FAS, compiled, and instantiated as a behavioural simulator device —
//! the complete Fig. 1 pipeline.

use crate::ModelError;
use gabm_codegen::{generate, Backend};
use gabm_core::card::{CharacteristicClass, DefinitionCard, PinDomain};
use gabm_core::constructs::{InputStageSpec, OutputStageSpec, PowerSupplySpec, SlewRateSpec};
use gabm_core::diagram::{FunctionalDiagram, PortRef, SymbolId};
use gabm_core::quantity::Dimension;
use gabm_core::symbol::{PropertyValue, SymbolKind};
use gabm_fas::{compile, CompiledModel};
use gabm_sim::devices::BehavioralModel;

/// Behaviour of the comparator output while the strobe is inactive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffState {
    /// Latch: hold the last decided value (one-step-delay memory).
    Hold,
    /// Drive a fixed level (what the simple CMOS realization does: its
    /// second stage collapses to a rail when the tail current is cut).
    Level(f64),
}

/// Parameterized triggered comparator.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparatorSpec {
    /// Decision gain (V/V).
    pub gain: f64,
    /// High output rail (V).
    pub v_high: f64,
    /// Low output rail (V).
    pub v_low: f64,
    /// Strobe threshold (V).
    pub v_strobe: f64,
    /// Input resistance of each input (Ω).
    pub rin: f64,
    /// Input capacitance of each input (F).
    pub cin: f64,
    /// Output conductance of each output stage (S).
    pub gout: f64,
    /// Output current limit (A).
    pub ilim: f64,
    /// Maximum rising slew (V/s).
    pub slew_rise: f64,
    /// Maximum falling slew (V/s).
    pub slew_fall: f64,
    /// Supply polarization conductance (S).
    pub gpol: f64,
    /// Supply loss current (A).
    pub iloss: f64,
    /// Output behaviour when un-strobed.
    pub off_state: OffState,
}

impl Default for ComparatorSpec {
    fn default() -> Self {
        ComparatorSpec {
            gain: 1.0e4,
            v_high: 2.0,
            v_low: -2.0,
            v_strobe: 0.0,
            rin: 1.0e6,
            cin: 2.0e-12,
            gout: 1.0e-2,
            ilim: 20.0e-3,
            slew_rise: 2.0e6,
            slew_fall: 2.0e6,
            gpol: 40.0e-6,
            iloss: 10.0e-6,
            off_state: OffState::Hold,
        }
    }
}

/// Resolves an interface port of a sub-diagram into the parent's symbol
/// numbering, for a sub-diagram merged at symbol-id `offset`.
fn merged_port(sub: &FunctionalDiagram, name: &str, offset: usize) -> Result<PortRef, ModelError> {
    let itf = sub.interface_port(name)?;
    Ok(PortRef {
        symbol: SymbolId(itf.inner.symbol.0 + offset),
        port: itf.inner.port,
    })
}

impl ComparatorSpec {
    /// Builds the Fig. 6 functional diagram.
    ///
    /// # Errors
    ///
    /// Diagram-construction errors (none occur for valid specs).
    pub fn diagram(&self) -> Result<FunctionalDiagram, ModelError> {
        let mut d = FunctionalDiagram::new("comparator");
        d.add_parameter("gain", self.gain, Dimension::NONE);
        d.add_parameter("vhigh", self.v_high, Dimension::VOLTAGE);
        d.add_parameter("vlow", self.v_low, Dimension::VOLTAGE);
        d.add_parameter("vstrobe", self.v_strobe, Dimension::VOLTAGE);
        // Gate sharpness in 1/V.
        d.add_parameter("kgate", 20.0, Dimension::NONE / Dimension::VOLTAGE);

        // Differential + strobe input stages (Fig. 2 instances).
        let inp_sub = InputStageSpec::new("inp", 1.0 / self.rin, self.cin)
            .with_param_prefix("inp_")
            .diagram()?;
        let v_p = merged_port(&inp_sub, "v", d.symbol_count())?;
        let i_p = merged_port(&inp_sub, "iin", d.symbol_count())?;
        d.merge(inp_sub);

        let inn_sub = InputStageSpec::new("inn", 1.0 / self.rin, self.cin)
            .with_param_prefix("inn_")
            .diagram()?;
        let v_n = merged_port(&inn_sub, "v", d.symbol_count())?;
        let i_n = merged_port(&inn_sub, "iin", d.symbol_count())?;
        d.merge(inn_sub);

        let stb_sub = InputStageSpec::new("strobe", 1.0 / self.rin, self.cin)
            .with_param_prefix("stb_")
            .diagram()?;
        let v_s = merged_port(&stb_sub, "v", d.symbol_count())?;
        let i_s = merged_port(&stb_sub, "iin", d.symbol_count())?;
        d.merge(stb_sub);

        // Decision path: vdec = limit(gain·(vp − vn), vlow, vhigh).
        let diff = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false],
        });
        d.connect(v_p, d.port(diff, "in0")?)?;
        d.connect(v_n, d.port(diff, "in1")?)?;
        let amp = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Param("gain".into()))],
            Some("decision gain"),
        );
        d.connect(d.port(diff, "out")?, d.port(amp, "in")?)?;
        let clip = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Param("vlow".into())),
                ("max", PropertyValue::Param("vhigh".into())),
            ],
            Some("rails"),
        );
        d.connect(d.port(amp, "out")?, d.port(clip, "in")?)?;

        // Strobe gate: g = limit(kgate·(vs − vstrobe), 0, 1).
        let vth = d.add_symbol(SymbolKind::Parameter {
            param: "vstrobe".into(),
            dimension: Dimension::VOLTAGE,
        });
        let sdiff = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false],
        });
        d.connect(v_s, d.port(sdiff, "in0")?)?;
        d.connect(d.port(vth, "out")?, d.port(sdiff, "in1")?)?;
        let sgain = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Param("kgate".into()))],
            Some("gate sharpness"),
        );
        d.connect(d.port(sdiff, "out")?, d.port(sgain, "in")?)?;
        let sgate = d.add_symbol_with(
            SymbolKind::Limiter,
            &[
                ("min", PropertyValue::Number(0.0)),
                ("max", PropertyValue::Number(1.0)),
            ],
            Some("gate"),
        );
        d.connect(d.port(sgain, "out")?, d.port(sgate, "in")?)?;

        // Gated target: y_t = g·vdec + (1 − g)·off_value.
        let gated = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, true],
        });
        d.connect(d.port(sgate, "out")?, d.port(gated, "in0")?)?;
        d.connect(d.port(clip, "out")?, d.port(gated, "in1")?)?;
        let one = d.add_symbol(SymbolKind::Constant { value: 1.0 });
        let inv_g = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false],
        });
        d.connect(d.port(one, "out")?, d.port(inv_g, "in0")?)?;
        d.connect(d.port(sgate, "out")?, d.port(inv_g, "in1")?)?;
        let off_mul = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, true],
        });
        d.connect(d.port(inv_g, "out")?, d.port(off_mul, "in0")?)?;
        // Off-state source: latch memory or a fixed level parameter.
        let hold_delay = match self.off_state {
            OffState::Hold => {
                let delay = d.add_symbol(SymbolKind::UnitDelay);
                d.connect(d.port(delay, "out")?, d.port(off_mul, "in1")?)?;
                Some(delay)
            }
            OffState::Level(level) => {
                d.add_parameter("voff", level, Dimension::VOLTAGE);
                let voff = d.add_symbol(SymbolKind::Parameter {
                    param: "voff".into(),
                    dimension: Dimension::VOLTAGE,
                });
                d.connect(d.port(voff, "out")?, d.port(off_mul, "in1")?)?;
                None
            }
        };
        let target = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, true],
        });
        d.connect(d.port(gated, "out")?, d.port(target, "in0")?)?;
        d.connect(d.port(off_mul, "out")?, d.port(target, "in1")?)?;

        // Slew-rate block (Fig. 5).
        let slew_sub = SlewRateSpec::new(self.slew_rise, self.slew_fall).diagram()?;
        let u = merged_port(&slew_sub, "u", d.symbol_count())?;
        let y = merged_port(&slew_sub, "y", d.symbol_count())?;
        d.merge(slew_sub);
        d.connect(d.port(target, "out")?, u)?;
        if let Some(delay) = hold_delay {
            d.connect(y, d.port(delay, "in")?)?;
        }

        // Fully balanced outputs (Fig. 3 instances): out_p follows y,
        // out_m follows −y.
        let outp_sub = OutputStageSpec::new("outp", self.gout)
            .with_current_limit(self.ilim)
            .with_param_prefix("outp_")
            .diagram()?;
        let vin_p = merged_port(&outp_sub, "vin", d.symbol_count())?;
        let i_outp = merged_port(&outp_sub, "iout", d.symbol_count())?;
        d.merge(outp_sub);
        d.connect(y, vin_p)?;

        let mirror = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Number(-1.0))],
            Some("balance"),
        );
        d.connect(y, d.port(mirror, "in")?)?;
        let outn_sub = OutputStageSpec::new("outn", self.gout)
            .with_current_limit(self.ilim)
            .with_param_prefix("outn_")
            .diagram()?;
        let vin_n = merged_port(&outn_sub, "vin", d.symbol_count())?;
        let i_outn = merged_port(&outn_sub, "iout", d.symbol_count())?;
        d.merge(outn_sub);
        d.connect(d.port(mirror, "out")?, vin_n)?;

        // Power supply (Fig. 4): the balance sheet covers *all* stage
        // currents — both output stages and the three input stages.
        let psu_sub = PowerSupplySpec::new("vdd", "vss", self.gpol, self.iloss, 5).diagram()?;
        let o_psu = d.symbol_count();
        let stage_currents = [i_outp, i_outn, i_p, i_n, i_s];
        let mut stage_inputs = Vec::with_capacity(stage_currents.len());
        for k in 0..stage_currents.len() {
            stage_inputs.push(merged_port(&psu_sub, &format!("istage{k}"), o_psu)?);
        }
        d.merge(psu_sub);
        for (src, dst) in stage_currents.into_iter().zip(stage_inputs) {
            d.connect(src, dst)?;
        }
        Ok(d)
    }

    /// Builds the definition card (§2.1 view).
    ///
    /// # Errors
    ///
    /// Card validation errors (none occur for valid specs).
    pub fn card(&self) -> Result<DefinitionCard, ModelError> {
        let mut b = DefinitionCard::builder("comparator")
            .describe("triggered comparator: differential input, strobe, balanced current-limited outputs, slew rate, full power supply")
            .pin("inp", PinDomain::Electrical, "non-inverting input")
            .pin("inn", PinDomain::Electrical, "inverting input")
            .pin("strobe", PinDomain::Electrical, "strobe (trigger) input")
            .pin("outp", PinDomain::Electrical, "non-inverted output")
            .pin("outn", PinDomain::Electrical, "inverted output")
            .pin("vdd", PinDomain::Electrical, "positive supply")
            .pin("vss", PinDomain::Electrical, "negative supply")
            .parameter("gain", self.gain, Dimension::NONE, "decision gain")
            .parameter("vhigh", self.v_high, Dimension::VOLTAGE, "high output rail")
            .parameter("vlow", self.v_low, Dimension::VOLTAGE, "low output rail")
            .parameter(
                "vstrobe",
                self.v_strobe,
                Dimension::VOLTAGE,
                "strobe threshold",
            )
            .parameter(
                "kgate",
                20.0,
                Dimension::NONE / Dimension::VOLTAGE,
                "strobe gate sharpness",
            )
            .characteristic("transfer function", CharacteristicClass::Primary, "sign(vp - vn) scaled to the rails")
            .characteristic("input impedance", CharacteristicClass::Primary, "Rin || Cin per input")
            .characteristic("output impedance", CharacteristicClass::Primary, "1/gout per output")
            .characteristic("current limitation", CharacteristicClass::SecondOrder, "|iout| <= ilim")
            .characteristic("slew rate", CharacteristicClass::SecondOrder, "output slope limited")
            .characteristic("supply current", CharacteristicClass::SecondOrder, "polarization + loss + balance");
        for (prefix, what) in [
            ("inp_", "non-inverting input"),
            ("inn_", "inverting input"),
            ("stb_", "strobe input"),
        ] {
            b = b
                .parameter(
                    &format!("{prefix}gin"),
                    1.0 / self.rin,
                    Dimension::CONDUCTANCE,
                    &format!("{what} conductance"),
                )
                .parameter(
                    &format!("{prefix}cin"),
                    self.cin,
                    Dimension::CAPACITANCE,
                    &format!("{what} capacitance"),
                );
        }
        for prefix in ["outp_", "outn_"] {
            b = b
                .parameter(
                    &format!("{prefix}gout"),
                    self.gout,
                    Dimension::CONDUCTANCE,
                    "output conductance",
                )
                .parameter(
                    &format!("{prefix}ilim"),
                    self.ilim,
                    Dimension::CURRENT,
                    "output current limit",
                );
        }
        b = b
            .parameter(
                "srise",
                self.slew_rise,
                Dimension::VOLTAGE_RATE,
                "max rise rate",
            )
            .parameter(
                "sfall",
                self.slew_fall,
                Dimension::VOLTAGE_RATE,
                "max fall rate",
            )
            .parameter(
                "gpol",
                self.gpol,
                Dimension::CONDUCTANCE,
                "polarization conductance",
            )
            .parameter("iloss", self.iloss, Dimension::CURRENT, "loss current");
        if let OffState::Level(level) = self.off_state {
            b = b.parameter("voff", level, Dimension::VOLTAGE, "un-strobed output level");
        }
        Ok(b.build()?)
    }

    /// Generates the FAS code of the model.
    ///
    /// # Errors
    ///
    /// Diagram or code-generation errors.
    pub fn fas_code(&self) -> Result<String, ModelError> {
        let d = self.diagram()?;
        Ok(generate(&d, Backend::Fas)?.text)
    }

    /// Runs the diagram through the code generator and FAS front end,
    /// yielding the compiled model (backend-independent).
    ///
    /// # Errors
    ///
    /// Diagram, code-generation or FAS compilation errors.
    pub fn model(&self) -> Result<CompiledModel, ModelError> {
        let code = self.fas_code()?;
        Ok(compile(&code)?)
    }

    /// Compiles and instantiates the model on the FAS executor.
    ///
    /// # Errors
    ///
    /// Any pipeline stage error.
    pub fn machine(&self) -> Result<Box<dyn BehavioralModel>, ModelError> {
        crate::fas_machine(&self.fas_code()?)
    }

    /// Pin order of the generated model (for `add_behavioral`).
    pub fn pin_order() -> [&'static str; 7] {
        ["inp", "inn", "strobe", "outp", "outn", "vdd", "vss"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::check::check_diagram;
    use gabm_sim::analysis::tran::TranSpec;
    use gabm_sim::circuit::Circuit;
    use gabm_sim::devices::SourceWave;

    #[test]
    fn diagram_is_consistent() {
        let d = ComparatorSpec::default().diagram().unwrap();
        let r = check_diagram(&d);
        assert!(r.is_consistent(), "{:?}", r.diagnostics);
        assert!(d.symbol_count() > 40, "only {} symbols", d.symbol_count());
    }

    #[test]
    fn card_matches_diagram() {
        let spec = ComparatorSpec::default();
        let card = spec.card().unwrap();
        let diagram = spec.diagram().unwrap();
        assert!(card.matches_diagram(&diagram).is_ok());
        assert_eq!(card.pins().len(), 7);
    }

    #[test]
    fn fas_code_compiles() {
        let code = ComparatorSpec::default().fas_code().unwrap();
        assert!(code.contains("model comparator"));
        assert!(code.contains("volt.value(strobe)"));
        let model = compile(&code).unwrap();
        assert_eq!(model.pins().len(), 7);
    }

    #[test]
    fn level_off_state_variant() {
        let spec = ComparatorSpec {
            off_state: OffState::Level(2.0),
            ..ComparatorSpec::default()
        };
        let d = spec.diagram().unwrap();
        assert!(check_diagram(&d).is_consistent());
        let code = spec.fas_code().unwrap();
        assert!(code.contains("voff"));
        assert!(spec.card().unwrap().parameter("voff").is_ok());
    }

    /// Full electrical test: strobed comparison of a DC differential input.
    #[test]
    fn comparator_decides_when_strobed() {
        let spec = ComparatorSpec::default();
        let machine = spec.machine().unwrap();
        let mut ckt = Circuit::new();
        let inp = ckt.node("inp");
        let inn = ckt.node("inn");
        let strobe = ckt.node("strobe");
        let outp = ckt.node("outp");
        let outn = ckt.node("outn");
        let vdd = ckt.node("vdd");
        let vss = ckt.node("vss");
        ckt.add_behavioral("XCMP", &[inp, inn, strobe, outp, outn, vdd, vss], machine)
            .unwrap();
        ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(2.5));
        ckt.add_vsource("VSS", vss, Circuit::GROUND, SourceWave::dc(-2.5));
        ckt.add_vsource("VP", inp, Circuit::GROUND, SourceWave::dc(0.3));
        ckt.add_vsource("VN", inn, Circuit::GROUND, SourceWave::dc(-0.3));
        // Strobe turns on at 5 µs.
        ckt.add_vsource(
            "VSTB",
            strobe,
            Circuit::GROUND,
            SourceWave::pulse(-1.0, 1.0, 5e-6, 1e-7, 1e-7, 40e-6, 0.0),
        );
        ckt.add_resistor("RLP", outp, Circuit::GROUND, 10e3)
            .unwrap();
        ckt.add_resistor("RLN", outn, Circuit::GROUND, 10e3)
            .unwrap();
        let result = ckt.tran(&TranSpec::new(20e-6)).unwrap();
        let wp = result.voltage_waveform(outp).unwrap();
        let wn = result.voltage_waveform(outn).unwrap();
        // Before the strobe, output holds its initial (0) state.
        assert!(wp.value_at(2e-6).unwrap().abs() < 0.2);
        // After the strobe, outp → vhigh, outn → vlow (inp > inn).
        let vp_end = *wp.values().last().unwrap();
        let vn_end = *wn.values().last().unwrap();
        assert!((vp_end - 2.0).abs() < 0.1, "outp = {vp_end}");
        assert!((vn_end + 2.0).abs() < 0.1, "outn = {vn_end}");
    }

    /// The supply pins must carry the balance of the output currents.
    #[test]
    fn supply_balance_holds() {
        let spec = ComparatorSpec::default();
        let machine = spec.machine().unwrap();
        let mut ckt = Circuit::new();
        let nodes: Vec<_> = ComparatorSpec::pin_order()
            .iter()
            .map(|p| ckt.node(p))
            .collect();
        ckt.add_behavioral("XCMP", &nodes, machine).unwrap();
        // Bias every pin with a source so currents are observable.
        let levels = [0.2, -0.2, 1.0, 0.0, 0.0, 2.5, -2.5];
        for (k, (pin, v)) in ComparatorSpec::pin_order().iter().zip(levels).enumerate() {
            ckt.add_vsource(
                &format!("V{k}_{pin}"),
                nodes[k],
                Circuit::GROUND,
                SourceWave::dc(v),
            );
        }
        let op = ckt.op().unwrap();
        let mut total = 0.0;
        for (k, pin) in ComparatorSpec::pin_order().iter().enumerate() {
            let i = op.current_through(&ckt, &format!("V{k}_{pin}")).unwrap();
            total += i;
        }
        // Σ of source currents = −Σ of currents into the model = 0.
        assert!(total.abs() < 1e-6, "current balance violated: {total}");
    }
}
