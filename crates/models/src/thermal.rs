//! An electro-thermal NTC thermistor — the "sensors" half of the paper's
//! §2 microsystem claim, using the thermal domain (temperature as the
//! across quantity, heat flow as the through quantity).
//!
//! The model couples two physical domains in one behavioural description:
//!
//! ```text
//! R(T) = r25 · exp(beta · (1/T − 1/T25))        (NTC law)
//! i    = (v_a − v_b) / R(T)                     (electrical port)
//! P    = (v_a − v_b) · i                        (self-heating, delivered
//!                                                to the thermal node)
//! ```
//!
//! In a circuit, the thermal node carries a thermal network: heat
//! capacitance = capacitor (J/K → F), thermal resistance to ambient =
//! resistor (K/W → Ω), ambient temperature = voltage source (K → V).

use crate::ModelError;
use gabm_codegen::{generate, Backend};
use gabm_core::card::{CharacteristicClass, DefinitionCard, PinDomain};
use gabm_core::diagram::FunctionalDiagram;
use gabm_core::quantity::Dimension;
use gabm_core::symbol::{FuncKind, PropertyValue, SymbolKind};
use gabm_sim::devices::BehavioralModel;

/// Parameterized NTC thermistor.
#[derive(Debug, Clone, PartialEq)]
pub struct NtcThermistorSpec {
    /// Resistance at 25 °C (Ω).
    pub r25: f64,
    /// Beta constant (K).
    pub beta: f64,
}

impl Default for NtcThermistorSpec {
    fn default() -> Self {
        NtcThermistorSpec {
            r25: 10.0e3,
            beta: 3435.0,
        }
    }
}

/// 25 °C in kelvin.
const T25: f64 = 298.15;

impl NtcThermistorSpec {
    /// Resistance at absolute temperature `t` (analytic reference).
    pub fn resistance_at(&self, t: f64) -> f64 {
        self.r25 * (self.beta * (1.0 / t - 1.0 / T25)).exp()
    }

    /// Builds the functional diagram (pins: `a`, `b` electrical, `th`
    /// thermal).
    ///
    /// # Errors
    ///
    /// Diagram-construction errors (none occur for valid specs).
    pub fn diagram(&self) -> Result<FunctionalDiagram, ModelError> {
        let mut d = FunctionalDiagram::new("ntc_thermistor");
        d.add_parameter("r25", self.r25, Dimension::RESISTANCE);
        d.add_parameter("beta", self.beta, Dimension::TEMPERATURE);
        d.add_parameter(
            "inv_t25",
            1.0 / T25,
            Dimension::NONE / Dimension::TEMPERATURE,
        );

        // Electrical port.
        let pa = d.add_symbol(SymbolKind::Pin { name: "a".into() });
        let probe_a = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let gen_a = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        let pb = d.add_symbol(SymbolKind::Pin { name: "b".into() });
        let probe_b = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let gen_b = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        d.connect(d.port(pa, "pin")?, d.port(probe_a, "pin")?)?;
        d.connect(d.port(pa, "pin")?, d.port(gen_a, "pin")?)?;
        d.connect(d.port(pb, "pin")?, d.port(probe_b, "pin")?)?;
        d.connect(d.port(pb, "pin")?, d.port(gen_b, "pin")?)?;

        // Thermal port: temperature probe + heat-flow generator — the
        // "new conversion symbols" for a thermal pin.
        let pth = d.add_symbol(SymbolKind::Pin { name: "th".into() });
        let probe_t = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::TEMPERATURE,
        });
        let gen_q = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::POWER,
        });
        d.connect(d.port(pth, "pin")?, d.port(probe_t, "pin")?)?;
        d.connect(d.port(pth, "pin")?, d.port(gen_q, "pin")?)?;

        // R(T) = r25 · exp(beta · (1/T − 1/T25)).
        let inv_t = d.add_symbol(SymbolKind::Multiplier { ops: vec![false] });
        d.connect(d.port(probe_t, "out")?, d.port(inv_t, "in0")?)?;
        let inv_t25 = d.add_symbol(SymbolKind::Parameter {
            param: "inv_t25".into(),
            dimension: Dimension::NONE / Dimension::TEMPERATURE,
        });
        let d_inv = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false],
        });
        d.connect(d.port(inv_t, "out")?, d.port(d_inv, "in0")?)?;
        d.connect(d.port(inv_t25, "out")?, d.port(d_inv, "in1")?)?;
        let beta = d.add_symbol(SymbolKind::Parameter {
            param: "beta".into(),
            dimension: Dimension::TEMPERATURE,
        });
        let exponent = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, true],
        });
        d.connect(d.port(beta, "out")?, d.port(exponent, "in0")?)?;
        d.connect(d.port(d_inv, "out")?, d.port(exponent, "in1")?)?;
        let exp = d.add_symbol(SymbolKind::Function {
            func: FuncKind::Exp,
        });
        d.connect(d.port(exponent, "out")?, d.port(exp, "in0")?)?;
        let r25 = d.add_symbol(SymbolKind::Parameter {
            param: "r25".into(),
            dimension: Dimension::RESISTANCE,
        });
        let r_of_t = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, true],
        });
        d.connect(d.port(r25, "out")?, d.port(r_of_t, "in0")?)?;
        d.connect(d.port(exp, "out")?, d.port(r_of_t, "in1")?)?;

        // i = (va − vb)/R.
        let vd = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false],
        });
        d.connect(d.port(probe_a, "out")?, d.port(vd, "in0")?)?;
        d.connect(d.port(probe_b, "out")?, d.port(vd, "in1")?)?;
        let i = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, false],
        });
        d.connect(d.port(vd, "out")?, d.port(i, "in0")?)?;
        d.connect(d.port(r_of_t, "out")?, d.port(i, "in1")?)?;
        d.connect(d.port(i, "out")?, d.port(gen_a, "in")?)?;
        let neg_i = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Number(-1.0))],
            None,
        );
        d.connect(d.port(i, "out")?, d.port(neg_i, "in")?)?;
        d.connect(d.port(neg_i, "out")?, d.port(gen_b, "in")?)?;

        // Self-heating P = vd·i, delivered to the thermal node (receptor
        // convention: the model absorbs −P).
        let power = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, true],
        });
        d.connect(d.port(vd, "out")?, d.port(power, "in0")?)?;
        d.connect(d.port(i, "out")?, d.port(power, "in1")?)?;
        let neg_p = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Number(-1.0))],
            Some("heat delivered"),
        );
        d.connect(d.port(power, "out")?, d.port(neg_p, "in")?)?;
        d.connect(d.port(neg_p, "out")?, d.port(gen_q, "in")?)?;
        Ok(d)
    }

    /// Builds the definition card.
    ///
    /// # Errors
    ///
    /// Card validation errors (none occur for valid specs).
    pub fn card(&self) -> Result<DefinitionCard, ModelError> {
        Ok(DefinitionCard::builder("ntc_thermistor")
            .describe("NTC thermistor with self-heating: electrical + thermal ports")
            .pin("a", PinDomain::Electrical, "electrical terminal")
            .pin("b", PinDomain::Electrical, "electrical terminal")
            .pin("th", PinDomain::Thermal, "thermal node (case temperature)")
            .parameter(
                "r25",
                self.r25,
                Dimension::RESISTANCE,
                "resistance at 25 degC",
            )
            .parameter("beta", self.beta, Dimension::TEMPERATURE, "beta constant")
            .parameter(
                "inv_t25",
                1.0 / T25,
                Dimension::NONE / Dimension::TEMPERATURE,
                "1 / 298.15 K",
            )
            .characteristic(
                "resistance law",
                CharacteristicClass::Primary,
                "R(T) = r25 exp(beta (1/T - 1/T25))",
            )
            .characteristic(
                "self-heating",
                CharacteristicClass::SecondOrder,
                "P = v*i into the thermal node",
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
        ["a", "b", "th"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_core::check::check_diagram;
    use gabm_fas::compile;
    use gabm_sim::circuit::Circuit;
    use gabm_sim::devices::SourceWave;

    #[test]
    fn diagram_consistent_across_domains() {
        let d = NtcThermistorSpec::default().diagram().unwrap();
        let r = check_diagram(&d);
        assert!(r.is_consistent(), "{:?}", r.diagnostics);
    }

    #[test]
    fn fas_uses_thermal_accesses() {
        let code = NtcThermistorSpec::default().fas_code().unwrap();
        assert!(code.contains("temp.value(th)"), "{code}");
        assert!(code.contains("heat.on(th)"), "{code}");
        assert!(compile(&code).is_ok());
    }

    #[test]
    fn analytic_law() {
        let spec = NtcThermistorSpec::default();
        assert!((spec.resistance_at(T25) - 10.0e3).abs() < 1e-9);
        // Hotter ⇒ lower resistance.
        assert!(spec.resistance_at(350.0) < 5.0e3);
        assert!(spec.resistance_at(273.15) > 20.0e3);
    }

    /// At a forced case temperature (stiff thermal source) the measured
    /// resistance must follow the analytic NTC law.
    #[test]
    fn resistance_tracks_forced_temperature() {
        let spec = NtcThermistorSpec::default();
        for t_case in [273.15, 298.15, 330.0] {
            let machine = spec.machine().unwrap();
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            let th = ckt.node("th");
            ckt.add_behavioral("XTH", &[a, b, th], machine).unwrap();
            ckt.add_vsource("VE", a, Circuit::GROUND, SourceWave::dc(0.1));
            ckt.add_resistor("RB", b, Circuit::GROUND, 1e-3).unwrap();
            // Force the thermal node (temperature = nodal value).
            ckt.add_vsource("VT", th, Circuit::GROUND, SourceWave::dc(t_case));
            let op = ckt.op().unwrap();
            let i = -op.current_through(&ckt, "VE").unwrap();
            let r_measured = 0.1 / i;
            let r_expected = spec.resistance_at(t_case);
            assert!(
                (r_measured - r_expected).abs() / r_expected < 1e-3,
                "T={t_case}: {r_measured} vs {r_expected}"
            );
        }
    }

    /// Self-heating equilibrium: sensor driven hard behind a thermal
    /// resistance to ambient heats up until P = (T − T_amb)/R_th.
    #[test]
    fn self_heating_reaches_thermal_equilibrium() {
        let spec = NtcThermistorSpec::default();
        let machine = spec.machine().unwrap();
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let th = ckt.node("th");
        let amb = ckt.node("amb");
        ckt.add_behavioral("XTH", &[a, Circuit::GROUND, th], machine)
            .unwrap();
        ckt.add_vsource("VE", a, Circuit::GROUND, SourceWave::dc(10.0));
        // Thermal network: R_th = 100 K/W to a 298.15 K ambient.
        let r_th = 100.0;
        ckt.add_vsource("VAMB", amb, Circuit::GROUND, SourceWave::dc(T25));
        ckt.add_resistor("RTH", amb, th, r_th).unwrap();
        let op = ckt.op().unwrap();
        let t = op.voltage(th);
        assert!(t > T25 + 0.2, "no self-heating: T = {t}");
        // Equilibrium balance: P = (T − T_amb)/R_th with P = V²/R(T).
        let p_electrical = 10.0 * 10.0 / spec.resistance_at(t);
        let p_thermal = (t - T25) / r_th;
        assert!(
            (p_electrical - p_thermal).abs() / p_thermal < 1e-2,
            "P_el = {p_electrical}, P_th = {p_thermal}"
        );
    }
}
