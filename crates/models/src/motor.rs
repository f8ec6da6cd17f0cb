//! A DC-motor behavioural model — the non-electrical extension of §2/§3.1a.
//!
//! "For the extension to non-electrical system, new conversion symbols alone
//! have to be defined (e.g. torque, angular velocity probes and
//! generators) … microsystem integration becomes possible."
//!
//! The rotational domain is mapped onto the nodal solver with the mobility
//! analogy: angular velocity is the across quantity (like voltage), torque
//! the through quantity (like current). Inertia then appears as a capacitor
//! (`J` farads), viscous friction as a resistor (`1/b` ohms) on the axle
//! node.
//!
//! Motor equations (armature inductance neglected):
//!
//! ```text
//! i = (v_a − v_b − ke·ω) / R      (electrical port, back-EMF)
//! τ = kt·i                        (torque delivered to the axle)
//! ```

use crate::ModelError;
use gabm_codegen::{generate, Backend};
use gabm_core::card::{CharacteristicClass, DefinitionCard, PinDomain};
use gabm_core::diagram::FunctionalDiagram;
use gabm_core::quantity::Dimension;
use gabm_core::symbol::{PropertyValue, SymbolKind};
use gabm_sim::devices::BehavioralModel;

/// Parameterized brushed DC motor.
#[derive(Debug, Clone, PartialEq)]
pub struct DcMotorSpec {
    /// Armature resistance (Ω).
    pub resistance: f64,
    /// Back-EMF constant (V·s/rad).
    pub ke: f64,
    /// Torque constant (N·m/A).
    pub kt: f64,
}

impl Default for DcMotorSpec {
    fn default() -> Self {
        DcMotorSpec {
            resistance: 2.0,
            ke: 0.05,
            kt: 0.05,
        }
    }
}

impl DcMotorSpec {
    /// Builds the functional diagram (pins: `ta`, `tb` electrical, `axle`
    /// rotational).
    ///
    /// # Errors
    ///
    /// Diagram-construction errors (none occur for valid specs).
    pub fn diagram(&self) -> Result<FunctionalDiagram, ModelError> {
        let mut d = FunctionalDiagram::new("dc_motor");
        d.add_parameter("rm", self.resistance, Dimension::RESISTANCE);
        // ke: volts per (rad/s) = V·s.
        d.add_parameter(
            "ke",
            self.ke,
            Dimension::VOLTAGE / Dimension::ANGULAR_VELOCITY,
        );
        // kt: torque per ampere.
        d.add_parameter("kt", self.kt, Dimension::TORQUE / Dimension::CURRENT);

        // Electrical pins with voltage probes and current generators.
        let ta = d.add_symbol(SymbolKind::Pin { name: "ta".into() });
        let pa = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let ga = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        let tb = d.add_symbol(SymbolKind::Pin { name: "tb".into() });
        let pb = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::VOLTAGE,
        });
        let gb = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        d.connect(d.port(ta, "pin")?, d.port(pa, "pin")?)?;
        d.connect(d.port(ta, "pin")?, d.port(ga, "pin")?)?;
        d.connect(d.port(tb, "pin")?, d.port(pb, "pin")?)?;
        d.connect(d.port(tb, "pin")?, d.port(gb, "pin")?)?;

        // Mechanical pin: angular-velocity probe + torque generator — the
        // "new conversion symbols" of §3.1a.
        let axle = d.add_symbol(SymbolKind::Pin {
            name: "axle".into(),
        });
        let pw = d.add_symbol(SymbolKind::Probe {
            quantity: Dimension::ANGULAR_VELOCITY,
        });
        let gt = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::TORQUE,
        });
        d.connect(d.port(axle, "pin")?, d.port(pw, "pin")?)?;
        d.connect(d.port(axle, "pin")?, d.port(gt, "pin")?)?;

        // i = (va − vb − ke·ω)/rm.
        let bemf = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Param("ke".into()))],
            Some("back-EMF"),
        );
        d.connect(d.port(pw, "out")?, d.port(bemf, "in")?)?;
        let vsum = d.add_symbol(SymbolKind::Adder {
            signs: vec![true, false, false],
        });
        d.connect(d.port(pa, "out")?, d.port(vsum, "in0")?)?;
        d.connect(d.port(pb, "out")?, d.port(vsum, "in1")?)?;
        d.connect(d.port(bemf, "out")?, d.port(vsum, "in2")?)?;
        let rm = d.add_symbol(SymbolKind::Parameter {
            param: "rm".into(),
            dimension: Dimension::RESISTANCE,
        });
        let idiv = d.add_symbol(SymbolKind::Multiplier {
            ops: vec![true, false],
        });
        d.connect(d.port(vsum, "out")?, d.port(idiv, "in0")?)?;
        d.connect(d.port(rm, "out")?, d.port(idiv, "in1")?)?;
        // Armature current enters at ta, leaves at tb (receptor sign).
        d.connect(d.port(idiv, "out")?, d.port(ga, "in")?)?;
        let neg = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Number(-1.0))],
            None,
        );
        d.connect(d.port(idiv, "out")?, d.port(neg, "in")?)?;
        d.connect(d.port(neg, "out")?, d.port(gb, "in")?)?;

        // Torque delivered to the axle: receptor convention means the model
        // absorbs −kt·i.
        let torque = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Param("kt".into()))],
            Some("torque constant"),
        );
        d.connect(d.port(idiv, "out")?, d.port(torque, "in")?)?;
        let tneg = d.add_symbol_with(
            SymbolKind::Gain,
            &[("a", PropertyValue::Number(-1.0))],
            None,
        );
        d.connect(d.port(torque, "out")?, d.port(tneg, "in")?)?;
        d.connect(d.port(tneg, "out")?, d.port(gt, "in")?)?;
        Ok(d)
    }

    /// Builds the definition card.
    ///
    /// # Errors
    ///
    /// Card validation errors (none occur for valid specs).
    pub fn card(&self) -> Result<DefinitionCard, ModelError> {
        Ok(DefinitionCard::builder("dc_motor")
            .describe("brushed DC motor: electrical port + rotational axle")
            .pin("ta", PinDomain::Electrical, "armature terminal +")
            .pin("tb", PinDomain::Electrical, "armature terminal -")
            .pin("axle", PinDomain::RotationalMechanical, "output shaft")
            .parameter(
                "rm",
                self.resistance,
                Dimension::RESISTANCE,
                "armature resistance",
            )
            .parameter(
                "ke",
                self.ke,
                Dimension::VOLTAGE / Dimension::ANGULAR_VELOCITY,
                "back-EMF constant",
            )
            .parameter(
                "kt",
                self.kt,
                Dimension::TORQUE / Dimension::CURRENT,
                "torque constant",
            )
            .characteristic(
                "torque constant",
                CharacteristicClass::Primary,
                "tau = kt * i",
            )
            .characteristic("back-EMF", CharacteristicClass::Primary, "e = ke * omega")
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
        ["ta", "tb", "axle"]
    }

    /// No-load steady-state speed for a given armature voltage.
    pub fn no_load_speed(&self, volts: f64, friction: f64) -> f64 {
        // kt·(v − ke·ω)/R = b·ω  ⇒  ω = kt·v / (R·b + kt·ke).
        self.kt * volts / (self.resistance * friction + self.kt * self.ke)
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
    fn diagram_mixes_domains_consistently() {
        let d = DcMotorSpec::default().diagram().unwrap();
        let r = check_diagram(&d);
        assert!(r.is_consistent(), "{:?}", r.diagnostics);
    }

    #[test]
    fn oil_and_water_guard_still_fires() {
        // Sanity: wiring the torque output into the current generator must
        // be caught by the quantity check.
        let spec = DcMotorSpec::default();
        let mut d = spec.diagram().unwrap();
        // Add a direct (wrong) connection torque → electrical generator of
        // a fresh pin.
        let pin = d.add_symbol(SymbolKind::Pin { name: "x".into() });
        let gen = d.add_symbol(SymbolKind::Generator {
            quantity: Dimension::CURRENT,
        });
        d.connect(d.port(pin, "pin").unwrap(), d.port(gen, "pin").unwrap())
            .unwrap();
        // torque gain is the symbol labelled "torque constant".
        let torque_sym = d
            .symbols()
            .find(|s| s.label.as_deref() == Some("torque constant"))
            .map(|s| gabm_core::diagram::SymbolId(s.id))
            .unwrap();
        d.connect(
            d.port(torque_sym, "out").unwrap(),
            d.port(gen, "in").unwrap(),
        )
        .unwrap();
        let r = check_diagram(&d);
        assert!(r
            .diagnostics
            .iter()
            .any(|di| di.message.contains("oil and water")));
    }

    #[test]
    fn fas_code_uses_mechanical_accesses() {
        let code = DcMotorSpec::default().fas_code().unwrap();
        assert!(code.contains("omega.value(axle)"), "{code}");
        assert!(code.contains("torque.on(axle)"), "{code}");
        assert!(compile(&code).is_ok());
    }

    /// Spin-up test: motor drives an inertia+friction load; steady-state
    /// speed must match the analytic no-load formula.
    #[test]
    fn spin_up_reaches_analytic_speed() {
        let spec = DcMotorSpec::default();
        let machine = spec.machine().unwrap();
        let mut ckt = Circuit::new();
        let ta = ckt.node("ta");
        let tb = ckt.node("tb");
        let axle = ckt.node("axle");
        ckt.add_behavioral("XM", &[ta, tb, axle], machine).unwrap();
        ckt.add_vsource("VARM", ta, Circuit::GROUND, SourceWave::dc(12.0));
        ckt.add_resistor("RRET", tb, Circuit::GROUND, 1e-3).unwrap();
        // Mechanical load via the mobility analogy: friction b = 1e-3
        // N·m·s/rad ⇒ resistor 1/b; inertia J = 1e-4 kg·m² ⇒ capacitor J.
        let friction = 1e-3;
        let inertia = 1e-4;
        ckt.add_resistor("RFRIC", axle, Circuit::GROUND, 1.0 / friction)
            .unwrap();
        ckt.add_capacitor("CJ", axle, Circuit::GROUND, inertia);
        // Mechanical time constant ≈ J·(R·b + kt·ke)/(R·b) … run long.
        let result = ckt.tran(&TranSpec::new(0.5)).unwrap();
        let w = result.voltage_waveform(axle).unwrap();
        let omega_end = *w.values().last().unwrap();
        let expect = spec.no_load_speed(12.0, friction);
        assert!(
            (omega_end - expect).abs() / expect < 0.02,
            "omega = {omega_end}, expected {expect}"
        );
        // The spin-up is first-order: monotonic rise.
        assert!(w.value_at(0.01).unwrap() < omega_end);
    }

    #[test]
    fn analytic_helper() {
        let m = DcMotorSpec::default();
        let w = m.no_load_speed(12.0, 1e-3);
        // kt·v/(R·b + kt·ke) = 0.05·12/(2e-3 + 2.5e-3) = 133.3 rad/s.
        assert!((w - 133.333).abs() < 0.1, "w = {w}");
    }
}
