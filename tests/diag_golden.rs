//! Byte-exact goldens for the diagram front end: the rendered text and JSON
//! of the diagram diagnostics (including every help line and every
//! "established because" / "inferred because" note of an inference chain),
//! and the generated FAS listing of every built-in construct and model.
//! Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test diag_golden
//! ```

use gabm::codegen::{generate, Backend};
use gabm::core::constructs::{InputStageSpec, OutputStageSpec, PowerSupplySpec, SlewRateSpec};
use gabm::core::symbol::PropertyValue;
use gabm::core::{Dimension, FuncKind, FunctionalDiagram, SymbolId, SymbolKind};
use gabm::lint::{lint_diagram, render_json, render_text};
use gabm::models::{ComparatorSpec, DcMotorSpec, NtcThermistorSpec, OpampSpec};

fn golden(file: &str, actual: &str) {
    let path = format!(
        "{}/tests/fixtures/golden/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        actual, expected,
        "output drifted from tests/fixtures/golden/{file};\n\
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn golden_diagnostics(name: &str, d: &FunctionalDiagram) {
    let diags = lint_diagram(d);
    assert!(!diags.is_empty(), "{name} must produce diagnostics");
    golden(&format!("{name}.txt"), &render_text(&diags));
    golden(&format!("{name}.json"), &render_json(&diags));
}

fn gain(d: &mut FunctionalDiagram, a: PropertyValue) -> SymbolId {
    d.add_symbol_with(SymbolKind::Gain, &[("a", a)], None)
}

fn wire(d: &mut FunctionalDiagram, from: SymbolId, out: &str, to: SymbolId, input: &str) {
    let a = d.port(from, out).unwrap();
    let b = d.port(to, input).unwrap();
    d.connect(a, b).unwrap();
}

/// A pin with a probe of `quantity` attached.
fn probed_pin(d: &mut FunctionalDiagram, name: &str, quantity: Dimension) -> SymbolId {
    let pin = d.add_symbol(SymbolKind::Pin { name: name.into() });
    let probe = d.add_symbol(SymbolKind::Probe { quantity });
    wire(d, pin, "pin", probe, "pin");
    probe
}

#[test]
fn gabm001_two_drivers_on_one_net() {
    // The builder refuses a second driver, so the net arrives patched
    // into a serialized diagram, the way a hand-edited file would.
    let mut d = FunctionalDiagram::new("dup");
    let c1 = d.add_symbol(SymbolKind::Constant { value: 1.0 });
    d.add_symbol(SymbolKind::Constant { value: 2.0 });
    let g = gain(&mut d, PropertyValue::Number(1.0));
    wire(&mut d, c1, "out", g, "in");
    let json = gabm::core::json::to_string(&d);
    let patched = json.replacen("\"ports\":[", "\"ports\":[{\"symbol\":2,\"port\":0},", 1);
    assert_ne!(json, patched, "fixture patch must apply");
    let d: FunctionalDiagram = gabm::core::json::from_str(&patched).unwrap();
    golden_diagnostics("gabm001_two_drivers", &d);
}

#[test]
fn gabm002_undriven_net_with_candidate_drivers() {
    let mut d = FunctionalDiagram::new("undriven");
    let gen = d.add_symbol(SymbolKind::Generator {
        quantity: Dimension::CURRENT,
    });
    let g = gain(&mut d, PropertyValue::Number(1.0));
    d.add_symbol(SymbolKind::Probe {
        quantity: Dimension::VOLTAGE,
    });
    for k in 0..2 {
        d.add_symbol(SymbolKind::Parameter {
            param: format!("i{k}"),
            dimension: Dimension::CURRENT,
        });
    }
    wire(&mut d, gen, "in", g, "in");
    golden_diagnostics("gabm002_candidates", &d);
}

#[test]
fn gabm003_unconnected_input_with_candidate_sources() {
    let mut d = FunctionalDiagram::new("dangling");
    let gen = d.add_symbol(SymbolKind::Generator {
        quantity: Dimension::VOLTAGE,
    });
    let probe = d.add_symbol(SymbolKind::Probe {
        quantity: Dimension::VOLTAGE,
    });
    wire(&mut d, gen, "pin", probe, "pin");
    d.add_symbol(SymbolKind::Probe {
        quantity: Dimension::CURRENT,
    });
    gain(&mut d, PropertyValue::Number(2.0));
    golden_diagnostics("gabm003_candidates", &d);
}

#[test]
fn gabm007_conflict_explains_both_multi_hop_chains() {
    // A probed voltage becomes a current through three gains and fixes
    // the adder's dimension; the current flows backwards through a fourth
    // gain and meets the voltage rate a differentiator makes of a voltage
    // parameter. Both sides of the conflict carry a multi-hop chain.
    let mut d = FunctionalDiagram::new("mix");
    d.add_parameter("gm", 1.0e-3, Dimension::CONDUCTANCE);
    let probe = probed_pin(&mut d, "in", Dimension::VOLTAGE);
    let g1 = gain(&mut d, PropertyValue::Number(2.0));
    let g2 = gain(&mut d, PropertyValue::Number(3.0));
    let g3 = gain(&mut d, PropertyValue::Param("gm".into()));
    let add = d.add_symbol(SymbolKind::Adder {
        signs: vec![true, false],
    });
    let p = d.add_symbol(SymbolKind::Parameter {
        param: "vref".into(),
        dimension: Dimension::VOLTAGE,
    });
    let g4 = gain(&mut d, PropertyValue::Number(4.0));
    let d1 = d.add_symbol(SymbolKind::Differentiator);
    let out = d.add_symbol(SymbolKind::Pin { name: "out".into() });
    let gen = d.add_symbol(SymbolKind::Generator {
        quantity: Dimension::CURRENT,
    });
    d.add_parameter("vref", 1.0, Dimension::VOLTAGE);
    wire(&mut d, probe, "out", g1, "in");
    wire(&mut d, g1, "out", g2, "in");
    wire(&mut d, g2, "out", g3, "in");
    wire(&mut d, g3, "out", add, "in0");
    wire(&mut d, p, "out", d1, "in");
    wire(&mut d, d1, "out", g4, "in");
    wire(&mut d, g4, "out", add, "in1");
    wire(&mut d, add, "out", gen, "in");
    wire(&mut d, out, "pin", gen, "pin");
    golden_diagnostics("gabm007_chain", &d);
}

#[test]
fn gabm012_function_input_chain() {
    let mut d = FunctionalDiagram::new("expv");
    d.add_parameter("vscale", 1.0, Dimension::VOLTAGE);
    let probe = probed_pin(&mut d, "in", Dimension::VOLTAGE);
    let mut prev = probe;
    for k in 0..3 {
        let g = gain(&mut d, PropertyValue::Number(f64::from(k) + 1.0));
        wire(&mut d, prev, "out", g, "in");
        prev = g;
    }
    let f = d.add_symbol(SymbolKind::Function {
        func: FuncKind::Exp,
    });
    wire(&mut d, prev, "out", f, "in0");
    let scale = gain(&mut d, PropertyValue::Param("vscale".into()));
    wire(&mut d, f, "out", scale, "in");
    let out = d.add_symbol(SymbolKind::Pin { name: "out".into() });
    let gen = d.add_symbol(SymbolKind::Generator {
        quantity: Dimension::VOLTAGE,
    });
    wire(&mut d, scale, "out", gen, "in");
    wire(&mut d, out, "pin", gen, "pin");
    golden_diagnostics("gabm012_chain", &d);
}

#[test]
fn gabm008_three_symbol_loop() {
    let mut d = FunctionalDiagram::new("loop");
    let g1 = gain(&mut d, PropertyValue::Number(1.0));
    let lim = d.add_symbol_with(
        SymbolKind::Limiter,
        &[
            ("min", PropertyValue::Number(-1.0)),
            ("max", PropertyValue::Number(1.0)),
        ],
        Some("clip"),
    );
    let g3 = gain(&mut d, PropertyValue::Number(0.5));
    wire(&mut d, g1, "out", lim, "in");
    wire(&mut d, lim, "out", g3, "in");
    wire(&mut d, g3, "out", g1, "in");
    golden_diagnostics("gabm008_loop", &d);
}

#[test]
fn structural_warnings_and_property_errors() {
    // GABM004/005/006/009/010/011 from one diagram.
    let mut d = FunctionalDiagram::new("mixed");
    d.add_parameter("ghost", 1.0, Dimension::NONE);
    let pin = d.add_symbol(SymbolKind::Pin { name: "a".into() });
    let probe = d.add_symbol(SymbolKind::Probe {
        quantity: Dimension::VOLTAGE,
    });
    wire(&mut d, pin, "pin", probe, "pin");
    d.add_symbol(SymbolKind::Constant { value: 3.0 });
    let c = d.add_symbol(SymbolKind::Constant { value: 1.0 });
    let lim = d.add_symbol_with(
        SymbolKind::Limiter,
        &[
            ("min", PropertyValue::Number(5.0)),
            ("max", PropertyValue::Number(1.0)),
        ],
        None,
    );
    wire(&mut d, c, "out", lim, "in");
    let bare = d.add_symbol(SymbolKind::Gain);
    wire(&mut d, lim, "out", bare, "in");
    golden_diagnostics("structural", &d);
}

#[test]
fn generated_fas_listings() {
    let listings: Vec<(&str, FunctionalDiagram)> = vec![
        (
            "input_stage",
            InputStageSpec::new("in", 1.0e-6, 5.0e-12)
                .diagram()
                .unwrap(),
        ),
        (
            "output_stage",
            OutputStageSpec::new("out", 1.0e-3)
                .with_current_limit(1.0e-2)
                .diagram()
                .unwrap(),
        ),
        (
            "power_supply",
            PowerSupplySpec::new("vdd", "vss", 1.0e-5, 1.0e-6, 2)
                .diagram()
                .unwrap(),
        ),
        (
            "slew_rate",
            SlewRateSpec::new(2.0e6, 2.0e6).diagram().unwrap(),
        ),
        ("comparator", ComparatorSpec::default().diagram().unwrap()),
        ("opamp", OpampSpec::default().diagram().unwrap()),
        ("dc_motor", DcMotorSpec::default().diagram().unwrap()),
        (
            "ntc_thermistor",
            NtcThermistorSpec::default().diagram().unwrap(),
        ),
    ];
    for (name, d) in listings {
        let code = generate(&d, Backend::Fas).unwrap();
        golden(&format!("{name}.fas"), &code.text);
    }
}
