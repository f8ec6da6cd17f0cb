//! Quickstart: the paper's Fig. 1 pipeline on the Fig. 2 input stage.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks a model through all three representations — definition card,
//! functional diagram, HDL code — then simulates it coupled to an
//! electrical circuit and re-measures its parameters.

use gabm::charac::rigs;
use gabm::charac::Dut;
use gabm::codegen::{generate, Backend};
use gabm::core::check_diagram;
use gabm::core::constructs::InputStageSpec;
use gabm::fas::compile;
use gabm::models::dut::fas_dut;
use gabm::schematic::render_ascii;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Definition card: the external view (§2.1).
    let spec = InputStageSpec::new("in", 1.0 / 1.0e6, 5.0e-12);
    let card = spec.card()?;
    println!("{card}\n");

    // 2. Functional diagram: the graphical behaviour description (§2.2).
    let diagram = spec.diagram()?;
    let report = check_diagram(&diagram);
    println!(
        "consistency: {} errors, {} warnings",
        report.error_count(),
        report.warning_count()
    );
    println!("{}", render_ascii(&diagram));

    // 3. Code generation (§2.3): the same diagram in three HDLs.
    let fas = generate(&diagram, Backend::Fas)?;
    println!("{}", fas.text);

    // 4. Simulation: compile the FAS code and measure the model in a
    //    circuit (§2.3/§2.4).
    let model = compile(&fas.text)?;
    let dut = fas_dut(model, BTreeMap::new())?;
    let rin = rigs::input_resistance(&dut, "in", &[])?;
    let cin = rigs::input_capacitance(&dut, "in", &[], 5.0e-12)?;
    println!("extracted: {rin}");
    println!("extracted: {cin}");
    println!("assigned:  rin = 1.000000e6 ohm, cin = 5.000000e-12 F");
    println!("(pins: {:?})", dut.pin_names());
    Ok(())
}
