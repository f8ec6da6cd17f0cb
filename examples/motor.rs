//! Non-electrical behavioural modelling (the paper's §2 microsystem claim):
//! a DC motor with torque / angular-velocity conversion symbols, spinning
//! up a mechanical load, co-simulated with its electrical drive.
//!
//! ```text
//! cargo run --example motor
//! ```

use gabm::models::DcMotorSpec;
use gabm::schematic::render_ascii;
use gabm::sim::analysis::tran::TranSpec;
use gabm::sim::circuit::Circuit;
use gabm::sim::devices::SourceWave;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = DcMotorSpec::default();
    println!("{}", spec.card()?);
    let diagram = spec.diagram()?;
    println!("{}", render_ascii(&diagram));
    println!("{}", spec.fas_code()?);

    // Electrical side: 12 V drive with a series switch resistance.
    // Mechanical side (mobility analogy): inertia = capacitor, friction =
    // resistor on the axle node; angular velocity is the nodal quantity.
    let machine = spec.machine()?;
    let mut ckt = Circuit::new();
    let ta = ckt.node("ta");
    let tb = ckt.node("tb");
    let axle = ckt.node("axle");
    ckt.add_behavioral("XMOT", &[ta, tb, axle], machine)?;
    ckt.add_vsource(
        "VBAT",
        ta,
        Circuit::GROUND,
        SourceWave::pulse(0.0, 12.0, 10.0e-3, 1.0e-4, 1.0e-4, 10.0, 0.0),
    );
    ckt.add_resistor("RRET", tb, Circuit::GROUND, 1.0e-3)?;
    let friction = 1.0e-3; // N·m·s/rad
    let inertia = 1.0e-4; // kg·m²
    ckt.add_resistor("RFRIC", axle, Circuit::GROUND, 1.0 / friction)?;
    ckt.add_capacitor("CJ", axle, Circuit::GROUND, inertia);

    let result = ckt.tran(&TranSpec::new(0.5))?;
    let w = result.voltage_waveform(axle)?;
    println!("time [ms]   omega [rad/s]");
    for k in 0..=20 {
        let t = 0.5 * k as f64 / 20.0;
        println!("{:8.1}   {:10.2}", t * 1e3, w.value_at(t)?);
    }
    let omega_end = *w.values().last().expect("non-empty run");
    println!(
        "steady state: {omega_end:.2} rad/s (analytic {:.2} rad/s)",
        spec.no_load_speed(12.0, friction)
    );
    Ok(())
}
