//! The paper's evaluation example (§5): the triggered comparator, simulated
//! both as a generated FAS behavioural model and as the 11-transistor CMOS
//! circuit, under the same stimulus.
//!
//! ```text
//! cargo run --release --example comparator
//! ```

use gabm::models::comparator::{ComparatorSpec, OffState};
use gabm::models::CmosComparator;
use gabm::numeric::measure::{crossings, Edge};
use gabm::sim::analysis::tran::TranSpec;
use gabm::sim::circuit::{Circuit, NodeId};
use gabm::sim::devices::SourceWave;
use std::time::Instant;

fn stimulus(ckt: &mut Circuit, inp: NodeId, inn: NodeId, strobe: NodeId) {
    ckt.add_vsource(
        "VINP",
        inp,
        Circuit::GROUND,
        SourceWave::sine(0.0, 0.25, 50.0e3),
    );
    ckt.add_vsource(
        "VINN",
        inn,
        Circuit::GROUND,
        SourceWave::Sine {
            offset: 0.0,
            ampl: 0.25,
            freq: 50.0e3,
            delay: 0.0,
            phase: std::f64::consts::PI,
        },
    );
    ckt.add_vsource(
        "VSTB",
        strobe,
        Circuit::GROUND,
        SourceWave::pulse(-2.5, 2.5, 2.5e-6, 50e-9, 50e-9, 4.0e-6, 10.0e-6),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tstop = 60.0e-6;

    // --- behavioural model (generated FAS) --------------------------------
    let spec = ComparatorSpec {
        off_state: OffState::Hold,
        ..ComparatorSpec::default()
    };
    println!("{}", spec.card()?);
    let machine = spec.machine()?;
    let mut beh = Circuit::new();
    let nodes: Vec<NodeId> = ComparatorSpec::pin_order()
        .iter()
        .map(|p| beh.node(p))
        .collect();
    beh.add_behavioral("XCMP", &nodes, machine)?;
    beh.add_vsource("VDD", nodes[5], Circuit::GROUND, SourceWave::dc(2.5));
    beh.add_vsource("VSS", nodes[6], Circuit::GROUND, SourceWave::dc(-2.5));
    stimulus(&mut beh, nodes[0], nodes[1], nodes[2]);
    beh.add_resistor("RLP", nodes[3], Circuit::GROUND, 10.0e3)?;
    beh.add_resistor("RLN", nodes[4], Circuit::GROUND, 10.0e3)?;
    let t0 = Instant::now();
    let rb = beh.tran(&TranSpec::new(tstop))?;
    let t_beh = t0.elapsed();
    let w_beh = rb.voltage_waveform(nodes[3])?;

    // --- transistor-level circuit (11 MOS) --------------------------------
    let mut cmos = Circuit::new();
    let cn: Vec<NodeId> = CmosComparator::pin_order()
        .iter()
        .map(|p| cmos.node(p))
        .collect();
    CmosComparator::new().instantiate(&mut cmos, "XC", &cn)?;
    cmos.add_vsource("VDD", cn[4], Circuit::GROUND, SourceWave::dc(2.5));
    cmos.add_vsource("VSS", cn[5], Circuit::GROUND, SourceWave::dc(-2.5));
    stimulus(&mut cmos, cn[0], cn[1], cn[2]);
    cmos.add_resistor("RL", cn[3], Circuit::GROUND, 10.0e3)?;
    let t0 = Instant::now();
    let rc = cmos.tran(&TranSpec::new(tstop))?;
    let t_cmos = t0.elapsed();
    let w_cmos = rc.voltage_waveform(cn[3])?;

    // --- comparison --------------------------------------------------------
    println!(
        "behavioural: {} steps, {} NR iterations, {t_beh:?}",
        rb.stats.accepted_steps, rb.stats.newton_iterations
    );
    println!(
        "transistor:  {} steps, {} NR iterations, {t_cmos:?}",
        rc.stats.accepted_steps, rc.stats.newton_iterations
    );
    println!(
        "speedup {:.2}x (paper: 15.2 s / 4.9 s = 3.1x on a Sun Sparc 10/30)",
        t_cmos.as_secs_f64() / t_beh.as_secs_f64()
    );
    let tb = crossings(&w_beh, 0.0, Edge::Any)?;
    let tc = crossings(&w_cmos, 0.0, Edge::Any)?;
    println!(
        "output zero crossings: behavioural {} / transistor {}",
        tb.len(),
        tc.len()
    );
    Ok(())
}
