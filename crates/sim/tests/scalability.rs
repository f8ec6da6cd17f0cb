//! Scalability: circuits far larger than the paper's comparator (hundreds
//! of unknowns) still solve on the dense LU, to closed-form answers.

use gabm_sim::analysis::tran::TranSpec;
use gabm_sim::circuit::{Circuit, NodeId};
use gabm_sim::devices::SourceWave;

/// Builds an n-stage RC ladder driven by a step.
fn rc_ladder(n: usize) -> (Circuit, Vec<NodeId>) {
    let mut ckt = Circuit::new();
    let mut nodes = Vec::with_capacity(n + 1);
    let input = ckt.node("in");
    nodes.push(input);
    ckt.add_vsource(
        "V1",
        input,
        Circuit::GROUND,
        SourceWave::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 1.0, 0.0),
    );
    for k in 0..n {
        let next = ckt.node(&format!("n{k}"));
        ckt.add_resistor(&format!("R{k}"), nodes[k], next, 1.0e3)
            .expect("valid resistor");
        ckt.add_capacitor(&format!("C{k}"), next, Circuit::GROUND, 1.0e-9);
        nodes.push(next);
    }
    (ckt, nodes)
}

#[test]
fn rc_ladder_transient_shows_diffusion_delay() {
    let n = 80; // 81 nodes + 1 branch unknown
                // Diffusive settling of an n-stage RC line ~ 0.5 n^2 RC = 3.2 ms.
    let (mut ckt, nodes) = rc_ladder(n);
    let r = ckt.tran(&TranSpec::new(20.0e-3)).expect("tran");
    let w = r.voltage_waveform(nodes[n]).expect("waveform");
    // The far end lags the input substantially but eventually rises.
    assert!(w.value_at(100.0e-6).unwrap() < 0.3);
    assert!(*w.values().last().unwrap() > 0.8);
}

#[test]
fn resistive_ladder_op_matches_its_recurrence() {
    // 1 V through n stages of a series `RS` and a shunt `RP` to ground.
    const N: usize = 300;
    const RS: f64 = 1.0;
    const RP: f64 = 10.0e3;
    let mut ckt = Circuit::new();
    let input = ckt.node("in");
    ckt.add_vsource("V1", input, Circuit::GROUND, SourceWave::dc(1.0));
    let mut nodes = vec![input];
    for k in 0..N {
        let next = ckt.node(&format!("n{k}"));
        ckt.add_resistor(&format!("RS{k}"), nodes[k], next, RS)
            .expect("valid resistor");
        ckt.add_resistor(&format!("RP{k}"), next, Circuit::GROUND, RP)
            .expect("valid resistor");
        nodes.push(next);
    }
    assert_eq!(ckt.n_unknowns(), N + 2);
    let op = ckt.op().expect("OP converges");

    // z[k]: resistance from node k+1 to ground, the rest of the ladder
    // included; each series resistor divides with the load behind it.
    let mut z = vec![RP; N];
    for k in (0..N - 1).rev() {
        let behind = RS + z[k + 1];
        z[k] = RP * behind / (RP + behind);
    }
    let mut v = 1.0;
    for (k, zk) in z.iter().enumerate() {
        v *= zk / (RS + zk);
        let got = op.voltage(nodes[k + 1]);
        assert!((got - v).abs() < 1e-9, "stage {k}: {got} vs {v}");
    }
    // The far end is attenuated but far from zero: every stage counts.
    assert!((0.01..0.2).contains(&v), "far end {v}");
}
