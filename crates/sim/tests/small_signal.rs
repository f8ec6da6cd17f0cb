//! AC small-signal analysis against hand calculations: the MOS
//! linearization cached at the operating point must reproduce the classic
//! amplifier formulas.

use gabm_sim::analysis::ac::{AcSpec, AcSweep};
use gabm_sim::circuit::Circuit;
use gabm_sim::devices::vsource::Vsource;
use gabm_sim::devices::{MosType, MosfetParams, SourceWave};

fn nmos_params() -> MosfetParams {
    MosfetParams {
        vto: 0.8,
        kp: 100e-6,
        lambda: 0.02,
        gamma: 0.0,
        phi: 0.65,
        w: 5e-6,
        l: 1e-6,
        cgs: 0.0,
        cgd: 0.0,
        cgb: 0.0,
    }
}

/// Common-source amplifier: |A| = gm·(RD ∥ ro) at low frequency.
#[test]
fn common_source_gain_matches_hand_calc() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let gate = ckt.node("gate");
    let drain = ckt.node("drain");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(5.0));
    // Bias the gate at 1.5 V (vov = 0.7, safely saturated against the
    // 10 k load line) with the AC stimulus on top.
    ckt.add_device(Box::new(
        Vsource::new("VG", gate, Circuit::GROUND, SourceWave::dc(1.5)).with_ac(1.0),
    ))
    .unwrap();
    let rd = 10.0e3;
    ckt.add_resistor("RD", vdd, drain, rd).unwrap();
    ckt.add_mosfet(
        "M1",
        MosType::Nmos,
        drain,
        gate,
        Circuit::GROUND,
        Circuit::GROUND,
        nmos_params(),
    )
    .unwrap();
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3]),
        })
        .unwrap();
    let gain = r.voltage_at(0, drain).abs();

    // Hand calculation at the same bias. The drain settles where
    // id·RD = vdd − vds; solve the square law + load line numerically.
    let beta = 100e-6 * 5.0;
    let vov = 1.5 - 0.8;
    let lambda = 0.02;
    // Iterate the load line: id = beta/2·vov²·(1+λ·vds).
    let mut vds = 2.0;
    for _ in 0..50 {
        let id = 0.5 * beta * vov * vov * (1.0 + lambda * vds);
        vds = 5.0 - id * rd;
    }
    let id = 0.5 * beta * vov * vov * (1.0 + lambda * vds);
    let gm = beta * vov * (1.0 + lambda * vds);
    let gds = 0.5 * beta * vov * vov * lambda;
    let _ = id;
    assert!(vds > vov, "bias not in saturation: vds = {vds}");
    let expect = gm / (1.0 / rd + gds);
    assert!(
        (gain - expect).abs() / expect < 0.02,
        "gain {gain:.2} vs hand calc {expect:.2}"
    );
    // Inverting stage: phase ≈ 180°.
    let phase = r.phase_deg(drain)[0].abs();
    assert!((phase - 180.0).abs() < 1.0, "phase {phase}");
}

/// The gate capacitance makes the common-source stage a one-pole amplifier
/// from a resistive source: the AC magnitude must drop at high frequency.
#[test]
fn gate_capacitance_rolls_off() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let src = ckt.node("src");
    let gate = ckt.node("gate");
    let drain = ckt.node("drain");
    ckt.add_vsource("VDD", vdd, Circuit::GROUND, SourceWave::dc(5.0));
    ckt.add_device(Box::new(
        Vsource::new("VG", src, Circuit::GROUND, SourceWave::dc(1.5)).with_ac(1.0),
    ))
    .unwrap();
    ckt.add_resistor("RS", src, gate, 100.0e3).unwrap();
    ckt.add_resistor("RD", vdd, drain, 10.0e3).unwrap();
    let params = MosfetParams {
        cgs: 10.0e-12,
        ..nmos_params()
    };
    ckt.add_mosfet(
        "M1",
        MosType::Nmos,
        drain,
        gate,
        Circuit::GROUND,
        Circuit::GROUND,
        params,
    )
    .unwrap();
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3, 10.0e6]),
        })
        .unwrap();
    let lf = r.voltage_at(0, drain).abs();
    let hf = r.voltage_at(1, drain).abs();
    // Pole at 1/(2π·100k·10p) ≈ 159 kHz: 10 MHz is ~63x past it.
    assert!(hf < lf / 20.0, "lf {lf}, hf {hf}");
}

/// Diode AC conductance: at forward bias the measured admittance equals
/// the OP-linearized gd = Is·e^{v/vt}/vt.
#[test]
fn diode_small_signal_conductance() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    ckt.add_device(Box::new(
        Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(5.0)).with_ac(1.0),
    ))
    .unwrap();
    ckt.add_resistor("R1", a, d, 10.0e3).unwrap();
    ckt.add_diode(
        "D1",
        d,
        Circuit::GROUND,
        gabm_sim::devices::DiodeParams::default(),
    );
    let op = ckt.op().unwrap();
    let vd = op.voltage(d);
    let gd = 1e-14 * (vd / 0.025861).exp() / 0.025861;
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3]),
        })
        .unwrap();
    // Voltage divider: vd_ac = gR/(gR + gd) with gR = 1e-4.
    let expect = 1.0e-4 / (1.0e-4 + gd);
    let measured = r.voltage_at(0, d).abs();
    assert!(
        (measured - expect).abs() / expect < 0.05,
        "measured {measured:.4e}, expected {expect:.4e}"
    );
}

/// AC through a behavioural device: the cached operating-point conductance
/// of a FAS-style model appears as a resistive admittance.
#[test]
fn behavioural_device_ac_conductance() {
    use gabm_sim::devices::{BehavioralModel, EvalCtx};

    /// A nonlinear behavioural load: i = g·v³ (small-signal g_ac = 3·g·v²).
    #[derive(Debug)]
    struct CubicLoad {
        g: f64,
    }
    impl BehavioralModel for CubicLoad {
        fn pin_count(&self) -> usize {
            1
        }
        fn eval(&mut self, _ctx: &EvalCtx, v: &[f64], i: &mut [f64]) {
            i[0] = self.g * v[0] * v[0] * v[0];
        }
        fn accept(&mut self, _ctx: &EvalCtx, _v: &[f64]) {}
    }

    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let d = ckt.node("d");
    ckt.add_device(Box::new(
        Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(2.0)).with_ac(1.0),
    ))
    .unwrap();
    ckt.add_resistor("R1", a, d, 1.0e3).unwrap();
    ckt.add_behavioral("XL", &[d], Box::new(CubicLoad { g: 1.0e-4 }))
        .unwrap();
    let op = ckt.op().unwrap();
    let vd = op.voltage(d);
    // Small-signal conductance of the cubic at the OP.
    let g_ac = 3.0 * 1.0e-4 * vd * vd;
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3]),
        })
        .unwrap();
    let measured = r.voltage_at(0, d).abs();
    let expect = 1.0e-3 / (1.0e-3 + g_ac);
    assert!(
        (measured - expect).abs() / expect < 0.02,
        "measured {measured:.4}, expected {expect:.4} (vd = {vd:.3}, g_ac = {g_ac:.3e})"
    );
}

/// The per-pin gmin floor of a behavioural device follows
/// `Options::gmin` in AC as it does at the operating point: a model with
/// zero current and zero Jacobian leaves only that floor on its pin.
#[test]
fn behavioural_device_ac_uses_options_gmin() {
    use gabm_sim::devices::{BehavioralModel, EvalCtx};

    #[derive(Debug)]
    struct Open;
    impl BehavioralModel for Open {
        fn pin_count(&self) -> usize {
            1
        }
        fn eval(&mut self, _ctx: &EvalCtx, _v: &[f64], i: &mut [f64]) {
            i[0] = 0.0;
        }
        fn accept(&mut self, _ctx: &EvalCtx, _v: &[f64]) {}
    }

    let mut ckt = Circuit::new();
    ckt.options.gmin = 1.0e-6;
    let a = ckt.node("a");
    let d = ckt.node("d");
    ckt.add_device(Box::new(
        Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(1.0)).with_ac(1.0),
    ))
    .unwrap();
    ckt.add_resistor("R1", a, d, 1.0e6).unwrap();
    ckt.add_behavioral("XO", &[d], Box::new(Open)).unwrap();
    let r = ckt
        .ac(&AcSpec {
            sweep: AcSweep::List(vec![1.0e3]),
        })
        .unwrap();
    // Divider of R1 (1 µS) against the 1 µS gmin floor: |vd| = 1/2.
    let measured = r.voltage_at(0, d).abs();
    assert!(
        (measured - 0.5).abs() < 1e-9,
        "measured {measured:.6}, expected 0.5"
    );
}
