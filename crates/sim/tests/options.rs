//! Invalid `Options` are refused before any analysis runs: OP, DC, AC and
//! transient each return an error naming the field instead of a waveform
//! computed from it.

use gabm_sim::analysis::ac::AcSpec;
use gabm_sim::analysis::tran::TranSpec;
use gabm_sim::devices::vsource::Vsource;
use gabm_sim::devices::{DiodeParams, SourceWave};
use gabm_sim::{Circuit, Options, SimError};

/// A 3 V sine through 1 kΩ into a diode-clamped 1 nF capacitor, with the
/// options changed by `set`.
fn clamp(set: &dyn Fn(&mut Options)) -> Circuit {
    let mut c = Circuit::new();
    set(&mut c.options);
    let input = c.node("in");
    let out = c.node("out");
    c.add_device(Box::new(
        Vsource::new(
            "VIN",
            input,
            Circuit::GROUND,
            SourceWave::sine(0.0, 3.0, 50.0e3),
        )
        .with_ac(1.0),
    ))
    .unwrap();
    c.add_resistor("R1", input, out, 1.0e3).unwrap();
    c.add_capacitor("C1", out, Circuit::GROUND, 1.0e-9);
    c.add_diode("D1", out, Circuit::GROUND, DiodeParams::default());
    c
}

/// One analysis on the clamp, reduced to its outcome.
type Analysis = fn(&mut Circuit) -> Result<(), SimError>;

/// OP, DC, AC and transient.
const ANALYSES: [(&str, Analysis); 4] = [
    ("op", |c| c.op().map(drop)),
    ("dc", |c| c.dc_sweep("VIN", -1.0, 1.0, 0.5).map(drop)),
    ("ac", |c| c.ac(&AcSpec::decade(2, 1.0e3, 1.0e6)).map(drop)),
    ("tran", |c| c.tran(&TranSpec::new(40.0e-6)).map(drop)),
];

/// Every analysis on the clamp fails with an error naming `field`, for
/// each value in `bad`.
fn refused_by_every_analysis(field: &str, bad: &[f64], set: fn(&mut Options, f64)) {
    for &v in bad {
        for (analysis, run) in ANALYSES {
            let mut c = clamp(&|o| set(o, v));
            match run(&mut c) {
                Err(e) => assert_eq!(
                    e.to_string(),
                    format!("bad simulator option: {field} = {v}"),
                    "{analysis} with {field} = {v}"
                ),
                Ok(()) => panic!("{analysis} accepted {field} = {v}"),
            }
        }
    }
}

#[test]
fn negative_or_non_finite_gmin_is_refused() {
    refused_by_every_analysis("gmin", &[-1.0, f64::NAN, f64::INFINITY], |o, v| o.gmin = v);
    // A zero junction floor is legal.
    let mut c = clamp(&|o| o.gmin = 0.0);
    c.tran(&TranSpec::new(40.0e-6)).expect("gmin = 0 runs");
}

#[test]
fn non_positive_or_non_finite_tran_tol_is_refused() {
    refused_by_every_analysis("tran_tol", &[0.0, -1.0, f64::NAN, f64::INFINITY], |o, v| {
        o.tran_tol = v
    });
}

#[test]
fn non_positive_or_non_finite_temperature_is_refused() {
    refused_by_every_analysis(
        "temperature",
        &[0.0, -300.0, f64::NAN, f64::INFINITY],
        |o, v| o.temperature = v,
    );
}
