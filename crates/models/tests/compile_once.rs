//! A FAS DUT compiles its model to bytecode once, however many rig
//! circuits instantiate it. Trace state is process-global, so this file
//! holds a single test.

use gabm_charac::{rigs, Bias};
use gabm_models::dut::fas_dut;
use gabm_models::ComparatorSpec;
use gabm_trace::Event;
use std::collections::BTreeMap;

#[test]
fn fas_dut_compiles_bytecode_once_across_rigs() {
    let model = ComparatorSpec::default().model().unwrap();
    gabm_trace::enable();
    let dut = fas_dut(model, BTreeMap::new()).unwrap();
    let response_bias = [
        ("inp", Bias::Voltage(0.3)),
        ("inn", Bias::Voltage(-0.3)),
        ("outp", Bias::Open),
        ("outn", Bias::Open),
        ("vdd", Bias::Voltage(2.5)),
        ("vss", Bias::Voltage(-2.5)),
    ];
    rigs::response_time(
        &dut,
        "strobe",
        "outp",
        &response_bias,
        -1.0,
        1.0,
        1.0,
        40.0e-6,
    )
    .unwrap();
    let supply_bias = [
        ("inp", Bias::Voltage(0.2)),
        ("inn", Bias::Voltage(-0.2)),
        ("strobe", Bias::Voltage(1.0)),
        ("vdd", Bias::Voltage(2.5)),
        ("vss", Bias::Voltage(-2.5)),
    ];
    rigs::supply_currents(&dut, "vdd", "vss", &supply_bias).unwrap();
    let trace = gabm_trace::finish();
    let compiles = trace
        .threads
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| {
            matches!(
                e,
                Event::Begin {
                    name: "fasvm.compile",
                    ..
                }
            )
        })
        .count();
    assert_eq!(
        compiles, 1,
        "bytecode compilations for one DUT and two rigs"
    );
}
