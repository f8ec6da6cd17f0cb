//! Adapters exposing the library models to the characterization tool.

use crate::cmos::CmosComparator;
use crate::ModelError;
use gabm_charac::{Dut, FnDut};
use gabm_fas::CompiledModel;
use gabm_fasvm::Executable;
use gabm_sim::circuit::{Circuit, NodeId};
use gabm_sim::SimError;
use std::collections::BTreeMap;

/// Wraps a compiled FAS model (plus parameter overrides) as a [`Dut`].
/// The model is compiled to bytecode once, here; every rig circuit gets
/// a fresh instance of it, which shares the code and allocates only its
/// own state.
///
/// # Errors
///
/// [`ModelError::Fas`] on overrides of undeclared parameters.
pub fn fas_dut(
    model: CompiledModel,
    overrides: BTreeMap<String, f64>,
) -> Result<impl Dut, ModelError> {
    // Validate the overrides up front.
    model.signature().param_values(&overrides)?;
    let executable = Executable::new(model.clone());
    let build = move |ckt: &mut Circuit, name: &str, nodes: &[NodeId]| -> Result<(), SimError> {
        let instance = executable
            .instantiate(&overrides)
            .expect("overrides validated at construction");
        ckt.add_behavioral(name, nodes, instance)
    };
    Ok(FnDut::new(&model.pins(), build))
}

/// Wraps the transistor-level comparator as a [`Dut`].
pub fn cmos_comparator_dut(comparator: CmosComparator) -> impl Dut {
    FnDut::new(
        &CmosComparator::pin_order(),
        move |ckt: &mut Circuit, name: &str, nodes: &[NodeId]| {
            comparator
                .instantiate(ckt, name, nodes)
                .map_err(|e| match e {
                    ModelError::Sim(s) => s,
                    other => SimError::BadAnalysis(other.to_string()),
                })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gabm_charac::rigs;
    use gabm_charac::Bias;
    use gabm_fas::compile;

    #[test]
    fn fas_dut_round_trip() {
        let model = compile(
            "model load pin (a) param (g=1e-3)\nanalog\nmake v = volt.value(a)\nmake curr.on(a) = g * v\nendanalog\nendmodel\n",
        )
        .unwrap();
        let dut = fas_dut(model, BTreeMap::new()).unwrap();
        assert_eq!(dut.pin_names(), vec!["a"]);
        let rin = rigs::input_resistance(&dut, "a", &[]).unwrap();
        assert!((rin.value - 1000.0).abs() < 1.0, "rin = {}", rin.value);
    }

    #[test]
    fn fas_dut_vm_backend_matches_interp() {
        let model = compile(
            "model load pin (a) param (g=1e-3)\nanalog\nmake v = volt.value(a)\nmake curr.on(a) = g * v\nendanalog\nendmodel\n",
        )
        .unwrap();
        let reference = model.clone();
        let interp = FnDut::new(
            &["a"],
            move |ckt: &mut Circuit, name: &str, nodes: &[NodeId]| {
                let machine = reference.instantiate(&BTreeMap::new()).unwrap();
                ckt.add_behavioral(name, nodes, Box::new(machine))
            },
        );
        let vm = fas_dut(model, BTreeMap::new()).unwrap();
        let ri = rigs::input_resistance(&interp, "a", &[]).unwrap();
        let rv = rigs::input_resistance(&vm, "a", &[]).unwrap();
        assert!(
            (ri.value - rv.value).abs() < 1e-9,
            "executors measure the same Rin: interp {} vm {}",
            ri.value,
            rv.value
        );
    }

    #[test]
    fn fas_dut_with_overrides() {
        let model = compile(
            "model load pin (a) param (g=1e-3)\nanalog\nmake v = volt.value(a)\nmake curr.on(a) = g * v\nendanalog\nendmodel\n",
        )
        .unwrap();
        let mut overrides = BTreeMap::new();
        overrides.insert("g".to_string(), 2e-3);
        let dut = fas_dut(model.clone(), overrides).unwrap();
        let rin = rigs::input_resistance(&dut, "a", &[]).unwrap();
        assert!((rin.value - 500.0).abs() < 1.0);
        // Bad override rejected eagerly.
        let mut bad = BTreeMap::new();
        bad.insert("zz".to_string(), 1.0);
        assert!(fas_dut(model, bad).is_err());
    }

    #[test]
    fn cmos_dut_measures_transfer() {
        let dut = cmos_comparator_dut(CmosComparator::new());
        let xs = rigs::dc_transfer(
            &dut,
            "inp",
            "out",
            &[
                ("inn", Bias::Ground),
                ("strobe", Bias::Voltage(2.5)),
                ("vdd", Bias::Voltage(2.5)),
                ("vss", Bias::Voltage(-2.5)),
            ],
            -0.5,
            0.5,
            0.05,
        )
        .unwrap();
        let hi = xs.iter().find(|x| x.name == "out_high").unwrap().value;
        let lo = xs.iter().find(|x| x.name == "out_low").unwrap().value;
        assert!(hi > 1.5, "out_high = {hi}");
        assert!(lo < -1.5, "out_low = {lo}");
        let gain = xs.iter().find(|x| x.name == "gain").unwrap().value;
        assert!(gain > 10.0, "gain = {gain}");
    }
}
