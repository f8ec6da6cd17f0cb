//! The FAS executor runs every model on the bytecode VM, except a model
//! whose live values overflow the VM's register file: that one runs on
//! the interpreter, chosen from the model itself.

use gabm_charac::Dut;
use gabm_fas::{compile, CompiledModel};
use gabm_fasvm::{compile_program, Executable, FasBackend, VmError};
use gabm_models::dut::fas_dut;
use gabm_sim::circuit::Circuit;
use gabm_sim::devices::{BehavioralModel, SourceWave};
use std::collections::BTreeMap;

/// A load whose current sums `n` forwarded variables
/// `make vI = volt.value(a) * kI`, all live until the final sum.
fn wide_model(n: usize) -> CompiledModel {
    let mut src = String::from("model wide pin (a) param (g=1e-6)\nanalog\n");
    for i in 0..n {
        src.push_str(&format!(
            "make v{i} = volt.value(a) * {}\n",
            1.0 + i as f64 / 1000.0
        ));
    }
    let sum: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    src.push_str(&format!(
        "make curr.on(a) = g * ({})\nendanalog\nendmodel\n",
        sum.join(" + ")
    ));
    compile(&src).expect("wide model compiles")
}

/// Operating point of `instance` loading a 1 V source.
fn op_of(instance: Box<dyn BehavioralModel>) -> Vec<f64> {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
    ckt.add_behavioral("X1", &[a], instance).unwrap();
    ckt.op().unwrap().solution().to_vec()
}

fn dut_op(dut: &impl Dut) -> Vec<f64> {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.add_vsource("V1", a, Circuit::GROUND, SourceWave::dc(1.0));
    dut.instantiate(&mut ckt, "X1", &[a]).unwrap();
    ckt.op().unwrap().solution().to_vec()
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn register_overflow_falls_back_to_the_interpreter() {
    let model = wide_model(300);
    assert!(matches!(
        compile_program(&model),
        Err(VmError::RegisterPressure { .. })
    ));
    assert!(matches!(
        Executable::new(model.clone()),
        Executable::Interp(_)
    ));
    let reference = op_of(Box::new(model.instantiate(&BTreeMap::new()).unwrap()));
    let via_backend = FasBackend.instantiate(&model, &BTreeMap::new()).unwrap();
    assert_eq!(bits(&op_of(via_backend)), bits(&reference));
    let dut = fas_dut(model, BTreeMap::new()).unwrap();
    assert_eq!(bits(&dut_op(&dut)), bits(&reference));
    // The source sees the model's current: g · Σ kI at 1 V.
    assert!(reference[1] < 0.0, "the model draws current: {reference:?}");
}

#[test]
fn models_within_capacity_run_on_the_vm() {
    let model = wide_model(100);
    assert!(compile_program(&model).is_ok());
    assert!(matches!(Executable::new(model.clone()), Executable::Vm(_)));
    let instance = FasBackend.instantiate(&model, &BTreeMap::new()).unwrap();
    assert!(format!("{instance:?}").starts_with("FasVm"));
}
