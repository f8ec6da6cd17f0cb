//! The FAS executor: every model runs on the bytecode VM, except a model
//! past the bytecode's capacity ([`VmError`]), which runs on the
//! tree-walking interpreter instead. The choice follows from the model,
//! never from an option.

use crate::{compile_program, Program};
use gabm_fas::compile::CompiledModel;
use gabm_fas::FasError;
use gabm_sim::devices::BehavioralModel;
use std::collections::BTreeMap;

/// Instantiates FAS models on the executor, compiling bytecode on every
/// call. To instantiate one model many times, compile it once with
/// [`Executable::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FasBackend;

impl FasBackend {
    /// Instantiates `model` as a boxed [`BehavioralModel`], ready for
    /// `Circuit::add_behavioral`.
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] on overrides of undeclared parameters.
    pub fn instantiate(
        self,
        model: &CompiledModel,
        overrides: &BTreeMap<String, f64>,
    ) -> Result<Box<dyn BehavioralModel>, FasError> {
        match compile_program(model) {
            Ok(prog) => Ok(Box::new(prog.instantiate(overrides)?)),
            Err(_) => Ok(Box::new(model.instantiate(overrides)?)),
        }
    }
}

/// A FAS model compiled once for any number of instances.
#[derive(Debug, Clone)]
pub enum Executable {
    /// Bytecode for the VM: every model within the encoding's capacity.
    Vm(Program),
    /// A model past the bytecode's capacity, run on the interpreter.
    Interp(CompiledModel),
}

impl Executable {
    /// Compiles `model` to bytecode, keeping the model itself for the
    /// interpreter when compilation hits a capacity limit.
    pub fn new(model: CompiledModel) -> Executable {
        match compile_program(&model) {
            Ok(prog) => Executable::Vm(prog),
            Err(_) => Executable::Interp(model),
        }
    }

    /// Instantiates the compiled model as a boxed [`BehavioralModel`].
    ///
    /// # Errors
    ///
    /// [`FasError::Instantiate`] on overrides of undeclared parameters.
    pub fn instantiate(
        &self,
        overrides: &BTreeMap<String, f64>,
    ) -> Result<Box<dyn BehavioralModel>, FasError> {
        match self {
            Executable::Vm(prog) => Ok(Box::new(prog.instantiate(overrides)?)),
            Executable::Interp(model) => Ok(Box::new(model.instantiate(overrides)?)),
        }
    }
}
