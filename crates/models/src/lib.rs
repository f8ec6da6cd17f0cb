//! Model library: the paper's evaluation vehicles plus extension models.
//!
//! * [`comparator`] — the triggered comparator of Fig. 6, assembled from
//!   the §3.3 constructs (differential input stage, fully balanced
//!   current-limited output stage, complete power supply, strobe input,
//!   slew rate) and executed through generated FAS code;
//! * [`cmos`] — the transistor-level (11 MOS, level-1) CMOS comparator used
//!   as the paper's SPICE baseline in §5, plus its process parameters;
//! * [`opamp`] — a single-pole behavioural operational amplifier
//!   demonstrating the transfer-function GBS;
//! * [`motor`] — a DC-motor model with torque/angular-velocity probes and
//!   generators (§2: "this method can be used to develop models of
//!   non-electrical systems … microsystem integration becomes possible");
//! * [`dut`] — glue adapting compiled FAS models and subcircuits to the
//!   characterization tool's `Dut` interface.
//!
//! Every FAS model here runs on the executor of [`gabm_fasvm`]: the
//! `machine()` methods and [`dut::fas_dut`] all go through it.

pub mod cmos;
pub mod comparator;
pub mod dut;
pub mod motor;
pub mod opamp;
pub mod thermal;

pub use cmos::CmosComparator;
pub use comparator::ComparatorSpec;
pub use motor::DcMotorSpec;
pub use opamp::OpampSpec;
pub use thermal::NtcThermistorSpec;

use gabm_sim::devices::BehavioralModel;
use std::fmt;

/// Compiles generated FAS code and instantiates it on the FAS executor:
/// the one path every `machine()` method takes.
fn fas_machine(code: &str) -> Result<Box<dyn BehavioralModel>, ModelError> {
    let model = gabm_fas::compile(code)?;
    Ok(gabm_fasvm::FasBackend.instantiate(&model, &Default::default())?)
}

/// Errors of the model library.
#[derive(Debug)]
pub enum ModelError {
    /// Diagram construction failed.
    Core(gabm_core::CoreError),
    /// Code generation failed.
    Codegen(gabm_codegen::CodegenError),
    /// FAS compilation failed (indicates a codegen/language mismatch).
    Fas(gabm_fas::FasError),
    /// Netlist construction failed.
    Sim(gabm_sim::SimError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Core(e) => write!(f, "diagram error: {e}"),
            ModelError::Codegen(e) => write!(f, "code generation error: {e}"),
            ModelError::Fas(e) => write!(f, "FAS error: {e}"),
            ModelError::Sim(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<gabm_core::CoreError> for ModelError {
    fn from(e: gabm_core::CoreError) -> Self {
        ModelError::Core(e)
    }
}

impl From<gabm_codegen::CodegenError> for ModelError {
    fn from(e: gabm_codegen::CodegenError) -> Self {
        ModelError::Codegen(e)
    }
}

impl From<gabm_fas::FasError> for ModelError {
    fn from(e: gabm_fas::FasError) -> Self {
        ModelError::Fas(e)
    }
}

impl From<gabm_sim::SimError> for ModelError {
    fn from(e: gabm_sim::SimError) -> Self {
        ModelError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ModelError::Core(gabm_core::CoreError::NotFound("x".into()));
        assert!(e.to_string().contains("diagram error"));
    }
}
