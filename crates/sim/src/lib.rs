//! A SPICE-class analogue circuit simulator.
//!
//! This crate is the *electrical simulator substrate* of the `gabm`
//! workspace: it plays the role ANACAD's ELDO plays in the paper — the engine
//! that simulates both transistor-level circuits and behavioural (FAS)
//! models, coupled in one nodal system.
//!
//! # Architecture
//!
//! * [`circuit`] — the netlist: named nodes and a list of devices;
//! * [`device`] — the [`Device`](device::Device) trait and the
//!   [`Stamper`](device::Stamper) each device writes its modified-nodal-
//!   analysis (MNA) contribution into;
//! * [`devices`] — R, C, L, independent V/I sources (DC, sine, pulse, PWL),
//!   the four controlled sources, diode, MOSFET level 1, a smooth switch and
//!   the [`BehavioralModel`](devices::BehavioralModel) bridge that lets `gabm-fas`
//!   models participate in the Newton iteration;
//! * [`analysis`] — operating point (with gmin and source stepping),
//!   DC sweeps, adaptive-step transient and AC small-signal analysis.
//!
//! # Example: RC low-pass step response
//!
//! ```
//! use gabm_sim::circuit::Circuit;
//! use gabm_sim::devices::SourceWave;
//! use gabm_sim::analysis::tran::TranSpec;
//!
//! # fn main() -> Result<(), gabm_sim::SimError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.add_vsource("V1", vin, Circuit::GROUND, SourceWave::dc(1.0));
//! ckt.add_resistor("R1", vin, vout, 1.0e3)?;
//! ckt.add_capacitor("C1", vout, Circuit::GROUND, 1.0e-6);
//! let result = ckt.tran(&TranSpec::new(5.0e-3))?;
//! let w = result.voltage_waveform(vout)?;
//! // After 5 time constants the output has settled at the input value.
//! assert!((w.values().last().unwrap() - 1.0).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod circuit;
pub mod device;
pub mod devices;
pub mod netlist;
pub mod options;

pub use circuit::{Circuit, NodeId};
pub use options::Options;

use std::fmt;

/// Errors produced by netlist construction and the analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A device parameter was out of its legal range.
    BadParameter {
        /// Device instance name.
        device: String,
        /// Explanation of the violation.
        message: String,
    },
    /// Two devices share an instance name.
    DuplicateDevice(String),
    /// A node id did not come from this circuit.
    UnknownNode(usize),
    /// A named element was not found (e.g. DC-sweep source).
    UnknownDevice(String),
    /// The Newton iteration failed to converge.
    NoConvergence {
        /// Analysis that failed ("op", "dc", "tran").
        analysis: &'static str,
        /// Extra context (e.g. the time point).
        detail: String,
    },
    /// The MNA matrix was singular — usually a floating node or a loop of
    /// voltage sources.
    SingularMatrix {
        /// Human-readable hint naming the offending unknown if known.
        detail: String,
    },
    /// A linear solve produced a NaN or infinite value — usually an
    /// infinite or NaN source or parameter.
    NonFinite {
        /// The first non-finite unknown, e.g. `node 'a'`.
        unknown: String,
    },
    /// The transient step controller hit its minimum step ("timestep too
    /// small" in SPICE terms).
    TimestepTooSmall {
        /// Simulated time reached before the failure.
        time: f64,
    },
    /// A result was queried for a quantity that was not stored.
    MissingResult(String),
    /// Invalid analysis specification.
    BadAnalysis(String),
    /// A simulator [`Options`] field holds a value no analysis can use.
    BadOption {
        /// The field, e.g. `tran_tol`.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A netlist card could not be parsed or built.
    Parse {
        /// 1-based source line of the offending card.
        line: usize,
        /// What is wrong with the card.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadParameter { device, message } => {
                write!(f, "bad parameter on {device}: {message}")
            }
            SimError::DuplicateDevice(name) => write!(f, "duplicate device name {name}"),
            SimError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            SimError::UnknownDevice(name) => write!(f, "unknown device {name}"),
            SimError::NoConvergence { analysis, detail } => {
                write!(f, "{analysis} analysis failed to converge: {detail}")
            }
            SimError::SingularMatrix { detail } => {
                write!(f, "singular MNA matrix: {detail}")
            }
            SimError::NonFinite { unknown } => {
                write!(f, "non-finite solution value at {unknown}")
            }
            SimError::TimestepTooSmall { time } => {
                write!(f, "timestep too small at t = {time:.6e} s")
            }
            SimError::MissingResult(what) => write!(f, "missing result: {what}"),
            SimError::BadAnalysis(msg) => write!(f, "bad analysis spec: {msg}"),
            SimError::BadOption { field, value } => {
                write!(f, "bad simulator option: {field} = {value}")
            }
            SimError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<gabm_numeric::NumericError> for SimError {
    fn from(e: gabm_numeric::NumericError) -> Self {
        match e {
            gabm_numeric::NumericError::Singular { pivot } => SimError::SingularMatrix {
                detail: format!("pivot {pivot}"),
            },
            other => SimError::BadAnalysis(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::NoConvergence {
            analysis: "tran",
            detail: "t=1e-6".into(),
        };
        assert!(e.to_string().contains("tran"));
        let e = SimError::TimestepTooSmall { time: 1e-6 };
        assert!(e.to_string().contains("timestep"));
    }

    #[test]
    fn numeric_error_conversion() {
        let e: SimError = gabm_numeric::NumericError::Singular { pivot: 2 }.into();
        assert!(matches!(e, SimError::SingularMatrix { .. }));
    }
}
