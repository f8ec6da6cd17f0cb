//! Experiment builders regenerating every table and figure of the paper.
//!
//! Each module of [`experiments`] owns one experiment from DESIGN.md's
//! index; the `harness` binary prints the rows/series and times them.

pub mod experiments;

pub use experiments::comparator_bench::{
    behavioural_comparator_circuit, cmos_comparator_circuit, ComparatorStimulus,
};
pub use experiments::constructs_bench::{diagram_dut, SlewBufferSpec};
