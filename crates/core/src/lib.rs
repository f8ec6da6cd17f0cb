//! The Graphical Building Symbol (GBS) formalism of Moser et al. (EDTC 1994).
//!
//! A behavioural model is developed in three representations (the paper's
//! Fig. 1):
//!
//! 1. a **definition card** ([`card`]) — the external view: pins, parameters
//!    and the list of modelled characteristics;
//! 2. a **functional diagram** ([`diagram`]) — a graph of [`symbol`]s
//!    (interface, function, mathematical and function-generation elements)
//!    connected by nets, with the §3.2 connection rules enforced by
//!    [`check`];
//! 3. **HDL code** — generated by the `gabm-codegen` crate from the diagram.
//!
//! The formalism is quantity-aware: every signal carries a physical
//! [`quantity::Dimension`], and the consistency check refuses to combine
//! incompatible quantities — the paper's "oil and water will not mix". The
//! same mechanism extends the method to non-electrical systems (torque,
//! angular velocity): "microsystem integration becomes possible" (§2).
//!
//! The reusable [`constructs`] of §3.3 (input stage, output stage, power
//! supply, slew rate) are provided as parameterized diagram builders, and
//! [`library`] implements the model-library-with-parameter-sets workflow of
//! the paper's introduction.

pub mod card;
pub mod check;
pub mod constructs;
pub mod diag;
pub mod diagram;
pub mod hierarchy;
pub mod index;
pub mod json;
pub mod library;
pub mod quantity;
pub mod symbol;

pub use card::DefinitionCard;
pub use check::{check_diagram, CheckReport};
pub use diag::{Code, Diagnostic, Fix, FixEdit, Location, Severity};
pub use diagram::{FunctionalDiagram, NetId, PortRef, SymbolId};
pub use hierarchy::flatten;
pub use quantity::{Dimension, Quantity};
pub use symbol::{FuncKind, PortDirection, SimVar, Symbol, SymbolKind};

use std::fmt;

/// Errors produced while building or validating diagrams and cards.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A symbol id did not come from this diagram.
    UnknownSymbol(usize),
    /// A port index is out of range for its symbol.
    UnknownPort {
        /// Symbol involved.
        symbol: usize,
        /// Offending port index.
        port: usize,
    },
    /// Attempted connection violates a structural rule (e.g. two output
    /// ports driving one net).
    IllegalConnection(String),
    /// A property value or name was invalid.
    BadProperty(String),
    /// The diagram failed its consistency check; the report carries the
    /// diagnostics.
    Inconsistent(check::CheckReport),
    /// A definition-card declaration was malformed.
    BadCard(String),
    /// A named entity (pin, parameter, model) was not found.
    NotFound(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownSymbol(id) => write!(f, "unknown symbol id {id}"),
            CoreError::UnknownPort { symbol, port } => {
                write!(f, "symbol {symbol} has no port {port}")
            }
            CoreError::IllegalConnection(msg) => write!(f, "illegal connection: {msg}"),
            CoreError::BadProperty(msg) => write!(f, "bad property: {msg}"),
            CoreError::Inconsistent(report) => {
                write!(
                    f,
                    "diagram is inconsistent: {} error(s)",
                    report.error_count()
                )
            }
            CoreError::BadCard(msg) => write!(f, "bad definition card: {msg}"),
            CoreError::NotFound(what) => write!(f, "not found: {what}"),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::UnknownSymbol(3).to_string().contains("3"));
        assert!(CoreError::NotFound("x".into()).to_string().contains("x"));
        let e = CoreError::UnknownPort { symbol: 1, port: 9 };
        assert!(e.to_string().contains("port 9"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
