//! An ELDO-FAS-like behavioural hardware description language.
//!
//! "Since no standard AHDL is available yet, ANACAD's ELDO-FAS language is
//! used" (paper §2.3). This crate implements the FAS dialect that
//! `gabm-codegen` emits, end to end:
//!
//! * [`lexer`] / [`parser`] — text → AST for `model … analog … endanalog`
//!   files, with `make` assignments, `if (mode=dc)` guards and the
//!   `volt.value` / `curr.on` / `state.*` access functions;
//! * [`compile`](mod@compile) — semantic analysis (declared pins/params, use before
//!   definition, forward references only inside `state.delay`) and lowering
//!   to an index-resolved executable form;
//! * [`machine`] — the runtime: a [`machine::FasRuntime`] holds a model's
//!   committed state and implements `gabm-sim`'s
//!   [`BehavioralModel`](gabm_sim::devices::BehavioralModel) for any
//!   executable body, so a compiled FAS model drops into any circuit as a
//!   device and is solved together with transistor-level elements —
//!   exactly how ELDO co-simulates FAS macromodels with SPICE netlists.
//!   The interpreter ([`machine::FasMachine`]) runs the [`CompiledModel`]
//!   tree; `gabm-fasvm` runs bytecode in the same shell;
//! * [`dual`] — the value lanes (`f64` and dual numbers) that define every
//!   op's numeric rule once, for both executors.
//!
//! # Language semantics notes
//!
//! * `state.dt(x)` — time derivative `(x − x_prev)/dt`, where `x_prev` is
//!   committed at the last accepted time point; `0` in DC.
//! * `state.delay(y)` — the value of variable `y` at the previous accepted
//!   time point (the paper's "variable delay element, duration: 1 current
//!   time step"). Forward references are legal: the delay reads committed
//!   state only.
//! * `timestep` — the current step of the simulation engine. In DC it
//!   reads as a very large pseudo-step (1e9 s), which makes slope-limiter
//!   patterns like the slew-rate construct degenerate gracefully to
//!   `y = u` at the operating point.
//!
//! # Example
//!
//! ```
//! use gabm_fas::compile;
//!
//! # fn main() -> Result<(), gabm_fas::FasError> {
//! let src = "\
//! model load pin (a) param (g=1.0e-3)
//! analog
//! make v1 = volt.value(a)
//! make curr.on(a) = g * v1
//! endanalog
//! endmodel
//! ";
//! let model = compile(src)?;
//! assert_eq!(model.pins(), ["a"]);
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod compile;
pub mod dual;
pub mod lexer;
pub mod machine;
pub mod parser;
pub mod printer;
pub mod testgen;

pub use compile::{compile, CompiledModel};
pub use machine::FasMachine;
pub use parser::parse;
pub use printer::print_model;

use std::fmt;

/// Position in the source text (1-based line, 1-based column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// Line number.
    pub line: usize,
    /// Column number.
    pub col: usize,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors of the FAS front end and runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum FasError {
    /// Lexical error.
    Lex {
        /// Location.
        pos: Pos,
        /// Description.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// Location.
        pos: Pos,
        /// Description.
        message: String,
    },
    /// Semantic error (undeclared pin, use before definition, …).
    Semantic(String),
    /// Instantiation-time error (unknown parameter override).
    Instantiate(String),
}

impl fmt::Display for FasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FasError::Lex { pos, message } => write!(f, "lex error at {pos}: {message}"),
            FasError::Parse { pos, message } => write!(f, "parse error at {pos}: {message}"),
            FasError::Semantic(msg) => write!(f, "semantic error: {msg}"),
            FasError::Instantiate(msg) => write!(f, "instantiation error: {msg}"),
        }
    }
}

impl std::error::Error for FasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = FasError::Parse {
            pos: Pos { line: 3, col: 7 },
            message: "expected make".into(),
        };
        assert!(e.to_string().contains("3:7"));
        assert!(FasError::Semantic("x".into()).to_string().contains("x"));
    }
}
