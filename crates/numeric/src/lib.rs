//! Numerical substrate for the `gabm` workspace.
//!
//! This crate provides everything the analogue simulator (`gabm-sim`) and the
//! characterization tool (`gabm-charac`) need from numerical mathematics:
//!
//! * [`dense`] — dense matrices generic over a [`Scalar`] (real or complex);
//! * [`lu`] — LU factorization with partial pivoting, again generic, used for
//!   both the real Newton iterations of transient analysis and the complex
//!   solves of AC small-signal analysis;
//! * [`sparse`] — compressed sparse column matrices with a triplet builder;
//! * [`splu`] — a left-looking (Gilbert–Peierls) sparse LU with partial
//!   pivoting and numeric refactorization, for systems larger than the
//!   simulator builds;
//! * [`complex`] — a self-contained [`Complex64`] (no external dependency);
//! * [`newton`] — SPICE-style convergence criteria and damping helpers;
//! * [`integrate`] — the trapezoidal rule: its coefficients, the committed
//!   history of a reactive element and the local-truncation-error estimate;
//! * [`interp`] — linear interpolation;
//! * [`waveform`] — sampled signals with arithmetic;
//! * [`measure`] — waveform measurements (crossings, slew rates, RMS,
//!   Fourier components, …) used by the extraction rigs.
//!
//! # Example
//!
//! ```
//! use gabm_numeric::dense::DenseMatrix;
//! use gabm_numeric::lu::LuFactor;
//!
//! # fn main() -> Result<(), gabm_numeric::NumericError> {
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0][..], &[1.0, 3.0][..]])?;
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod complex;
pub mod dense;
pub mod integrate;
pub mod interp;
pub mod lu;
pub mod measure;
pub mod newton;
pub mod plot;
pub mod rng;
pub mod sparse;
pub mod splu;
pub mod waveform;

pub use complex::Complex64;
pub use dense::DenseMatrix;
pub use lu::LuFactor;
pub use rng::Rng;
pub use sparse::{SparseMatrix, TripletBuilder};
pub use splu::SparseLu;
pub use waveform::Waveform;

use std::fmt;

/// Errors produced by the numerical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A matrix was singular (or numerically singular) at the given pivot
    /// position.
    Singular {
        /// Row/column index of the failed pivot.
        pivot: usize,
    },
    /// Matrix or vector dimensions do not agree.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        found: usize,
    },
    /// An operation needed a non-empty input.
    Empty,
    /// Input data was malformed (e.g. ragged rows, non-monotonic abscissae).
    InvalidInput(String),
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
        /// Last residual norm observed.
        residual: f64,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            NumericError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NumericError::Empty => write!(f, "operation requires non-empty input"),
            NumericError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            NumericError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for NumericError {}

/// Field element usable by the generic dense linear algebra.
///
/// Implemented for `f64` and [`Complex64`]. [`Scalar::magnitude`] is used by
/// partial pivoting; [`Scalar::from_f64`] lifts real constants into the field.
pub trait Scalar:
    Copy
    + fmt::Debug
    + PartialEq
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Modulus (absolute value) used for pivot selection.
    fn magnitude(&self) -> f64;
    /// Lift a real number into the field.
    fn from_f64(x: f64) -> Self;
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn magnitude(&self) -> f64 {
        self.abs()
    }
    fn from_f64(x: f64) -> Self {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = NumericError::Singular { pivot: 3 };
        assert!(e.to_string().contains("pivot 3"));
        let e = NumericError::DimensionMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = NumericError::NoConvergence {
            iterations: 10,
            residual: 1.0,
        };
        assert!(e.to_string().contains("10 iterations"));
    }

    #[test]
    fn f64_scalar_impl() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!((-3.0f64).magnitude(), 3.0);
        assert_eq!(<f64 as Scalar>::from_f64(2.5), 2.5);
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
