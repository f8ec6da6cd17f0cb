//! Interpolation over sampled data.
//!
//! Transient results are sampled on the *variable* time grid the step
//! policy produced; the measurement routines and the waveform comparison
//! of Fig. 7 need values at arbitrary instants, hence linear interpolation.

use crate::NumericError;

/// Validates that `xs` is strictly increasing and matches `ys` in length.
fn validate(xs: &[f64], ys: &[f64]) -> Result<(), NumericError> {
    if xs.is_empty() {
        return Err(NumericError::Empty);
    }
    if xs.len() != ys.len() {
        return Err(NumericError::DimensionMismatch {
            expected: xs.len(),
            found: ys.len(),
        });
    }
    if xs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(NumericError::InvalidInput(
            "abscissae must be strictly increasing".into(),
        ));
    }
    Ok(())
}

/// Linear interpolation of `(xs, ys)` at `x`, clamping outside the domain.
///
/// # Errors
///
/// * [`NumericError::Empty`] for empty inputs.
/// * [`NumericError::DimensionMismatch`] if lengths differ.
/// * [`NumericError::InvalidInput`] if `xs` is not strictly increasing.
pub fn linear(xs: &[f64], ys: &[f64], x: f64) -> Result<f64, NumericError> {
    validate(xs, ys)?;
    if x <= xs[0] {
        return Ok(ys[0]);
    }
    if x >= xs[xs.len() - 1] {
        return Ok(ys[ys.len() - 1]);
    }
    let i = match xs.partition_point(|&v| v <= x) {
        0 => 0,
        p => p - 1,
    };
    let t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    Ok(ys[i] + t * (ys[i + 1] - ys[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_basic() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 10.0, 0.0];
        assert_eq!(linear(&xs, &ys, 0.5).unwrap(), 5.0);
        assert_eq!(linear(&xs, &ys, 1.5).unwrap(), 5.0);
        // Clamping.
        assert_eq!(linear(&xs, &ys, -1.0).unwrap(), 0.0);
        assert_eq!(linear(&xs, &ys, 3.0).unwrap(), 0.0);
        // Exact knots.
        assert_eq!(linear(&xs, &ys, 1.0).unwrap(), 10.0);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(linear(&[], &[], 0.0), Err(NumericError::Empty)));
        assert!(matches!(
            linear(&[0.0, 1.0], &[0.0], 0.5),
            Err(NumericError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            linear(&[0.0, 0.0], &[1.0, 2.0], 0.0),
            Err(NumericError::InvalidInput(_))
        ));
    }
}
