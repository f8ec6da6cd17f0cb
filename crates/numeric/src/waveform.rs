//! Sampled signals on a (possibly non-uniform) time grid.
//!
//! A [`Waveform`] is the exchange currency between the transient engine, the
//! measurement routines of [`crate::measure`], and the figure harness that
//! regenerates the paper's waveform plots (Fig. 7).

use crate::interp;
use crate::NumericError;

/// A real-valued signal sampled at strictly increasing instants.
///
/// # Example
///
/// ```
/// use gabm_numeric::Waveform;
///
/// # fn main() -> Result<(), gabm_numeric::NumericError> {
/// let w = Waveform::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0])?;
/// assert_eq!(w.value_at(0.5)?, 0.5);
/// assert_eq!(w.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Waveform {
    /// Creates an empty waveform.
    pub fn new() -> Self {
        Waveform::default()
    }

    /// Builds a waveform from parallel sample vectors.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if lengths differ.
    /// * [`NumericError::InvalidInput`] if times are not strictly increasing.
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Result<Self, NumericError> {
        if times.len() != values.len() {
            return Err(NumericError::DimensionMismatch {
                expected: times.len(),
                found: values.len(),
            });
        }
        if times.windows(2).any(|w| w[1] <= w[0]) {
            return Err(NumericError::InvalidInput(
                "sample times must be strictly increasing".into(),
            ));
        }
        Ok(Waveform { times, values })
    }

    /// Samples `f` uniformly on `[t0, t1]` with `n` points (`n >= 2`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `t1 <= t0`.
    pub fn from_fn(t0: f64, t1: f64, n: usize, mut f: impl FnMut(f64) -> f64) -> Self {
        assert!(n >= 2, "need at least two samples");
        assert!(t1 > t0, "t1 must exceed t0");
        let dt = (t1 - t0) / (n - 1) as f64;
        let times: Vec<f64> = (0..n).map(|k| t0 + k as f64 * dt).collect();
        let values = times.iter().map(|&t| f(t)).collect();
        Waveform { times, values }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not exceed the last stored time.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t > last, "time {t} does not advance past {last}");
        }
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the waveform holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// First sample time.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Empty`] for an empty waveform.
    pub fn t_start(&self) -> Result<f64, NumericError> {
        self.times.first().copied().ok_or(NumericError::Empty)
    }

    /// Last sample time.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Empty`] for an empty waveform.
    pub fn t_end(&self) -> Result<f64, NumericError> {
        self.times.last().copied().ok_or(NumericError::Empty)
    }

    /// Linearly interpolated value at `t` (clamped outside the domain).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Empty`] for an empty waveform.
    pub fn value_at(&self, t: f64) -> Result<f64, NumericError> {
        interp::linear(&self.times, &self.values, t)
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Pointwise combination with another waveform on this waveform's grid.
    ///
    /// # Errors
    ///
    /// Propagates interpolation errors (e.g. empty operand).
    pub fn zip_with(
        &self,
        other: &Waveform,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Waveform, NumericError> {
        let mut out = Waveform::new();
        for (&t, &v) in self.times.iter().zip(&self.values) {
            out.push(t, f(v, other.value_at(t)?));
        }
        Ok(out)
    }

    /// Root-mean-square difference against `other`, evaluated on this grid.
    /// Used to assert behavioural-vs-circuit waveform agreement (Fig. 7).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Empty`] if either waveform is empty.
    pub fn rms_difference(&self, other: &Waveform) -> Result<f64, NumericError> {
        if self.is_empty() || other.is_empty() {
            return Err(NumericError::Empty);
        }
        let diff = self.zip_with(other, |a, b| (a - b) * (a - b))?;
        let mean = diff.values.iter().sum::<f64>() / diff.len() as f64;
        Ok(mean.sqrt())
    }

    /// Serializes the waveform as CSV rows `time,value` (with header).
    pub fn to_csv(&self, name: &str) -> String {
        let mut s = format!("time,{name}\n");
        for (t, v) in self.times.iter().zip(&self.values) {
            s.push_str(&format!("{t:.9e},{v:.9e}\n"));
        }
        s
    }
}

impl FromIterator<(f64, f64)> for Waveform {
    /// Collects `(time, value)` pairs; panics (via [`Waveform::push`]) if the
    /// times do not strictly increase.
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut w = Waveform::new();
        for (t, v) in iter {
            w.push(t, v);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![1.0, 2.0]).unwrap();
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert!(Waveform::from_samples(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(Waveform::from_samples(vec![0.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn from_fn_samples_uniformly() {
        let w = Waveform::from_fn(0.0, 1.0, 11, |t| 2.0 * t);
        assert_eq!(w.len(), 11);
        assert!((w.value_at(0.5).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(w.t_start().unwrap(), 0.0);
        assert_eq!(w.t_end().unwrap(), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not advance")]
    fn push_requires_increasing_time() {
        let mut w = Waveform::new();
        w.push(1.0, 0.0);
        w.push(1.0, 0.0);
    }

    #[test]
    fn min_max() {
        let w = Waveform::from_fn(0.0, 1.0, 101, |t| (2.0 * std::f64::consts::PI * t).sin());
        assert!((w.max() - 1.0).abs() < 1e-3);
        assert!((w.min() + 1.0).abs() < 1e-3);
    }

    #[test]
    fn zip_with_and_rms() {
        let a = Waveform::from_fn(0.0, 1.0, 50, |_| 1.0);
        let b = Waveform::from_fn(0.0, 1.0, 77, |_| 0.0);
        let d = a.zip_with(&b, |x, y| x - y).unwrap();
        assert!((d.max() - 1.0).abs() < 1e-12);
        assert!((a.rms_difference(&b).unwrap() - 1.0).abs() < 1e-12);
        assert!((a.rms_difference(&a).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn csv_export() {
        let w = Waveform::from_samples(vec![0.0, 1.0], vec![1.0, 2.0]).unwrap();
        let csv = w.to_csv("vout");
        assert!(csv.starts_with("time,vout\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn collect_from_pairs() {
        let w: Waveform = (0..5).map(|k| (k as f64, (k * k) as f64)).collect();
        assert_eq!(w.len(), 5);
        assert_eq!(w.values()[3], 9.0);
    }

    #[test]
    fn empty_waveform_errors() {
        let w = Waveform::new();
        assert!(matches!(w.t_start(), Err(NumericError::Empty)));
        assert!(matches!(w.value_at(0.0), Err(NumericError::Empty)));
    }
}
