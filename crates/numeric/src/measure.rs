//! Waveform measurements.
//!
//! These are the primitives the characterization rigs (`gabm-charac`) use to
//! turn simulation traces into extracted parameters: threshold crossings,
//! slew rate, overshoot, RMS and Fourier components. They operate on [`Waveform`]s with linear
//! interpolation between samples, so measurements are step-size independent
//! to first order.

use crate::waveform::Waveform;
use crate::NumericError;

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// Signal passes the threshold from below.
    Rising,
    /// Signal passes the threshold from above.
    Falling,
    /// Either direction.
    Any,
}

/// Returns every instant at which `w` crosses `threshold` in the requested
/// direction, with linear interpolation between samples.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] if the waveform has fewer than 2 samples.
pub fn crossings(w: &Waveform, threshold: f64, edge: Edge) -> Result<Vec<f64>, NumericError> {
    if w.len() < 2 {
        return Err(NumericError::Empty);
    }
    let ts = w.times();
    let vs = w.values();
    let mut out = Vec::new();
    for i in 0..ts.len() - 1 {
        let (v0, v1) = (vs[i] - threshold, vs[i + 1] - threshold);
        let rising = v0 < 0.0 && v1 >= 0.0;
        let falling = v0 > 0.0 && v1 <= 0.0;
        let hit = match edge {
            Edge::Rising => rising,
            Edge::Falling => falling,
            Edge::Any => rising || falling,
        };
        if hit {
            let frac = v0 / (v0 - v1);
            out.push(ts[i] + frac * (ts[i + 1] - ts[i]));
        }
    }
    Ok(out)
}

/// First crossing of `threshold` after `t_after`, if any.
///
/// # Errors
///
/// Propagates [`crossings`] errors.
pub fn first_crossing_after(
    w: &Waveform,
    threshold: f64,
    edge: Edge,
    t_after: f64,
) -> Result<Option<f64>, NumericError> {
    Ok(crossings(w, threshold, edge)?
        .into_iter()
        .find(|&t| t >= t_after))
}

/// Maximum slew rate (absolute d/dt over adjacent samples), the quantity the
/// slew-rate extraction rig reads off a large-signal step response.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for fewer than 2 samples.
pub fn max_slew_rate(w: &Waveform) -> Result<f64, NumericError> {
    if w.len() < 2 {
        return Err(NumericError::Empty);
    }
    let ts = w.times();
    let vs = w.values();
    let mut m: f64 = 0.0;
    for i in 0..ts.len() - 1 {
        let dt = ts[i + 1] - ts[i];
        if dt > 0.0 {
            m = m.max(((vs[i + 1] - vs[i]) / dt).abs());
        }
    }
    Ok(m)
}

/// Positive-going slew rate only (V/s); companion to [`max_slew_rate`] for
/// asymmetric limits (the paper's slew block has distinct rise and fall
/// rates).
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for fewer than 2 samples.
pub fn max_rise_rate(w: &Waveform) -> Result<f64, NumericError> {
    directional_rate(w, true)
}

/// Negative-going slew rate magnitude (V/s).
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for fewer than 2 samples.
pub fn max_fall_rate(w: &Waveform) -> Result<f64, NumericError> {
    directional_rate(w, false)
}

fn directional_rate(w: &Waveform, rising: bool) -> Result<f64, NumericError> {
    if w.len() < 2 {
        return Err(NumericError::Empty);
    }
    let ts = w.times();
    let vs = w.values();
    let mut m: f64 = 0.0;
    for i in 0..ts.len() - 1 {
        let dt = ts[i + 1] - ts[i];
        if dt <= 0.0 {
            continue;
        }
        let rate = (vs[i + 1] - vs[i]) / dt;
        if rising && rate > 0.0 {
            m = m.max(rate);
        } else if !rising && rate < 0.0 {
            m = m.max(-rate);
        }
    }
    Ok(m)
}

/// Overshoot of a step response relative to the final value, as a fraction of
/// the step amplitude (0.0 = none).
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for an empty waveform or
/// [`NumericError::InvalidInput`] for zero step amplitude.
pub fn overshoot(w: &Waveform, initial: f64, fin: f64) -> Result<f64, NumericError> {
    if w.is_empty() {
        return Err(NumericError::Empty);
    }
    let amp = fin - initial;
    if amp == 0.0 {
        return Err(NumericError::InvalidInput("zero step amplitude".into()));
    }
    let peak = if amp > 0.0 { w.max() } else { w.min() };
    Ok(((peak - fin) / amp).max(0.0))
}

/// RMS value of the waveform over its whole span.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] for fewer than 2 samples.
pub fn rms(w: &Waveform) -> Result<f64, NumericError> {
    if w.len() < 2 {
        return Err(NumericError::Empty);
    }
    let ts = w.times();
    let vs = w.values();
    let mut acc = 0.0;
    for i in 0..ts.len() - 1 {
        let dt = ts[i + 1] - ts[i];
        acc += 0.5 * (vs[i] * vs[i] + vs[i + 1] * vs[i + 1]) * dt;
    }
    let span = ts[ts.len() - 1] - ts[0];
    Ok((acc / span).sqrt())
}

/// Complex Fourier component of the waveform at `freq`, evaluated from
/// `t_start` to the end over an integer number of periods (as many as fit).
///
/// Returns amplitude and phase of the `freq` component — the primitive
/// behind frequency-response extraction from transient sine runs.
///
/// # Errors
///
/// * [`NumericError::Empty`] for fewer than 2 samples.
/// * [`NumericError::InvalidInput`] if less than one period fits after
///   `t_start`.
pub fn fourier_component(
    w: &Waveform,
    freq: f64,
    t_start: f64,
) -> Result<crate::Complex64, NumericError> {
    if w.len() < 2 {
        return Err(NumericError::Empty);
    }
    let t_end = w.times()[w.times().len() - 1];
    let period = 1.0 / freq;
    let n_periods = ((t_end - t_start) / period).floor();
    if n_periods < 1.0 {
        return Err(NumericError::InvalidInput(format!(
            "need at least one period of {freq} Hz after t = {t_start}"
        )));
    }
    let t0 = t_end - n_periods * period;
    // Correlate on a fine uniform grid (trapezoid), robust to the solver's
    // non-uniform time steps.
    let steps = 64 * n_periods as usize;
    let dt = (t_end - t0) / steps as f64;
    let mut re = 0.0;
    let mut im = 0.0;
    let omega = 2.0 * std::f64::consts::PI * freq;
    for k in 0..=steps {
        let t = t0 + k as f64 * dt;
        let v = crate::interp::linear(w.times(), w.values(), t)?;
        let weight = if k == 0 || k == steps { 0.5 } else { 1.0 };
        re += weight * v * (omega * t).cos();
        im -= weight * v * (omega * t).sin();
    }
    let scale = 2.0 * dt / (t_end - t0);
    Ok(crate::Complex64::new(re * scale, im * scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        // 0→1 V linear ramp over 1 s.
        Waveform::from_fn(0.0, 1.0, 101, |t| t)
    }

    #[test]
    fn crossing_detection() {
        let w = ramp();
        let c = crossings(&w, 0.5, Edge::Rising).unwrap();
        assert_eq!(c.len(), 1);
        assert!((c[0] - 0.5).abs() < 1e-12);
        assert!(crossings(&w, 0.5, Edge::Falling).unwrap().is_empty());
    }

    #[test]
    fn crossing_both_edges() {
        let w = Waveform::from_fn(0.0, 1.0, 1001, |t| (2.0 * std::f64::consts::PI * t).sin());
        let any = crossings(&w, 0.0, Edge::Any).unwrap();
        // sin crosses zero at 0.5 (falling); the endpoints start/end at 0.
        assert!(!any.is_empty());
        let f = crossings(&w, 0.0, Edge::Falling).unwrap();
        assert!((f[0] - 0.5).abs() < 1e-3);
    }

    #[test]
    fn crossing_needs_samples() {
        let w = Waveform::new();
        assert!(matches!(
            crossings(&w, 0.0, Edge::Any),
            Err(NumericError::Empty)
        ));
    }

    #[test]
    fn slew_rates() {
        // Asymmetric triangle: up at 2 V/s for 0.25 s, down at -2/3 V/s.
        let w = Waveform::from_fn(0.0, 1.0, 401, |t| {
            if t < 0.25 {
                2.0 * t
            } else {
                0.5 - (t - 0.25) * 2.0 / 3.0
            }
        });
        assert!((max_rise_rate(&w).unwrap() - 2.0).abs() < 1e-6);
        assert!((max_fall_rate(&w).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert!((max_slew_rate(&w).unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn overshoot_measure() {
        // Damped response peaking at 1.2 for a 0→1 step: 20 % overshoot.
        let w = Waveform::from_fn(0.0, 10.0, 1000, |t| {
            1.0 - (-t).exp() * (1.3 * (2.0 * t).cos() - 1.0).max(-1.0)
        });
        let os = overshoot(&w, 0.0, 1.0).unwrap();
        assert!(os > 0.0);
        assert!(overshoot(&w, 1.0, 1.0).is_err());
        let mono = ramp();
        assert_eq!(overshoot(&mono, 0.0, 1.0).unwrap(), 0.0);
    }

    #[test]
    fn rms_of_dc_and_sine() {
        let dc = Waveform::from_fn(0.0, 1.0, 100, |_| 2.0);
        assert!((rms(&dc).unwrap() - 2.0).abs() < 1e-12);
        let sine = Waveform::from_fn(0.0, 1.0, 10_001, |t| (2.0 * std::f64::consts::PI * t).sin());
        assert!((rms(&sine).unwrap() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-4);
    }

    #[test]
    fn fourier_component_of_sine() {
        let f = 1.0e3;
        let w = Waveform::from_fn(0.0, 5.0e-3, 5000, |t| {
            0.7 * (2.0 * std::f64::consts::PI * f * t + 0.5).sin()
        });
        let c = fourier_component(&w, f, 1.0e-3).unwrap();
        assert!((c.abs() - 0.7).abs() < 5e-3, "amplitude {}", c.abs());
        // Phase of sin(ωt + φ) in the cos/−sin correlation convention:
        // v = A·sin(ωt+φ) = A·cos(ωt + φ − π/2) ⇒ arg = φ − π/2.
        let expect = 0.5 - std::f64::consts::FRAC_PI_2;
        let mut diff = c.arg() - expect;
        while diff > std::f64::consts::PI {
            diff -= 2.0 * std::f64::consts::PI;
        }
        while diff < -std::f64::consts::PI {
            diff += 2.0 * std::f64::consts::PI;
        }
        assert!(diff.abs() < 0.02, "phase diff {diff}");
    }

    #[test]
    fn fourier_rejects_short_windows() {
        let w = Waveform::from_fn(0.0, 1.0e-3, 100, |_| 1.0);
        assert!(fourier_component(&w, 100.0, 0.0).is_err());
        assert!(fourier_component(&Waveform::new(), 1.0, 0.0).is_err());
    }

    #[test]
    fn fourier_ignores_dc_and_harmonics() {
        let f = 1.0e3;
        let w = Waveform::from_fn(0.0, 4.0e-3, 4000, |t| {
            2.0 + (2.0 * std::f64::consts::PI * f * t).sin()
                + 0.5 * (2.0 * std::f64::consts::PI * 3.0 * f * t).sin()
        });
        let c = fourier_component(&w, f, 0.0).unwrap();
        assert!((c.abs() - 1.0).abs() < 0.01, "amplitude {}", c.abs());
    }
}
