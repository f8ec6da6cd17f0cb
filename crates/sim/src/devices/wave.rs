//! Time-dependent source waveforms (DC, sine, pulse, piecewise-linear).

use crate::analysis::tran::MAX_TIME_POINTS;

/// The waveform of an independent source.
///
/// # Example
///
/// ```
/// use gabm_sim::devices::SourceWave;
///
/// let w = SourceWave::pulse(0.0, 5.0, 1e-6, 1e-9, 1e-9, 2e-6, 5e-6);
/// assert_eq!(w.value_at(0.0), 0.0);
/// assert_eq!(w.value_at(2e-6), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWave {
    /// Constant value.
    Dc(f64),
    /// `offset + ampl·sin(2πf·(t-delay) + phase)`, zero-slope before `delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency in hertz.
        freq: f64,
        /// Start delay in seconds.
        delay: f64,
        /// Initial phase in radians.
        phase: f64,
    },
    /// SPICE PULSE: initial value, pulsed value, delay, rise, fall, width,
    /// period.
    Pulse {
        /// Initial (resting) value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge.
        delay: f64,
        /// Rise time (0 treated as 1 ps).
        rise: f64,
        /// Fall time (0 treated as 1 ps).
        fall: f64,
        /// Pulse width at `v2`.
        width: f64,
        /// Repetition period (0 = single pulse).
        period: f64,
    },
    /// Piecewise linear `(time, value)` corners; clamped outside.
    Pwl(Vec<(f64, f64)>),
}

/// Minimum edge time substituted for zero rise/fall specifications, keeping
/// the transient Jacobian bounded.
const MIN_EDGE: f64 = 1e-12;

impl SourceWave {
    /// Convenience constructor for a DC source.
    pub fn dc(value: f64) -> SourceWave {
        SourceWave::Dc(value)
    }

    /// Convenience constructor for an un-delayed, zero-phase sine.
    pub fn sine(offset: f64, ampl: f64, freq: f64) -> SourceWave {
        SourceWave::Sine {
            offset,
            ampl,
            freq,
            delay: 0.0,
            phase: 0.0,
        }
    }

    /// Convenience constructor matching SPICE's `PULSE(...)` order.
    pub fn pulse(
        v1: f64,
        v2: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> SourceWave {
        SourceWave::Pulse {
            v1,
            v2,
            delay,
            rise,
            fall,
            width,
            period,
        }
    }

    /// Value of the waveform at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Sine {
                offset,
                ampl,
                freq,
                delay,
                phase,
            } => {
                if t < *delay {
                    offset + ampl * phase.sin()
                } else {
                    offset + ampl * (2.0 * std::f64::consts::PI * freq * (t - delay) + phase).sin()
                }
            }
            SourceWave::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < rise {
                    v1 + (v2 - v1) * tau / rise
                } else if tau < rise + width {
                    *v2
                } else if tau < rise + width + fall {
                    v2 + (v1 - v2) * (tau - rise - width) / fall
                } else {
                    *v1
                }
            }
            SourceWave::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                let last = points[points.len() - 1];
                if t >= last.0 {
                    return last.1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t >= t0 && t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                last.1
            }
        }
    }

    /// DC (t = 0) value of the waveform, used by the operating-point solve.
    pub fn dc_value(&self) -> f64 {
        self.value_at(0.0)
    }

    /// Corner times in `(0, tstop)` the transient must hit exactly.
    ///
    /// A periodic pulse stops once it has more than [`MAX_TIME_POINTS`]
    /// corners: a transient cannot store that many points, so more would
    /// only fill memory.
    pub fn breakpoints(&self, tstop: f64) -> Vec<f64> {
        let mut out = Vec::new();
        match self {
            SourceWave::Dc(_) | SourceWave::Sine { .. } => {}
            SourceWave::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let rise = rise.max(MIN_EDGE);
                let fall = fall.max(MIN_EDGE);
                let cycle = [0.0, rise, rise + width, rise + width + fall];
                let mut base = *delay;
                if *period > 0.0 {
                    // Skip the cycles that end before t = 0.
                    let skip = ((-delay - cycle[3]) / period).floor();
                    if skip > 0.0 {
                        base += skip * period;
                    }
                }
                while out.len() <= MAX_TIME_POINTS {
                    for c in cycle {
                        let t = base + c;
                        if t > 0.0 && t < tstop {
                            out.push(t);
                        }
                    }
                    if *period <= 0.0 || base + period >= tstop {
                        break;
                    }
                    base += period;
                }
            }
            SourceWave::Pwl(points) => {
                out.extend(points.iter().map(|p| p.0).filter(|&t| t > 0.0 && t < tstop));
            }
        }
        out
    }

    /// Replaces the DC level (used by DC sweeps). For non-DC waveforms the
    /// whole waveform is replaced by a DC value.
    pub fn set_dc(&mut self, value: f64) {
        *self = SourceWave::Dc(value);
    }
}

impl Default for SourceWave {
    fn default() -> Self {
        SourceWave::Dc(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_wave() {
        let w = SourceWave::dc(2.5);
        assert_eq!(w.value_at(0.0), 2.5);
        assert_eq!(w.value_at(1.0), 2.5);
        assert!(w.breakpoints(1.0).is_empty());
    }

    #[test]
    fn sine_wave() {
        let w = SourceWave::sine(1.0, 2.0, 1.0);
        assert!((w.value_at(0.0) - 1.0).abs() < 1e-12);
        assert!((w.value_at(0.25) - 3.0).abs() < 1e-12);
        assert!((w.value_at(0.75) + 1.0).abs() < 1e-12);
        // Before the delay the source sits at its phase value.
        let d = SourceWave::Sine {
            offset: 0.0,
            ampl: 1.0,
            freq: 1.0,
            delay: 1.0,
            phase: 0.0,
        };
        assert_eq!(d.value_at(0.5), 0.0);
    }

    #[test]
    fn pulse_shape() {
        let w = SourceWave::pulse(0.0, 1.0, 1.0, 0.1, 0.2, 0.5, 0.0);
        assert_eq!(w.value_at(0.5), 0.0);
        assert!((w.value_at(1.05) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(w.value_at(1.3), 1.0); // flat top
        assert!((w.value_at(1.7) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(w.value_at(2.5), 0.0); // back to v1
    }

    #[test]
    fn pulse_periodic() {
        let w = SourceWave::pulse(0.0, 1.0, 0.0, 0.1, 0.1, 0.3, 1.0);
        assert_eq!(w.value_at(0.2), 1.0);
        assert_eq!(w.value_at(1.2), 1.0);
        assert_eq!(w.value_at(2.7), 0.0);
    }

    #[test]
    fn pulse_zero_edges_safe() {
        let w = SourceWave::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.0);
        assert_eq!(w.value_at(0.25), 1.0);
        assert_eq!(w.value_at(0.75), 0.0);
    }

    #[test]
    fn pwl_interpolation_and_clamping() {
        let w = SourceWave::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 1.0);
        assert_eq!(w.value_at(1.5), 2.0);
        assert_eq!(w.value_at(5.0), 2.0);
        assert_eq!(SourceWave::Pwl(vec![]).value_at(1.0), 0.0);
    }

    #[test]
    fn pulse_breakpoints() {
        let w = SourceWave::pulse(0.0, 1.0, 1.0, 0.1, 0.2, 0.5, 0.0);
        let bp = w.breakpoints(10.0);
        assert_eq!(bp, vec![1.0, 1.1, 1.6, 1.8]);
        // Truncated by tstop.
        assert_eq!(w.breakpoints(1.05), vec![1.0]);
    }

    #[test]
    fn periodic_pulse_breakpoints() {
        let w = SourceWave::pulse(0.0, 1.0, 0.0, 0.1, 0.1, 0.3, 1.0);
        let bp = w.breakpoints(2.0);
        assert!(bp.contains(&0.1));
        assert!(bp.contains(&1.1));
        assert!(bp.iter().all(|&t| t > 0.0 && t < 2.0));
    }

    #[test]
    fn runaway_pulse_corners_stop_past_the_point_budget() {
        // A 1e-21 s period, from t = 0 and from a delay of -1 s.
        for delay in [0.0, -1.0] {
            let w = SourceWave::pulse(0.0, 1.0, delay, 1e-9, 1e-9, 1e-9, 1e-21);
            let n = w.breakpoints(1e-3).len();
            assert!(n > MAX_TIME_POINTS && n <= MAX_TIME_POINTS + 4, "{n}");
        }
    }

    #[test]
    fn pwl_breakpoints() {
        let w = SourceWave::Pwl(vec![(0.0, 0.0), (0.5, 1.0), (3.0, 1.0)]);
        assert_eq!(w.breakpoints(2.0), vec![0.5]);
    }

    #[test]
    fn set_dc_replaces() {
        let mut w = SourceWave::sine(0.0, 1.0, 1.0);
        w.set_dc(3.0);
        assert_eq!(w, SourceWave::Dc(3.0));
    }
}
