//! Output oracles: a decision is checked at the centre of each strobe
//! window, wherever the input stayed clear of the decision threshold by a
//! margin for the whole time since the strobe opened.

/// Shared strobe of every comparator bench: a ±supply pulse train.
pub const STROBE_PERIOD: f64 = 10.0e-6;
/// Active width of each strobe pulse.
pub const STROBE_WIDTH: f64 = 4.0e-6;
/// Rising edge of the first strobe pulse.
pub const STROBE_DELAY: f64 = STROBE_PERIOD / 4.0;
/// Supply magnitude (V).
pub const SUPPLY: f64 = 2.5;
/// Transient length of every bench (s).
pub const TSTOP: f64 = 60.0e-6;

/// Points sampled between a strobe edge and the window centre when testing
/// that the input kept its sign and margin.
const MARGIN_SAMPLES: usize = 64;

/// One expected decision: at time `t` the output is high iff `high`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub t: f64,
    pub high: bool,
}

/// `(strobe edge, window centre)` for every strobe pulse in `(0, tstop)`.
/// The window skips 0.5 µs after the edge and 0.2 µs before the fall.
pub fn strobe_windows(tstop: f64) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut edge = STROBE_DELAY;
    while edge < tstop {
        let lo = edge + 0.5e-6;
        let hi = (edge + STROBE_WIDTH - 0.2e-6).min(tstop);
        if hi > lo {
            out.push((edge, 0.5 * (lo + hi)));
        }
        edge += STROBE_PERIOD;
    }
    out
}

/// Expected decisions for an input whose distance from the threshold is
/// `diff(t)`: a window counts only if `|diff| > margin` with one sign from
/// the strobe edge to the window centre.
pub fn expected_decisions(diff: impl Fn(f64) -> f64, margin: f64) -> Vec<Expected> {
    strobe_windows(TSTOP)
        .into_iter()
        .filter_map(|(edge, centre)| {
            let samples = (0..=MARGIN_SAMPLES)
                .map(|i| diff(edge + (centre - edge) * i as f64 / MARGIN_SAMPLES as f64));
            let (lo, hi) = samples.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), d| {
                (lo.min(d), hi.max(d))
            });
            if lo > margin {
                Some(Expected {
                    t: centre,
                    high: true,
                })
            } else if hi < -margin {
                Some(Expected {
                    t: centre,
                    high: false,
                })
            } else {
                None
            }
        })
        .collect()
}

/// Number of expected decisions the output gets wrong; an output is high
/// when positive. A missing sample counts as wrong.
pub fn wrong_decisions(expected: &[Expected], mut output: impl FnMut(f64) -> Option<f64>) -> usize {
    expected
        .iter()
        .filter(|e| match output(e.t) {
            Some(v) => (v > 0.0) != e.high,
            None => true,
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(t: f64) -> f64 {
        0.5 * (2.0 * std::f64::consts::PI * 50.0e3 * t).sin()
    }

    #[test]
    fn windows_cover_the_run() {
        let w = strobe_windows(TSTOP);
        assert_eq!(w.len(), 6);
        assert!(w
            .iter()
            .all(|(edge, centre)| centre > edge && *centre < TSTOP));
    }

    #[test]
    fn margin_excludes_windows_near_a_crossing() {
        // The 50 kHz sine crosses zero every 10 µs and each strobe edge
        // comes 2.5 µs after a crossing, where |diff| = 0.5·sin(π/4).
        let all = expected_decisions(sine, 0.0);
        let strict = expected_decisions(sine, 0.36);
        assert_eq!(all.len(), 6);
        assert!(strict.is_empty());
        assert!(all[0].high && !all[1].high);
    }

    #[test]
    fn oracle_accepts_a_faithful_output() {
        let expected = expected_decisions(sine, 0.05);
        assert!(!expected.is_empty());
        assert_eq!(wrong_decisions(&expected, |t| Some(4.0 * sine(t))), 0);
    }

    #[test]
    fn oracle_rejects_a_flipped_decision() {
        let expected = expected_decisions(sine, 0.05);
        let flipped_at = expected[1].t;
        let output = |t: f64| {
            let v = 4.0 * sine(t);
            Some(if t == flipped_at { -v } else { v })
        };
        assert_eq!(wrong_decisions(&expected, output), 1);
        assert_eq!(wrong_decisions(&expected, |_| None), expected.len());
    }
}
