//! AC small-signal analysis.
//!
//! Linearizes the circuit about its DC operating point and solves the
//! complex MNA system at each frequency. Sources marked with an AC magnitude
//! (see [`crate::devices::vsource::Vsource::with_ac`]) provide the stimulus.

use crate::analysis::tran::MAX_TIME_POINTS;
use crate::analysis::Solutions;
use crate::circuit::{Circuit, NodeId};
use crate::device::{AcStamper, Unknown};
use crate::options::SimStats;
use crate::SimError;
use gabm_numeric::{Complex64, LuFactor};

/// Frequency grid of an AC sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum AcSweep {
    /// `points_per_decade` logarithmically spaced points per decade from
    /// `fstart` to `fstop`.
    Decade {
        /// Points per decade.
        points_per_decade: usize,
        /// Start frequency (Hz), must be positive.
        fstart: f64,
        /// Stop frequency (Hz).
        fstop: f64,
    },
    /// `n` linearly spaced points from `fstart` to `fstop`.
    Linear {
        /// Number of points (≥ 2).
        n: usize,
        /// Start frequency (Hz).
        fstart: f64,
        /// Stop frequency (Hz).
        fstop: f64,
    },
    /// Explicit frequency list (Hz).
    List(Vec<f64>),
}

impl AcSweep {
    /// Expands the sweep into a concrete frequency list.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAnalysis`] for inconsistent, negative or non-finite
    /// bounds, or for more than [`MAX_TIME_POINTS`] points.
    pub fn frequencies(&self) -> Result<Vec<f64>, SimError> {
        let finite = |f: &f64| *f >= 0.0 && f.is_finite();
        let (valid, points, needs) = match self {
            AcSweep::Decade {
                points_per_decade,
                fstart,
                fstop,
            } => (
                *points_per_decade > 0 && *fstart > 0.0 && fstop > fstart && finite(fstop),
                // Infinite when fstop / fstart overflows.
                ((fstop / fstart).log10() * *points_per_decade as f64).ceil() + 1.0,
                "decade sweep needs points > 0 and finite 0 < fstart < fstop",
            ),
            AcSweep::Linear { n, fstart, fstop } => (
                *n >= 2 && finite(fstart) && fstop > fstart && finite(fstop),
                *n as f64,
                "linear sweep needs n >= 2 and finite 0 <= fstart < fstop",
            ),
            AcSweep::List(fs) => (
                !fs.is_empty() && fs.iter().all(finite),
                fs.len() as f64,
                "frequency list needs one or more finite, non-negative frequencies",
            ),
        };
        if !valid {
            return Err(SimError::BadAnalysis(needs.into()));
        }
        if points > MAX_TIME_POINTS as f64 {
            return Err(SimError::BadAnalysis(format!(
                "AC sweep has more than {MAX_TIME_POINTS} frequency points"
            )));
        }
        Ok(match self {
            AcSweep::Decade {
                points_per_decade,
                fstart,
                fstop,
            } => {
                let ppd = *points_per_decade as f64;
                let mut out: Vec<f64> = (0..points as usize)
                    .map(|k| fstart * 10f64.powf(k as f64 / ppd))
                    .collect();
                if let Some(last) = out.last_mut() {
                    *last = last.min(*fstop);
                }
                out
            }
            AcSweep::Linear { n, fstart, fstop } => {
                let step = (fstop - fstart) / (*n as f64 - 1.0);
                (0..*n).map(|k| fstart + step * k as f64).collect()
            }
            AcSweep::List(fs) => fs.clone(),
        })
    }
}

/// Specification of an AC analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct AcSpec {
    /// Frequency grid.
    pub sweep: AcSweep,
}

impl AcSpec {
    /// Decade sweep shorthand.
    pub fn decade(points_per_decade: usize, fstart: f64, fstop: f64) -> Self {
        AcSpec {
            sweep: AcSweep::Decade {
                points_per_decade,
                fstart,
                fstop,
            },
        }
    }
}

/// Result of an AC analysis: complex node voltages per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    solutions: Solutions<Complex64>,
    /// Work counters (includes the implicit OP solve).
    pub stats: SimStats,
}

impl AcResult {
    /// The analysis frequencies (Hz).
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// `true` if the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Complex voltage of `node` at frequency point `idx`.
    pub fn voltage_at(&self, idx: usize, node: NodeId) -> Complex64 {
        self.solutions.at(idx, Unknown::Node(node))
    }

    /// Complex branch current by global index at point `idx`.
    pub fn branch_current_at(&self, idx: usize, branch: usize) -> Complex64 {
        self.solutions.at(idx, Unknown::Branch(branch))
    }

    /// Magnitude (in dB) of `node`'s voltage across the sweep.
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.voltage_at(i, node).abs_db())
            .collect()
    }

    /// Phase (degrees) of `node`'s voltage across the sweep.
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.voltage_at(i, node).arg_deg())
            .collect()
    }
}

pub(crate) fn solve_ac(circuit: &mut Circuit, spec: &AcSpec) -> Result<AcResult, SimError> {
    let _span = gabm_trace::span("sim.ac");
    let freqs = spec.sweep.frequencies()?;
    // Linearize about the operating point (devices cache gm/gds/...).
    let op = circuit.op()?;
    let mut stats = op.stats;
    let mut stamper = AcStamper::new(circuit.n_nodes(), circuit.n_branches(), 0.0);
    // One factor, refactored in place at every frequency point.
    let mut lu = LuFactor::default();
    let mut solutions = Solutions::new(circuit.layout());
    for &f in &freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        stamper.reset(omega);
        for d in circuit.devices_mut() {
            d.stamp_ac(&mut stamper);
        }
        stats.device_evals += 1;
        let (mat, rhs) = stamper.finish();
        lu.refactor(mat)?;
        stats.factorizations += 1;
        gabm_trace::add("sim.lu.full", 1);
        let x = solutions.push(rhs);
        lu.solve_in_place(x)?;
        if let Some(bad) = x
            .iter()
            .position(|v| !(v.re.is_finite() && v.im.is_finite()))
        {
            return Err(SimError::NonFinite {
                unknown: circuit.unknown_name(bad),
            });
        }
    }
    Ok(AcResult {
        freqs,
        solutions,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::vsource::Vsource;
    use crate::devices::SourceWave;

    #[test]
    fn sweep_expansion() {
        let f = AcSweep::Decade {
            points_per_decade: 1,
            fstart: 1.0,
            fstop: 1000.0,
        }
        .frequencies()
        .unwrap();
        assert_eq!(f.len(), 4);
        assert!((f[3] - 1000.0).abs() < 1e-9);
        let f = AcSweep::Linear {
            n: 3,
            fstart: 0.0,
            fstop: 10.0,
        }
        .frequencies()
        .unwrap();
        assert_eq!(f, vec![0.0, 5.0, 10.0]);
        assert!(AcSweep::List(vec![]).frequencies().is_err());
        assert!(AcSweep::Decade {
            points_per_decade: 0,
            fstart: 1.0,
            fstop: 10.0
        }
        .frequencies()
        .is_err());
    }

    /// Expects `sweep` to be rejected as a bad analysis.
    fn rejected(sweep: AcSweep) {
        match sweep.frequencies() {
            Err(SimError::BadAnalysis(_)) => {}
            other => panic!("{sweep:?}: expected BadAnalysis, got {other:?}"),
        }
    }

    #[test]
    fn a_nan_frequency_list_is_rejected() {
        rejected(AcSweep::List(vec![f64::NAN]));
        rejected(AcSweep::List(vec![1.0, -1.0]));
        rejected(AcSweep::Linear {
            n: 3,
            fstart: -1.0,
            fstop: 1.0,
        });
    }

    #[test]
    fn a_nan_decade_start_is_rejected() {
        rejected(AcSweep::Decade {
            points_per_decade: 10,
            fstart: f64::NAN,
            fstop: 1.0e3,
        });
    }

    #[test]
    fn an_infinite_decade_stop_is_rejected() {
        rejected(AcSweep::Decade {
            points_per_decade: 10,
            fstart: 1.0,
            fstop: f64::INFINITY,
        });
        rejected(AcSweep::Linear {
            n: 3,
            fstart: 0.0,
            fstop: f64::INFINITY,
        });
    }

    #[test]
    fn a_sweep_past_the_point_budget_is_rejected() {
        // Finite bounds whose ratio overflows, and counts past the budget.
        rejected(AcSweep::Decade {
            points_per_decade: 10,
            fstart: 1e-300,
            fstop: 1e300,
        });
        rejected(AcSweep::Decade {
            points_per_decade: usize::MAX,
            fstart: 1.0,
            fstop: 10.0,
        });
        rejected(AcSweep::Linear {
            n: MAX_TIME_POINTS + 1,
            fstart: 0.0,
            fstop: 1.0,
        });
    }

    #[test]
    fn a_non_finite_solution_is_an_error_naming_the_unknown() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_device(Box::new(
            Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(0.0)).with_ac(f64::INFINITY),
        ))
        .unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3).unwrap();
        let err = c
            .ac(&AcSpec {
                sweep: AcSweep::List(vec![1.0e3]),
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "non-finite solution value at node 'a'");
    }

    #[test]
    fn rc_lowpass_bode() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_device(Box::new(
            Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(0.0)).with_ac(1.0),
        ))
        .unwrap();
        c.add_resistor("R1", a, b, 1.0e3).unwrap();
        c.add_capacitor("C1", b, Circuit::GROUND, 1.0e-6);
        // Pole at 159.15 Hz.
        let r = c
            .ac(&AcSpec {
                sweep: AcSweep::List(vec![1.0, 159.1549, 100.0e3]),
            })
            .unwrap();
        let mag = r.magnitude_db(b);
        assert!(mag[0].abs() < 0.01, "passband gain {} dB", mag[0]);
        assert!((mag[1] + 3.0103).abs() < 0.1, "corner gain {} dB", mag[1]);
        assert!(mag[2] < -50.0, "stopband gain {} dB", mag[2]);
        let ph = r.phase_deg(b);
        assert!((ph[1] + 45.0).abs() < 1.0, "corner phase {}", ph[1]);
    }

    #[test]
    fn rlc_resonance_peak() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_device(Box::new(
            Vsource::new("V1", a, Circuit::GROUND, SourceWave::dc(0.0)).with_ac(1.0),
        ))
        .unwrap();
        c.add_resistor("R1", a, b, 10.0).unwrap();
        c.add_inductor("L1", b, Circuit::GROUND, 1.0e-3).unwrap();
        // Series resistance keeps the inductor's DC short from fighting the
        // source: measure across the capacitor in a series RLC.
        let mut c2 = Circuit::new();
        let a2 = c2.node("a");
        let m = c2.node("m");
        let o = c2.node("o");
        c2.add_device(Box::new(
            Vsource::new("V1", a2, Circuit::GROUND, SourceWave::dc(0.0)).with_ac(1.0),
        ))
        .unwrap();
        c2.add_resistor("R1", a2, m, 10.0).unwrap();
        c2.add_inductor("L1", m, o, 1.0e-3).unwrap();
        c2.add_capacitor("C1", o, Circuit::GROUND, 1.0e-6);
        // f0 = 5.03 kHz; Q = (1/R)√(L/C) = 3.16 ⇒ |V(o)| peaks ≈ Q.
        let r = c2
            .ac(&AcSpec {
                sweep: AcSweep::List(vec![5.0329e3]),
            })
            .unwrap();
        let vo = r.voltage_at(0, o).abs();
        assert!((vo - 3.162).abs() < 0.05, "peak gain {vo}");
    }
}
