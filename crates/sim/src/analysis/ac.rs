//! AC small-signal analysis.
//!
//! Linearizes the circuit about its DC operating point and solves the
//! complex MNA system at each frequency. Sources marked with an AC magnitude
//! (see [`crate::devices::vsource::Vsource::with_ac`]) provide the stimulus.

use crate::circuit::{Circuit, NodeId};
use crate::device::AcStamper;
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
    /// [`SimError::BadAnalysis`] for inconsistent bounds.
    pub fn frequencies(&self) -> Result<Vec<f64>, SimError> {
        match self {
            AcSweep::Decade {
                points_per_decade,
                fstart,
                fstop,
            } => {
                if *fstart <= 0.0 || fstop <= fstart || *points_per_decade == 0 {
                    return Err(SimError::BadAnalysis(
                        "decade sweep needs 0 < fstart < fstop and points > 0".into(),
                    ));
                }
                let decades = (fstop / fstart).log10();
                let total = (decades * *points_per_decade as f64).ceil() as usize;
                let mut out = Vec::with_capacity(total + 1);
                for k in 0..=total {
                    out.push(fstart * 10f64.powf(k as f64 / *points_per_decade as f64));
                }
                if let Some(last) = out.last_mut() {
                    *last = last.min(*fstop);
                }
                Ok(out)
            }
            AcSweep::Linear { n, fstart, fstop } => {
                if *n < 2 || fstop <= fstart {
                    return Err(SimError::BadAnalysis(
                        "linear sweep needs n >= 2 and fstart < fstop".into(),
                    ));
                }
                let step = (fstop - fstart) / (*n as f64 - 1.0);
                Ok((0..*n).map(|k| fstart + step * k as f64).collect())
            }
            AcSweep::List(fs) => {
                if fs.is_empty() {
                    return Err(SimError::BadAnalysis("empty frequency list".into()));
                }
                Ok(fs.clone())
            }
        }
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
    solutions: Vec<Vec<Complex64>>,
    n_nodes: usize,
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
        if node.is_ground() {
            Complex64::ZERO
        } else {
            self.solutions[idx][node.index() - 1]
        }
    }

    /// Complex branch current by global index at point `idx`.
    pub fn branch_current_at(&self, idx: usize, branch: usize) -> Complex64 {
        self.solutions[idx][self.n_nodes + branch]
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
    let wall_start = std::time::Instant::now();
    let freqs = spec.sweep.frequencies()?;
    // Linearize about the operating point (devices cache gm/gds/...).
    let op = circuit.op()?;
    let mut stats = op.stats;
    let n_nodes = circuit.n_nodes();
    let n_branches = circuit.n_branches();
    let mut stamper = AcStamper::new(n_nodes, n_branches, 0.0);
    // One factor, refactored in place at every frequency point.
    let mut lu = LuFactor::default();
    let mut solutions = Vec::with_capacity(freqs.len());
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
        let mut x = rhs.to_vec();
        lu.solve_in_place(&mut x)?;
        solutions.push(x);
    }
    stats.wall_s = wall_start.elapsed().as_secs_f64();
    Ok(AcResult {
        freqs,
        solutions,
        n_nodes,
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
