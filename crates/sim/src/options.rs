//! Simulator options: the settings a caller changes, and the work counters.

use crate::SimError;

/// Global simulator options, the analogue of SPICE's `.OPTIONS` card.
///
/// Only the settings callers change live here; the Newton tolerances,
/// iteration limits and stepping ladders are SPICE's defaults, fixed where
/// they are used.
///
/// # Example
///
/// ```
/// use gabm_sim::Options;
///
/// let opts = Options {
///     gmin: 1e-12,
///     ..Options::default()
/// };
/// assert!(opts.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Minimum conductance placed across nonlinear junctions (SPICE `GMIN`).
    pub gmin: f64,
    /// Transient local-truncation-error tolerance (volts per step).
    pub tran_tol: f64,
    /// Analysis temperature in kelvin (default 300.15 K = 27 °C).
    pub temperature: f64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            gmin: 1e-12,
            tran_tol: 1e-3,
            temperature: 300.15,
        }
    }
}

impl Options {
    /// Checks every field, so that no analysis runs on a setting that
    /// would silently give a wrong answer: `gmin` must be finite and
    /// non-negative, `tran_tol` and `temperature` finite and positive.
    ///
    /// # Errors
    ///
    /// [`SimError::BadOption`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), SimError> {
        for (field, value, ok) in [
            ("gmin", self.gmin, self.gmin >= 0.0),
            ("tran_tol", self.tran_tol, self.tran_tol > 0.0),
            ("temperature", self.temperature, self.temperature > 0.0),
        ] {
            if !(ok && value.is_finite()) {
                return Err(SimError::BadOption { field, value });
            }
        }
        Ok(())
    }

    /// Thermal voltage `kT/q` at the configured temperature.
    pub fn thermal_voltage(&self) -> f64 {
        const K_OVER_Q: f64 = 8.617_333_262e-5; // volts per kelvin
        K_OVER_Q * self.temperature
    }
}

/// Cumulative work counters: the paper's §5 cost comparison in
/// machine-independent terms. Two identical runs return equal stats; wall
/// time is measured by the benchmark (`perfbench/`), not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Accepted time steps.
    pub accepted_steps: usize,
    /// Rejected (redone) time steps.
    pub rejected_steps: usize,
    /// Total Newton iterations across all solves.
    pub newton_iterations: usize,
    /// LU factorizations, one per Newton iteration and AC frequency point.
    pub factorizations: usize,
    /// Numeric-only refactorizations that reuse an earlier factorization's
    /// pivot order. The simulator factors every system in full, so this is
    /// always 0; the field stays for readers that report it.
    pub refactorizations: usize,
    /// Total device evaluation sweeps.
    pub device_evals: usize,
}

impl SimStats {
    /// Merges the counters of `other` into `self`.
    pub fn absorb(&mut self, other: SimStats) {
        self.accepted_steps += other.accepted_steps;
        self.rejected_steps += other.rejected_steps;
        self.newton_iterations += other.newton_iterations;
        self.factorizations += other.factorizations;
        self.refactorizations += other.refactorizations;
        self.device_evals += other.device_evals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_spice_like() {
        let o = Options::default();
        assert_eq!(o.gmin, 1e-12);
        // kT/q at 27 °C ≈ 25.9 mV.
        assert!((o.thermal_voltage() - 0.02585).abs() < 1e-4);
    }

    #[test]
    fn stats_absorb() {
        let mut a = SimStats {
            accepted_steps: 1,
            newton_iterations: 3,
            ..SimStats::default()
        };
        a.absorb(SimStats {
            accepted_steps: 2,
            rejected_steps: 1,
            newton_iterations: 4,
            factorizations: 5,
            refactorizations: 7,
            device_evals: 6,
        });
        assert_eq!(a.accepted_steps, 3);
        assert_eq!(a.rejected_steps, 1);
        assert_eq!(a.newton_iterations, 7);
        assert_eq!(a.factorizations, 5);
        assert_eq!(a.refactorizations, 7);
        assert_eq!(a.device_evals, 6);
    }
}
