//! The transient's integration rule: the trapezoidal rule.
//!
//! A SPICE-class simulator discretizes `i = C·dv/dt` with an implicit
//! method. Writing the trapezoidal rule as
//!
//! ```text
//! dx/dt ≈ coeff0·x(t_n) + history,   coeff0 = 2/dt,
//! history = −2·x(t_{n−1})/dt − ẋ(t_{n−1})
//! ```
//!
//! each reactive element stamps `coeff0·C` into the Jacobian and the history
//! term into the right-hand side. [`History`] is the only place the history
//! term and the derivative update are written; [`local_truncation_error`] is
//! the estimate from which `gabm-sim`'s transient analysis chooses its
//! variable steps.
//!
//! The paper's §3.3 note — "models are simulated using electrical simulators
//! which are time-discrete systems with *variable time intervals*" — is what
//! that step policy implements; the slew-rate construct's one-step delay
//! element reads the step taken.

/// Trapezoidal coefficients for one time step.
///
/// The derivative at the new time point is expressed as
/// `dx/dt ≈ coeff0·x_new + History::term`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Multiplier of the new value in the derivative approximation, `2/dt`.
    pub coeff0: f64,
    dt: f64,
}

impl Coefficients {
    /// Computes the coefficients for step `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0, "time step must be positive, got {dt}");
        Coefficients {
            coeff0: 2.0 / dt,
            dt,
        }
    }

    /// Current step size.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

/// Committed integration state of one reactive quantity: its value `x` and
/// derivative `dx` at the last accepted point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct History {
    /// Value at the last accepted point.
    pub x: f64,
    /// Time derivative at the last accepted point.
    pub dx: f64,
}

impl History {
    /// History term of the derivative approximation over the step of `c`:
    /// `dx/dt ≈ c.coeff0·x_new + term`.
    #[inline]
    pub fn term(&self, c: &Coefficients) -> f64 {
        -2.0 * self.x / c.dt - self.dx
    }

    /// Commits the accepted value `x` at the end of the step of `c`, with
    /// its derivative from the same approximation.
    #[inline]
    pub fn commit(&mut self, c: &Coefficients, x: f64) {
        let dx = c.coeff0 * x + self.term(c);
        self.x = x;
        self.dx = dx;
    }

    /// Commits a DC operating point `x`: the derivative is zero.
    #[inline]
    pub fn commit_dc(&mut self, x: f64) {
        self.x = x;
        self.dx = 0.0;
    }
}

/// Local truncation error estimate for the value `x_new` produced over the
/// last step `dt`, from divided differences of the recent history: the
/// previous value `x_prev` and the one before it, `x_prev2`, a step
/// `dt_prev` earlier.
///
/// Returns an estimate of the per-step error; the transient's step policy
/// compares it with a tolerance to accept or shrink the step.
pub fn local_truncation_error(dt: f64, x_new: f64, x_prev: f64, x_prev2: f64, dt_prev: f64) -> f64 {
    if dt_prev <= 0.0 {
        // Not enough history: assume worst case so the step policy stays
        // conservative on the first steps.
        return (x_new - x_prev).abs() * 0.5;
    }
    // Second divided difference ≈ x''/2.
    let dd1 = (x_new - x_prev) / dt;
    let dd0 = (x_prev - x_prev2) / dt_prev;
    let dd2 = (dd1 - dd0) / (dt + dt_prev);
    // The trapezoid's LTE is ~ dt³·x'''/12; approximating x''' by the dd2/dt
    // scale keeps the h³ scaling without a third difference.
    (dt * dt * dd2 / 6.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integrates dx/dt = -x over [0,1] and returns x(1). The derivative
    /// form matches the simulator's: solve coeff0·x_new + term = -x_new.
    fn integrate_decay(steps: usize) -> f64 {
        let dt = 1.0 / steps as f64;
        let c = Coefficients::new(dt);
        let mut h = History { x: 1.0, dx: -1.0 };
        for _ in 0..steps {
            // coeff0·x + term = -x  ⇒  x = -term / (coeff0 + 1).
            let x_new = -h.term(&c) / (c.coeff0 + 1.0);
            h.commit(&c, x_new);
            assert!((h.dx + x_new).abs() < 1e-12, "dx = -x at every point");
        }
        h.x
    }

    #[test]
    fn trapezoidal_second_order() {
        let exact = (-1.0f64).exp();
        let e100 = (integrate_decay(100) - exact).abs();
        let e200 = (integrate_decay(200) - exact).abs();
        let ratio = e100 / e200;
        assert!((3.3..4.7).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn commit_dc_clears_the_derivative() {
        let mut h = History { x: 1.0, dx: 42.0 };
        h.commit_dc(1.5);
        assert_eq!(h, History { x: 1.5, dx: 0.0 });
    }

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn zero_dt_panics() {
        let _ = Coefficients::new(0.0);
    }

    #[test]
    fn lte_scaling() {
        // A quadratic x(t) = t² has a constant second divided difference:
        // the estimate is non-zero and shrinks with dt².
        let f = |t: f64| t * t;
        let lte1 = local_truncation_error(0.1, f(0.3), f(0.2), f(0.1), 0.1);
        let lte2 = local_truncation_error(0.05, f(0.20), f(0.15), f(0.10), 0.05);
        assert!(lte1 > 0.0);
        let ratio = lte1 / lte2;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }
}
