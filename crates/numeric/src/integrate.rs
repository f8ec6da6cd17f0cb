//! Numerical-integration support for the transient engine.
//!
//! A SPICE-class simulator discretizes `i = C·dv/dt` with an implicit linear
//! multistep method. Writing the discretization as
//!
//! ```text
//! dx/dt ≈ a0·x(t_n) + history
//! ```
//!
//! each reactive element stamps `a0·C` into the Jacobian and the history term
//! into the right-hand side. This module provides the coefficients for
//! backward Euler, trapezoidal and Gear-2 (BDF2) methods and the local
//! truncation error estimate from which `gabm-sim`'s transient analysis
//! chooses its variable steps.
//!
//! The paper's §3.3 note — "models are simulated using electrical simulators
//! which are time-discrete systems with *variable time intervals*" — is what
//! that step policy implements; the slew-rate construct's one-step delay
//! element reads the step taken.

/// Implicit integration method used for reactive elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// First-order backward Euler: L-stable, strongly damped. The safe choice
    /// around discontinuities (strobe edges, limiter corners).
    BackwardEuler,
    /// Second-order trapezoidal rule: A-stable, no numerical damping; SPICE's
    /// default, and ours.
    #[default]
    Trapezoidal,
    /// Second-order backward differentiation (Gear-2): L-stable, mildly
    /// damped; useful when trapezoidal ringing appears.
    Gear2,
}

impl Method {
    /// Order of accuracy of the method.
    pub fn order(self) -> usize {
        match self {
            Method::BackwardEuler => 1,
            Method::Trapezoidal | Method::Gear2 => 2,
        }
    }
}

/// Discretization coefficients for one time step.
///
/// The derivative at the new time point is expressed as
/// `dx/dt ≈ coeff0·x_new + rhs_history`, where `rhs_history` is assembled via
/// [`Coefficients::history`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Multiplier of the new value in the derivative approximation.
    pub coeff0: f64,
    method: Method,
    dt: f64,
    dt_prev: f64,
}

impl Coefficients {
    /// Computes the coefficients for `method` with current step `dt` and the
    /// previous step `dt_prev` (used by the variable-step Gear-2 formula).
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn new(method: Method, dt: f64, dt_prev: f64) -> Self {
        assert!(dt > 0.0, "time step must be positive, got {dt}");
        let coeff0 = match method {
            Method::BackwardEuler => 1.0 / dt,
            Method::Trapezoidal => 2.0 / dt,
            Method::Gear2 => {
                if dt_prev > 0.0 {
                    // Variable-step BDF2 leading coefficient.
                    let rho = dt / dt_prev;
                    (1.0 + 2.0 * rho) / (1.0 + rho) / dt
                } else {
                    // First step: fall back to backward Euler.
                    1.0 / dt
                }
            }
        };
        Coefficients {
            coeff0,
            method,
            dt,
            dt_prev,
        }
    }

    /// History term of the derivative approximation given the previous value
    /// `x_prev`, the previous derivative `dx_prev`, and the value before that
    /// `x_prev2`:
    ///
    /// `dx/dt ≈ coeff0·x_new + history(x_prev, dx_prev, x_prev2)`.
    pub fn history(&self, x_prev: f64, dx_prev: f64, x_prev2: f64) -> f64 {
        match self.method {
            Method::BackwardEuler => -x_prev / self.dt,
            Method::Trapezoidal => -2.0 * x_prev / self.dt - dx_prev,
            Method::Gear2 => {
                if self.dt_prev > 0.0 {
                    let rho = self.dt / self.dt_prev;
                    let a1 = -(1.0 + rho) / self.dt;
                    let a2 = rho * rho / (1.0 + rho) / self.dt;
                    a1 * x_prev + a2 * x_prev2
                } else {
                    -x_prev / self.dt
                }
            }
        }
    }

    /// Method these coefficients were derived for.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Current step size.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

/// Local truncation error estimate for the value `x_new` produced over the
/// last step, from divided differences of the recent history.
///
/// Returns an estimate of the per-step error; the transient's step policy
/// compares it with a tolerance to accept or shrink the step.
pub fn local_truncation_error(
    method: Method,
    dt: f64,
    x_new: f64,
    x_prev: f64,
    x_prev2: f64,
    dt_prev: f64,
) -> f64 {
    if dt_prev <= 0.0 {
        // Not enough history: assume worst case so the step policy stays
        // conservative on the first steps.
        return (x_new - x_prev).abs() * 0.5;
    }
    // Second divided difference ≈ x''/2.
    let dd1 = (x_new - x_prev) / dt;
    let dd0 = (x_prev - x_prev2) / dt_prev;
    let dd2 = (dd1 - dd0) / (dt + dt_prev);
    match method {
        // BE: LTE = dt²/2 · x'' = dt² · dd2.
        Method::BackwardEuler => (dt * dt * dd2).abs(),
        // Trap/Gear2: LTE ~ dt³ · x''' — approximate x''' by dd2/dt scale;
        // this keeps the classic h³ scaling without a third difference.
        Method::Trapezoidal => (dt * dt * dd2 / 6.0).abs(),
        Method::Gear2 => (dt * dt * dd2 / 3.0).abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_orders() {
        assert_eq!(Method::BackwardEuler.order(), 1);
        assert_eq!(Method::Trapezoidal.order(), 2);
        assert_eq!(Method::Gear2.order(), 2);
        assert_eq!(Method::default(), Method::Trapezoidal);
    }

    /// Integrate dx/dt = -x over [0,1] with each method and check accuracy
    /// against e^{-1}. The derivative form used matches the simulator's:
    /// solve coeff0·x_new + history = -x_new.
    fn integrate_decay(method: Method, steps: usize) -> f64 {
        let dt = 1.0 / steps as f64;
        let mut x_prev = 1.0;
        let mut x_prev2 = 1.0;
        let mut dx_prev = -1.0;
        let mut dt_prev = 0.0;
        for _ in 0..steps {
            let c = Coefficients::new(method, dt, dt_prev);
            // coeff0·x + hist = -x  ⇒  x = -hist / (coeff0 + 1).
            let hist = c.history(x_prev, dx_prev, x_prev2);
            let x_new = -hist / (c.coeff0 + 1.0);
            dx_prev = c.coeff0 * x_new + hist;
            x_prev2 = x_prev;
            x_prev = x_new;
            dt_prev = dt;
        }
        x_prev
    }

    #[test]
    fn backward_euler_first_order() {
        let exact = (-1.0f64).exp();
        let e100 = (integrate_decay(Method::BackwardEuler, 100) - exact).abs();
        let e200 = (integrate_decay(Method::BackwardEuler, 200) - exact).abs();
        // Halving the step should roughly halve the error.
        let ratio = e100 / e200;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn trapezoidal_second_order() {
        let exact = (-1.0f64).exp();
        let e100 = (integrate_decay(Method::Trapezoidal, 100) - exact).abs();
        let e200 = (integrate_decay(Method::Trapezoidal, 200) - exact).abs();
        let ratio = e100 / e200;
        assert!((3.3..4.7).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gear2_second_order() {
        let exact = (-1.0f64).exp();
        let e100 = (integrate_decay(Method::Gear2, 100) - exact).abs();
        let e200 = (integrate_decay(Method::Gear2, 200) - exact).abs();
        let ratio = e100 / e200;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gear2_first_step_is_be() {
        let c = Coefficients::new(Method::Gear2, 0.1, 0.0);
        let be = Coefficients::new(Method::BackwardEuler, 0.1, 0.0);
        assert_eq!(c.coeff0, be.coeff0);
    }

    #[test]
    #[should_panic(expected = "time step must be positive")]
    fn zero_dt_panics() {
        let _ = Coefficients::new(Method::Trapezoidal, 0.0, 0.0);
    }

    #[test]
    fn lte_scaling() {
        // A quadratic x(t) = t² has constant second derivative: BE LTE should
        // be non-zero, and shrink with dt².
        let f = |t: f64| t * t;
        let lte1 = local_truncation_error(Method::BackwardEuler, 0.1, f(0.3), f(0.2), f(0.1), 0.1);
        let lte2 =
            local_truncation_error(Method::BackwardEuler, 0.05, f(0.20), f(0.15), f(0.10), 0.05);
        assert!(lte1 > 0.0);
        let ratio = lte1 / lte2;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }
}
