//! Newton–Raphson support: SPICE-style convergence criteria and damping.
//!
//! The nonlinear MNA system `F(x) = 0` is solved by damped Newton iteration.
//! Convergence is judged per-unknown with combined relative/absolute
//! tolerances exactly as classic SPICE does (`RELTOL`, `VNTOL`, `ABSTOL`),
//! because a single global norm misbehaves when node voltages (volts) and
//! source branch currents (milliamps) share the solution vector.

/// Convergence tolerances for the Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Relative tolerance applied to every unknown (SPICE `RELTOL`).
    pub reltol: f64,
    /// Absolute voltage tolerance (SPICE `VNTOL`).
    pub vntol: f64,
    /// Absolute current tolerance (SPICE `ABSTOL`).
    pub abstol: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            reltol: 1e-3,
            vntol: 1e-6,
            abstol: 1e-12,
        }
    }
}

impl Tolerances {
    /// Checks one unknown for convergence given its new and old values and
    /// whether it is a voltage (`true`) or a branch current (`false`).
    pub fn converged_scalar(&self, new: f64, old: f64, is_voltage: bool) -> bool {
        let abs = if is_voltage { self.vntol } else { self.abstol };
        (new - old).abs() <= self.reltol * new.abs().max(old.abs()) + abs
    }

    /// Checks a full solution update. `is_voltage[i]` flags voltage unknowns;
    /// missing entries default to voltage semantics.
    pub fn converged(&self, new: &[f64], old: &[f64], is_voltage: &[bool]) -> bool {
        new.iter().zip(old).enumerate().all(|(i, (n, o))| {
            let v = is_voltage.get(i).copied().unwrap_or(true);
            self.converged_scalar(*n, *o, v)
        })
    }
}

/// Limits the per-iteration change of an exponential-junction voltage, the
/// classic SPICE `pnjlim` device-level damping.
///
/// Junction devices (diode, MOS in subthreshold-like regions) produce Newton
/// overshoots of hundreds of volts; limiting the voltage step to a few
/// thermal voltages keeps `exp(v/vt)` finite and the iteration stable. This
/// is part of the "additional simulation expertise ... included in the coding
/// process" the paper's §4 note calls for.
pub fn pnjlim(v_new: f64, v_old: f64, vt: f64, v_crit: f64) -> f64 {
    if v_new > v_crit && (v_new - v_old).abs() > 2.0 * vt {
        if v_old > 0.0 {
            let arg = 1.0 + (v_new - v_old) / vt;
            if arg > 0.0 {
                v_old + vt * arg.ln()
            } else {
                v_crit
            }
        } else {
            vt * (v_new / vt).max(1e-30).ln()
        }
    } else {
        v_new
    }
}

/// Critical voltage for [`pnjlim`] given the saturation current `is` and the
/// thermal voltage `vt`.
pub fn critical_voltage(is: f64, vt: f64) -> f64 {
    vt * (vt / (std::f64::consts::SQRT_2 * is)).ln()
}

/// Simple step damping: scales the Newton update so that no component of the
/// solution changes by more than `max_delta`.
///
/// Returns the applied scale factor in `(0, 1]`, or NaN (leaving `update`
/// as it is) when any component is NaN.
pub fn damp_update(update: &mut [f64], max_delta: f64) -> f64 {
    if update.iter().any(|u| u.is_nan()) {
        return f64::NAN;
    }
    let worst = update.iter().fold(0.0f64, |m, u| m.max(u.abs()));
    if worst <= max_delta || worst == 0.0 {
        return 1.0;
    }
    let scale = max_delta / worst;
    for u in update.iter_mut() {
        *u *= scale;
    }
    scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tolerances_match_spice() {
        let t = Tolerances::default();
        assert_eq!(t.reltol, 1e-3);
        assert_eq!(t.vntol, 1e-6);
        assert_eq!(t.abstol, 1e-12);
    }

    #[test]
    fn scalar_convergence_volts_vs_amps() {
        let t = Tolerances::default();
        // 0.5 µV change on a 1 V node: converged for voltage...
        assert!(t.converged_scalar(1.0000005, 1.0, true));
        // ...but a 0.5 µA change on a 1 A branch current is *also* converged
        // by reltol; a 0.5 µA change on a ~0 A branch is not.
        assert!(!t.converged_scalar(5e-7, 0.0, false));
        assert!(t.converged_scalar(5e-13, 0.0, false));
    }

    #[test]
    fn vector_convergence() {
        let t = Tolerances::default();
        assert!(t.converged(&[1.0, 2.0], &[1.0, 2.0], &[true, true]));
        assert!(!t.converged(&[1.0, 2.1], &[1.0, 2.0], &[true, true]));
        // Missing flags default to voltage.
        assert!(t.converged(&[1.0, 2.0], &[1.0, 2.0], &[]));
    }

    #[test]
    fn pnjlim_limits_large_forward_steps() {
        let vt = 0.02585;
        let v_crit = critical_voltage(1e-14, vt);
        // A wild Newton guess of 5 V from 0.6 V must be pulled back near
        // v_old.
        let limited = pnjlim(5.0, 0.6, vt, v_crit);
        assert!(limited < 1.0, "limited = {limited}");
        assert!(limited > 0.6);
    }

    #[test]
    fn pnjlim_passes_small_steps() {
        let vt = 0.02585;
        let v_crit = critical_voltage(1e-14, vt);
        assert_eq!(pnjlim(0.61, 0.60, vt, v_crit), 0.61);
        // Reverse bias is never limited.
        assert_eq!(pnjlim(-5.0, 0.0, vt, v_crit), -5.0);
    }

    #[test]
    fn critical_voltage_sane() {
        let vc = critical_voltage(1e-14, 0.02585);
        assert!((0.5..1.2).contains(&vc), "vc = {vc}");
    }

    #[test]
    fn damping_scales_update() {
        let mut u = vec![10.0, -20.0, 1.0];
        let s = damp_update(&mut u, 2.0);
        assert!((s - 0.1).abs() < 1e-15);
        assert!((u[1] + 2.0).abs() < 1e-15);
        // Within bounds: untouched.
        let mut v = vec![0.5, -0.5];
        assert_eq!(damp_update(&mut v, 2.0), 1.0);
        assert_eq!(v, vec![0.5, -0.5]);
    }

    #[test]
    fn damping_handles_zero_update() {
        let mut u = vec![0.0, 0.0];
        assert_eq!(damp_update(&mut u, 1.0), 1.0);
    }

    #[test]
    fn damping_propagates_nan() {
        let mut u = [f64::NAN, 1.0];
        assert!(damp_update(&mut u, 2.0).is_nan());
        let mut v = [10.0, f64::NAN];
        assert!(damp_update(&mut v, 2.0).is_nan());
    }
}
