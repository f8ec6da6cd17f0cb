//! A self-contained double-precision complex number.
//!
//! Used by the AC small-signal analysis in `gabm-sim` and by the impedance
//! extraction rigs in `gabm-charac`. Only the operations the workspace needs
//! are provided; this is deliberately not a general-purpose complex library.

use crate::Scalar;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Example
///
/// ```
/// use gabm_numeric::Complex64;
///
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!(z * Complex64::J, Complex64::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The complex zero.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The complex one.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `j` (electrical-engineering notation).
    pub const J: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar form (modulus, argument in
    /// radians).
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64::new(r * theta.cos(), r * theta.sin())
    }

    /// Modulus `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Argument (phase) in degrees.
    pub fn arg_deg(self) -> f64 {
        self.arg().to_degrees()
    }

    /// Modulus expressed in decibels, `20·log10 |z|`.
    pub fn abs_db(self) -> f64 {
        20.0 * self.abs().log10()
    }

    /// Returns `true` if either component is NaN.
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        Complex64::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    fn div(self, rhs: Complex64) -> Complex64 {
        // Smith's algorithm avoids overflow for very large/small components,
        // which impedance sweeps spanning many decades do produce.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl Scalar for Complex64 {
    fn zero() -> Self {
        Complex64::ZERO
    }
    fn one() -> Self {
        Complex64::ONE
    }
    fn magnitude(&self) -> f64 {
        self.abs()
    }
    fn from_f64(x: f64) -> Self {
        Complex64::from_real(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_accessors() {
        let z = Complex64::new(1.0, -2.0);
        assert_eq!(z.re, 1.0);
        assert_eq!(z.im, -2.0);
        assert_eq!(Complex64::from_real(3.0), Complex64::new(3.0, 0.0));
        assert_eq!(Complex64::from(3.0), Complex64::from_real(3.0));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), std::f64::consts::FRAC_PI_3));
    }

    #[test]
    fn arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re) && close(back.im, a.im));
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
    }

    #[test]
    fn division_avoids_overflow() {
        let big = Complex64::new(1e300, 1e300);
        let q = Complex64::ONE / big;
        assert!(!q.is_nan());
        assert!(q.abs() > 0.0);
    }

    #[test]
    fn db_and_phase() {
        let z = Complex64::new(10.0, 0.0);
        assert!(close(z.abs_db(), 20.0));
        assert!(close(Complex64::J.arg_deg(), 90.0));
    }

    #[test]
    fn exp_and_sqrt() {
        // e^{jπ} = -1.
        let z = (Complex64::J * std::f64::consts::PI).exp();
        assert!(close(z.re, -1.0) && z.im.abs() < 1e-12);
        let s = Complex64::new(-4.0, 0.0).sqrt();
        assert!(close(s.im, 2.0) && s.re.abs() < 1e-12);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn scalar_impl() {
        assert_eq!(<Complex64 as Scalar>::zero(), Complex64::ZERO);
        assert_eq!(<Complex64 as Scalar>::one(), Complex64::ONE);
        assert!(close(Complex64::new(3.0, 4.0).magnitude(), 5.0));
    }
}
