//! Value lanes: every FAS op's numeric rule, defined once.
//!
//! ELDO executed *compiled* models with analytic derivatives. Both FAS
//! executors (the interpreter's tree walk and the bytecode VM) run one
//! pass generic over a [`Lane`]: plain `f64` for `eval` and `accept`, and
//! a [`Dual`] number for `eval_with_jacobian`, which yields the pin
//! currents **and** the exact Jacobian ∂i/∂v in a single walk instead of
//! the `pins + 1` finite-difference evaluations the generic bridge needs.
//! The `Dual` lane's value part is the `f64` lane's result, bit for bit.

use crate::ast::BinOp;
use crate::compile::{Func1, Func2};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Maximum number of simultaneous tangents (pins) the dual pass supports;
/// models with more pins fall back to finite differences.
pub const MAX_TANGENTS: usize = 8;

/// A value a FAS pass computes with. The provided methods hold the rules
/// both lanes share (`min`/`max` and `limit` pick an operand by value);
/// the required ones hold each lane's arithmetic.
pub trait Lane:
    Copy
    + Neg<Output = Self>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// A value with zero tangent.
    fn constant(v: f64) -> Self;

    /// Pin `j`'s voltage `v`: the `j`-th independent variable.
    fn pin(v: f64, j: usize) -> Self;

    /// The value part.
    fn value(self) -> f64;

    /// `value`, with this operand's tangent scaled by `slope`: the chain
    /// rule for a unary function with derivative `slope`.
    fn chain(self, value: f64, slope: f64) -> Self;

    /// The one-argument intrinsic `f`.
    fn call1(self, f: Func1) -> Self;

    /// `self` raised to the power `exp`.
    fn pow(self, exp: Self) -> Self;

    /// Binary arithmetic.
    #[inline]
    fn bin(self, op: BinOp, b: Self) -> Self {
        match op {
            BinOp::Add => self + b,
            BinOp::Sub => self - b,
            BinOp::Mul => self * b,
            BinOp::Div => self / b,
        }
    }

    /// The two-argument intrinsic `f`. `min`/`max` are NaN when either
    /// operand is; otherwise they pick `self` when `self <= b` (`>=` for
    /// `max`), else `b`.
    #[inline]
    fn call2(self, f: Func2, b: Self) -> Self {
        let (x, y) = (self.value(), b.value());
        match f {
            Func2::Min if x.is_nan() || x <= y => self,
            Func2::Max if x.is_nan() || x >= y => self,
            Func2::Min | Func2::Max => b,
            Func2::Pow => self.pow(b),
        }
    }

    /// `limit(self, lo, hi)`: NaN when any operand is; otherwise `lo` when
    /// `self < lo`, `hi` when `self > hi`, else `self`.
    #[inline]
    fn limit(self, lo: Self, hi: Self) -> Self {
        let (x, l, h) = (self.value(), lo.value(), hi.value());
        if l.is_nan() {
            lo
        } else if h.is_nan() {
            hi
        } else if x < l {
            lo
        } else if x > h {
            hi
        } else {
            self
        }
    }
}

impl Lane for f64 {
    #[inline]
    fn constant(v: f64) -> f64 {
        v
    }

    #[inline]
    fn pin(v: f64, _j: usize) -> f64 {
        v
    }

    #[inline]
    fn value(self) -> f64 {
        self
    }

    #[inline]
    fn chain(self, value: f64, _slope: f64) -> f64 {
        value
    }

    #[inline]
    fn call1(self, f: Func1) -> f64 {
        match f {
            Func1::Sin => self.sin(),
            Func1::Cos => self.cos(),
            Func1::Exp => self.exp(),
            Func1::Ln => self.ln(),
            Func1::Abs => self.abs(),
            Func1::Sqrt => self.sqrt(),
            Func1::Tanh => self.tanh(),
            Func1::Atan => self.atan(),
        }
    }

    #[inline]
    fn pow(self, exp: f64) -> f64 {
        self.powf(exp)
    }
}

/// A dual number: value plus a fixed-width tangent vector.
///
/// The tangent lanes correspond to the model's pins; lane `j` carries
/// ∂value/∂v_pin_j. Lanes beyond the active pin count stay zero and cost
/// only predictable SIMD-friendly arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dual {
    /// Value part.
    pub v: f64,
    /// Tangent vector.
    pub d: [f64; MAX_TANGENTS],
}

impl std::ops::Neg for Dual {
    type Output = Dual;

    #[inline]
    fn neg(self) -> Dual {
        let mut d = self.d;
        for x in &mut d {
            *x = -*x;
        }
        Dual { v: -self.v, d }
    }
}

impl std::ops::Add for Dual {
    type Output = Dual;

    #[inline]
    fn add(self, rhs: Dual) -> Dual {
        let mut d = self.d;
        for (a, b) in d.iter_mut().zip(rhs.d) {
            *a += b;
        }
        Dual {
            v: self.v + rhs.v,
            d,
        }
    }
}

impl std::ops::Sub for Dual {
    type Output = Dual;

    #[inline]
    fn sub(self, rhs: Dual) -> Dual {
        let mut d = self.d;
        for (a, b) in d.iter_mut().zip(rhs.d) {
            *a -= b;
        }
        Dual {
            v: self.v - rhs.v,
            d,
        }
    }
}

impl std::ops::Mul for Dual {
    type Output = Dual;

    /// Product rule.
    #[inline]
    fn mul(self, rhs: Dual) -> Dual {
        let mut d = [0.0; MAX_TANGENTS];
        #[allow(clippy::needless_range_loop)]
        for i in 0..MAX_TANGENTS {
            d[i] = self.d[i] * rhs.v + self.v * rhs.d[i];
        }
        Dual {
            v: self.v * rhs.v,
            d,
        }
    }
}

impl std::ops::Div for Dual {
    type Output = Dual;

    /// Quotient rule. The value is the `f64` lane's `a / b`; the tangent
    /// keeps its reciprocal form `(a' − (a·(1/b))·b')·(1/b)`.
    #[inline]
    fn div(self, rhs: Dual) -> Dual {
        let inv = 1.0 / rhs.v;
        let q = self.v * inv;
        let mut d = [0.0; MAX_TANGENTS];
        #[allow(clippy::needless_range_loop)]
        for i in 0..MAX_TANGENTS {
            d[i] = (self.d[i] - q * rhs.d[i]) * inv;
        }
        Dual {
            v: self.v / rhs.v,
            d,
        }
    }
}

impl Lane for Dual {
    #[inline]
    fn constant(v: f64) -> Dual {
        Dual {
            v,
            d: [0.0; MAX_TANGENTS],
        }
    }

    #[inline]
    fn pin(v: f64, j: usize) -> Dual {
        let mut d = [0.0; MAX_TANGENTS];
        d[j] = 1.0;
        Dual { v, d }
    }

    #[inline]
    fn value(self) -> f64 {
        self.v
    }

    #[inline]
    fn chain(self, value: f64, slope: f64) -> Dual {
        let mut d = self.d;
        for x in &mut d {
            *x *= slope;
        }
        Dual { v: value, d }
    }

    #[inline]
    fn call1(self, f: Func1) -> Dual {
        let x = self.v;
        let y = x.call1(f);
        let slope = match f {
            Func1::Sin => x.cos(),
            Func1::Cos => -x.sin(),
            Func1::Exp => y,
            Func1::Ln => 1.0 / x,
            Func1::Abs => {
                if x >= 0.0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Func1::Sqrt => {
                if y > 0.0 {
                    0.5 / y
                } else {
                    0.0
                }
            }
            Func1::Tanh => 1.0 - y * y,
            Func1::Atan => 1.0 / (1.0 + x * x),
        };
        self.chain(y, slope)
    }

    /// d(a^b) = a^b (b' ln a + b a'/a); the ln-term only exists for
    /// positive bases.
    #[inline]
    fn pow(self, exp: Dual) -> Dual {
        let value = self.v.pow(exp.v);
        let da = if self.v != 0.0 {
            value * exp.v / self.v
        } else {
            0.0
        };
        let db = if self.v > 0.0 {
            value * self.v.ln()
        } else {
            0.0
        };
        let mut d = [0.0; MAX_TANGENTS];
        #[allow(clippy::needless_range_loop)]
        for i in 0..MAX_TANGENTS {
            d[i] = da * self.d[i] + db * exp.d[i];
        }
        Dual { v: value, d }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(v: f64) -> Dual {
        Dual::pin(v, 0)
    }

    #[test]
    fn constants_and_variables() {
        let c = Dual::constant(3.0);
        assert_eq!(c.v, 3.0);
        assert!(c.d.iter().all(|&d| d == 0.0));
        let v = Dual::pin(2.0, 3);
        assert_eq!(v.d[3], 1.0);
        assert_eq!(v.d[0], 0.0);
    }

    #[test]
    fn arithmetic_rules() {
        let a = x(2.0);
        let b = Dual::constant(3.0);
        assert_eq!((a + b).v, 5.0);
        assert_eq!((a + b).d[0], 1.0);
        assert_eq!((a - b).d[0], 1.0);
        assert_eq!((a * b).v, 6.0);
        assert_eq!((a * b).d[0], 3.0);
        // d/dx (x²) = 2x.
        assert_eq!((a * a).d[0], 4.0);
        // d/dx (1/x) = -1/x².
        let inv = Dual::constant(1.0) / a;
        assert!((inv.d[0] + 0.25).abs() < 1e-15);
        assert_eq!((-a).d[0], -1.0);
    }

    #[test]
    fn quotient_rule() {
        // d/dx (x / (x+1)) = 1/(x+1)².
        let a = x(2.0);
        let q = a / (a + Dual::constant(1.0));
        assert!((q.d[0] - 1.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn chain_rule_helper() {
        // sin(x) at x = 0.5.
        let a = x(0.5);
        let s = a.chain(a.v.sin(), a.v.cos());
        assert!((s.v - 0.5f64.sin()).abs() < 1e-15);
        assert!((s.d[0] - 0.5f64.cos()).abs() < 1e-15);
    }

    #[test]
    fn independent_lanes() {
        let a = Dual::pin(2.0, 0);
        let b = Dual::pin(3.0, 1);
        let p = a * b;
        assert_eq!(p.d[0], 3.0);
        assert_eq!(p.d[1], 2.0);
        assert_eq!(p.d[2], 0.0);
    }
}
