//! Dense LU factorization with partial pivoting, generic over [`Scalar`].
//!
//! One factorization serves both the real Newton solves of DC/transient
//! analysis (`T = f64`) and the complex solves of AC analysis
//! (`T = `[`Complex64`](crate::Complex64)).
//!
//! A factor owns its storage: [`LuFactor::refactor`] overwrites it with the
//! factorization of the next matrix of the same size without allocating,
//! and [`LuFactor::solve_in_place`] works in the caller's buffer, so a
//! Newton loop that keeps one factor allocates nothing per iteration.

use crate::dense::DenseMatrix;
use crate::{NumericError, Scalar};

/// An LU factorization `P·A = L·U` of a square matrix.
///
/// # Example
///
/// ```
/// use gabm_numeric::{DenseMatrix, LuFactor};
///
/// # fn main() -> Result<(), gabm_numeric::NumericError> {
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0][..], &[1.0, 3.0][..]])?;
/// let mut lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
///
/// // Factor the next matrix in the same storage and solve in place.
/// let b = DenseMatrix::from_rows(&[&[4.0, 0.0][..], &[0.0, 2.0][..]])?;
/// lu.refactor(&b)?;
/// let mut y = [8.0, 2.0];
/// lu.solve_in_place(&mut y)?;
/// assert_eq!(y, [2.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor<T = f64> {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) factors.
    lu: DenseMatrix<T>,
    /// Row interchanges in elimination order: step `k` swapped rows `k` and
    /// `ipiv[k]` (LAPACK's `ipiv`). Replaying them permutes a right-hand
    /// side in place.
    ipiv: Vec<usize>,
    /// Row scale factors of scaled partial pivoting (reused storage).
    scale: Vec<f64>,
    /// Sign of the permutation, for determinant computation.
    perm_sign: f64,
    /// Dimension of the factorization held; 0 while none is (before the
    /// first successful factorization, or after a failed one).
    n: usize,
}

/// Pivots smaller than this (relative to the largest magnitude seen in the
/// column) are treated as zero. MNA matrices from well-posed circuits keep
/// pivots far above this threshold; hitting it indicates a floating node or
/// a short-circuited voltage-source loop.
const PIVOT_EPS: f64 = 1e-13;

impl<T: Scalar> Default for LuFactor<T> {
    /// An empty factor, holding no factorization until
    /// [`refactor`](LuFactor::refactor) succeeds.
    fn default() -> Self {
        LuFactor {
            lu: DenseMatrix::zeros(0, 0),
            ipiv: Vec::new(),
            scale: Vec::new(),
            perm_sign: 1.0,
            n: 0,
        }
    }
}

impl<T: Scalar> LuFactor<T> {
    /// Factorizes `a` with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::Singular`] if a pivot column is numerically zero.
    pub fn new(a: &DenseMatrix<T>) -> Result<Self, NumericError> {
        let mut lu = LuFactor::default();
        lu.refactor(a)?;
        Ok(lu)
    }

    /// Replaces the factorization with that of `a`, reusing this factor's
    /// storage; it reallocates only when the dimension changes.
    ///
    /// Scaled partial pivoting picks, at step `k`, the row whose entry in
    /// column `k` is largest relative to the largest magnitude of that
    /// row in `a`. The result is the same, bit for bit, as
    /// [`LuFactor::new`] on `a`, whatever this factor held before.
    ///
    /// # Errors
    ///
    /// As [`LuFactor::new`]. After an error the factor holds no
    /// factorization (`dim() == 0`) until the next successful call.
    pub fn refactor(&mut self, a: &DenseMatrix<T>) -> Result<(), NumericError> {
        self.n = 0;
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch {
                expected: a.rows(),
                found: a.cols(),
            });
        }
        let n = a.rows();
        if self.lu.rows() == n {
            self.lu.as_mut_slice().copy_from_slice(a.as_slice());
        } else {
            self.lu = a.clone();
        }
        self.ipiv.clear();
        self.perm_sign = 1.0;
        let lu = self.lu.as_mut_slice();
        // Scale factors for scaled partial pivoting: guards against badly
        // scaled MNA rows (conductances span ~1e-12 .. 1e3).
        self.scale.clear();
        self.scale.extend(lu.chunks_exact(n.max(1)).map(|row| {
            let s = row.iter().fold(0.0f64, |s, v| s.max(v.magnitude()));
            if s == 0.0 {
                1.0
            } else {
                s
            }
        }));
        let scale = &mut self.scale;
        for k in 0..n {
            // Select pivot row by scaled magnitude.
            let mut pivot_row = k;
            let mut pivot_mag = lu[k * n + k].magnitude() / scale[k];
            for i in (k + 1)..n {
                let mag = lu[i * n + k].magnitude() / scale[i];
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < PIVOT_EPS {
                return Err(NumericError::Singular { pivot: k });
            }
            if pivot_row != k {
                let (upper, lower) = lu.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                scale.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            self.ipiv.push(pivot_row);
            // Eliminate below the pivot: row_i -= (a_ik / a_kk) · row_k.
            let (done, below) = lu.split_at_mut((k + 1) * n);
            let row_k = &done[k * n..];
            let pivot = row_k[k];
            for row_i in below.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                if factor == T::zero() {
                    continue;
                }
                for (v, &u) in row_i[k + 1..].iter_mut().zip(&row_k[k + 1..]) {
                    *v = *v - factor * u;
                }
            }
        }
        self.n = n;
        Ok(())
    }

    /// Dimension of the factored matrix (0 if no factorization is held).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, NumericError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place: `b` holds the right-hand side on entry
    /// and the solution on return (the hot path of the Newton loop).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [T]) -> Result<(), NumericError> {
        let n = self.n;
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Apply the permutation: b ← P·b.
        for (k, &p) in self.ipiv.iter().enumerate() {
            b.swap(k, p);
        }
        let lu = self.lu.as_slice();
        // Forward substitution with the unit lower factor.
        for i in 1..n {
            let (solved, rest) = b.split_at_mut(i);
            let mut acc = rest[0];
            for (&l, &x) in lu[i * n..i * n + i].iter().zip(solved.iter()) {
                acc = acc - l * x;
            }
            rest[0] = acc;
        }
        // Backward substitution with the upper factor.
        for i in (0..n).rev() {
            let row = &lu[i * n..(i + 1) * n];
            let (head, solved) = b.split_at_mut(i + 1);
            let mut acc = head[i];
            for (&u, &x) in row[i + 1..].iter().zip(solved.iter()) {
                acc = acc - u * x;
            }
            head[i] = acc / row[i];
        }
        Ok(())
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> T {
        let mut d = T::from_f64(self.perm_sign);
        for i in 0..self.dim() {
            d = d * self.lu[(i, i)];
        }
        d
    }

    /// Crude reciprocal condition estimate from the diagonal pivot spread.
    ///
    /// A value near zero signals an ill-conditioned MNA system (the simulator
    /// uses this to diagnose convergence trouble, mirroring the paper's §4
    /// note on discontinuities causing simulator problems).
    pub fn rcond_estimate(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for i in 0..self.dim() {
            let m = self.lu[(i, i)].magnitude();
            min = min.min(m);
            max = max.max(m);
        }
        if max == 0.0 {
            0.0
        } else {
            min / max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Complex64, Rng};

    /// The factorization as `LuFactor::new` computed it before the in-place
    /// kernel, through the bounds-checked `Index` impl: `(lu, perm,
    /// perm_sign)` with `perm[i]` the original row in position `i`.
    #[allow(clippy::needless_range_loop)]
    fn reference_factor<T: Scalar>(
        a: &DenseMatrix<T>,
    ) -> Result<(DenseMatrix<T>, Vec<usize>, f64), NumericError> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut scale = vec![0.0f64; n];
        for i in 0..n {
            let mut s = 0.0f64;
            for j in 0..n {
                s = s.max(lu[(i, j)].magnitude());
            }
            scale[i] = if s == 0.0 { 1.0 } else { s };
        }
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].magnitude() / scale[k];
            for i in (k + 1)..n {
                let mag = lu[(i, k)].magnitude() / scale[i];
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < PIVOT_EPS {
                return Err(NumericError::Singular { pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                scale.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == T::zero() {
                    continue;
                }
                for j in (k + 1)..n {
                    let upd = lu[(i, j)] - factor * lu[(k, j)];
                    lu[(i, j)] = upd;
                }
            }
        }
        Ok((lu, perm, perm_sign))
    }

    /// The solve that went with [`reference_factor`].
    #[allow(clippy::needless_range_loop)]
    fn reference_solve<T: Scalar>(lu: &DenseMatrix<T>, perm: &[usize], b: &[T]) -> Vec<T> {
        let n = lu.rows();
        let mut x: Vec<T> = (0..n).map(|i| b[perm[i]]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc = acc - lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc = acc - lu[(i, j)] * x[j];
            }
            x[i] = acc / lu[(i, i)];
        }
        x
    }

    /// Bit patterns of a scalar, so `-0.0` and `0.0` count as different.
    trait Bits: Scalar {
        fn bits(&self) -> [u64; 2];
    }

    impl Bits for f64 {
        fn bits(&self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Bits for Complex64 {
        fn bits(&self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    fn bits<T: Bits>(v: &[T]) -> Vec<[u64; 2]> {
        v.iter().map(Bits::bits).collect()
    }

    /// A seeded MNA-shaped matrix: a conductance network over `nodes`
    /// (chain, random cross links, shunts to ground) plus `branches`
    /// voltage-source rows with their zero diagonal. Each conductance `g`
    /// comes with a susceptance `b`, combined by `lift`. With `floating`,
    /// the last node connects to nothing, so the matrix is singular.
    fn mna<T: Scalar>(
        rng: &mut Rng,
        nodes: usize,
        branches: usize,
        floating: bool,
        lift: impl Fn(f64, f64) -> T,
    ) -> DenseMatrix<T> {
        let n = nodes + branches;
        let mut a = DenseMatrix::zeros(n, n);
        let live = if floating { nodes - 1 } else { nodes };
        let stamp = |a: &mut DenseMatrix<T>, p: usize, q: usize, y: T| {
            a.add_at(p, p, y);
            a.add_at(q, q, y);
            a.add_at(p, q, -y);
            a.add_at(q, p, -y);
        };
        for i in 0..live {
            let y = lift(rng.range(1e-9, 1e-3), rng.range(0.0, 1e-4));
            a.add_at(i, i, y);
            if i + 1 < live {
                let y = lift(rng.range(1e-5, 1e-2), rng.range(0.0, 1e-3));
                stamp(&mut a, i, i + 1, y);
            }
            let j = rng.below(live);
            if j != i {
                let y = lift(rng.range(1e-5, 10.0), 0.0);
                stamp(&mut a, i, j, y);
            }
        }
        for b in 0..branches {
            let p = (b * live) / branches;
            a.add_at(p, nodes + b, T::one());
            a.add_at(nodes + b, p, T::one());
        }
        a
    }

    /// One reused factor against a fresh reference factorization per
    /// matrix: sizes change up and down, and a singular matrix leaves a
    /// half-finished elimination behind for the next `refactor`.
    fn refactor_matches_reference<T: Bits>(lift: impl Fn(f64, f64) -> T + Copy) {
        let mut rng = Rng::new(0x5eed);
        // (nodes, branches, floating)
        let cases = [
            (1, 0, false),
            (2, 0, false),
            (4, 1, false),
            (9, 3, false),
            (9, 3, false),
            (14, 3, false),
            (14, 3, true),
            (14, 3, false),
            (9, 3, true),
            (24, 6, false),
            (5, 0, false),
            (9, 3, false),
        ];
        let mut lu = LuFactor::default();
        for (nodes, branches, floating) in cases {
            let a = mna(&mut rng, nodes, branches, floating, lift);
            let n = a.rows();
            let got = lu.refactor(&a);
            match reference_factor(&a) {
                Err(want) => {
                    assert!(floating, "n={n}: reference failed on a regular matrix");
                    assert_eq!(got, Err(want), "n={n}");
                    assert_eq!(lu.dim(), 0, "a failed refactor holds no factor");
                }
                Ok((ref_lu, perm, sign)) => {
                    assert!(!floating, "n={n}: floating node went undetected");
                    got.unwrap();
                    assert_eq!(lu.dim(), n);
                    assert_eq!(bits(lu.lu.as_slice()), bits(ref_lu.as_slice()), "n={n}");
                    let mut order: Vec<usize> = (0..n).collect();
                    for (k, &p) in lu.ipiv.iter().enumerate() {
                        order.swap(k, p);
                    }
                    assert_eq!(order, perm, "n={n}");
                    let ref_det = (0..n).fold(T::from_f64(sign), |d, i| d * ref_lu[(i, i)]);
                    assert_eq!(lu.det().bits(), ref_det.bits(), "n={n}");
                    let b: Vec<T> = (0..n)
                        .map(|_| lift(rng.symmetric(), rng.symmetric()))
                        .collect();
                    let mut x = b.clone();
                    lu.solve_in_place(&mut x).unwrap();
                    assert_eq!(bits(&x), bits(&reference_solve(&ref_lu, &perm, &b)));
                }
            }
        }
    }

    #[test]
    fn refactor_is_bit_identical_to_the_reference_kernel_real() {
        refactor_matches_reference(|g, _| g);
    }

    #[test]
    fn refactor_is_bit_identical_to_the_reference_kernel_complex() {
        refactor_matches_reference(Complex64::new);
    }

    #[test]
    fn solve_2x2() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0][..], &[1.0, 3.0][..]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-14);
        assert!((r[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a: DenseMatrix<f64> = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn determinant() {
        let a = DenseMatrix::from_rows(&[&[2.0, 0.0][..], &[0.0, 3.0][..]]).unwrap();
        assert!((LuFactor::new(&a).unwrap().det() - 6.0).abs() < 1e-14);
        // Permutation flips the sign.
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0][..], &[1.0, 0.0][..]]).unwrap();
        assert!((LuFactor::new(&b).unwrap().det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn badly_scaled_rows() {
        // Scaled pivoting must handle rows whose magnitudes differ by 1e12.
        let a = DenseMatrix::from_rows(&[&[1e-12, 1.0][..], &[1.0, 1.0][..]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        let r = a.mul_vec(&x).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-9);
        assert!((r[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = DenseMatrix::from_rows(&[&[3.0, 1.0][..], &[1.0, 2.0][..]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let mut b = [1.0, 1.0];
        lu.solve_in_place(&mut b).unwrap();
        let x = lu.solve(&[1.0, 1.0]).unwrap();
        assert_eq!(b.to_vec(), x);
    }

    #[test]
    fn complex_solve() {
        let j = Complex64::J;
        // (1+j)x = 2 → x = 1-j.
        let a = DenseMatrix::from_rows(&[&[Complex64::ONE + j][..]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[Complex64::from_real(2.0)]).unwrap();
        assert!((x[0] - Complex64::new(1.0, -1.0)).abs() < 1e-14);
    }

    #[test]
    fn rcond_sane() {
        let a: DenseMatrix<f64> = DenseMatrix::identity(4);
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.rcond_estimate() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn random_residuals_small() {
        // Deterministic pseudo-random matrix: xorshift to avoid rand dep here.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [1usize, 2, 5, 10, 20] {
            let mut a = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for jj in 0..n {
                    a[(i, jj)] = next();
                }
                // Diagonal dominance keeps it well conditioned.
                a[(i, i)] += 2.0;
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let lu = LuFactor::new(&a).unwrap();
            let x = lu.solve(&b).unwrap();
            let r = a.mul_vec(&x).unwrap();
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-10, "n={n}");
            }
        }
    }
}
