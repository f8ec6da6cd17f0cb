//! Left-looking (Gilbert–Peierls) sparse LU factorization with partial
//! pivoting, plus KLU-style numeric refactorization.
//!
//! The simulator uses the dense solver for small systems and switches to this
//! factorization above a node-count threshold; the `dense vs sparse` ablation
//! bench quantifies the crossover on ladder networks.
//!
//! A Newton loop refactors the *same* sparsity pattern every iteration —
//! only the values change. [`SparseLu::new`] therefore records the input
//! pattern and stores the `L`/`U` patterns complete (structural zeros
//! included) with each `U` column in elimination order, so that
//! [`SparseLu::refactor`] can replay the numeric sweep against the frozen
//! pivot order without redoing the symbolic reachability analysis or the
//! pivot search, and without reallocating the factors.

use crate::sparse::SparseMatrix;
use crate::NumericError;

/// Sparse LU factors of a square [`SparseMatrix`], `P·A = L·U`.
///
/// # Example
///
/// ```
/// use gabm_numeric::{SparseLu, TripletBuilder};
///
/// # fn main() -> Result<(), gabm_numeric::NumericError> {
/// let mut b = TripletBuilder::new(2, 2);
/// b.push(0, 0, 4.0);
/// b.push(0, 1, 1.0);
/// b.push(1, 0, 1.0);
/// b.push(1, 1, 3.0);
/// let lu = SparseLu::new(&b.to_csc())?;
/// let x = lu.solve(&[1.0, 2.0])?;
/// assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    // L in CSC without the unit diagonal.
    l_col_ptr: Vec<usize>,
    l_row_idx: Vec<usize>,
    l_values: Vec<f64>,
    // U in CSC, entries in elimination (topological) order with the
    // diagonal last in each column — the order `refactor` replays.
    u_col_ptr: Vec<usize>,
    u_row_idx: Vec<usize>,
    u_values: Vec<f64>,
    /// `perm[i]` = original row placed at position `i`.
    perm: Vec<usize>,
    /// `perm` as row interchanges: swapping `k` with `swaps[k]` for
    /// `k = 0, 1, …` moves original row `perm[k]` to position `k` in place.
    swaps: Vec<usize>,
    // Structural pattern of the factored input, kept so `refactor` can
    // verify the symbolic analysis still applies.
    a_col_ptr: Vec<usize>,
    a_row_idx: Vec<usize>,
}

const PIVOT_EPS: f64 = 1e-13;

impl SparseLu {
    /// Factorizes `a` column by column with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not square.
    /// * [`NumericError::Singular`] if a column yields no usable pivot.
    pub fn new(a: &SparseMatrix) -> Result<Self, NumericError> {
        if a.rows() != a.cols() {
            return Err(NumericError::DimensionMismatch {
                expected: a.rows(),
                found: a.cols(),
            });
        }
        let n = a.rows();
        // pinv[original_row] = current position, or usize::MAX while the row
        // is not yet pivotal.
        let mut pinv = vec![usize::MAX; n];
        let mut perm = vec![usize::MAX; n];

        let mut l_col_ptr = vec![0usize];
        let mut l_row_idx: Vec<usize> = Vec::new();
        let mut l_values: Vec<f64> = Vec::new();
        let mut u_col_ptr = vec![0usize];
        let mut u_row_idx: Vec<usize> = Vec::new();
        let mut u_values: Vec<f64> = Vec::new();

        // Dense work vector + occupancy pattern per column.
        let mut work = vec![0.0f64; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(n);
        let mut in_pattern = vec![false; n];
        // Explicit DFS stack: (original_row, next child index to visit).
        let mut stack: Vec<(usize, usize)> = Vec::new();

        #[allow(clippy::needless_range_loop)]
        for col in 0..n {
            // Symbolic step: the non-zero pattern of the solution of
            // L·x = A[:, col] is the set of nodes reachable in the graph of L
            // from the rows of A[:, col]. Depth-first search records them in
            // topological (reverse post-) order.
            pattern.clear();
            for (row, _) in a.col_iter(col) {
                if in_pattern[row] {
                    continue;
                }
                stack.push((row, 0));
                in_pattern[row] = true;
                while let Some(&mut (r, ref mut child)) = stack.last_mut() {
                    // Children of r are the L entries of the pivotal column
                    // owning r (if r is pivotal).
                    let pos = pinv[r];
                    let mut advanced = false;
                    if pos != usize::MAX {
                        let (lo, hi) = (l_col_ptr[pos], l_col_ptr[pos + 1]);
                        while *child < hi - lo {
                            let next_row = l_row_idx[lo + *child];
                            *child += 1;
                            if !in_pattern[next_row] {
                                in_pattern[next_row] = true;
                                stack.push((next_row, 0));
                                advanced = true;
                                break;
                            }
                        }
                    }
                    if !advanced {
                        stack.pop();
                        pattern.push(r);
                    }
                }
            }
            // pattern is now in topological order for the numeric sweep when
            // traversed from the end (roots last ⇒ reverse gives dependencies
            // first).
            for (row, v) in a.col_iter(col) {
                work[row] = v;
            }
            // Numeric sweep doubling as the U emission: by the time a
            // pivotal row is visited (dependencies first), its work value
            // is final, so it is the U entry. Structural zeros are kept —
            // `refactor` replays exactly these positions in exactly this
            // order with different values, where the entry may be nonzero.
            for &r in pattern.iter().rev() {
                let pos = pinv[r];
                if pos == usize::MAX {
                    continue;
                }
                let xr = work[r];
                u_row_idx.push(pos);
                u_values.push(xr);
                if xr == 0.0 {
                    continue;
                }
                let (lo, hi) = (l_col_ptr[pos], l_col_ptr[pos + 1]);
                for k in lo..hi {
                    work[l_row_idx[k]] -= l_values[k] * xr;
                }
            }
            // Pivot selection among not-yet-pivotal rows in the pattern.
            let mut pivot_row = usize::MAX;
            let mut pivot_mag = 0.0f64;
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    let m = work[r].abs();
                    if m > pivot_mag {
                        pivot_mag = m;
                        pivot_row = r;
                    }
                }
            }
            if pivot_row == usize::MAX || pivot_mag < PIVOT_EPS {
                return Err(NumericError::Singular { pivot: col });
            }
            let pivot_val = work[pivot_row];
            pinv[pivot_row] = col;
            perm[col] = pivot_row;
            // Close the U column with the diagonal (the sweep above has
            // already emitted every previously-pivotal row).
            u_row_idx.push(col);
            u_values.push(pivot_val);
            u_col_ptr.push(u_row_idx.len());
            // Emit L column: non-pivotal rows scaled by the pivot, with
            // structural zeros kept for `refactor`.
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    l_row_idx.push(r);
                    l_values.push(work[r] / pivot_val);
                }
            }
            l_col_ptr.push(l_row_idx.len());
            // Reset work/pattern.
            for &r in &pattern {
                work[r] = 0.0;
                in_pattern[r] = false;
            }
        }
        // Interchanges realizing `perm`, in the factorization's scratch:
        // `at[p]` is the original row now at position p, `pos[r]` the
        // position of original row r.
        let (at, pos) = (&mut pattern, &mut pinv);
        at.clear();
        at.extend(0..n);
        pos.clone_from(at);
        let mut swaps = vec![0; n];
        for k in 0..n {
            let j = pos[perm[k]];
            swaps[k] = j;
            at.swap(k, j);
            pos[at[k]] = k;
            pos[at[j]] = j;
        }
        Ok(SparseLu {
            n,
            l_col_ptr,
            l_row_idx,
            l_values,
            u_col_ptr,
            u_row_idx,
            u_values,
            perm,
            swaps,
            a_col_ptr: a.col_ptr().to_vec(),
            a_row_idx: a.row_indices().to_vec(),
        })
    }

    /// `true` if `a` has the structural pattern this factorization was
    /// built for, i.e. [`SparseLu::refactor`] will accept it.
    pub fn pattern_matches(&self, a: &SparseMatrix) -> bool {
        a.rows() == self.n
            && a.cols() == self.n
            && a.col_ptr() == &self.a_col_ptr[..]
            && a.row_indices() == &self.a_row_idx[..]
    }

    /// Recomputes the numeric factors of `a` in place, reusing the
    /// symbolic analysis and pivot order of the original factorization —
    /// the cheap path of a Newton loop, where the matrix pattern is fixed
    /// and only the values move between iterations.
    ///
    /// The replay performs the same floating-point operations in the same
    /// order as [`SparseLu::new`] would, so when the frozen pivot order
    /// coincides with the order a fresh factorization would choose, the
    /// factors (and subsequent [`SparseLu::solve`] results) are bitwise
    /// identical.
    ///
    /// # Errors
    ///
    /// * [`NumericError::DimensionMismatch`] if `a` is not `dim()`-square.
    /// * [`NumericError::InvalidInput`] if the structural pattern of `a`
    ///   differs from the factored one (check [`SparseLu::pattern_matches`]
    ///   first, or fall back to a full factorization).
    /// * [`NumericError::Singular`] if a frozen pivot becomes numerically
    ///   zero under the new values. The factor contents are unspecified
    ///   afterwards; rebuild with [`SparseLu::new`] to re-pivot.
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), NumericError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                found: a.rows(),
            });
        }
        if !self.pattern_matches(a) {
            return Err(NumericError::InvalidInput(
                "sparsity pattern differs from the factored matrix".into(),
            ));
        }
        let mut work = vec![0.0f64; self.n];
        for col in 0..self.n {
            for (row, v) in a.col_iter(col) {
                work[row] = v;
            }
            let (ulo, uhi) = (self.u_col_ptr[col], self.u_col_ptr[col + 1]);
            // Replay the elimination in the stored topological order; the
            // stored row set is the full reachability pattern of the
            // column, so every touched work entry is listed in U or L.
            for k in ulo..uhi - 1 {
                let pos = self.u_row_idx[k];
                let r = self.perm[pos];
                let xr = work[r];
                self.u_values[k] = xr;
                if xr == 0.0 {
                    continue;
                }
                for i in self.l_col_ptr[pos]..self.l_col_ptr[pos + 1] {
                    work[self.l_row_idx[i]] -= self.l_values[i] * xr;
                }
            }
            let pivot_row = self.perm[col];
            let pivot_val = work[pivot_row];
            if pivot_val.abs() < PIVOT_EPS {
                return Err(NumericError::Singular { pivot: col });
            }
            self.u_values[uhi - 1] = pivot_val;
            for i in self.l_col_ptr[col]..self.l_col_ptr[col + 1] {
                let r = self.l_row_idx[i];
                self.l_values[i] = work[r] / pivot_val;
                work[r] = 0.0;
            }
            for k in ulo..uhi - 1 {
                work[self.perm[self.u_row_idx[k]]] = 0.0;
            }
            work[pivot_row] = 0.0;
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Fill-in: total stored entries in `L` and `U`.
    pub fn factor_nnz(&self) -> usize {
        self.l_values.len() + self.u_values.len()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in the caller's buffer: `b` holds the right-hand
    /// side on entry and the solution on return. Allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), NumericError> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        // Forward solve L·y = b. L's column k eliminates into original row
        // indices; track the solution on original rows.
        for k in 0..self.n {
            let yk = b[self.perm[k]];
            if yk == 0.0 {
                continue;
            }
            let (lo, hi) = (self.l_col_ptr[k], self.l_col_ptr[k + 1]);
            for i in lo..hi {
                b[self.l_row_idx[i]] -= self.l_values[i] * yk;
            }
        }
        // Gather into pivotal order by replaying the row interchanges.
        for (k, &r) in self.swaps.iter().enumerate() {
            b.swap(k, r);
        }
        // Backward solve U·x = y. U columns have the diagonal last.
        for k in (0..self.n).rev() {
            let (lo, hi) = (self.u_col_ptr[k], self.u_col_ptr[k + 1]);
            let diag = self.u_values[hi - 1];
            let xk = b[k] / diag;
            b[k] = xk;
            if xk == 0.0 {
                continue;
            }
            for i in lo..(hi - 1) {
                b[self.u_row_idx[i]] -= self.u_values[i] * xk;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    fn dense_to_builder(rows: &[&[f64]]) -> TripletBuilder {
        let mut b = TripletBuilder::new(rows.len(), rows[0].len());
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b
    }

    fn check_solution(rows: &[&[f64]], b: &[f64]) {
        let m = dense_to_builder(rows).to_csc();
        let lu = SparseLu::new(&m).unwrap();
        let x = lu.solve(b).unwrap();
        let r = m.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(b) {
            assert!((ri - bi).abs() < 1e-9, "residual too large: {ri} vs {bi}");
        }
    }

    #[test]
    fn solve_2x2() {
        check_solution(&[&[4.0, 1.0][..], &[1.0, 3.0][..]], &[1.0, 2.0]);
    }

    #[test]
    fn requires_pivoting() {
        check_solution(&[&[0.0, 1.0][..], &[1.0, 0.0][..]], &[5.0, 7.0]);
    }

    #[test]
    fn tridiagonal_ladder() {
        // RC-ladder-like tridiagonal system.
        let n = 50;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.push(i, i, 2.0);
            if i > 0 {
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.push(i, i + 1, -1.0);
            }
        }
        let m = b.to_csc();
        let lu = SparseLu::new(&m).unwrap();
        let rhs = vec![1.0; n];
        let x = lu.solve(&rhs).unwrap();
        let r = m.mul_vec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&rhs) {
            assert!((ri - bi).abs() < 1e-9);
        }
        // Tridiagonal factors stay narrow: fill-in bounded by 3 per column.
        assert!(lu.factor_nnz() <= 3 * n);
    }

    #[test]
    fn detects_singular() {
        let m = dense_to_builder(&[&[1.0, 2.0][..], &[2.0, 4.0][..]]).to_csc();
        assert!(matches!(
            SparseLu::new(&m),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn structurally_singular_column() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        // Column 1 completely empty.
        let m = b.to_csc();
        assert!(matches!(
            SparseLu::new(&m),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let b = TripletBuilder::new(2, 3);
        assert!(matches!(
            SparseLu::new(&b.to_csc()),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_matches_full_factorization_to_the_ulp() {
        // Diagonally dominant systems keep the pivot order stable, so a
        // numeric-only refactorization must reproduce a fresh
        // factorization bit for bit (same operations, same order).
        let mut state = 0x1994_2026_abcd_ef01u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [4usize, 9, 17] {
            // One structural pattern, two value sets.
            let mut coords: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            for i in 0..n {
                for j in 0..n {
                    if i != j && next() > 0.2 {
                        coords.push((i, j));
                    }
                }
            }
            let fill = |next: &mut dyn FnMut() -> f64| {
                let mut tb = TripletBuilder::new(n, n);
                for &(i, j) in &coords {
                    let v = next();
                    tb.push(i, j, if i == j { v + 4.0 } else { v });
                }
                tb.to_csc()
            };
            let a1 = fill(&mut next);
            let a2 = fill(&mut next);
            assert!(a1.same_pattern(&a2));

            let mut reused = SparseLu::new(&a1).unwrap();
            assert!(reused.pattern_matches(&a2));
            reused.refactor(&a2).unwrap();
            let fresh = SparseLu::new(&a2).unwrap();

            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(reused.perm, fresh.perm, "n={n}: pivot order drifted");
            assert_eq!(bits(&reused.l_values), bits(&fresh.l_values), "n={n}: L");
            assert_eq!(bits(&reused.u_values), bits(&fresh.u_values), "n={n}: U");

            let rhs: Vec<f64> = (0..n).map(|_| next()).collect();
            let xr = reused.solve(&rhs).unwrap();
            let xf = fresh.solve(&rhs).unwrap();
            assert_eq!(bits(&xr), bits(&xf), "n={n}: solutions differ");
        }
    }

    #[test]
    fn refactor_replays_non_trivial_permutation() {
        // [[0, b], [c, 0]] forces off-diagonal pivots; the frozen
        // permutation must keep working for new values.
        let build = |b: f64, c: f64| {
            let mut tb = TripletBuilder::new(2, 2);
            tb.push(0, 1, b);
            tb.push(1, 0, c);
            tb.to_csc()
        };
        let mut lu = SparseLu::new(&build(1.0, 1.0)).unwrap();
        let a2 = build(2.0, -3.0);
        lu.refactor(&a2).unwrap();
        let x = lu.solve(&[4.0, 6.0]).unwrap();
        // 2·x1 = 4 and −3·x0 = 6.
        assert_eq!(x, vec![-2.0, 2.0]);
    }

    #[test]
    fn refactor_rejects_pattern_change() {
        let mut lu =
            SparseLu::new(&dense_to_builder(&[&[2.0, 1.0][..], &[0.0, 3.0][..]]).to_csc()).unwrap();
        let other = dense_to_builder(&[&[2.0, 0.0][..], &[1.0, 3.0][..]]).to_csc();
        assert!(!lu.pattern_matches(&other));
        assert!(matches!(
            lu.refactor(&other),
            Err(NumericError::InvalidInput(_))
        ));
        let wide = TripletBuilder::new(2, 3).to_csc();
        assert!(matches!(
            lu.refactor(&wide),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn refactor_detects_singular_pivot() {
        // Same pattern, but the new values make the matrix rank one: the
        // frozen second pivot collapses to ~0.
        let a1 = dense_to_builder(&[&[4.0, 1.0][..], &[1.0, 3.0][..]]).to_csc();
        let a2 = dense_to_builder(&[&[4.0, 1.0][..], &[4.0, 1.0][..]]).to_csc();
        assert!(a1.same_pattern(&a2));
        let mut lu = SparseLu::new(&a1).unwrap();
        assert!(matches!(
            lu.refactor(&a2),
            Err(NumericError::Singular { pivot: 1 })
        ));
        // The documented recovery path — a fresh factorization — also
        // reports the singularity (there is no rank-2 ordering to find).
        assert!(matches!(
            SparseLu::new(&a2),
            Err(NumericError::Singular { .. })
        ));
    }

    #[test]
    fn matches_dense_on_random_systems() {
        use crate::dense::DenseMatrix;
        use crate::lu::LuFactor;
        let mut state = 0xdeadbeefcafef00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [3usize, 8, 16] {
            let mut dm = DenseMatrix::zeros(n, n);
            let mut tb = TripletBuilder::new(n, n);
            for i in 0..n {
                for j in 0..n {
                    // ~40% sparsity plus strong diagonal.
                    let v = next();
                    if i == j || v.abs() > 0.3 {
                        let val = if i == j { v + 3.0 } else { v };
                        dm[(i, j)] = val;
                        tb.push(i, j, val);
                    }
                }
            }
            let rhs: Vec<f64> = (0..n).map(|_| next()).collect();
            let xd = LuFactor::new(&dm).unwrap().solve(&rhs).unwrap();
            let xs = SparseLu::new(&tb.to_csc()).unwrap().solve(&rhs).unwrap();
            for (a, b) in xd.iter().zip(&xs) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }
}
