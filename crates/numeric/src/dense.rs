//! Dense matrices generic over a [`Scalar`].
//!
//! The modified nodal analysis systems assembled by `gabm-sim` are small
//! (tens of unknowns), so a row-major dense matrix is their only backing
//! store; [`crate::sparse`] and [`crate::splu`] serve larger systems outside
//! the simulator.

use crate::{NumericError, Scalar};
use std::fmt;

/// A dense, row-major matrix over a [`Scalar`] field.
///
/// # Example
///
/// ```
/// use gabm_numeric::DenseMatrix;
///
/// let mut m: DenseMatrix<f64> = DenseMatrix::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m.add_at(0, 0, 2.0);
/// assert_eq!(m[(0, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Empty`] for an empty input and
    /// [`NumericError::InvalidInput`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[T]]) -> Result<Self, NumericError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(NumericError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(NumericError::InvalidInput(format!(
                    "ragged rows: expected {cols} columns, found {}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Sets every entry back to zero, keeping the allocation.
    ///
    /// Called once per Newton iteration by the MNA assembler.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::zero();
        }
    }

    /// Adds `value` to the entry at `(row, col)` — the fundamental "stamp"
    /// operation of modified nodal analysis.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn add_at(&mut self, row: usize, col: usize, value: T) {
        let idx = self.index(row, col);
        let cur = self.data[idx];
        self.data[idx] = cur + value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[T]) -> Result<Vec<T>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: self.cols,
                found: x.len(),
            });
        }
        let mut y = vec![T::zero(); self.rows];
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.rows {
            let mut acc = T::zero();
            let base = i * self.cols;
            for j in 0..self.cols {
                acc = acc + self.data[base + j] * x[j];
            }
            y[i] = acc;
        }
        Ok(y)
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        row * self.cols + col
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        let idx = self.index(row, col);
        &self.data[idx]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for DenseMatrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        let idx = self.index(row, col);
        &mut self.data[idx]
    }
}

impl<T: Scalar> fmt::Display for DenseMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    #[test]
    fn zeros_and_identity() {
        let z: DenseMatrix<f64> = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        let i: DenseMatrix<f64> = DenseMatrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert!(i.is_square());
    }

    #[test]
    fn from_rows_validates() {
        assert_eq!(
            DenseMatrix::<f64>::from_rows(&[]).unwrap_err(),
            NumericError::Empty
        );
        let ragged = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0][..]]);
        assert!(matches!(ragged, Err(NumericError::InvalidInput(_))));
    }

    #[test]
    fn stamp_accumulates() {
        let mut m: DenseMatrix<f64> = DenseMatrix::zeros(2, 2);
        m.add_at(1, 1, 2.0);
        m.add_at(1, 1, 3.0);
        assert_eq!(m[(1, 1)], 5.0);
        m.clear();
        assert_eq!(m[(1, 1)], 0.0);
    }

    #[test]
    fn mat_vec() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0][..], &[3.0, 4.0][..]]).unwrap();
        let y = a.mul_vec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
        assert!(matches!(
            a.mul_vec(&[1.0]),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn complex_matrix_works() {
        let j = Complex64::J;
        let a =
            DenseMatrix::from_rows(&[&[Complex64::ONE, j][..], &[-j, Complex64::ONE][..]]).unwrap();
        let y = a.mul_vec(&[Complex64::ONE, Complex64::ONE]).unwrap();
        assert_eq!(y[0], Complex64::new(1.0, 1.0));
        assert_eq!(y[1], Complex64::new(1.0, -1.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m: DenseMatrix<f64> = DenseMatrix::zeros(1, 1);
        let _ = m[(1, 0)];
    }
}
