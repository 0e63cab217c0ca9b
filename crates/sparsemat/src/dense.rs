//! Small dense matrices: the test oracle and the exact solver for small
//! reconstruction blocks.
//!
//! A dense Cholesky factorization doubles as the SPD certificate in tests
//! (a matrix is SPD iff Cholesky succeeds) and as the exact solve for
//! preconditioner blocks when they are small enough to densify.

use std::ops::{Index, IndexMut};

/// A row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Dense {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// An `n_rows × n_cols` zero matrix.
    pub(crate) fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Dense {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// In-place Cholesky factorization `A = L Lᵀ` (lower triangle).
    /// Returns `Err` with the failing pivot index if `A` is not numerically
    /// positive definite — which makes this the SPD test oracle.
    pub fn cholesky(&self) -> Result<CholeskyFactor, usize> {
        assert_eq!(self.n_rows, self.n_cols, "cholesky needs square");
        let n = self.n_rows;
        let mut l = self.data.clone();
        for j in 0..n {
            let mut d = l[j * n + j];
            for k in 0..j {
                d -= l[j * n + k] * l[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(j);
            }
            let dj = d.sqrt();
            l[j * n + j] = dj;
            for i in (j + 1)..n {
                let mut s = l[i * n + j];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = s / dj;
            }
            // Zero the upper triangle for cleanliness.
            for k in (j + 1)..n {
                l[j * n + k] = 0.0;
            }
        }
        Ok(CholeskyFactor { n, l })
    }

    /// True iff the matrix is numerically SPD (Cholesky succeeds).
    pub fn is_spd(&self) -> bool {
        self.n_rows == self.n_cols && self.cholesky().is_ok()
    }
}

impl Index<(usize, usize)> for Dense {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.n_cols + c]
    }
}

impl IndexMut<(usize, usize)> for Dense {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.n_cols + c]
    }
}

/// A dense Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct CholeskyFactor {
    n: usize,
    l: Vec<f64>, // row-major, lower triangular
}

impl CholeskyFactor {
    /// Solve `A x = b` via forward/back substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        let l = &self.l;
        // L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for k in 0..i {
                s -= l[i * n + k] * y[k];
            }
            y[i] = s / l[i * n + i];
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= l[k * n + i] * y[k];
            }
            y[i] = s / l[i * n + i];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dense {
        /// The `n × n` identity.
        fn identity(n: usize) -> Self {
            let mut m = Dense::zeros(n, n);
            for i in 0..n {
                m[(i, i)] = 1.0;
            }
            m
        }

        /// Build from a row-major slice.
        fn from_rows(n_rows: usize, n_cols: usize, data: &[f64]) -> Self {
            assert_eq!(data.len(), n_rows * n_cols);
            Dense {
                n_rows,
                n_cols,
                data: data.to_vec(),
            }
        }

        /// `y = A x`.
        fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
            assert_eq!(x.len(), self.n_cols);
            let mut y = vec![0.0; self.n_rows];
            for r in 0..self.n_rows {
                let row = &self.data[r * self.n_cols..(r + 1) * self.n_cols];
                y[r] = crate::vecops::dot(row, x);
            }
            y
        }
    }

    fn spd3() -> Dense {
        Dense::from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0])
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = spd3();
        let f = a.cholesky().unwrap();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.mul_vec(&x_true);
        let x = f.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let m = Dense::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(m.cholesky().is_err());
        assert!(!m.is_spd());
    }

    #[test]
    fn rejects_semidefinite() {
        let m = Dense::from_rows(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert!(!m.is_spd());
    }

    #[test]
    fn identity_is_spd() {
        assert!(Dense::identity(5).is_spd());
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = spd3();
        assert_eq!(a.mul_vec(&[1.0, 0.0, 0.0]), vec![4.0, 1.0, 0.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![5.0, 5.0, 3.0]);
    }
}
