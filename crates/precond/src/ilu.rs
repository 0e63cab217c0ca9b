//! ILU(0): incomplete LU factorization with zero fill-in.
//!
//! The paper uses "an approximate solver based on ILU factorization for the
//! blocks" inside the reconstruction's inner CG solver (Sec. 6). ILU(0)
//! keeps exactly the sparsity pattern of `A`: the classic IKJ update
//! restricted to existing entries.

use crate::traits::{PrecondError, Preconditioner};
use sparsemat::Csr;

/// Zero-fill incomplete LU. `L` is unit lower triangular, `U` upper; both
/// share `A`'s pattern and are stored in one CSR value array.
#[derive(Clone, Debug)]
pub struct Ilu0 {
    /// Factored values on A's pattern: strictly-lower part holds L,
    /// diagonal + upper part holds U.
    factors: Csr,
    /// Position of the diagonal entry within each row.
    diag_pos: Vec<usize>,
}

impl Ilu0 {
    /// Factor `a`. Fails on a zero/non-finite pivot or missing diagonal.
    pub fn new(a: &Csr) -> Result<Self, PrecondError> {
        if a.n_rows() != a.n_cols() {
            return Err(PrecondError::Shape(format!(
                "ilu0 needs square, got {}x{}",
                a.n_rows(),
                a.n_cols()
            )));
        }
        let n = a.n_rows();
        let mut f = a.clone();
        let row_ptr = f.row_ptr().to_vec();
        let col_idx: Vec<usize> = f.col_idx().iter().map(|&c| c as usize).collect();

        // Locate diagonals up front.
        let mut diag_pos = vec![usize::MAX; n];
        for r in 0..n {
            for p in row_ptr[r]..row_ptr[r + 1] {
                if col_idx[p] == r {
                    diag_pos[r] = p;
                    break;
                }
            }
            if diag_pos[r] == usize::MAX {
                return Err(PrecondError::Breakdown(r));
            }
        }

        // Column-position lookup for the current row i.
        let mut pos_of_col = vec![usize::MAX; n];
        let vals = f.vals_mut();
        for i in 0..n {
            let row_i = row_ptr[i]..row_ptr[i + 1];
            for p in row_i.clone() {
                pos_of_col[col_idx[p]] = p;
            }
            // Eliminate with all rows k < i present in row i's pattern.
            for p_ik in row_i.clone() {
                let k = col_idx[p_ik];
                if k >= i {
                    break;
                }
                let ukk = vals[diag_pos[k]];
                if ukk == 0.0 || !ukk.is_finite() {
                    return Err(PrecondError::Breakdown(k));
                }
                let l_ik = vals[p_ik] / ukk;
                vals[p_ik] = l_ik;
                // Row i -= l_ik * (row k restricted to columns > k ∩ pattern).
                for p_kj in diag_pos[k] + 1..row_ptr[k + 1] {
                    let j = col_idx[p_kj];
                    let p_ij = pos_of_col[j];
                    if p_ij != usize::MAX {
                        vals[p_ij] -= l_ik * vals[p_kj];
                    }
                }
            }
            let uii = vals[diag_pos[i]];
            if uii == 0.0 || !uii.is_finite() {
                return Err(PrecondError::Breakdown(i));
            }
            for p in row_i {
                pos_of_col[col_idx[p]] = usize::MAX;
            }
        }
        Ok(Ilu0 {
            factors: f,
            diag_pos,
        })
    }

    /// Solve `L U x = b` approximately inverting `A`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// In-place forward (unit-L) then backward (U) substitution.
    pub(crate) fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.factors.n_rows();
        assert_eq!(x.len(), n);
        let row_ptr = self.factors.row_ptr();
        let col_idx = self.factors.col_idx();
        let vals = self.factors.vals();
        // L y = b (unit diagonal; strictly-lower entries).
        for i in 0..n {
            let mut s = x[i];
            for p in row_ptr[i]..self.diag_pos[i] {
                s -= vals[p] * x[col_idx[p] as usize];
            }
            x[i] = s;
        }
        // U x = y.
        for i in (0..n).rev() {
            let mut s = x[i];
            for p in self.diag_pos[i] + 1..row_ptr[i + 1] {
                s -= vals[p] * x[col_idx[p] as usize];
            }
            x[i] = s / vals[self.diag_pos[i]];
        }
    }

    /// Flops of one solve (2 per stored entry + n divisions).
    pub(crate) fn solve_flops(&self) -> usize {
        2 * self.factors.nnz() + self.factors.n_rows()
    }
}

impl Preconditioner for Ilu0 {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.solve_in_place(z);
    }

    fn dim(&self) -> usize {
        self.factors.n_rows()
    }

    fn flops_per_apply(&self) -> usize {
        self.solve_flops()
    }

    fn name(&self) -> &'static str {
        "ilu0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{poisson2d, rhs_for_ones};
    use sparsemat::vecops::norm2;

    #[test]
    fn exact_on_triangular_pattern() {
        // For a tridiagonal matrix ILU(0) has no dropped fill: it is exact.
        let a = sparsemat::gen::banded_spd(20, 1, 1.0, 5);
        let f = Ilu0::new(&a).unwrap();
        let b = rhs_for_ones(&a);
        let x = f.solve(&b);
        for xi in &x {
            assert!((xi - 1.0).abs() < 1e-10, "{xi}");
        }
    }

    #[test]
    fn approximates_poisson_inverse() {
        let a = poisson2d(10, 10);
        let f = Ilu0::new(&a).unwrap();
        let b = rhs_for_ones(&a);
        let x = f.solve(&b);
        // Not exact (fill dropped), but a good approximation: the
        // preconditioned residual must shrink substantially.
        let mut r = a.mul_vec(&x);
        for (ri, bi) in r.iter_mut().zip(&b) {
            *ri -= bi;
        }
        assert!(norm2(&r) / norm2(&b) < 0.5);
    }

    #[test]
    fn missing_diagonal_is_breakdown() {
        let mut coo = sparsemat::Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push_sym(0, 1, 0.5);
        assert!(matches!(
            Ilu0::new(&coo.to_csr()),
            Err(PrecondError::Breakdown(1))
        ));
    }

    #[test]
    fn nonsquare_rejected() {
        let mut coo = sparsemat::Coo::new(2, 3);
        coo.push(0, 0, 1.0);
        assert!(matches!(
            Ilu0::new(&coo.to_csr()),
            Err(PrecondError::Shape(_))
        ));
    }

    #[test]
    fn preconditioner_reduces_cg_iterations_proxy() {
        // Weak sanity check that apply() actually approximates A^{-1}:
        // ‖I - (LU)^{-1}A‖ should contract a random vector.
        let a = poisson2d(6, 6);
        let f = Ilu0::new(&a).unwrap();
        let v: Vec<f64> = (0..36).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let av = a.mul_vec(&v);
        let mut z = vec![0.0; 36];
        f.apply(&av, &mut z);
        let diff: f64 = v
            .iter()
            .zip(&z)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(diff / norm2(&v) < 0.5, "rel err {}", diff / norm2(&v));
    }
}
