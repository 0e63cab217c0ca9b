//! Preconditioners given as an explicit sparse matrix `P = M⁻¹`.
//!
//! The paper's reconstruction Alg. 2 assumes *"a preconditioner P := M⁻¹ is
//! given"* and reads rows of `P` directly (`P_{If,I\If}`, `P_{If,If}`).
//! [`ExplicitPrec`] is that representation: applying it is one SpMV, and
//! the reconstruction can extract arbitrary row/column sections.

use crate::traits::{PrecondError, Preconditioner};
use sparsemat::Csr;

/// A preconditioner available as an explicit sparse matrix.
#[derive(Clone, Debug)]
pub struct ExplicitPrec {
    p: Csr,
}

impl ExplicitPrec {
    /// Wrap an explicit `P = M⁻¹` (must be square and SPD; symmetry is
    /// checked, definiteness is the caller's responsibility).
    pub fn new(p: Csr) -> Result<Self, PrecondError> {
        if p.n_rows() != p.n_cols() {
            return Err(PrecondError::Shape(format!(
                "explicit P must be square, got {}x{}",
                p.n_rows(),
                p.n_cols()
            )));
        }
        if !p.is_symmetric(1e-12) {
            return Err(PrecondError::Shape(
                "explicit P must be symmetric".to_string(),
            ));
        }
        Ok(ExplicitPrec { p })
    }

    /// From Jacobi: `P = diag(A)⁻¹` as an explicit matrix.
    pub fn jacobi_of(a: &Csr) -> Result<Self, PrecondError> {
        let d = a.diag();
        let mut coo = sparsemat::Coo::new(a.n_rows(), a.n_rows());
        for (i, &di) in d.iter().enumerate() {
            if di <= 0.0 || !di.is_finite() {
                return Err(PrecondError::Breakdown(i));
            }
            coo.push(i, i, 1.0 / di);
        }
        ExplicitPrec::new(coo.to_csr())
    }
}

impl Preconditioner for ExplicitPrec {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.p.spmv(r, z);
    }

    fn dim(&self) -> usize {
        self.p.n_rows()
    }

    fn flops_per_apply(&self) -> usize {
        self.p.spmv_flops()
    }

    fn name(&self) -> &'static str {
        "explicit-P"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::Jacobi;
    use sparsemat::gen::poisson2d;

    #[test]
    fn jacobi_of_matches_jacobi_apply() {
        let a = poisson2d(4, 4);
        let pe = ExplicitPrec::jacobi_of(&a).unwrap();
        let pj = Jacobi::new(&a).unwrap();
        let r: Vec<f64> = (0..16).map(|i| i as f64 - 8.0).collect();
        let mut z1 = vec![0.0; 16];
        let mut z2 = vec![0.0; 16];
        pe.apply(&r, &mut z1);
        pj.apply(&r, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn rejects_asymmetric() {
        let mut coo = sparsemat::Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 0.5);
        coo.push(1, 1, 1.0);
        assert!(ExplicitPrec::new(coo.to_csr()).is_err());
    }

    #[test]
    fn exposes_matrix_sections() {
        let a = poisson2d(4, 4);
        let pe = ExplicitPrec::jacobi_of(&a).unwrap();
        let sub = pe.p.extract(&[0, 1], &[0, 1]);
        assert_eq!(sub.nnz(), 2);
    }
}
