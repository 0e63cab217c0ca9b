//! Jacobi (diagonal) preconditioning.

use crate::traits::{PrecondError, Preconditioner};
use sparsemat::Csr;

/// `M = diag(A)`: the cheapest preconditioner, and the one whose inverse is
/// trivially available as an explicit sparse matrix (used by the P-given
/// ESR reconstruction variant, see [`crate::ExplicitPrec`]).
#[derive(Clone, Debug)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// Build from the diagonal of `a`; fails on non-positive diagonal
    /// entries (the matrix would not be SPD).
    pub fn new(a: &Csr) -> Result<Self, PrecondError> {
        let d = a.diag();
        let mut inv_diag = Vec::with_capacity(d.len());
        for (i, &di) in d.iter().enumerate() {
            if di <= 0.0 || !di.is_finite() {
                return Err(PrecondError::Breakdown(i));
            }
            inv_diag.push(1.0 / di);
        }
        Ok(Jacobi { inv_diag })
    }
}

impl Preconditioner for Jacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len());
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }

    fn dim(&self) -> usize {
        self.inv_diag.len()
    }

    fn flops_per_apply(&self) -> usize {
        self.inv_diag.len()
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::poisson2d;

    #[test]
    fn scales_by_inverse_diagonal() {
        let a = poisson2d(3, 3); // diagonal entries are 4
        let p = Jacobi::new(&a).unwrap();
        let mut z = vec![0.0; 9];
        p.apply(&[8.0; 9], &mut z);
        assert!(z.iter().all(|&x| x == 2.0));
    }

    #[test]
    fn rejects_nonpositive_diagonal() {
        let mut coo = sparsemat::Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -2.0);
        assert_eq!(
            Jacobi::new(&coo.to_csr()).unwrap_err(),
            PrecondError::Breakdown(1)
        );
    }

    #[test]
    fn rejects_missing_diagonal() {
        let mut coo = sparsemat::Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push_sym(0, 1, 0.5); // row 1 has no diagonal entry
        assert!(Jacobi::new(&coo.to_csr()).is_err());
    }
}
