//! Synthetic SPD test-matrix generators.
//!
//! The paper evaluates on eight SuiteSparse matrices (Table 1) chosen to
//! span sparsity-pattern classes: narrow-band stencils, wide-band 3-DOF
//! structural problems, unstructured meshes, and scattered circuit
//! topologies. The generators here produce *scalable* synthetic matrices of
//! the same classes (see `suite` for the per-matrix mapping and DESIGN.md
//! for the substitution rationale).
//!
//! All generators return symmetric positive-definite matrices: either
//! classical M-matrices (stencil Laplacians) or symmetric strictly
//! diagonally dominant matrices with positive diagonal. The diagonal slack
//! `delta` controls conditioning — small slack gives Laplacian-like spectra
//! and realistic PCG iteration counts.

mod elasticity;
mod graphs;
mod stencil;
pub mod suite;

pub use elasticity::{elasticity3d, BlockStencil};
pub use graphs::{circuit_like, mesh_laplacian_2d, MeshOrdering};
pub use stencil::{banded_spd, poisson2d, poisson3d};
pub use suite::{generate, PaperMatrix};

use crate::csr::Csr;
use crate::rng::Rng;

/// Right-hand side with known solution `x = 1`: `b = A·1`.
pub fn rhs_for_ones(a: &Csr) -> Vec<f64> {
    a.mul_vec(&vec![1.0; a.n_cols()])
}

/// Deterministic random right-hand side with entries in `[-1, 1)`.
pub fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rhs_for_ones_row_sums() {
        let a = poisson2d(3, 3);
        let b = rhs_for_ones(&a);
        // Interior row sums of the 5-point Laplacian are 0; boundary > 0.
        assert_eq!(b.len(), 9);
        assert!(b[4].abs() < 1e-14, "center row sums to zero");
        assert!(b[0] > 0.0, "corner row sums positive");
    }

    #[test]
    fn random_rhs_deterministic() {
        assert_eq!(random_rhs(10, 3), random_rhs(10, 3));
        assert_ne!(random_rhs(10, 3), random_rhs(10, 4));
    }
}
