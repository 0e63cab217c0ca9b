//! Block Jacobi preconditioning.
//!
//! The paper's outer-solver preconditioner (Sec. 6): block-diagonal with
//! blocks matching the node partition, *"solving the preconditioner blocks
//! exactly"*. Exact solves use [`SparseLdl`]; the approximate alternative
//! ([`Ilu0`]) is what the paper uses inside the reconstruction.
//!
//! Block boundaries need not match the node partition — misaligned blocks
//! couple across nodes, which exercises the fully general P-given
//! reconstruction path (paper Alg. 2 lines 5–6) and is one of the ablation
//! configurations.

use crate::ilu::Ilu0;
use crate::ldl::{LdlWorkspace, SparseLdl};
use crate::traits::{PrecondError, Preconditioner};
use sparsemat::{BlockPartition, Csr};

/// Which solver inverts each diagonal block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockSolver {
    /// Exact sparse LDLᵀ (the paper's outer-solver configuration).
    ExactLdl,
    /// Zero-fill incomplete LU (the paper's reconstruction configuration).
    Ilu0,
}

enum Factor {
    Ldl(SparseLdl),
    Ilu(Ilu0),
}

impl Factor {
    fn solve_in_place(&self, x: &mut [f64]) {
        match self {
            Factor::Ldl(f) => f.solve_in_place(x),
            Factor::Ilu(f) => f.solve_in_place(x),
        }
    }

    fn flops(&self) -> usize {
        match self {
            Factor::Ldl(f) => f.solve_flops(),
            Factor::Ilu(f) => f.solve_flops(),
        }
    }
}

/// Block-diagonal preconditioner: `M = diag(A_{B₁,B₁}, …, A_{B_k,B_k})`.
pub struct BlockJacobi {
    n: usize,
    /// Block start offsets (`blocks + 1` entries).
    starts: Vec<usize>,
    factors: Vec<Factor>,
    solver: BlockSolver,
}

impl BlockJacobi {
    /// Build with blocks equal to the ranges of `part` (the paper's
    /// node-aligned configuration).
    pub fn from_partition(
        a: &Csr,
        part: &BlockPartition,
        solver: BlockSolver,
    ) -> Result<Self, PrecondError> {
        let starts: Vec<usize> = (0..=part.nodes())
            .map(|k| {
                if k == part.nodes() {
                    part.n()
                } else {
                    part.range(k).start
                }
            })
            .collect();
        Self::from_starts(a, starts, solver)
    }

    /// Build with `blocks` equal-sized blocks (may straddle node
    /// boundaries — the misaligned ablation).
    pub fn with_blocks(a: &Csr, blocks: usize, solver: BlockSolver) -> Result<Self, PrecondError> {
        let part = BlockPartition::new(a.n_rows(), blocks);
        Self::from_partition(a, &part, solver)
    }

    fn from_starts(a: &Csr, starts: Vec<usize>, solver: BlockSolver) -> Result<Self, PrecondError> {
        if a.n_rows() != a.n_cols() {
            return Err(PrecondError::Shape(format!(
                "block jacobi needs square, got {}x{}",
                a.n_rows(),
                a.n_cols()
            )));
        }
        let n = a.n_rows();
        let mut factors = Vec::with_capacity(starts.len() - 1);
        // One scratch workspace shared across every LDLᵀ block factorization.
        let mut ws = LdlWorkspace::new();
        for w in starts.windows(2) {
            let rows: Vec<usize> = (w[0]..w[1]).collect();
            let block = a.extract(&rows, &rows);
            factors.push(match solver {
                BlockSolver::ExactLdl => Factor::Ldl(SparseLdl::factor_with(&block, &mut ws)?),
                BlockSolver::Ilu0 => Factor::Ilu(Ilu0::new(&block)?),
            });
        }
        Ok(BlockJacobi {
            n,
            starts,
            factors,
            solver,
        })
    }

    /// Densified explicit inverse `P = M⁻¹` as a sparse matrix (dense
    /// within each block). Only sensible for small blocks; used to exercise
    /// the paper's P-given reconstruction variant.
    pub fn to_explicit_inverse(&self, a: &Csr) -> Csr {
        let mut coo = sparsemat::Coo::new(self.n, self.n);
        for (bi, w) in self.starts.windows(2).enumerate() {
            let len = w[1] - w[0];
            assert!(len <= 2048, "block too large to densify");
            // Invert by solving against unit vectors.
            let mut e = vec![0.0; len];
            for j in 0..len {
                e.iter_mut().for_each(|x| *x = 0.0);
                e[j] = 1.0;
                let mut col = e.clone();
                self.factors[bi].solve_in_place(&mut col);
                for (i, &v) in col.iter().enumerate() {
                    if v != 0.0 {
                        coo.push(w[0] + i, w[0] + j, v);
                    }
                }
            }
        }
        let _ = a; // signature kept symmetric with other constructors
        coo.to_csr()
    }
}

impl Preconditioner for BlockJacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n);
        z.copy_from_slice(r);
        for (bi, w) in self.starts.windows(2).enumerate() {
            self.factors[bi].solve_in_place(&mut z[w[0]..w[1]]);
        }
    }

    fn dim(&self) -> usize {
        self.n
    }

    fn flops_per_apply(&self) -> usize {
        self.factors.iter().map(Factor::flops).sum()
    }

    fn name(&self) -> &'static str {
        match self.solver {
            BlockSolver::ExactLdl => "block-jacobi(ldl)",
            BlockSolver::Ilu0 => "block-jacobi(ilu0)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{poisson2d, rhs_for_ones};
    use sparsemat::vecops::{dot, norm2};

    #[test]
    fn single_block_is_exact_solve() {
        let a = poisson2d(6, 6);
        let p = BlockJacobi::with_blocks(&a, 1, BlockSolver::ExactLdl).unwrap();
        let b = rhs_for_ones(&a);
        let mut z = vec![0.0; 36];
        p.apply(&b, &mut z);
        for zi in &z {
            assert!((zi - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn multi_block_is_spd_operator() {
        let a = poisson2d(6, 6);
        let p = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
        assert_eq!(p.factors.len(), 4);
        let x: Vec<f64> = (0..36).map(|i| ((i % 7) as f64) - 3.0).collect();
        let y: Vec<f64> = (0..36).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut mx = vec![0.0; 36];
        let mut my = vec![0.0; 36];
        p.apply(&x, &mut mx);
        p.apply(&y, &mut my);
        assert!((dot(&y, &mx) - dot(&x, &my)).abs() < 1e-10, "symmetric");
        assert!(dot(&x, &mx) > 0.0, "positive definite");
    }

    #[test]
    fn block_solvers_all_reduce_residual() {
        let a = poisson2d(8, 8);
        let b = rhs_for_ones(&a);
        for solver in [BlockSolver::ExactLdl, BlockSolver::Ilu0] {
            let p = BlockJacobi::with_blocks(&a, 4, solver).unwrap();
            let mut z = vec![0.0; 64];
            p.apply(&b, &mut z);
            let mut r = a.mul_vec(&z);
            for (ri, bi) in r.iter_mut().zip(&b) {
                *ri -= bi;
            }
            assert!(norm2(&r) / norm2(&b) < 1.0, "{solver:?}");
        }
    }

    #[test]
    fn explicit_inverse_matches_apply() {
        let a = poisson2d(4, 4);
        let p = BlockJacobi::with_blocks(&a, 2, BlockSolver::ExactLdl).unwrap();
        let pinv = p.to_explicit_inverse(&a);
        let r: Vec<f64> = (0..16).map(|i| (i as f64 * 0.9).sin()).collect();
        let mut z = vec![0.0; 16];
        p.apply(&r, &mut z);
        let z2 = pinv.mul_vec(&r);
        for (a, b) in z.iter().zip(&z2) {
            assert!((a - b).abs() < 1e-12);
        }
        // Block-diagonal structure: no coupling across the block boundary.
        assert_eq!(pinv.get(0, 8), 0.0);
    }

    #[test]
    fn partition_aligned_blocks() {
        let a = poisson2d(5, 5);
        let part = BlockPartition::new(25, 3);
        let p = BlockJacobi::from_partition(&a, &part, BlockSolver::ExactLdl).unwrap();
        assert_eq!(p.factors.len(), 3);
    }
}
