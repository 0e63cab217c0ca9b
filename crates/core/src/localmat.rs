//! A node's block of rows, split for distributed SpMV.
//!
//! PETSc-style storage (paper Sec. 1.1.2 + Sec. 6): the owned rows of `A`
//! are split into a **diagonal block** (columns inside the owned range,
//! renumbered locally) and an **off-diagonal block** whose columns are
//! compressed onto the node's sorted ghost-column list. The distributed
//! SpMV is then `y = diag·x_loc + offdiag·ghosts` once the ghost values
//! have been exchanged.

use sparsemat::{BlockPartition, Csr};
use std::ops::Range;

/// The locally-owned part of the distributed matrix.
#[derive(Clone, Debug)]
pub struct LocalMatrix {
    /// Owned global row range `Iᵢ`.
    pub(crate) range: Range<usize>,
    /// Owned rows × owned columns, locally numbered.
    pub diag: Csr,
    /// Owned rows × ghost columns (compressed onto `ghost_cols`).
    pub offdiag: Csr,
    /// Sorted global indices of the ghost columns.
    pub ghost_cols: Vec<usize>,
}

impl LocalMatrix {
    /// Extract `rank`'s block rows from the full matrix.
    pub fn build(a: &Csr, part: &BlockPartition, rank: usize) -> Self {
        Self::build_range(a, part.range(rank))
    }

    /// Extract the block rows `range` from the full matrix. The result
    /// depends on nothing but `a` and `range`: the ghost columns are the
    /// columns of those rows outside the range
    /// ([`sparsemat::analysis::ghost_needs`] of any partition that cuts
    /// this block).
    pub fn build_range(a: &Csr, range: Range<usize>) -> Self {
        let nloc = range.len();

        let mut diag_ptr = Vec::with_capacity(nloc + 1);
        let mut diag_col = Vec::new();
        let mut diag_val = Vec::new();
        let mut off_ptr = Vec::with_capacity(nloc + 1);
        // Global column indices until the ghost list is known.
        let mut off_col = Vec::new();
        let mut off_val = Vec::new();
        diag_ptr.push(0);
        off_ptr.push(0);
        for r in range.clone() {
            let (cols, vals) = a.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let c = *c as usize;
                if range.contains(&c) {
                    diag_col.push(c - range.start);
                    diag_val.push(*v);
                } else {
                    off_col.push(c);
                    off_val.push(*v);
                }
            }
            diag_ptr.push(diag_col.len());
            off_ptr.push(off_col.len());
        }
        let mut ghost_cols = off_col.clone();
        ghost_cols.sort_unstable();
        ghost_cols.dedup();
        for c in &mut off_col {
            // ghost_cols is sorted and complete by construction.
            *c = ghost_cols.binary_search(c).expect("ghost column");
        }
        LocalMatrix {
            range,
            diag: Csr::from_parts(nloc, nloc, diag_ptr, diag_col, diag_val),
            offdiag: Csr::from_parts(nloc, ghost_cols.len(), off_ptr, off_col, off_val),
            ghost_cols,
        }
    }

    /// Number of owned rows.
    pub fn n_local(&self) -> usize {
        self.range.len()
    }

    /// Distributed SpMV local part: `y = diag·x_loc + offdiag·ghosts`.
    ///
    /// Fused single pass over the owned rows (each `y[i]` is written once);
    /// bitwise identical to the two-pass diag-then-offdiag formulation.
    pub(crate) fn spmv(&self, x_loc: &[f64], ghosts: &[f64], y: &mut [f64]) {
        self.diag.spmv_fused(&self.offdiag, x_loc, ghosts, y);
    }

    /// Flops of one local SpMV.
    pub fn spmv_flops(&self) -> usize {
        self.diag.spmv_flops() + self.offdiag.spmv_flops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::poisson2d;

    #[test]
    fn blocks_partition_the_rows() {
        let a = poisson2d(6, 6);
        let part = BlockPartition::new(36, 3);
        for rank in 0..3 {
            let lm = LocalMatrix::build(&a, &part, rank);
            assert_eq!(lm.n_local(), 12);
            let nnz: usize = lm.diag.nnz() + lm.offdiag.nnz();
            let expect: usize = part.range(rank).map(|r| a.row(r).0.len()).sum();
            assert_eq!(nnz, expect, "no entries lost");
        }
    }

    #[test]
    fn distributed_spmv_matches_sequential() {
        let a = poisson2d(5, 7);
        let n = 35;
        let part = BlockPartition::new(n, 4);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let y_seq = a.mul_vec(&x);
        for rank in 0..4 {
            let lm = LocalMatrix::build(&a, &part, rank);
            let x_loc: Vec<f64> = lm.range.clone().map(|i| x[i]).collect();
            let ghosts: Vec<f64> = lm.ghost_cols.iter().map(|&g| x[g]).collect();
            let mut y = vec![0.0; lm.n_local()];
            lm.spmv(&x_loc, &ghosts, &mut y);
            for (i, r) in lm.range.clone().enumerate() {
                assert!((y[i] - y_seq[r]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn ghost_cols_sorted_unique() {
        let a = poisson2d(8, 8);
        let part = BlockPartition::new(64, 4);
        let lm = LocalMatrix::build(&a, &part, 2);
        assert!(lm.ghost_cols.windows(2).all(|w| w[0] < w[1]));
        assert!(lm.ghost_cols.iter().all(|g| !lm.range.contains(g)));
    }
}
