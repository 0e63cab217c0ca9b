//! Coordinate-format builder for sparse matrices.
//!
//! Generators and the Matrix Market reader assemble entries in arbitrary
//! order (with duplicates summed, as in FEM assembly); [`Coo::to_csr`]
//! produces the canonical compressed row form used everywhere else.

use crate::csr::Csr;

/// A sparse matrix under construction: unordered `(row, col, value)`
/// triplets; duplicates are summed on conversion.
#[derive(Clone, Debug, Default)]
pub struct Coo {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl Coo {
    /// An empty `n_rows × n_cols` builder.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        assert!(n_rows < u32::MAX as usize && n_cols < u32::MAX as usize);
        Coo {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Pre-allocate for `nnz` entries.
    pub(crate) fn with_capacity(n_rows: usize, n_cols: usize, nnz: usize) -> Self {
        let mut c = Coo::new(n_rows, n_cols);
        c.entries.reserve(nnz);
        c
    }

    /// Add `value` at `(row, col)`; duplicates accumulate.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.n_rows && col < self.n_cols);
        self.entries.push((row as u32, col as u32, value));
    }

    /// Add `value` at `(row, col)` and `(col, row)` (symmetric assembly).
    #[inline]
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) {
        self.push(row, col, value);
        if row != col {
            self.push(col, row, value);
        }
    }

    /// Convert to CSR: rows sorted, columns sorted within rows, duplicates
    /// summed, explicit zeros kept (they carry pattern information that the
    /// communication plans depend on).
    pub fn to_csr(&self) -> Csr {
        let nr = self.n_rows;
        // Counting sort by row: O(nnz + n), no comparison sort needed.
        let mut row_counts = vec![0usize; nr + 1];
        for &(r, _, _) in &self.entries {
            row_counts[r as usize + 1] += 1;
        }
        for i in 0..nr {
            row_counts[i + 1] += row_counts[i];
        }
        let mut order: Vec<u32> = vec![0; self.entries.len()];
        {
            let mut next = row_counts.clone();
            for (i, &(r, _, _)) in self.entries.iter().enumerate() {
                let slot = next[r as usize];
                order[slot] = i as u32;
                next[r as usize] += 1;
            }
        }
        let mut row_ptr = Vec::with_capacity(nr + 1);
        let mut col_idx: Vec<usize> = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..nr {
            scratch.clear();
            for &ei in &order[row_counts[r]..row_counts[r + 1]] {
                let (_, c, v) = self.entries[ei as usize];
                scratch.push((c, v));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            // Merge duplicates.
            let mut k = 0;
            while k < scratch.len() {
                let c = scratch[k].0;
                let mut v = scratch[k].1;
                let mut j = k + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                col_idx.push(c as usize);
                vals.push(v);
                k = j;
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts(nr, self.n_cols, row_ptr, col_idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_csr() {
        let mut c = Coo::new(3, 3);
        c.push(2, 1, 5.0);
        c.push(0, 2, 3.0);
        c.push(0, 0, 1.0);
        let a = c.to_csr();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.row(0), (&[0u32, 2][..], &[1.0, 3.0][..]));
        assert_eq!(a.row(1), (&[][..], &[][..]));
        assert_eq!(a.row(2), (&[1u32][..], &[5.0][..]));
    }

    #[test]
    fn duplicates_sum() {
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 0, 2.5);
        c.push(1, 1, -1.0);
        let a = c.to_csr();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.get(1, 1), -1.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn push_sym_mirrors() {
        let mut c = Coo::new(3, 3);
        c.push_sym(0, 2, 4.0);
        c.push_sym(1, 1, 2.0); // diagonal: added once
        let a = c.to_csr();
        assert_eq!(a.get(0, 2), 4.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 1), 2.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn empty_rows_are_fine() {
        let c = Coo::new(4, 4);
        let a = c.to_csr();
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.n_rows(), 4);
    }
}
