//! Compressed sparse row matrices.
//!
//! The canonical storage format of the library: sorted column indices in
//! every row, explicit zeros allowed (pattern and values are separate
//! concerns — communication plans depend on the pattern).
//!
//! ## Kernel layer
//!
//! Column indices are stored as `u32` (validated at construction — every
//! column fits, every row is sorted/unique/in-range), halving index
//! bandwidth against the former `usize` storage. On top of the indexed
//! representation, construction detects **runs** of consecutive columns
//! and, when the average run is long enough ([`SEG_MIN_AVG_RUN`]), keeps a
//! run-length encoding ([`Runs`]; `precond`'s LDLᵀ factor encodes its
//! columns with the same helper). The segment kernel turns the per-element
//! gather `x[col[p]]` into contiguous slice dot-products with no index
//! traffic at all — the big win on the banded matrices that dominate the
//! paper's suite.
//!
//! **Accumulation-order contract:** every kernel — indexed, unrolled,
//! segmented, fused — accumulates each row strictly left-to-right through
//! a single accumulator chain, so results are *bitwise identical* to the
//! reference scalar loop ([`Csr::spmv_reference`]). Optimizations here may
//! re-shape memory traffic, never floating-point association.

use crate::coo::Coo;

/// Minimum average run length (nnz / runs) for construction to keep the
/// run-length encoding. Below this the per-run slice overhead outweighs
/// the saved index traffic and the indexed kernel is used instead.
pub const SEG_MIN_AVG_RUN: usize = 4;

/// Run-length encoding of the index array of a compressed pattern — the
/// columns of a [`Csr`]'s rows, or the rows of a column-compressed factor's
/// columns: `ptr[k]..ptr[k+1]` indexes the runs of slice `k`; run `s`
/// covers the consecutive indices `start[s] .. start[s] + len[s]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Runs {
    ptr: Vec<u32>,
    start: Vec<u32>,
    len: Vec<u32>,
}

impl Runs {
    /// Detect the runs of consecutive indices in every slice
    /// `idx[ptr[k]..ptr[k+1]]` (each sorted and unique) and keep the
    /// encoding when the average run is at least [`SEG_MIN_AVG_RUN`].
    pub fn detect(ptr: &[usize], idx: &[u32]) -> Option<Runs> {
        // First pass: count runs to decide profitability without building.
        let runs: usize = ptr
            .windows(2)
            .map(|w| {
                let slice = &idx[w[0]..w[1]];
                let breaks = slice.windows(2).filter(|p| p[1] != p[0] + 1).count();
                usize::from(!slice.is_empty()) + breaks
            })
            .sum();
        if runs == 0 || idx.len() >= u32::MAX as usize || idx.len() / runs < SEG_MIN_AVG_RUN {
            return None;
        }
        Some(Runs::encode(ptr, idx, runs))
    }

    /// The encoding itself, whatever the average run (`runs` is a capacity
    /// hint). Callers outside this module go through [`Runs::detect`].
    #[doc(hidden)]
    pub fn encode(ptr: &[usize], idx: &[u32], runs: usize) -> Runs {
        let mut enc = Runs {
            ptr: Vec::with_capacity(ptr.len()),
            start: Vec::with_capacity(runs),
            len: Vec::with_capacity(runs),
        };
        enc.ptr.push(0);
        for w in ptr.windows(2) {
            let slice = &idx[w[0]..w[1]];
            let mut i = 0usize;
            while i < slice.len() {
                let start = slice[i];
                let mut len = 1u32;
                while i + (len as usize) < slice.len() && slice[i + len as usize] == start + len {
                    len += 1;
                }
                enc.start.push(start);
                enc.len.push(len);
                i += len as usize;
            }
            enc.ptr.push(enc.start.len() as u32);
        }
        enc
    }

    /// The `(start, len)` runs of slice `k`, ascending.
    #[inline(always)]
    pub fn of(&self, k: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let span = self.ptr[k] as usize..self.ptr[k + 1] as usize;
        self.start[span.clone()]
            .iter()
            .zip(&self.len[span])
            .map(|(&s, &l)| (s as usize, l as usize))
    }

    /// Number of runs over all slices.
    pub fn count(&self) -> usize {
        self.start.len()
    }
}

/// A sparse matrix in CSR format.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
    /// Run-length encoding of `col_idx` (`None` when not profitable).
    segs: Option<Runs>,
}

impl Csr {
    /// Assemble from raw parts, validating the invariants.
    ///
    /// Every invariant is checked in **all** build profiles: `row_ptr`
    /// monotone and spanning `col_idx`, and each row's columns sorted,
    /// unique, and `< n_cols`. The compact-index kernels depend on these
    /// (an out-of-range column would read past `x`; an unsorted row would
    /// break the run-length encoding), so a release build must reject bad
    /// input at the construction site, not corrupt results later.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n_rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), vals.len(), "col/val length mismatch");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr end");
        assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]), "row_ptr monotone");
        assert!(
            n_cols <= u32::MAX as usize,
            "column count exceeds u32 index range"
        );
        for r in 0..n_rows {
            let s = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            assert!(
                s.windows(2).all(|w| w[0] < w[1]) && s.last().is_none_or(|&c| c < n_cols),
                "row {r}: columns must be sorted, unique, in range"
            );
        }
        let col_idx: Vec<u32> = col_idx.into_iter().map(|c| c as u32).collect();
        Csr {
            n_rows,
            n_cols,
            segs: Runs::detect(&row_ptr, &col_idx),
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// True if the run-length-encoded kernel is active for this matrix.
    pub fn uses_segments(&self) -> bool {
        self.segs.is_some()
    }

    /// `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Csr::from_parts(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row pointer array (`n_rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// All column indices, row-major (compact `u32` storage).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// All values, row-major.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values (pattern-preserving updates).
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// Value at `(r, c)`, zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&(c as u32)) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Dot-product of row `r` with `x`, left-to-right. Picks the
    /// segment kernel when the encoding is active.
    #[inline(always)]
    fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let Some(segs) = &self.segs else {
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            return dot_indexed(&self.col_idx[span.clone()], &self.vals[span], x);
        };
        let mut acc = 0.0;
        let mut base = self.row_ptr[r];
        for (c0, l) in segs.of(r) {
            acc = dot_run(acc, &self.vals[base..base + l], &x[c0..c0 + l]);
            base += l;
        }
        acc
    }

    /// `y ← A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "spmv x length");
        assert_eq!(y.len(), self.n_rows, "spmv y length");
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = self.row_dot(r, x);
        }
    }

    /// `y ← y + A·x`.
    pub fn spmv_add(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for (r, yr) in y.iter_mut().enumerate() {
            *yr += self.row_dot(r, x);
        }
    }

    /// Fused `y ← self·x + off·xo` over matching row sets — the one-pass
    /// local product of the distributed SpMV (`self` = diagonal block,
    /// `off` = off-diagonal block, `xo` = ghost values). Bitwise identical
    /// to `self.spmv(x, y); off.spmv_add(xo, y)`: each row forms its two
    /// partial sums left-to-right and adds them once at the end, exactly
    /// the association of the two-pass form — but `y` is written once and
    /// both operands stream through the cache together.
    pub fn spmv_fused(&self, off: &Csr, x: &[f64], xo: &[f64], y: &mut [f64]) {
        assert_eq!(off.n_rows, self.n_rows, "fused spmv row mismatch");
        assert_eq!(x.len(), self.n_cols, "fused spmv x length");
        assert_eq!(xo.len(), off.n_cols, "fused spmv xo length");
        assert_eq!(y.len(), self.n_rows, "fused spmv y length");
        for (r, yr) in y.iter_mut().enumerate() {
            *yr = self.row_dot(r, x) + off.row_dot(r, xo);
        }
    }

    /// Reference scalar SpMV: the naive per-element gather loop every
    /// optimized kernel is pinned against, bit for bit (see the
    /// accumulation-order contract in the module docs). Kept for the
    /// proptest oracle.
    #[doc(hidden)]
    pub fn spmv_reference(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c as usize];
            }
            y[r] = acc;
        }
    }

    /// Allocate-and-return variant of [`Csr::spmv`] — a convenience for
    /// tests and setup code; hot paths use the in-place kernels.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv(x, &mut y);
        y
    }

    /// Flop count of one SpMV (2 per stored entry).
    pub fn spmv_flops(&self) -> usize {
        2 * self.nnz()
    }

    /// The main diagonal (zero where not stored).
    pub fn diag(&self) -> Vec<f64> {
        (0..self.n_rows.min(self.n_cols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut next = counts;
        for r in 0..self.n_rows {
            let (cols, vs) = self.row(r);
            for (c, v) in cols.iter().zip(vs) {
                let slot = next[*c as usize];
                col_idx[slot] = r;
                vals[slot] = *v;
                next[*c as usize] += 1;
            }
        }
        // Rows of the transpose are built in increasing source-row order,
        // so columns are already sorted.
        row_ptr.truncate(self.n_cols + 1);
        Csr::from_parts(self.n_cols, self.n_rows, row_ptr, col_idx, vals)
    }

    /// Max absolute asymmetry `|A - Aᵀ|∞`; 0 for structurally and
    /// numerically symmetric matrices.
    pub fn asymmetry(&self) -> f64 {
        let t = self.transpose();
        let mut worst = 0.0f64;
        for r in 0..self.n_rows {
            let (c1, v1) = self.row(r);
            let (c2, v2) = t.row(r);
            // Merge the two sorted rows.
            let (mut i, mut j) = (0, 0);
            while i < c1.len() || j < c2.len() {
                if j >= c2.len() || (i < c1.len() && c1[i] < c2[j]) {
                    worst = worst.max(v1[i].abs());
                    i += 1;
                } else if i >= c1.len() || c2[j] < c1[i] {
                    worst = worst.max(v2[j].abs());
                    j += 1;
                } else {
                    worst = worst.max((v1[i] - v2[j]).abs());
                    i += 1;
                    j += 1;
                }
            }
        }
        worst
    }

    /// True if `‖A - Aᵀ‖∞ ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.n_rows == self.n_cols && self.asymmetry() <= tol
    }

    /// Symmetric permutation `P A Pᵀ`: entry `(i, j)` moves to
    /// `(perm[i], perm[j])` (i.e. `perm` maps old index → new index).
    pub fn permute_sym(&self, perm: &[usize]) -> Csr {
        assert_eq!(self.n_rows, self.n_cols, "symmetric permute needs square");
        assert_eq!(perm.len(), self.n_rows);
        let mut inv = vec![usize::MAX; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            assert!(inv[new] == usize::MAX, "perm is not a bijection");
            inv[new] = old;
        }
        let mut coo = Coo::with_capacity(self.n_rows, self.n_cols, self.nnz());
        for new_r in 0..self.n_rows {
            let old_r = inv[new_r];
            let (cols, vals) = self.row(old_r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(new_r, perm[*c as usize], *v);
            }
        }
        coo.to_csr()
    }

    /// Extract the submatrix with the given (sorted, unique, global) rows
    /// and columns; indices are renumbered to `0..rows.len()` /
    /// `0..cols.len()`. Used for `A_{If,If}` and `P_{If,If}` in the
    /// reconstruction (paper Alg. 2, lines 6 and 8).
    pub fn extract(&self, rows: &[usize], cols: &[usize]) -> Csr {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        let mut col_map = vec![usize::MAX; self.n_cols];
        for (new, &old) in cols.iter().enumerate() {
            col_map[old] = new;
        }
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for &r in rows {
            let (cs, vs) = self.row(r);
            for (c, v) in cs.iter().zip(vs) {
                let nc = col_map[*c as usize];
                if nc != usize::MAX {
                    col_idx.push(nc);
                    vals.push(*v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts(rows.len(), cols.len(), row_ptr, col_idx, vals)
    }

    /// Extract rows (renumbered `0..rows.len()`) keeping **all** columns.
    pub fn extract_rows(&self, rows: &[usize]) -> Csr {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for &r in rows {
            let (cs, vs) = self.row(r);
            col_idx.extend(cs.iter().map(|&c| c as usize));
            vals.extend_from_slice(vs);
            row_ptr.push(col_idx.len());
        }
        Csr::from_parts(rows.len(), self.n_cols, row_ptr, col_idx, vals)
    }

    /// Bandwidth: `max |i - j|` over stored entries.
    pub fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for r in 0..self.n_rows {
            let (cols, _) = self.row(r);
            for &c in cols {
                bw = bw.max(r.abs_diff(c as usize));
            }
        }
        bw
    }

    /// Dense representation (test oracle; panics on large matrices).
    pub fn to_dense(&self) -> crate::dense::Dense {
        assert!(
            self.n_rows * self.n_cols <= 16_000_000,
            "to_dense on a large matrix"
        );
        let mut d = crate::dense::Dense::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                d[(r, *c as usize)] = *v;
            }
        }
        d
    }
}

/// Indexed row dot, 4-wide unrolled through a **single** accumulator chain:
/// the unroll only amortizes loop control and lets the four gathers issue
/// together. Several accumulators would change the summation order — a
/// re-pin of every trajectory — and buy nothing here: a four-lane `row_dot`
/// prototype read `paper_m5_n128` 1.65 against 1.60 s, because out-of-order
/// execution already overlaps the chains of adjacent rows (DESIGN.md, "The
/// kernel layer"; the LDLᵀ backward sweep, whose columns chain into each
/// other, is where lanes pay).
#[inline(always)]
fn dot_indexed(cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    let mut acc = 0.0;
    let mut cc = cols.chunks_exact(4);
    let mut vv = vals.chunks_exact(4);
    for (c4, v4) in (&mut cc).zip(&mut vv) {
        acc += v4[0] * x[c4[0] as usize];
        acc += v4[1] * x[c4[1] as usize];
        acc += v4[2] * x[c4[2] as usize];
        acc += v4[3] * x[c4[3] as usize];
    }
    for (c, v) in cc.remainder().iter().zip(vv.remainder()) {
        acc += v * x[*c as usize];
    }
    acc
}

/// Contiguous-run dot: both operands are plain slices (no index traffic),
/// accumulated left-to-right into the running `acc`.
#[inline(always)]
fn dot_run(acc: f64, vals: &[f64], xs: &[f64]) -> f64 {
    let mut acc = acc;
    let mut vv = vals.chunks_exact(4);
    let mut xx = xs.chunks_exact(4);
    for (v4, x4) in (&mut vv).zip(&mut xx) {
        acc += v4[0] * x4[0];
        acc += v4[1] * x4[1];
        acc += v4[2] * x4[2];
        acc += v4[3] * x4[3];
    }
    for (v, xv) in vv.remainder().iter().zip(xx.remainder()) {
        acc += v * xv;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut c = Coo::new(3, 3);
        for i in 0..3 {
            c.push(i, i, 2.0);
        }
        c.push_sym(0, 1, -1.0);
        c.push_sym(1, 2, -1.0);
        c.to_csr()
    }

    #[test]
    fn spmv_tridiag() {
        let a = sample();
        let y = a.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_add_accumulates() {
        let a = sample();
        let mut y = vec![1.0; 3];
        a.spmv_add(&[1.0, 2.0, 3.0], &mut y);
        assert_eq!(y, vec![1.0, 1.0, 5.0]);
    }

    #[test]
    fn spmv_matches_reference_bitwise() {
        let a = crate::gen::poisson2d(13, 11);
        let x: Vec<f64> = (0..a.n_cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y_ref = vec![0.0; a.n_rows()];
        let mut y = vec![0.0; a.n_rows()];
        a.spmv_reference(&x, &mut y_ref);
        a.spmv(&x, &mut y);
        for (o, n) in y_ref.iter().zip(&y) {
            assert_eq!(o.to_bits(), n.to_bits());
        }
    }

    #[test]
    fn segment_encoding_on_banded_matrix() {
        // A dense band of half-width 6: long runs, so the RLE kernel
        // must engage and agree with the reference bit for bit.
        let n = 40;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(6)..(i + 7).min(n) {
                let v = if i == j {
                    20.0
                } else {
                    -1.0 / (1.0 + j as f64)
                };
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        assert!(a.uses_segments());
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut y_ref = vec![0.0; n];
        let mut y = vec![0.0; n];
        a.spmv_reference(&x, &mut y_ref);
        a.spmv(&x, &mut y);
        for (o, s) in y_ref.iter().zip(&y) {
            assert_eq!(o.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn fused_matches_two_pass_bitwise() {
        // Split poisson2d rows into a left and right half-block and check
        // the fused product against spmv-then-spmv_add.
        let a = crate::gen::poisson2d(8, 9);
        let n = a.n_rows();
        let split = 30;
        let left: Vec<usize> = (0..split).collect();
        let right: Vec<usize> = (split..n).collect();
        let all: Vec<usize> = (0..n).collect();
        let d = a.extract(&all, &left);
        let o = a.extract(&all, &right);
        let xl: Vec<f64> = (0..split).map(|i| (i as f64 * 0.7).sin()).collect();
        let xr: Vec<f64> = (split..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut y2 = vec![0.0; n];
        d.spmv(&xl, &mut y2);
        o.spmv_add(&xr, &mut y2);
        let mut y1 = vec![0.0; n];
        d.spmv_fused(&o, &xl, &xr, &mut y1);
        for (a2, a1) in y2.iter().zip(&y1) {
            assert_eq!(a2.to_bits(), a1.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "sorted, unique, in range")]
    fn from_parts_rejects_unsorted_columns_in_release_too() {
        // This guard is a hard assert in every profile: the compact
        // kernels depend on it.
        let _ = Csr::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "sorted, unique, in range")]
    fn from_parts_rejects_out_of_range_column() {
        let _ = Csr::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "row_ptr monotone")]
    fn from_parts_rejects_nonmonotone_row_ptr() {
        let _ = Csr::from_parts(2, 2, vec![0, 2, 1], vec![0], vec![1.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut c = Coo::new(3, 4);
        c.push(0, 3, 1.0);
        c.push(2, 1, 5.0);
        c.push(1, 0, -2.0);
        let a = c.to_csr();
        let t = a.transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.get(3, 0), 1.0);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn symmetry_check() {
        assert!(sample().is_symmetric(0.0));
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0 + 1e-3);
        let a = c.to_csr();
        assert!(!a.is_symmetric(1e-6));
        assert!(a.is_symmetric(1e-2));
    }

    #[test]
    fn asymmetry_counts_missing_mirror() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, 3.0); // no (1,0) entry at all
        let a = c.to_csr();
        assert_eq!(a.asymmetry(), 3.0);
    }

    #[test]
    fn permute_sym_reverses() {
        let a = sample();
        let perm = vec![2, 1, 0];
        let p = a.permute_sym(&perm);
        // Tridiagonal structure is preserved under reversal.
        assert_eq!(p.get(0, 0), 2.0);
        assert_eq!(p.get(0, 1), -1.0);
        assert_eq!(p.get(0, 2), 0.0);
        assert!(p.is_symmetric(0.0));
        // Round-trip back.
        assert_eq!(p.permute_sym(&perm), a);
    }

    #[test]
    fn extract_submatrix() {
        let a = sample();
        let s = a.extract(&[0, 2], &[0, 2]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(1, 1), 2.0);
        let off = a.extract(&[0, 2], &[1]);
        assert_eq!(off.get(0, 0), -1.0);
        assert_eq!(off.get(1, 0), -1.0);
    }

    #[test]
    fn extract_rows_keeps_columns() {
        let a = sample();
        let s = a.extract_rows(&[1]);
        assert_eq!(s.n_rows(), 1);
        assert_eq!(s.n_cols(), 3);
        assert_eq!(s.row(0), (&[0u32, 1, 2][..], &[-1.0, 2.0, -1.0][..]));
    }

    #[test]
    fn diag_and_bandwidth() {
        let a = sample();
        assert_eq!(a.diag(), vec![2.0, 2.0, 2.0]);
        assert_eq!(a.bandwidth(), 1);
        assert_eq!(Csr::identity(5).bandwidth(), 0);
    }

    #[test]
    fn get_missing_is_zero() {
        let a = sample();
        assert_eq!(a.get(0, 2), 0.0);
    }
}
