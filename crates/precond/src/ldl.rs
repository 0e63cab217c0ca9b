//! Sparse LDLᵀ factorization — the *exact* solver for preconditioner
//! blocks and reconstruction subsystems.
//!
//! Up-looking algorithm driven by the elimination tree, in the style of
//! Davis's LDL: a symbolic pass computes the tree and column counts, the
//! numeric pass performs one sparse triangular solve per row. `A = L D Lᵀ`
//! with unit lower-triangular `L` (stored column-compressed) and positive
//! diagonal `D` for SPD input — a non-positive pivot reports
//! [`PrecondError::Breakdown`], which doubles as an SPD test.
//!
//! ## The factor's two encodings
//!
//! One solve per rank per PCG iteration makes the two triangular sweeps
//! the per-iteration local work, so the factor is stored for them. The row
//! pattern of L's columns is kept in one of two encodings, chosen at the
//! end of [`SparseLdl::factor_with`] from the pattern itself, exactly as
//! [`Csr`] chooses for its rows (same helper, [`sparsemat::csr::Runs`];
//! same threshold, `sparsemat::csr::SEG_MIN_AVG_RUN`):
//!
//! * **runs** — the columns of a banded factor are almost entirely runs of
//!   consecutive rows. When the average run is long enough only the runs
//!   are kept and the per-entry `u32` indices are dropped (12 → 8 B per
//!   entry). Both sweeps then walk contiguous slices: the forward column
//!   update is the element-wise `x[s..s+len] -= lx[p..p+len] * xj`, the
//!   backward column dot reads `x[s..s+len]` with no index loads;
//! * **indexed** — one `u32` row per entry, swept over zipped column
//!   slices (scattered patterns: the circuit and unstructured-mesh classes).
//!
//! **Accumulation-order contract** (DESIGN.md, "The kernel layer"), per
//! sweep:
//!
//! * *forward* (`L y = b`): the updates of each `x[i]` are applied in
//!   ascending column order;
//! * *backward* (`Lᵀ x = z`): a column of fewer than `LANE_MIN` stored entries
//!   reduces `x[j]` through one accumulator over its rows in ascending order.
//!   A longer column forms **four position-lanes, combined pairwise**: the
//!   entry at position `q` of the column (rows ascending) adds `L(i,j)·x[i]`
//!   to lane `q mod 4`, each lane left to right from `+0.0`, and `x[j]` is
//!   reduced once by `(s0 + s1) + (s2 + s3)`. One chain per column made the
//!   whole sweep a single serial chain of subtractions (column `j` starts
//!   from the `x[j+1]` column `j + 1` has just finished); four lanes run it
//!   at a quarter of the add latency.
//!
//! The rule reads the factor's pattern and nothing else, so both encodings
//! implement exactly it — in the runs encoding a run is a head up to the next
//! multiple of four *column* positions, aligned chunks of four, and a tail —
//! and [`SparseLdl::solve_in_place`] is *bitwise identical* to
//! [`SparseLdl::solve_reference`], the scalar statement of these orders. The
//! encodings re-shape memory traffic, never floating-point association;
//! `l_nnz`, the flop charges and every virtual time are those of the indexed
//! factor.

use crate::traits::{PrecondError, Preconditioner};
use sparsemat::csr::Runs;
use sparsemat::Csr;

/// Stored entries from which the backward sweep sums a column of L in four
/// position-lanes (module docs); a shorter column keeps the single ascending
/// chain, which the lanes' set-up, call and final reduction do not beat.
/// Measured like `sparsemat::csr::SEG_MIN_AVG_RUN`, by
/// `tests::run_length_crossover_sweep` (DESIGN.md, "The kernel layer"): from
/// here the lanes lose by no more than ≈ 4 % in either encoding at runs of 12
/// rows or more, and win from 128 entries. Long columns made of 4–7-row runs
/// are slower in the runs encoding than they were as a chain; no suite factor
/// has them.
const LANE_MIN: usize = 48;

/// The `MIN` of [`SparseLdl::sweeps`] that sums every column in the single
/// ascending chain — the sweep as it was, for the accuracy test and the
/// measurement; the length test is compiled out.
const CHAIN: usize = usize::MAX;

/// The four lane sums of one column over its `u32` rows: the entry at
/// position `q` adds `L(i,j)·x[i]` to lane `q mod 4`, left to right.
///
/// Both lane kernels stay out of line: inlined into the sweeps they cost the
/// short-column loops beside them 15–40 % (measured on the suite factors
/// M1′–M4′, which have no column that long).
#[inline(never)]
fn lanes_indexed(rows: &[u32], l: &[f64], x: &[f64]) -> [f64; 4] {
    let mut s = [0.0f64; 4];
    let mut rr = rows.chunks_exact(4);
    let mut ll = l.chunks_exact(4);
    for (r4, l4) in (&mut rr).zip(&mut ll) {
        for k in 0..4 {
            s[k] += l4[k] * x[r4[k] as usize];
        }
    }
    for ((sk, &i), lv) in s.iter_mut().zip(rr.remainder()).zip(ll.remainder()) {
        *sk += lv * x[i as usize];
    }
    s
}

/// The same four sums over a column kept as runs: positions count through
/// the column, not the run, so each run is a head up to the next multiple
/// of four, aligned chunks of four (one 4-wide multiply-add each) and a tail.
#[inline(never)]
fn lanes_runs(runs: impl Iterator<Item = (usize, usize)>, l: &[f64], x: &[f64]) -> [f64; 4] {
    let mut s = [0.0f64; 4];
    let mut q = 0usize;
    for (i0, len) in runs {
        let (l, xs) = (&l[q..q + len], &x[i0..i0 + len]);
        let head = (q.wrapping_neg() % 4).min(len);
        for t in 0..head {
            s[(q + t) % 4] += l[t] * xs[t];
        }
        let mut ll = l[head..].chunks_exact(4);
        let mut xx = xs[head..].chunks_exact(4);
        for (l4, x4) in (&mut ll).zip(&mut xx) {
            for k in 0..4 {
                s[k] += l4[k] * x4[k];
            }
        }
        for ((sk, lv), xv) in s.iter_mut().zip(ll.remainder()).zip(xx.remainder()) {
            *sk += lv * xv;
        }
        q += len;
    }
    s
}

/// The lanes' one reduction, pairwise.
#[inline(always)]
fn reduce(s: [f64; 4]) -> f64 {
    (s[0] + s[1]) + (s[2] + s[3])
}

/// Reusable scratch for [`SparseLdl`] factorizations.
///
/// One workspace amortizes the six O(n) scratch arrays (etree, marks,
/// column counts, dense accumulator, row pattern, insertion cursors)
/// across repeated factorizations — e.g. every block of a
/// [`crate::BlockJacobi`], or the per-recovery subsystem factors in the
/// engine. Buffers grow to the largest `n` seen and are then reused
/// without further heap traffic; [`SparseLdl::factor_with`] leaves the
/// workspace ready for the next call regardless of success or breakdown.
#[derive(Clone, Debug, Default)]
pub struct LdlWorkspace {
    parent: Vec<usize>,
    flag: Vec<usize>,
    lnz: Vec<usize>,
    y: Vec<f64>,
    pattern: Vec<usize>,
    next: Vec<usize>,
}

impl LdlWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resize-and-reset all scratch to a clean state for dimension `n`.
    /// Allocation-free once capacity has reached `n`.
    fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.resize(n, usize::MAX);
        self.flag.clear();
        self.flag.resize(n, usize::MAX);
        self.lnz.clear();
        self.lnz.resize(n, 0);
        self.y.clear();
        self.y.resize(n, 0.0);
        self.pattern.clear();
        self.pattern.resize(n, 0);
    }
}

/// A sparse `L D Lᵀ` factorization of an SPD matrix.
#[derive(Clone, Debug)]
pub struct SparseLdl {
    n: usize,
    /// Column pointers of L (strictly lower part, unit diagonal implicit).
    lp: Vec<usize>,
    /// Row pattern of L's columns, in one of the two encodings.
    rows: Rows,
    /// Values per column of L.
    lx: Vec<f64>,
    /// The diagonal D.
    d: Vec<f64>,
}

/// The ascending row indices of each column of L.
#[derive(Clone, Debug)]
enum Rows {
    /// One `u32` per entry (compact, like [`Csr`] columns).
    Indexed(Vec<u32>),
    /// Runs of consecutive rows, kept *instead of* the indices.
    Runs(Runs),
}

impl SparseLdl {
    /// Factor a (numerically) symmetric positive definite matrix. Only the
    /// lower triangle of `a` is read. Allocates private scratch; callers
    /// factoring many matrices should share an [`LdlWorkspace`] via
    /// [`SparseLdl::factor_with`].
    pub fn new(a: &Csr) -> Result<Self, PrecondError> {
        Self::factor_with(a, &mut LdlWorkspace::new())
    }

    /// Like [`SparseLdl::new`], but drawing all O(n) scratch from `ws` so
    /// that repeated factorizations do not touch the allocator (beyond the
    /// factor's own output arrays).
    pub fn factor_with(a: &Csr, ws: &mut LdlWorkspace) -> Result<Self, PrecondError> {
        if a.n_rows() != a.n_cols() {
            return Err(PrecondError::Shape(format!(
                "ldl needs square, got {}x{}",
                a.n_rows(),
                a.n_cols()
            )));
        }
        let n = a.n_rows();
        ws.reset(n);
        let LdlWorkspace {
            parent,
            flag,
            lnz,
            y,
            pattern,
            next,
        } = ws;

        // ---- Symbolic: elimination tree + column counts --------------
        for k in 0..n {
            flag[k] = k;
            let (cols, _) = a.row(k);
            for &i0 in cols.iter().take_while(|&&c| (c as usize) < k) {
                let mut i = i0 as usize;
                while flag[i] != k {
                    if parent[i] == usize::MAX {
                        parent[i] = k;
                    }
                    lnz[i] += 1; // L(k,i) is nonzero
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for i in 0..n {
            lp[i + 1] = lp[i] + lnz[i];
        }
        let nnz_l = lp[n];

        // ---- Numeric: up-looking rows ---------------------------------
        let mut li = vec![0u32; nnz_l];
        let mut lx = vec![0.0f64; nnz_l];
        let mut d = vec![0.0f64; n];
        // Insertion cursor per column; `flag` is re-marked cleanly because
        // the numeric pass uses the same never-repeating keys `k`.
        next.clear();
        next.extend_from_slice(&lp[..n]);
        flag.iter_mut().for_each(|f| *f = usize::MAX);
        for k in 0..n {
            let mut top = n;
            flag[k] = k;
            let (cols, vals) = a.row(k);
            for (&c, &v) in cols.iter().zip(vals) {
                let c = c as usize;
                if c > k {
                    break; // sorted columns: lower triangle done
                }
                y[c] += v;
                // Walk up the etree collecting the row pattern of L(k,·)
                // in topological order.
                let mut len = 0usize;
                let mut i = c;
                while flag[i] != k {
                    pattern[len] = i;
                    len += 1;
                    flag[i] = k;
                    i = parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = pattern[len];
                }
            }
            let mut dk = y[k];
            y[k] = 0.0;
            for s in top..n {
                let i = pattern[s];
                let yi = y[i];
                y[i] = 0.0;
                for p in lp[i]..next[i] {
                    y[li[p] as usize] -= lx[p] * yi;
                }
                let l_ki = yi / d[i];
                dk -= l_ki * yi;
                li[next[i]] = k as u32;
                lx[next[i]] = l_ki;
                next[i] += 1;
            }
            if dk <= 0.0 || !dk.is_finite() {
                // Scrub the dense accumulator so the workspace is clean
                // for the next factorization.
                y.iter_mut().for_each(|v| *v = 0.0);
                return Err(PrecondError::Breakdown(k));
            }
            d[k] = dk;
        }
        // Long enough runs: keep them and drop the per-entry indices.
        let rows = Runs::detect(&lp, &li).map_or_else(|| Rows::Indexed(li), Rows::Runs);
        Ok(SparseLdl { n, lp, rows, lx, d })
    }

    /// Solve `A x = b` exactly (forward, diagonal, backward substitution).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// In-place variant of [`SparseLdl::solve`]. Bitwise identical to
    /// [`SparseLdl::solve_reference`] in both encodings (module docs).
    pub fn solve_in_place(&self, x: &mut [f64]) {
        self.sweeps::<LANE_MIN>(x);
    }

    /// The three sweeps, the backward one in lanes from `MIN` entries per
    /// column: [`LANE_MIN`] as shipped; the tests also ask for [`CHAIN`] and
    /// for `0` (every column in lanes).
    #[inline(always)]
    fn sweeps<const MIN: usize>(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        let col = |j: usize| self.lp[j]..self.lp[j + 1];
        match &self.rows {
            Rows::Indexed(li) => {
                for j in 0..self.n {
                    let xj = x[j];
                    for (&i, l) in li[col(j)].iter().zip(&self.lx[col(j)]) {
                        x[i as usize] -= l * xj;
                    }
                }
                for (xi, di) in x.iter_mut().zip(&self.d) {
                    *xi /= di;
                }
                for j in (0..self.n).rev() {
                    let (rows, l) = (&li[col(j)], &self.lx[col(j)]);
                    if MIN != CHAIN && rows.len() >= MIN {
                        x[j] -= reduce(lanes_indexed(rows, l, x));
                        continue;
                    }
                    let mut xj = x[j];
                    for (&i, l) in rows.iter().zip(l) {
                        xj -= l * x[i as usize];
                    }
                    x[j] = xj;
                }
            }
            Rows::Runs(runs) => {
                for j in 0..self.n {
                    let xj = x[j];
                    let mut p = self.lp[j];
                    for (i0, len) in runs.of(j) {
                        for (xi, l) in x[i0..i0 + len].iter_mut().zip(&self.lx[p..p + len]) {
                            *xi -= l * xj;
                        }
                        p += len;
                    }
                }
                for (xi, di) in x.iter_mut().zip(&self.d) {
                    *xi /= di;
                }
                for j in (0..self.n).rev() {
                    if MIN != CHAIN && col(j).len() >= MIN {
                        x[j] -= reduce(lanes_runs(runs.of(j), &self.lx[col(j)], x));
                        continue;
                    }
                    let mut xj = x[j];
                    let mut p = self.lp[j];
                    for (i0, len) in runs.of(j) {
                        for (xi, l) in x[i0..i0 + len].iter().zip(&self.lx[p..p + len]) {
                            xj -= l * xi;
                        }
                        p += len;
                    }
                    x[j] = xj;
                }
            }
        }
    }

    /// Row index of every entry of L, column by column, from either
    /// encoding.
    fn row_indices(&self) -> Vec<u32> {
        match &self.rows {
            Rows::Indexed(li) => li.clone(),
            Rows::Runs(runs) => (0..self.n)
                .flat_map(|j| runs.of(j))
                .flat_map(|(i0, len)| i0 as u32..(i0 + len) as u32)
                .collect(),
        }
    }

    /// Reference solve: the scalar, per-entry statement of the sweeps' orders
    /// (module docs) that [`SparseLdl::solve_in_place`] is pinned against,
    /// bit for bit, in both encodings. Kept for the proptest oracle.
    #[doc(hidden)]
    pub fn solve_reference(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        let li = self.row_indices();
        for j in 0..self.n {
            let xj = x[j];
            for p in self.lp[j]..self.lp[j + 1] {
                x[li[p] as usize] -= self.lx[p] * xj;
            }
        }
        for j in 0..self.n {
            x[j] /= self.d[j];
        }
        for j in (0..self.n).rev() {
            let col = self.lp[j]..self.lp[j + 1];
            if col.len() < LANE_MIN {
                for p in col {
                    x[j] -= self.lx[p] * x[li[p] as usize];
                }
            } else {
                let mut s = [0.0f64; 4];
                for (q, p) in col.enumerate() {
                    s[q % 4] += self.lx[p] * x[li[p] as usize];
                }
                x[j] -= (s[0] + s[1]) + (s[2] + s[3]);
            }
        }
    }

    /// True if the factor keeps the run-length encoding of its columns.
    #[doc(hidden)]
    pub fn uses_segments(&self) -> bool {
        matches!(self.rows, Rows::Runs(_))
    }

    /// Nonzeros in the strictly-lower factor (fill-in diagnostics).
    pub fn l_nnz(&self) -> usize {
        self.lx.len()
    }

    /// Flop count of one solve: 2 per L entry twice, plus n divisions.
    pub fn solve_flops(&self) -> usize {
        4 * self.lx.len() + self.n
    }
}

impl Preconditioner for SparseLdl {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
        self.solve_in_place(z);
    }

    fn dim(&self) -> usize {
        self.n
    }

    fn flops_per_apply(&self) -> usize {
        self.solve_flops()
    }

    fn name(&self) -> &'static str {
        "ldl-exact"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{mesh_laplacian_2d, poisson2d, poisson3d, MeshOrdering};
    use sparsemat::vecops::norm2;

    fn residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
        let mut r = a.mul_vec(x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        norm2(&r) / norm2(b)
    }

    #[test]
    fn solves_poisson_exactly() {
        let a = poisson2d(8, 8);
        let f = SparseLdl::new(&a).unwrap();
        let x_true: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true);
        let x = f.solve(&b);
        assert!(residual(&a, &x, &b) < 1e-12);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn solves_3d_and_unstructured() {
        for a in [
            poisson3d(5, 5, 5),
            mesh_laplacian_2d(9, 9, MeshOrdering::Random, 3),
        ] {
            let f = SparseLdl::new(&a).unwrap();
            let b = sparsemat::gen::rhs_for_ones(&a);
            let x = f.solve(&b);
            for xi in &x {
                assert!((xi - 1.0).abs() < 1e-8, "x={xi}");
            }
        }
    }

    #[test]
    fn matches_dense_cholesky() {
        let a = poisson2d(5, 5);
        let f = SparseLdl::new(&a).unwrap();
        let dense = a.to_dense().cholesky().unwrap();
        let b: Vec<f64> = (0..25).map(|i| (i as f64).cos()).collect();
        let xs = f.solve(&b);
        let xd = dense.solve(&b);
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut coo = sparsemat::Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push_sym(0, 1, 2.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr(); // eigenvalues 3, -1
        assert!(matches!(
            SparseLdl::new(&a),
            Err(PrecondError::Breakdown(_))
        ));
    }

    #[test]
    fn diagonal_matrix_has_empty_l() {
        let a = Csr::identity(6);
        let f = SparseLdl::new(&a).unwrap();
        assert_eq!(f.l_nnz(), 0);
        assert_eq!(f.solve(&[3.0; 6]), vec![3.0; 6]);
    }

    #[test]
    fn preconditioner_interface() {
        let a = poisson2d(4, 4);
        let f = SparseLdl::new(&a).unwrap();
        let b = sparsemat::gen::rhs_for_ones(&a);
        let mut z = vec![0.0; 16];
        f.apply(&b, &mut z);
        for zi in &z {
            assert!((zi - 1.0).abs() < 1e-10);
        }
        assert!(f.flops_per_apply() > 0);
    }

    /// The same factor in the other encoding (`segmented` forces the choice
    /// `factor_with` makes from the pattern).
    fn reencoded(f: &SparseLdl, segmented: bool) -> SparseLdl {
        let li = f.row_indices();
        let rows = if segmented {
            Rows::Runs(Runs::encode(&f.lp, &li, 0))
        } else {
            Rows::Indexed(li)
        };
        SparseLdl { rows, ..f.clone() }
    }

    /// Best-of-`reps` nanoseconds per factor entry of one `solve` of `f`.
    fn ns_per_entry(f: &SparseLdl, reps: usize, solve: fn(&SparseLdl, &mut [f64])) -> f64 {
        let b: Vec<f64> = (0..f.n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = b.clone();
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            x.copy_from_slice(&b);
            let t = std::time::Instant::now();
            solve(f, std::hint::black_box(&mut x));
            best = best.min(t.elapsed().as_secs_f64());
        }
        best * 1e9 / f.l_nnz().max(1) as f64
    }

    /// A synthetic unit-lower factor of `n` columns in both encodings
    /// (indexed, runs): column `j` holds `col_len` entries from row `j + 1`
    /// on, in runs of exactly `run` rows separated by one-row holes.
    fn synthetic(n: usize, run: usize, col_len: usize) -> (SparseLdl, SparseLdl) {
        let (mut lp, mut li, mut lx) = (vec![0usize], Vec::new(), Vec::new());
        for j in 0..n {
            let rows = (j + 1..n).filter(|i| (i - j - 1) % (run + 1) < run);
            for i in rows.take(col_len) {
                li.push(i as u32);
                lx.push(0.01 * ((i * 31 + j * 17) % 13) as f64 - 0.06);
            }
            lp.push(li.len());
        }
        let indexed = SparseLdl {
            n,
            lp,
            rows: Rows::Indexed(li),
            lx,
            d: vec![1.0; n],
        };
        let segmented = reencoded(&indexed, true);
        (indexed, segmented)
    }

    /// The threshold is exactly [`LANE_MIN`] and the two encodings count lane
    /// positions alike: factors whose columns all hold `LANE_MIN − 1 … + 5`
    /// entries, in runs of 1 to 48 rows, solve to the same bits indexed, as
    /// runs and by the reference; one entry short of the threshold that is
    /// still the single ascending chain.
    #[test]
    fn encodings_agree_bitwise_around_lane_min() {
        let n = 400;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let solved = |f: &dyn Fn(&mut [f64])| {
            let mut x = b.clone();
            f(&mut x);
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for col_len in LANE_MIN - 1..=LANE_MIN + 5 {
            for run in [1usize, 2, 3, 5, 7, 48] {
                let (indexed, segmented) = synthetic(n, run, col_len);
                let reference = solved(&|x| indexed.solve_reference(x));
                assert_eq!(solved(&|x| indexed.solve_in_place(x)), reference);
                assert_eq!(solved(&|x| segmented.solve_in_place(x)), reference);
                let chain = solved(&|x| indexed.sweeps::<CHAIN>(x));
                assert_eq!(chain == reference, col_len < LANE_MIN, "{col_len} {run}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The lane sum is no less accurate than the chain it replaced: on
        /// SPD bands wide enough for the lanes, its distance from the dense
        /// Cholesky solution is at most twice the single ascending chain's
        /// (`sweeps::<CHAIN>`, the sweep as it was). Both sit at the
        /// oracle's own rounding, a few ulps of the solution.
        #[test]
        fn lane_sum_is_as_accurate_as_the_ascending_chain(
            seed in proptest::prelude::any::<u64>(),
            n in 80usize..140,
            extra in 0usize..16,
        ) {
            let a = sparsemat::gen::banded_spd(n, LANE_MIN + extra, 1.0, seed);
            let f = SparseLdl::new(&a).unwrap();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.61).sin()).collect();
            let oracle = a.to_dense().cholesky().unwrap().solve(&b);
            let distance = |x: &[f64]| {
                let d: Vec<f64> = x.iter().zip(&oracle).map(|(u, v)| u - v).collect();
                norm2(&d)
            };
            let (mut lanes, mut chain) = (b.clone(), b.clone());
            f.solve_in_place(&mut lanes);
            f.sweeps::<CHAIN>(&mut chain);
            proptest::prop_assert!(lanes != chain, "band too narrow for the lanes");
            proptest::prop_assert!(
                distance(&lanes) <= 2.0 * distance(&chain),
                "lanes {:e} chain {:e}", distance(&lanes), distance(&chain)
            );
        }
    }

    /// The two measurements behind the kernel's two constants (DESIGN.md,
    /// "The kernel layer"), on [`synthetic`] factors, ns per factor entry.
    /// First where the runs encoding overtakes the indexed one, at 48
    /// entries per column as shipped; then, per column length and encoding,
    /// the single ascending chain against the four lanes — [`LANE_MIN`] is
    /// read off this axis. Run with
    /// `cargo test --release -p precond --lib -- --ignored --nocapture crossover`.
    #[test]
    #[ignore = "measurement, not a check"]
    fn run_length_crossover_sweep() {
        println!("avg_run  indexed_ns/entry  segmented_ns/entry");
        for run in [1usize, 2, 3, 4, 6, 8, 12, 24, 48] {
            let (indexed, segmented) = synthetic(4000, run, 48);
            let Rows::Runs(runs) = &segmented.rows else {
                unreachable!()
            };
            println!(
                "{:7.2}  {:16.3}  {:18.3}",
                indexed.l_nnz() as f64 / runs.count() as f64,
                ns_per_entry(&indexed, 200, SparseLdl::solve_in_place),
                ns_per_entry(&segmented, 200, SparseLdl::solve_in_place),
            );
        }
        println!("run  col_len  indexed chain/lanes  segmented chain/lanes");
        for run in [4usize, 12, 48] {
            for col_len in [4usize, 8, 16, 24, 32, 40, 48, 64, 128] {
                let (indexed, segmented) = synthetic(4000, run, col_len);
                println!(
                    "{run:3}  {col_len:7}  {:13.3}/{:.3}  {:15.3}/{:.3}",
                    ns_per_entry(&indexed, 200, SparseLdl::sweeps::<CHAIN>),
                    ns_per_entry(&indexed, 200, SparseLdl::sweeps::<0>),
                    ns_per_entry(&segmented, 200, SparseLdl::sweeps::<CHAIN>),
                    ns_per_entry(&segmented, 200, SparseLdl::sweeps::<0>),
                );
            }
        }
    }

    /// Average run length of the block factors of every suite matrix in the
    /// benchmark's configurations, and the solve's cost in both encodings
    /// (DESIGN.md, "The kernel layer"; CI prints it in the `test` job's
    /// summary). Run like the sweep, filter `run_length_table`.
    #[test]
    #[ignore = "measurement, not a check"]
    fn run_length_table() {
        use sparsemat::gen::suite::{all_ids, generate, PaperMatrix};
        let cells = all_ids()
            .map(|id| (id, 0.04, 128))
            .into_iter()
            .chain([(PaperMatrix::M1, 0.03, 16), (PaperMatrix::M1, 0.004, 512)]);
        println!("matrix scale nodes  l_nnz  avg_run  segmented  indexed_ns  segmented_ns");
        for (id, scale, nodes) in cells {
            let a = generate(id, scale);
            let part = sparsemat::BlockPartition::new(a.n_rows(), nodes);
            let (mut l_nnz, mut runs, mut segmented) = (0usize, 0usize, 0usize);
            let (mut t_idx, mut t_seg) = (0.0, 0.0);
            for k in 0..nodes {
                let rows: Vec<usize> = part.range(k).collect();
                let f = SparseLdl::new(&a.extract(&rows, &rows)).unwrap();
                let seg = reencoded(&f, true);
                let Rows::Runs(r) = &seg.rows else {
                    unreachable!()
                };
                l_nnz += f.l_nnz();
                runs += r.count();
                segmented += f.uses_segments() as usize;
                let indexed = reencoded(&f, false);
                t_idx += ns_per_entry(&indexed, 20, SparseLdl::solve_in_place) * f.l_nnz() as f64;
                t_seg += ns_per_entry(&seg, 20, SparseLdl::solve_in_place) * f.l_nnz() as f64;
            }
            println!(
                "{id:?} {scale} {nodes}  {l_nnz}  {:.1}  {segmented}/{nodes}  {:.2}  {:.2}",
                l_nnz as f64 / runs.max(1) as f64,
                t_idx / l_nnz.max(1) as f64,
                t_seg / l_nnz.max(1) as f64,
            );
        }
    }
}
