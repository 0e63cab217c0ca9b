//! Property-based tests of the factorizations and preconditioners.

use proptest::prelude::*;

use precond::{BlockJacobi, BlockSolver, Ilu0, Jacobi, LdlWorkspace, Preconditioner, SparseLdl};
use sparsemat::gen::banded_spd;
use sparsemat::vecops::{dot, norm2};
use sparsemat::{Coo, Csr, Rng};

fn residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut r = a.mul_vec(x);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri -= bi;
    }
    norm2(&r) / norm2(b).max(1e-300)
}

/// Strictly diagonally dominant SPD matrix with off-diagonal entries at the
/// given `(i, j)` pairs (`i != j`; mirrored, duplicates summed).
fn spd_with_pattern(n: usize, pairs: impl IntoIterator<Item = (usize, usize)>, seed: u64) -> Csr {
    let mut rng = Rng::new(seed);
    let mut coo = Coo::new(n, n);
    let mut rowsum = vec![0.0f64; n];
    for (i, j) in pairs {
        let w = rng.range_f64(0.1, 1.0);
        coo.push_sym(i, j, -w);
        rowsum[i] += w;
        rowsum[j] += w;
    }
    for (i, &s) in rowsum.iter().enumerate() {
        coo.push(i, i, s + 0.05 * s.max(1.0));
    }
    coo.to_csr()
}

/// SPD matrix coupling every pair of `members` (ascending) and nothing else:
/// a clique eliminates without fill outside itself, so column `j` of the
/// factor holds exactly the members above `j` — columns of every length from
/// `members.len() - 1` down to 0, with the run structure of `members`.
fn clique_spd(n: usize, members: &[usize], seed: u64) -> Csr {
    let pairs = members
        .iter()
        .enumerate()
        .flat_map(|(k, &i)| members[..k].iter().map(move |&j| (i, j)));
    spd_with_pattern(n, pairs, seed)
}

/// Entry count of the strictly-lower factor by dense symbolic elimination —
/// the reference both encodings of [`SparseLdl`] must report.
fn symbolic_l_nnz(a: &Csr) -> usize {
    let n = a.n_rows();
    let mut pat = vec![vec![false; n]; n];
    for (r, row) in pat.iter_mut().enumerate() {
        for &c in a.row(r).0 {
            row[c as usize] = true;
        }
    }
    let mut count = 0;
    for k in 0..n {
        let below: Vec<usize> = (k + 1..n).filter(|&i| pat[i][k]).collect();
        count += below.len();
        for &i in &below {
            for &j in &below {
                pat[i][j] = true;
            }
        }
    }
    count
}

/// `solve_in_place` ≡ `solve_reference` bit for bit on `a`'s factor, whose
/// encoding must be `segmented` and whose counts must be the reference's.
fn assert_solve_matches_reference(a: &Csr, segmented: Option<bool>) -> Result<(), TestCaseError> {
    let n = a.n_rows();
    let f = SparseLdl::new(a).unwrap();
    if let Some(segmented) = segmented {
        prop_assert_eq!(f.uses_segments(), segmented);
    }
    let l_nnz = symbolic_l_nnz(a);
    prop_assert_eq!(f.l_nnz(), l_nnz);
    prop_assert_eq!(f.solve_flops(), 4 * l_nnz + n);
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() + 0.1).collect();
    let (mut x, mut x_ref) = (b.clone(), b.clone());
    f.solve_in_place(&mut x);
    f.solve_reference(&mut x_ref);
    for (u, v) in x.iter().zip(&x_ref) {
        prop_assert_eq!(u.to_bits(), v.to_bits());
    }
    prop_assert!(residual(a, &x, &b) < 1e-10);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exact LDLᵀ factorization solves any generated SPD system to
    /// machine precision.
    #[test]
    fn ldl_solves_exactly(seed in any::<u64>(), n in 5usize..60, bw in 1usize..6) {
        let a = banded_spd(n, bw, 0.7, seed);
        let f = SparseLdl::new(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        let x = f.solve(&b);
        prop_assert!(residual(&a, &x, &b) < 1e-10);
    }

    /// LDLᵀ agrees with the dense Cholesky oracle.
    #[test]
    fn ldl_matches_dense(seed in any::<u64>(), n in 4usize..25) {
        let a = banded_spd(n, 3, 0.8, seed);
        let sparse = SparseLdl::new(&a).unwrap();
        let dense = a.to_dense().cholesky().unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let xs = sparse.solve(&b);
        let xd = dense.solve(&b);
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((s - d).abs() < 1e-9);
        }
    }

    /// The incomplete factorization never *worsens* the residual of a
    /// single preconditioned step (it approximates A⁻¹).
    #[test]
    fn incomplete_factorization_contracts(seed in any::<u64>(), n in 8usize..60) {
        let a = banded_spd(n, 3, 0.6, seed);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let z = Ilu0::new(&a).unwrap().solve(&b);
        prop_assert!(residual(&a, &z, &b) < 1.0, "ilu0 failed to contract");
    }

    /// Every preconditioner application is a symmetric positive definite
    /// operator — required for PCG correctness.
    #[test]
    fn preconditioners_are_spd_operators(seed in any::<u64>(), n in 8usize..40) {
        let a = banded_spd(n, 2, 0.7, seed);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).cos()).collect();
        let jacobi = Jacobi::new(&a).unwrap();
        let bj = BlockJacobi::with_blocks(&a, 3.min(n), BlockSolver::ExactLdl).unwrap();
        let ldl = SparseLdl::new(&a).unwrap();
        let precs: [&dyn Preconditioner; 3] = [&jacobi, &bj, &ldl];
        for m in precs {
            let mut mx = vec![0.0; n];
            let mut my = vec![0.0; n];
            m.apply(&x, &mut mx);
            m.apply(&y, &mut my);
            let sym_err = (dot(&y, &mx) - dot(&x, &my)).abs();
            prop_assert!(
                sym_err <= 1e-9 * (1.0 + dot(&y, &mx).abs()),
                "{} not symmetric: {sym_err}",
                m.name()
            );
            prop_assert!(dot(&x, &mx) > 0.0, "{} not positive", m.name());
        }
    }

    /// Full bands straddling the run-length threshold: the factor of a
    /// bandwidth-`bw` matrix has columns that are one run of `bw` rows
    /// (shorter in the last `bw` columns), so `bw` decides the encoding.
    #[test]
    fn ldl_solve_is_bitwise_reference_on_bands(seed in any::<u64>(), n in 40usize..90, bw in 1usize..9) {
        let a = banded_spd(n, bw, 1.0, seed);
        let segmented = match bw {
            1..=3 => Some(false),
            4 => None, // the short trailing columns pull the average under 4
            _ => Some(true),
        };
        assert_solve_matches_reference(&a, segmented)?;
        // Sparse bands: holes inside the envelope, partly closed by fill.
        assert_solve_matches_reference(&banded_spd(n, bw, 0.5, seed), None)?;
        // Wide bands: columns of 45..=52 entries, either side of the length
        // from which the backward sweep sums a column in four lanes.
        assert_solve_matches_reference(&banded_spd(n + 40, bw + 44, 1.0, seed), Some(true))?;
        assert_solve_matches_reference(&banded_spd(n + 40, bw + 44, 0.5, seed), None)?;
    }

    /// Every column length around the lane threshold, in both encodings. A
    /// dense block's factor has one column of each length `m - 1, …, 0`, each
    /// a single run (runs encoding); the same block on every other index is
    /// columns made only of length-1 runs (indexed encoding). `m ≥ 56` covers
    /// the threshold − 1 … + 5 for any threshold up to 50.
    #[test]
    fn ldl_solve_is_bitwise_reference_at_every_column_length(seed in any::<u64>(), m in 56usize..72) {
        let dense: Vec<usize> = (0..m).collect();
        assert_solve_matches_reference(&clique_spd(m + 3, &dense, seed), Some(true))?;
        let alternate: Vec<usize> = (0..m).map(|k| 2 * k).collect();
        assert_solve_matches_reference(&clique_spd(2 * m, &alternate, seed), Some(false))?;
    }

    /// Runs at every alignment: the coupled indices are intervals of random
    /// length separated by random gaps, and column `j` keeps the members above
    /// `j`, so from one column to the next every run starts one position
    /// earlier — each run is met at every position mod 4, with every length
    /// mod 4, in columns on both sides of the lane threshold. Intervals of
    /// 4..=11 rows give the runs encoding, of 1..=3 rows the indexed one.
    #[test]
    fn ldl_solve_is_bitwise_reference_at_every_run_alignment(seed in any::<u64>(), count in 60usize..90) {
        let mut rng = Rng::new(seed);
        for (lengths, segmented) in [(4..12, true), (1..4, false)] {
            let mut members = Vec::new();
            let mut next = rng.below(3);
            while members.len() < count {
                let len = lengths.start + rng.below(lengths.end - lengths.start);
                members.extend(next..next + len);
                next += len + 1 + rng.below(3);
            }
            assert_solve_matches_reference(&clique_spd(next, &members, seed), Some(segmented))?;
        }
    }

    /// Long runs with runs of length 1 between them: a band, one dense row
    /// in the middle and a dense border, so column `j` of L is
    /// `[j+1 ..= j+bw] [mid] [n-border .. n]`; then empty trailing columns.
    #[test]
    fn ldl_solve_is_bitwise_reference_on_holes(
        seed in any::<u64>(),
        n in 40usize..80,
        bw in 10usize..16,
        border in 5usize..9,
        tail in 0usize..4,
    ) {
        let holes = |n: usize, bw: usize| {
            // The last `tail` rows are decoupled: their columns of L are empty.
            let (mid, m) = (n / 2, n - tail);
            let band = (0..m).flat_map(move |i| (i + 1..(i + bw + 1).min(m)).map(move |j| (i, j)));
            let row = (0..mid).map(move |j| (mid, j));
            let edge = (m - border..m).flat_map(move |i| (0..m - border).map(move |j| (i, j)));
            spd_with_pattern(n, band.chain(row).chain(edge), seed)
        };
        assert_solve_matches_reference(&holes(n, bw), Some(true))?;
        // A thin band under the same row and border sits near the threshold.
        assert_solve_matches_reference(&holes(n, bw - 8), None)?;
        // A wide one makes columns of up to `bw + 31 + border` = 46..=54 rows
        // in three runs: lanes that carry over from one run into the next.
        assert_solve_matches_reference(&holes(n + 30, bw + 30), Some(true))?;
    }

    /// Scattered couplings keep the indexed encoding; `n = 1` and the
    /// identity have no entries at all.
    #[test]
    fn ldl_solve_is_bitwise_reference_on_scattered(seed in any::<u64>(), n in 1usize..70) {
        let mut rng = Rng::new(seed);
        let pairs: Vec<(usize, usize)> = (0..if n > 1 { n } else { 0 })
            .map(|_| (rng.below(n), rng.below(n)))
            .filter(|(i, j)| i != j)
            .collect();
        assert_solve_matches_reference(&spd_with_pattern(n, pairs, seed), None)?;
        assert_solve_matches_reference(&spd_with_pattern(1, [], seed), Some(false))?;
        assert_solve_matches_reference(&Csr::identity(n), Some(false))?;
    }

    /// `BlockJacobi::apply` is the per-block reference solve, bit for bit,
    /// whichever encoding each block's factor chose.
    #[test]
    fn block_jacobi_apply_is_bitwise_reference(
        seed in any::<u64>(),
        n in 30usize..90,
        bw in 2usize..8,
        blocks in 1usize..5,
    ) {
        // Then wide: blocks of 70+ rows under a band of 46..=51 rows, columns
        // on both sides of the length the backward sweep sums in lanes from.
        for (n, bw) in [(n, bw), (n + 70 * blocks, bw + 44)] {
            let a = banded_spd(n, bw, 0.9, seed);
            let bj = BlockJacobi::with_blocks(&a, blocks, BlockSolver::ExactLdl).unwrap();
            let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.43).cos()).collect();
            let mut z = vec![0.0; n];
            bj.apply(&r, &mut z);
            let part = sparsemat::BlockPartition::new(n, blocks);
            let mut z_ref = r.clone();
            for k in 0..blocks {
                let rows: Vec<usize> = part.range(k).collect();
                let f = SparseLdl::new(&a.extract(&rows, &rows)).unwrap();
                f.solve_reference(&mut z_ref[part.range(k)]);
            }
            for (u, v) in z.iter().zip(&z_ref) {
                prop_assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    /// Factoring through a shared [`LdlWorkspace`] is **bitwise** identical
    /// to factoring with a fresh workspace each time, across a sequence of
    /// systems of varying size (the block-Jacobi setup path: one workspace,
    /// many blocks). A stale flag/lnz/y entry surviving `reset` would show
    /// up here as a flipped bit in some solve.
    #[test]
    fn ldl_workspace_reuse_is_bitwise_identical(
        seed in any::<u64>(),
        n in 5usize..40,
        bw in 1usize..5,
        rounds in 2usize..6,
    ) {
        let mut ws = LdlWorkspace::new();
        for k in 0..rounds {
            // Grow and shrink across rounds so reset() covers both.
            let ni = 5 + (n + k * 7) % 40;
            let a = banded_spd(ni, bw.min(ni - 1), 0.7, seed.wrapping_add(k as u64));
            let fresh = SparseLdl::new(&a).unwrap();
            let reused = SparseLdl::factor_with(&a, &mut ws).unwrap();
            let b: Vec<f64> = (0..ni).map(|i| (i as f64 * 0.31).cos()).collect();
            let x_fresh = fresh.solve(&b);
            let mut x_reused = b.clone();
            reused.solve_in_place(&mut x_reused);
            for (f, r) in x_fresh.iter().zip(&x_reused) {
                prop_assert_eq!(f.to_bits(), r.to_bits());
            }
            // Repeated in-place solves through the same factor are pure.
            let mut again = b.clone();
            reused.solve_in_place(&mut again);
            for (f, r) in again.iter().zip(&x_reused) {
                prop_assert_eq!(f.to_bits(), r.to_bits());
            }
        }
    }

    /// A factorization breakdown (non-SPD input) must not poison the
    /// workspace: the next factorization through the same workspace is
    /// still bitwise identical to a fresh-workspace one.
    #[test]
    fn ldl_workspace_survives_breakdown(seed in any::<u64>(), n in 5usize..30) {
        // Indefinite: an SPD band with one diagonal entry negated.
        let good = banded_spd(n, 2, 0.7, seed);
        let mut coo = sparsemat::Coo::new(n, n);
        for r in 0..n {
            let (cols, vals) = good.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let c = *c as usize;
                let v = if r == n / 2 && c == n / 2 { -v.abs() } else { *v };
                coo.push(r, c, v);
            }
        }
        let bad = coo.to_csr();
        let mut ws = LdlWorkspace::new();
        prop_assert!(SparseLdl::factor_with(&bad, &mut ws).is_err());
        let reused = SparseLdl::factor_with(&good, &mut ws).unwrap();
        let fresh = SparseLdl::new(&good).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin()).collect();
        let x_fresh = fresh.solve(&b);
        let mut x_reused = b.clone();
        reused.solve_in_place(&mut x_reused);
        for (f, r) in x_fresh.iter().zip(&x_reused) {
            prop_assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    /// Block Jacobi with one block per row degenerates to Jacobi.
    #[test]
    fn block_jacobi_single_rows_is_jacobi(seed in any::<u64>(), n in 4usize..20) {
        let a = banded_spd(n, 2, 0.8, seed);
        let bj = BlockJacobi::with_blocks(&a, n, BlockSolver::ExactLdl).unwrap();
        let j = Jacobi::new(&a).unwrap();
        let r: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        bj.apply(&r, &mut z1);
        j.apply(&r, &mut z2);
        for (a, b) in z1.iter().zip(&z2) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
