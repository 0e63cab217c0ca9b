//! Property-based tests of the sparse-matrix substrate.

use proptest::prelude::*;
use sparsemat::gen::{banded_spd, mesh_laplacian_2d, MeshOrdering};
use sparsemat::vecops::norm2;
use sparsemat::{BlockPartition, Coo, Rng};

/// Random COO matrices with bounded dimensions and entry counts.
fn coo_strategy() -> impl Strategy<Value = Coo> {
    (2usize..20, 2usize..20, 0usize..120, any::<u64>()).prop_map(|(nr, nc, nnz, seed)| {
        let mut rng = Rng::new(seed);
        let mut coo = Coo::new(nr, nc);
        for _ in 0..nnz {
            coo.push(rng.below(nr), rng.below(nc), rng.range_f64(-2.0, 2.0));
        }
        coo
    })
}

/// Non-square matrices mixing empty, fully dense, and sparse rows — the
/// shapes that stress the run-length segment encoding (long runs) and the
/// unrolled scalar path (short scattered rows) at the same time.
fn mixed_density_strategy() -> impl Strategy<Value = Coo> {
    (2usize..24, 1usize..24, any::<u64>()).prop_map(|(nr, nc, seed)| {
        let mut rng = Rng::new(seed);
        let mut coo = Coo::new(nr, nc);
        for r in 0..nr {
            match rng.below(3) {
                0 => {} // empty row
                1 => {
                    // Dense row: one maximal run.
                    for c in 0..nc {
                        coo.push(r, c, rng.range_f64(-2.0, 2.0));
                    }
                }
                _ => {
                    for _ in 0..rng.below(nc.min(8)) {
                        coo.push(r, rng.below(nc), rng.range_f64(-2.0, 2.0));
                    }
                }
            }
        }
        coo
    })
}

fn probe_vector(n: usize, scale: f64) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * scale).sin()).collect()
}

fn assert_bitwise_eq(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "row {} differs: {} vs {}",
            r,
            g,
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn transpose_is_involution(coo in coo_strategy()) {
        let a = coo.to_csr();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_swaps_spmv(coo in coo_strategy()) {
        // (Aᵀy)·x == y·(Ax) for all x, y.
        let a = coo.to_csr();
        let (nr, nc) = (a.n_rows(), a.n_cols());
        let x: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..nr).map(|i| (i as f64 * 0.3).cos()).collect();
        let ax = a.mul_vec(&x);
        let aty = a.transpose().mul_vec(&y);
        let lhs: f64 = aty.iter().zip(&x).map(|(a, b)| a * b).sum();
        let rhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs().max(rhs.abs())));
    }

    #[test]
    fn csr_rows_are_sorted_and_unique(coo in coo_strategy()) {
        let a = coo.to_csr();
        for r in 0..a.n_rows() {
            let (cols, _) = a.row(r);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(cols.iter().all(|&c| (c as usize) < a.n_cols()));
        }
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_proxy(
        seed in any::<u64>(),
        n in 4usize..30,
    ) {
        // PAPᵀ has the same Rayleigh quotients under permuted vectors:
        // (Px)ᵀ(PAPᵀ)(Px) == xᵀAx.
        let a = banded_spd(n, 3, 0.8, seed);
        let mut rng = Rng::new(seed ^ 0x9999);
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        let pa = a.permute_sym(&perm);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut px = vec![0.0; n];
        for (old, &new) in perm.iter().enumerate() {
            px[new] = x[old];
        }
        let q1: f64 = x.iter().zip(a.mul_vec(&x)).map(|(a, b)| a * b).sum();
        let q2: f64 = px.iter().zip(pa.mul_vec(&px)).map(|(a, b)| a * b).sum();
        prop_assert!((q1 - q2).abs() <= 1e-9 * (1.0 + q1.abs()));
    }

    #[test]
    fn generators_produce_spd(seed in any::<u64>(), bw in 1usize..6, n in 6usize..40) {
        let a = banded_spd(n, bw, 0.6, seed);
        prop_assert!(a.is_symmetric(1e-14));
        prop_assert!(a.to_dense().is_spd());
    }

    #[test]
    fn rcm_is_always_a_permutation(seed in any::<u64>(), side in 3usize..9) {
        let a = mesh_laplacian_2d(side, side, MeshOrdering::Random, seed);
        let perm = sparsemat::order::rcm(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..side * side).collect::<Vec<_>>());
        // Permuting must preserve symmetry and the entry multiset size.
        let p = a.permute_sym(&perm);
        prop_assert_eq!(p.nnz(), a.nnz());
        prop_assert!(p.is_symmetric(1e-14));
    }

    #[test]
    fn partition_covers_exactly(n in 10usize..500, nodes in 1usize..10) {
        prop_assume!(n >= nodes);
        let part = BlockPartition::new(n, nodes);
        let mut seen = vec![false; n];
        for k in 0..nodes {
            for i in part.range(k) {
                prop_assert!(!seen[i], "double coverage at {i}");
                seen[i] = true;
                prop_assert_eq!(part.owner_of(i), k);
            }
            prop_assert!(part.len_of(k) <= part.max_block());
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn extract_matches_dense_indexing(coo in coo_strategy(), sel_seed in any::<u64>()) {
        let a = coo.to_csr();
        let mut rng = Rng::new(sel_seed);
        let rows: Vec<usize> = (0..a.n_rows()).filter(|_| rng.chance(0.5)).collect();
        let cols: Vec<usize> = (0..a.n_cols()).filter(|_| rng.chance(0.5)).collect();
        let sub = a.extract(&rows, &cols);
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                prop_assert_eq!(sub.get(ri, ci), a.get(r, c));
            }
        }
    }

    /// The optimized SpMV (bounds-check-free, unrolled, segment-encoded)
    /// is pinned **bitwise** against the plain textbook loop on random
    /// patterns — the accumulation-order contract of the kernel layer.
    #[test]
    fn spmv_matches_reference_bitwise(coo in coo_strategy()) {
        let a = coo.to_csr();
        let x = probe_vector(a.n_cols(), 0.41);
        let mut y = vec![f64::NAN; a.n_rows()];
        let mut y_ref = vec![f64::NAN; a.n_rows()];
        a.spmv(&x, &mut y);
        a.spmv_reference(&x, &mut y_ref);
        assert_bitwise_eq(&y, &y_ref)?;
    }

    /// Same pin on the shapes that pick the segment-encoded path: empty
    /// rows, fully dense rows, and non-square blocks.
    #[test]
    fn spmv_matches_reference_bitwise_mixed_density(coo in mixed_density_strategy()) {
        let a = coo.to_csr();
        let x = probe_vector(a.n_cols(), 0.19);
        let mut y = vec![f64::NAN; a.n_rows()];
        let mut y_ref = vec![f64::NAN; a.n_rows()];
        a.spmv(&x, &mut y);
        a.spmv_reference(&x, &mut y_ref);
        assert_bitwise_eq(&y, &y_ref)?;
    }

    /// Banded SPD matrices have long per-row runs — the case the run-length
    /// encoding exists for. Still bitwise against the reference.
    #[test]
    fn spmv_matches_reference_bitwise_banded(seed in any::<u64>(), n in 4usize..50, bw in 1usize..8) {
        let a = banded_spd(n, bw, 0.7, seed);
        let x = probe_vector(n, 0.23);
        let mut y = vec![f64::NAN; n];
        let mut y_ref = vec![f64::NAN; n];
        a.spmv(&x, &mut y);
        a.spmv_reference(&x, &mut y_ref);
        assert_bitwise_eq(&y, &y_ref)?;
    }

    /// The fused diag+offdiag kernel (`y = D·x + O·xo` in one row pass) is
    /// bitwise identical to the two-pass form it replaced in
    /// `LocalMatrix::spmv`: per row, both form the two partial sums
    /// left-to-right and add them once.
    #[test]
    fn fused_spmv_matches_two_pass_bitwise(
        nr in 2usize..20,
        nc_diag in 1usize..16,
        nc_off in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::new(seed);
        let mut diag = Coo::new(nr, nc_diag);
        let mut off = Coo::new(nr, nc_off);
        for r in 0..nr {
            for _ in 0..rng.below(nc_diag + 1) {
                diag.push(r, rng.below(nc_diag), rng.range_f64(-2.0, 2.0));
            }
            for _ in 0..rng.below(nc_off + 1) {
                off.push(r, rng.below(nc_off), rng.range_f64(-2.0, 2.0));
            }
        }
        let (diag, off) = (diag.to_csr(), off.to_csr());
        let x = probe_vector(nc_diag, 0.31);
        let xo = probe_vector(nc_off, 0.47);
        let mut fused = vec![f64::NAN; nr];
        diag.spmv_fused(&off, &x, &xo, &mut fused);
        let mut two_pass = vec![0.0; nr];
        diag.spmv(&x, &mut two_pass);
        off.spmv_add(&xo, &mut two_pass);
        assert_bitwise_eq(&fused, &two_pass)?;
    }

    #[test]
    fn spmv_linearity(coo in coo_strategy(), alpha in -3.0f64..3.0) {
        // A(αx + y) == αAx + Ay
        let a = coo.to_csr();
        let nc = a.n_cols();
        let x: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.11).sin()).collect();
        let y: Vec<f64> = (0..nc).map(|i| (i as f64 * 0.23).cos()).collect();
        let mixed: Vec<f64> = x.iter().zip(&y).map(|(a, b)| alpha * a + b).collect();
        let lhs = a.mul_vec(&mixed);
        let ax = a.mul_vec(&x);
        let ay = a.mul_vec(&y);
        let rhs: Vec<f64> = ax.iter().zip(&ay).map(|(a, b)| alpha * a + b).collect();
        let diff: Vec<f64> = lhs.iter().zip(&rhs).map(|(a, b)| a - b).collect();
        prop_assert!(norm2(&diff) <= 1e-9 * (1.0 + norm2(&rhs)));
    }
}
