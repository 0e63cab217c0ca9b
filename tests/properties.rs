//! Property-based tests over the full stack: the redundancy coverage
//! invariant for arbitrary sparsity patterns, and exactness of the ESR
//! reconstruction on randomized problems.

use proptest::prelude::*;

use std::sync::Arc;

use esr_core::{
    run_bicgstab, run_pcg, run_pipecg, ConfigError, ExperimentResult, PrecondConfig, Problem,
    SolverConfig,
};
use parcomm::{CostModel, FailureScript};
use precond::Preconditioner;
use sparsemat::gen::banded_spd;
use sparsemat::{BlockPartition, Coo, Csr};

/// Random natural-send pattern: for each peer, a random subset of the
/// owned offsets.
fn send_pattern(nodes: usize, my_len: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0..my_len, 0..=my_len), nodes).prop_map(
        move |mut raw| {
            for (k, list) in raw.iter_mut().enumerate() {
                list.sort_unstable();
                list.dedup();
                if k == 0 {
                    list.clear(); // rank 0 is "self" in the tests below
                }
            }
            raw
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eqn. (5)/(6) guarantee: after adding the extra sets, every owned
    /// element has at least φ distinct non-owner holders — for *any*
    /// sparsity pattern, node count, and φ.
    #[test]
    fn redundancy_coverage_invariant(
        nodes in 2usize..9,
        my_len in 1usize..12,
        phi_seed in 0usize..8,
        pattern in send_pattern(9, 12),
    ) {
        let phi = 1 + phi_seed % (nodes - 1).max(1);
        let send_natural: Vec<Vec<usize>> = (0..nodes)
            .map(|k| {
                pattern[k]
                    .iter()
                    .copied()
                    .filter(|&s| s < my_len)
                    .collect()
            })
            .collect();
        let send_natural = send_natural.into();
        let extras = esr_core::redundancy::compute_extra_sends(
            0,
            nodes,
            phi,
            &esr_core::BackupStrategy::Minimal,
            my_len,
            &send_natural,
        );
        prop_assert_eq!(
            esr_core::redundancy::check_coverage(
                0, nodes, phi, my_len, &send_natural, &extras
            ),
            None
        );
    }

    /// Backup targets (Eqn. 5) are always distinct non-self ranks.
    #[test]
    fn backup_targets_always_valid(nodes in 2usize..40, i_seed in 0usize..40, phi_seed in 0usize..40) {
        let i = i_seed % nodes;
        let phi = 1 + phi_seed % (nodes - 1);
        let t = esr_core::redundancy::backup_targets(i, nodes, phi);
        let mut u = t.clone();
        u.sort_unstable();
        u.dedup();
        prop_assert_eq!(u.len(), phi);
        prop_assert!(!t.contains(&i));
    }
}

proptest! {
    // End-to-end solves are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random banded SPD system, any valid failure scenario: the
    /// resilient solver converges to the right solution.
    #[test]
    fn random_system_random_failure_recovers(
        seed in 0u64..1000,
        nodes in 3usize..7,
        psi in 1usize..3,
        fail_at in 1u64..12,
        first_rank in 0usize..7,
    ) {
        let n = 96;
        let a = banded_spd(n, 6, 0.7, seed);
        let problem = Problem::with_ones_solution(a);
        let phi = psi; // tolerate exactly what we inject
        let script = FailureScript::simultaneous(
            fail_at,
            first_rank % nodes,
            psi.min(nodes - 1),
            nodes,
        );
        let mut cfg = SolverConfig::resilient(phi.min(nodes - 1));
        cfg.max_iter = 5000;
        let res = run_pcg(&problem, nodes, &cfg, CostModel::default(), script).unwrap();
        // Banded diagonally dominant systems converge fast; a scheduled
        // failure beyond convergence simply never fires.
        prop_assert!(res.converged);
        let err = res.x.iter().map(|x| (x - 1.0).abs()).fold(0.0, f64::max);
        prop_assert!(err < 1e-5, "err = {err}");
    }

    /// Each sequential `krylov` solver and its distributed counterpart agree
    /// — same iteration count, same solution — on random SPD systems for
    /// any node count that divides evenly or not, with the preconditioner
    /// as node-aligned blocks and as an explicit matrix `P`.
    #[test]
    fn distributed_matches_sequential(
        seed in 0u64..1000,
        nodes in 1usize..9,
        n in 40usize..120,
    ) {
        let a = banded_spd(n, 4, 0.8, seed);
        let problem = Problem::with_random_rhs(a.clone(), seed ^ 0xABCD);
        // Oracle: the sequential solver with node-aligned block Jacobi.
        let part = BlockPartition::new(n, nodes);
        let bj = precond::BlockJacobi::from_partition(
            &a,
            &part,
            precond::BlockSolver::ExactLdl,
        ).unwrap();
        // The P-given variant (paper Alg. 2 lines 5-6): a block Jacobi as an
        // explicit matrix whose blocks are misaligned with the partition,
        // so applying P couples across node boundaries. Its sequential
        // reference is the same matrix behind `ExplicitPrec`.
        let coupled = precond::BlockJacobi::with_blocks(
            &a,
            nodes + 1,
            precond::BlockSolver::ExactLdl,
        ).unwrap();
        let p = Arc::new(coupled.to_explicit_inverse(&a));
        let explicit = precond::ExplicitPrec::new(p.as_ref().clone()).unwrap();
        let block_cfg = SolverConfig::reference();
        let explicit_cfg = SolverConfig {
            precond: PrecondConfig::ExplicitP(p),
            ..SolverConfig::reference()
        };
        let cases: [(&str, Distributed, Sequential, &SolverConfig, &dyn Preconditioner); 4] = [
            ("pcg", run_pcg, krylov::pcg, &block_cfg, &bj),
            ("pipecg", run_pipecg, krylov::pipecg, &block_cfg, &bj),
            ("bicgstab", run_bicgstab, krylov::bicgstab, &block_cfg, &bj),
            ("pcg/explicit-P", run_pcg, krylov::pcg, &explicit_cfg, &explicit),
        ];
        for (name, distributed, sequential, cfg, prec) in cases {
            let res = distributed(
                &problem,
                nodes,
                cfg,
                CostModel::default(),
                FailureScript::none(),
            ).unwrap();
            prop_assert!(res.converged, "{name}");
            let seq = sequential(&a, &problem.b, &vec![0.0; n], prec, 1e-8, 10_000);
            prop_assert!(seq.converged(), "{name}");
            prop_assert_eq!(res.iterations, seq.iterations, "{} iterations", name);
            let scale = seq.x.iter().map(|v| v.abs()).fold(1e-30, f64::max);
            let max_diff = res.x.iter().zip(&seq.x)
                .map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            prop_assert!(max_diff / scale < 1e-5, "{name}: diff {max_diff}");
        }
    }
}

/// A distributed solver entry point and the sequential reference it is
/// compared against (`run_*` and `krylov::*` each share one signature).
type Distributed = fn(
    &Problem,
    usize,
    &SolverConfig,
    CostModel,
    FailureScript,
) -> Result<ExperimentResult, ConfigError>;
type Sequential = fn(&Csr, &[f64], &[f64], &dyn Preconditioner, f64, usize) -> krylov::SolveReport;

/// Deterministic cross-checks (not random, but spanning the stack).
#[test]
fn coo_assembly_order_is_irrelevant() {
    let mut fwd = Coo::new(50, 50);
    let mut rev = Coo::new(50, 50);
    let entries: Vec<(usize, usize, f64)> = (0..200)
        .map(|i| ((i * 7) % 50, (i * 13) % 50, i as f64 * 0.5 - 3.0))
        .collect();
    for &(r, c, v) in &entries {
        fwd.push(r, c, v);
    }
    for &(r, c, v) in entries.iter().rev() {
        rev.push(r, c, v);
    }
    assert_eq!(fwd.to_csr(), rev.to_csr());
}
