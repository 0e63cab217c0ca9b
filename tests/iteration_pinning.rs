//! Pinned reference iteration counts.
//!
//! The fused-reduction hot path (2 all-reduces per PCG iteration, 3 per
//! BiCGSTAB iteration) must not change solver behaviour: the convergence
//! test still evaluates ‖r(j+1)‖² of the same residual at the same point
//! of the iteration. These pins catch any accidental semantic drift in the
//! reduction schedule — if a refactor legitimately changes the counts
//! (e.g. a different reduction *order* shifting a borderline iteration),
//! re-pin them consciously in the same commit.

use esr_suite::core::{run_bicgstab, run_pcg, run_pipecg, Problem, SolverConfig};
use esr_suite::parcomm::{CostModel, FailureScript};
use esr_suite::sparsemat::gen::poisson2d;

fn pcg_iters(nodes: usize, grid: usize) -> usize {
    let problem = Problem::with_ones_solution(poisson2d(grid, grid));
    let r = run_pcg(
        &problem,
        nodes,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged, "reference PCG must converge");
    r.iterations
}

fn pipecg_iters(nodes: usize, grid: usize) -> usize {
    let problem = Problem::with_ones_solution(poisson2d(grid, grid));
    let r = run_pipecg(
        &problem,
        nodes,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged, "reference pipelined PCG must converge");
    r.iterations
}

#[test]
fn pcg_reference_iteration_counts_are_pinned() {
    // Each N is its own pin: the block-Jacobi preconditioner blocks follow
    // the partition, so convergence genuinely depends on the cluster size
    // (and the per-rank partial dot products reassociate differently).
    assert_eq!(pcg_iters(4, 16), 17);
    assert_eq!(pcg_iters(7, 16), 31);
    assert_eq!(pcg_iters(8, 16), 22);
}

#[test]
fn pipecg_reference_iteration_counts_are_pinned() {
    // The pipelined recurrences are a reformulation of the same Krylov
    // method; on these well-conditioned problems they converge in exactly
    // the blocking solver's iteration counts (17/31/22). A drift here means
    // the recurrence restructuring changed the numerics.
    assert_eq!(pipecg_iters(4, 16), 17);
    assert_eq!(pipecg_iters(7, 16), 31);
    assert_eq!(pipecg_iters(8, 16), 22);
}

#[test]
fn pipecg_matches_blocking_pcg_converged_solution() {
    let problem = Problem::with_ones_solution(poisson2d(16, 16));
    let blocking = run_pcg(
        &problem,
        8,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    let piped = run_pipecg(
        &problem,
        8,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(blocking.converged && piped.converged);
    let max_diff = blocking
        .x
        .iter()
        .zip(&piped.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        max_diff < 1e-6,
        "pipelined diverged from blocking: {max_diff}"
    );
}

#[test]
fn bicgstab_reference_iteration_counts_are_pinned() {
    let problem = Problem::with_ones_solution(poisson2d(12, 12));
    let r = run_bicgstab(
        &problem,
        4,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged, "reference BiCGSTAB must converge");
    assert_eq!(r.iterations, 10);
}

// ---------------------------------------------------------------------
// Replace-path trajectory pins.
//
// These values were captured on the code that *predates* the shared
// RecoveryEngine (when each solver carried its own copy of the recovery
// protocol). The refactored Replace path must reproduce them bitwise:
// same iteration counts, same final residual to the last ulp. A drift
// here means the engine's reconstruction math deviated from paper
// Alg. 2 — re-pin only with a numerical justification in the same commit.
//
// `solver_residual` is the recursive residual, which never reads `x`. The
// `true_residual` pins read the reconstructed `x`: where two adjacent
// blocks are lost together, the x reconstruction's inner solve runs over a
// coupled `A_{If,If}` on two reconstructors, one eliminated exactly and the
// other iterating on the Schur complement (re-pinned when that elimination
// replaced the loop over both). Blocking PCG's pins here and in the thick
// test moved once more, on purpose, when its iteration went on after a
// reconstruction with the pre-failure rᵀz carried to the replacements,
// where it had restarted with rᵀz re-reduced from the rebuilt r and z:
// the relative moves of `true_residual` were 1.8e-8 here and 2.0e-8 on
// the thick blocks, the counts unchanged.
// ---------------------------------------------------------------------

#[test]
fn replace_recovery_trajectories_are_pinned_bitwise() {
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    let script = || FailureScript::simultaneous(6, 2, 2, 7);

    let r = run_pcg(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script(),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_370_317_738e-8);
    assert_eq!(r.true_residual.to_bits(), 0x3e63_1b7c_6256_7ed5);

    let r = run_pipecg(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script(),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_337_481_355e-8);
    assert_eq!(r.true_residual.to_bits(), 0x3e63_1b7b_ea88_efc2);

    let r = run_bicgstab(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        FailureScript::simultaneous(4, 2, 2, 7),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.iterations, 13);
    assert_eq!(r.solver_residual, 5.429_056_169_617_638e-8);
    assert_eq!(r.true_residual.to_bits(), 0x3e6d_25a3_56a1_b92d);
}

#[test]
fn replace_overlapping_recovery_trajectory_is_pinned_bitwise() {
    // A second failure arriving at restart substep 2 of the first event:
    // the enlarged-set restart must also replay the pre-engine protocol
    // bitwise.
    use esr_suite::parcomm::{FailAt, FailureEvent};
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(5),
            ranks: vec![2],
        },
        FailureEvent {
            when: FailAt::RecoverySubstep {
                after_iteration: 5,
                substep: 2,
            },
            ranks: vec![4],
        },
    ]);
    let r = run_pcg(
        &problem,
        7,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script,
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.ranks_recovered, 2);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_370_293_216e-8);
}

#[test]
fn checkpoint_restart_trajectories_are_pinned_bitwise() {
    // Captured on the code that *predates* folding checkpoint/restart into
    // the RecoveryEngine (when `cr_pcg_node` carried its own PCG loop and
    // its own deposit/rollback protocol). The engine-backed Replace × PCG
    // C/R path must reproduce them bitwise: the fused loop-top reductions
    // are element-wise identical to the old separate ones, the pack layout
    // is unchanged, and rollback restores the exact deposited state.
    use esr_suite::core::{CrConfig, Protection, ResilienceConfig};
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    let cr_cfg = |phi: usize, cr: CrConfig| {
        let mut cfg = SolverConfig::resilient(phi);
        cfg.resilience =
            Some(ResilienceConfig::paper(phi).with_protection(Protection::Checkpoint(cr)));
        cfg
    };

    // Two simultaneous failures at iteration 6, interval 5: rollback to
    // epoch 5 re-executes one iteration.
    let cr = CrConfig::default().with_interval(5).with_copies(2);
    let r = run_pcg(
        &problem,
        7,
        &cr_cfg(2, cr),
        CostModel::default(),
        FailureScript::simultaneous(6, 2, 2, 7),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.recoveries, 1);
    assert_eq!(r.iterations, 20);
    assert_eq!(r.solver_residual, 3.559_024_370_317_102e-8);
    assert_eq!(r.solver_residual.to_bits(), 0x3e63_1b7c_608f_2b29);

    // Single failure at iteration 13 on 4 nodes, one replica per block:
    // rollback to epoch 10 re-executes three iterations.
    let cr = CrConfig::default().with_interval(5).with_copies(1);
    let r = run_pcg(
        &problem,
        4,
        &cr_cfg(1, cr),
        CostModel::default(),
        FailureScript::simultaneous(13, 2, 1, 4),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.recoveries, 1);
    assert_eq!(r.iterations, 19);
    assert_eq!(r.solver_residual, 4.851_781_963_741_809e-8);
    assert_eq!(r.solver_residual.to_bits(), 0x3e6a_0c3d_04e1_3b3c);
}

#[test]
fn thick_block_trajectories_are_pinned_bitwise() {
    // The pins above run on blocks whose LDLᵀ factors have columns of at
    // most 16 stored entries, all summed by the backward sweep's single
    // ascending chain. Here the blocks are 416 rows of a 52-wide band: the
    // factor's columns hold 52 entries and are summed in four position-lanes
    // (precond::ldl, `LANE_MIN`), in the failure-free solve and inside the
    // reconstruction. Captured when the lanes landed (PR 24); CHANGES.md has
    // the single-chain values they replaced.
    let problem = Problem::with_ones_solution(poisson2d(52, 32));
    let script = || FailureScript::simultaneous(6, 1, 2, 4);

    let r = run_pcg(
        &problem,
        4,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.iterations, 28);
    assert_eq!(r.solver_residual.to_bits(), 0x3e72_69e8_00e6_96ba);

    let r = run_pcg(
        &problem,
        4,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script(),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.ranks_recovered, 2);
    assert_eq!(r.iterations, 28);
    assert_eq!(r.solver_residual.to_bits(), 0x3e72_69e8_00eb_e1d0);
    assert_eq!(r.true_residual.to_bits(), 0x3e72_69e8_112c_eaae);

    let r = run_pipecg(
        &problem,
        4,
        &SolverConfig::resilient(2),
        CostModel::default(),
        script(),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.ranks_recovered, 2);
    assert_eq!(r.iterations, 28);
    assert_eq!(r.solver_residual.to_bits(), 0x3e72_69e7_fb52_11e6);
    assert_eq!(r.true_residual.to_bits(), 0x3e72_69e8_6f6b_8cdc);
}

#[test]
fn resilient_pcg_iteration_count_matches_reference() {
    // ESR's whole point (paper Sec. 5): reconstruction is *exact*, so a
    // failure run performs the same mathematical iterations as the
    // reference run plus the restarted one(s).
    let problem = Problem::with_ones_solution(poisson2d(16, 16));
    let reference = run_pcg(
        &problem,
        6,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    let failing = run_pcg(
        &problem,
        6,
        &SolverConfig::resilient(2),
        CostModel::default(),
        FailureScript::simultaneous(5, 1, 2, 6),
    )
    .unwrap();
    assert!(failing.converged);
    assert_eq!(failing.iterations, reference.iterations);
}

#[test]
fn p_given_recovery_trajectory_is_pinned_bitwise() {
    // The P-given reconstruction (paper Alg. 2 lines 5–6) rebuilds `r`
    // from the survivors' values outside `If` and a distributed solve with
    // `P_{If,If}`, the way the x reconstruction rebuilds `x` with `A`. `P`
    // is the explicit inverse of a block Jacobi whose blocks (36 rows) are
    // misaligned with the partition (24 rows), so `P_{If,I\If}` ≠ 0 and
    // both halves of that path run.
    use esr_suite::core::PrecondConfig;
    use esr_suite::precond::{BlockJacobi, BlockSolver};
    use std::sync::Arc;
    let a = poisson2d(12, 12);
    let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
    let p = bj.to_explicit_inverse(&a);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig {
        precond: PrecondConfig::ExplicitP(Arc::new(p)),
        ..SolverConfig::resilient(2)
    };
    let r = run_pcg(
        &problem,
        6,
        &cfg,
        CostModel::default(),
        FailureScript::simultaneous(5, 2, 2, 6),
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.ranks_recovered, 2);
    assert_eq!(r.iterations, 15);
    assert_eq!(r.inner_iterations, 7);
    assert_eq!(r.solver_residual.to_bits(), 0x3e53_08e0_7439_bc48);
    assert_eq!(r.true_residual.to_bits(), 0x3e53_08e0_8a2c_b005);
    assert_eq!(r.vtime.to_bits(), 0x3f2c_229b_4181_adfd);
    assert_eq!(r.vtime_recovery.to_bits(), 0x3ef8_2bf9_60b2_2508);
}
