//! The recovery-policy axis beyond `policy_matrix`'s grid: a spare pool
//! large enough to cover every failure (`Spares(8)`), ψ = φ = 3, the
//! `φ = N−1` boundary, pool exhaustion, and the configurations a policy
//! rejects. Every failure cell is held to its failure-free twin by the
//! judge of `common::grid`.

mod common;

use common::grid::{check, grid, matrix, overlap, Cell, Matrix};
use esr_core::{
    run_pcg, ConfigError, CrConfig, PrecondConfig, Problem, Protection, RecoveryPolicy,
    ResilienceConfig, SolverConfig, SolverKind as Solver,
};
use parcomm::{CommPhase, CostModel, FailureScript};
use sparsemat::gen::poisson2d;

const SOLVERS: [Solver; 3] = [Solver::Pcg, Solver::PipeCg, Solver::BiCgStab];
/// `Spares(8)` covers every scenario here, so it takes the grant path.
const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Replace,
    RecoveryPolicy::Spares(8),
    RecoveryPolicy::Shrink,
];
const P12: Matrix = matrix!(poisson2d(12, 12));
const P14: Matrix = matrix!(poisson2d(14, 14));

fn judge_all(cells: Vec<Cell>) {
    for cell in cells {
        check(&cell);
    }
}

#[test]
fn multiple_simultaneous_failures_every_policy_n7() {
    let base = Cell::new(P14, 7, 3, FailureScript::none());
    let three = FailureScript::simultaneous(6, 2, 3, 7);
    judge_all(grid(&base, &SOLVERS, &POLICIES, &[three]));
}

#[test]
fn overlapping_failures_every_policy_n7() {
    // A second node dies at every recovery substep of the first event,
    // and the covering pool replaces both (Replace and the undersized
    // pool and Shrink are `policy_matrix`'s).
    let base = Cell::new(P14, 7, 2, FailureScript::none());
    let overlaps: Vec<_> = (0..4).map(|s| overlap(6, vec![2], &[(s, 4)])).collect();
    let spares = [RecoveryPolicy::Spares(8)];
    judge_all(grid(&base, &SOLVERS, &spares, &overlaps));
}

#[test]
fn scenario_matrix_n13() {
    // φ = 3 at N = 13 (fold-in/out collective sizes, uneven 13-way
    // partition of a 15×15 grid): three ranks wrapping around the ring,
    // and a pair whose recovery a third failure interrupts.
    let p15 = matrix!(poisson2d(15, 15));
    let base = Cell::new(p15, 13, 3, FailureScript::none());
    let schedules = [
        FailureScript::simultaneous(7, 11, 3, 13), // 11, 12, 0
        overlap(5, vec![6, 7], &[(2, 9)]),
    ];
    judge_all(grid(&base, &SOLVERS, &POLICIES, &schedules));
}

#[test]
fn phi_equals_n_minus_one_boundary() {
    // ψ = φ = N−1: the hardest recoverable event. Under Shrink the lone
    // survivor (rank 0) adopts the entire system and finishes alone.
    let base = Cell::new(P14, 7, 6, FailureScript::none());
    let six = FailureScript::simultaneous(5, 1, 6, 7);
    for cell in grid(&base, &[Solver::Pcg], &POLICIES, &[six]) {
        let res = check(&cell).res;
        if cell.policy == RecoveryPolicy::Shrink {
            let survivor = res.per_node.iter().find(|o| !o.retired).unwrap();
            assert_eq!(survivor.x_loc.len(), 14 * 14);
        }
    }
}

#[test]
fn esr_recoveries_proceed_with_the_interrupted_iteration() {
    // An ESR reconstruction rebuilds the lost state exactly, so every
    // solver goes on with the interrupted iteration, in place and after a
    // Shrink: beside the twin's iteration count (the judge), a rank that
    // stays a member takes part in exactly the twin's all-reduces
    // (restarting the iteration would re-issue the reduction it was in).
    let p64 = matrix!(poisson2d(64, 64));
    let base = Cell::new(p64, 16, 2, FailureScript::none());
    let pair = FailureScript::simultaneous(20, 5, 2, 16);
    let policies = [RecoveryPolicy::Replace, RecoveryPolicy::Shrink];
    for cell in grid(&base, &SOLVERS, &policies, &[pair]) {
        let out = check(&cell);
        for r in (0..16).filter(|r| !(5..7).contains(r)) {
            assert_eq!(
                out.res.per_node[r].stats.allreduces(),
                out.twin.per_node[r].stats.allreduces(),
                "{}: rank {r}",
                cell.label()
            );
        }
    }
}

#[test]
fn replace_iteration_counts_are_policy_default_bitwise() {
    // The paper's configuration replaces in place — the trajectories
    // tests/iteration_pinning.rs pins — and a spare pool that covers both
    // failed ranks grants a replacement to each: the same in-place path,
    // so the same trajectory to the bit.
    assert_eq!(ResilienceConfig::paper(2).policy, RecoveryPolicy::Replace);
    let replace = Cell::new(P14, 7, 2, FailureScript::simultaneous(6, 2, 2, 7));
    let spares = Cell {
        policy: RecoveryPolicy::Spares(2),
        ..replace.clone()
    };
    let (r1, r2) = (check(&replace).res, check(&spares).res);
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.solver_residual.to_bits(), r2.solver_residual.to_bits());
    assert_eq!(r1.vtime.to_bits(), r2.vtime.to_bits());
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&r1.x), bits(&r2.x));
}

#[test]
fn spare_pool_exhaustion_falls_back_to_shrink() {
    // Pool of 1, two failure events of 2 ranks each: the first event gets
    // 1 spare (1 replaced, 1 adopted → N shrinks 7→6), the second event
    // finds the pool dry (both adopted → 6→4).
    let script = FailureScript::at_iterations(7, &[(4, 1), (4, 5), (12, 2), (12, 6)]);
    let cell = Cell {
        policy: RecoveryPolicy::Spares(1),
        ..Cell::new(P14, 7, 2, script)
    };
    let res = check(&cell).res;
    assert_eq!(
        (res.recoveries, res.ranks_recovered, res.retired_nodes()),
        (2, 4, 3)
    );
    // The adopters cover the whole system: assembled x is complete.
    let covered: usize = res.per_node.iter().map(|o| o.x_loc.len()).sum();
    assert_eq!(covered, 14 * 14);
}

#[test]
fn shrink_event_naming_retired_rank_is_inert() {
    // The second event names rank 4, which already retired in the first:
    // the hardware is gone, nothing new is lost, the solve just continues.
    let script = FailureScript::at_iterations(6, &[(3, 4), (9, 4)]);
    let cell = Cell {
        policy: RecoveryPolicy::Shrink,
        ..Cell::new(P12, 6, 1, script)
    };
    let res = check(&cell).res;
    assert_eq!((res.recoveries, res.retired_nodes()), (1, 1));
}

#[test]
fn shrink_with_jacobi_and_plain_cg() {
    // The M-given adoption path for the other block-diagonal
    // preconditioner configurations.
    let base = Cell {
        policy: RecoveryPolicy::Shrink,
        ..Cell::new(P12, 6, 2, FailureScript::simultaneous(5, 2, 2, 6))
    };
    check(&Cell {
        tune: |cfg| cfg.precond = PrecondConfig::None,
        ..base.clone()
    });
    check(&Cell {
        tune: |cfg| cfg.precond = PrecondConfig::Jacobi,
        ..base
    });
}

#[test]
fn checkpoint_restart_runs_under_every_policy() {
    // C/R protection composes with the full recovery-policy axis.
    let cr = Protection::Checkpoint(CrConfig::default().with_interval(4).with_copies(2));
    let base = Cell {
        protection: cr,
        ..Cell::new(P12, 6, 2, FailureScript::none())
    };
    let pair = FailureScript::simultaneous(5, 2, 2, 6);
    let policies = [
        RecoveryPolicy::Replace,
        RecoveryPolicy::Spares(2),
        RecoveryPolicy::Shrink,
    ];
    judge_all(grid(&base, &[Solver::Pcg], &policies, &[pair]));
}

#[test]
fn explicit_p_rejects_shrink() {
    use precond::{BlockJacobi, BlockSolver};
    use std::sync::Arc;
    let a = poisson2d(12, 12);
    let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
    let p = bj.to_explicit_inverse(&a);
    let problem = Problem::with_ones_solution(a);
    let mut cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
    cfg.precond = PrecondConfig::ExplicitP(Arc::new(p));
    let (cost, none) = (CostModel::default(), FailureScript::none);
    let err = run_pcg(&problem, 6, &cfg, cost, none())
        .expect_err("P-given reconstruction needs the full cluster");
    match err {
        ConfigError::PrecondUnsupported { constraint, .. } => {
            assert!(constraint.contains("full cluster"), "{constraint}");
        }
        other => panic!("wrong error variant: {other:?}"),
    }
}

#[test]
fn phi_without_a_survivor_is_rejected() {
    let problem = Problem::with_ones_solution(poisson2d(8, 8));
    let cfg = SolverConfig::resilient(4); // φ = N: no survivor holds copies
    let (cost, none) = (CostModel::default(), FailureScript::none);
    let err = run_pcg(&problem, 4, &cfg, cost, none()).expect_err("φ ≥ N must be rejected");
    assert!(
        matches!(err, ConfigError::PhiTooLarge { phi: 4, nodes: 4 }),
        "{err:?}"
    );
}

#[test]
fn converged_at_x0_metrics_are_finite() {
    // b = 0 converges at x(0) = 0 with zero iterations; every per-iteration
    // metric and the relative residual must return 0.0, not NaN (the bench
    // JSON regression this guards).
    let problem = Problem::new(poisson2d(8, 8), vec![0.0; 64]);
    let (cfg, cost, none) = (
        SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none,
    );
    let res = run_pcg(&problem, 4, &cfg, cost, none()).unwrap();
    assert!(res.converged);
    assert_eq!(res.iterations, 0);
    for phase in [CommPhase::Reduction, CommPhase::Spmv, CommPhase::Recovery] {
        assert_eq!(res.exposed_vtime_per_iter(phase), 0.0);
        assert_eq!(res.wait_vtime_per_iter(phase), 0.0);
        assert_eq!(res.hidden_vtime_per_iter(phase), 0.0);
    }
    assert_eq!(res.relative_residual(), 0.0);
}
