//! The recovery-policy scenario matrix: every [`RecoveryPolicy`] ×
//! {single, multiple-simultaneous, overlapping} failures, at
//! non-power-of-two cluster sizes (N = 7, 13) and at the `φ = N−1`
//! boundary. The pinned invariant everywhere: reconstruction at the
//! failure iteration is *exact* — the solve converges to the usual
//! tolerance and the solution error stays below 1e-6 under every policy,
//! whether the failed subdomains were rebuilt on replacement nodes,
//! covered from a finite spare pool, or adopted by survivors on a
//! shrunken cluster.

use esr_core::{run, run_pcg, ExperimentResult, Problem, RecoveryPolicy, SolverConfig, SolverKind};
use parcomm::{CostModel, FailAt, FailureEvent, FailureScript};
use sparsemat::gen::poisson2d;

fn max_err_ones(res: &ExperimentResult) -> f64 {
    res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max)
}

fn cost() -> CostModel {
    CostModel::default()
}

/// The three policies under test; `Spares` gets a pool large enough to
/// cover every scenario of the matrix, so it exercises the grant path
/// (pool-exhaustion scenarios are separate tests below).
fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::Replace,
        RecoveryPolicy::Spares(8),
        RecoveryPolicy::Shrink,
    ]
}

/// One solve under `policy`; checks convergence + exactness and returns
/// the result for policy-specific assertions.
fn solve(
    n_grid: (usize, usize),
    nodes: usize,
    phi: usize,
    policy: RecoveryPolicy,
    script: FailureScript,
) -> ExperimentResult {
    let a = poisson2d(n_grid.0, n_grid.1);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig::resilient_with_policy(phi, policy);
    let res = run_pcg(&problem, nodes, &cfg, cost(), script).unwrap();
    assert!(res.converged, "{policy:?}: did not converge");
    assert!(
        max_err_ones(&res) < 1e-6,
        "{policy:?}: reconstruction not exact, err={}",
        max_err_ones(&res)
    );
    res
}

#[test]
fn single_failure_every_policy_n7() {
    for policy in policies() {
        let res = solve(
            (14, 14),
            7,
            2,
            policy,
            FailureScript::simultaneous(5, 3, 1, 7),
        );
        assert_eq!(res.recoveries, 1, "{policy:?}");
        assert_eq!(res.ranks_recovered, 1, "{policy:?}");
        let expect_retired = match policy {
            RecoveryPolicy::Shrink => 1,
            _ => 0,
        };
        assert_eq!(res.retired_nodes(), expect_retired, "{policy:?}");
    }
}

#[test]
fn multiple_simultaneous_failures_every_policy_n7() {
    for policy in policies() {
        let res = solve(
            (14, 14),
            7,
            3,
            policy,
            FailureScript::simultaneous(6, 2, 3, 7),
        );
        assert_eq!(res.recoveries, 1, "{policy:?}");
        assert_eq!(res.ranks_recovered, 3, "{policy:?}");
        let expect_retired = match policy {
            RecoveryPolicy::Shrink => 3,
            _ => 0,
        };
        assert_eq!(res.retired_nodes(), expect_retired, "{policy:?}");
    }
}

#[test]
fn overlapping_failures_every_policy_n7() {
    // A second node dies at every recovery substep of the first event
    // (paper Sec. 4.1: restart with the enlarged failed set) — under
    // Shrink the restart must also re-derive the adoption plan.
    for policy in policies() {
        for substep in 0..4 {
            let script = FailureScript::new(vec![
                FailureEvent {
                    when: FailAt::Iteration(6),
                    ranks: vec![2],
                },
                FailureEvent {
                    when: FailAt::RecoverySubstep {
                        after_iteration: 6,
                        substep,
                    },
                    ranks: vec![4],
                },
            ]);
            let res = solve((14, 14), 7, 2, policy, script);
            assert_eq!(res.recoveries, 1, "{policy:?} substep={substep}");
            assert_eq!(res.ranks_recovered, 2, "{policy:?} substep={substep}");
        }
    }
}

#[test]
fn scenario_matrix_n13() {
    // The same three failure modes at N = 13 (fold-in/out collective
    // sizes, uneven 13-way partition of a 15×15 grid).
    for policy in policies() {
        let single = solve(
            (15, 15),
            13,
            2,
            policy,
            FailureScript::simultaneous(4, 7, 1, 13),
        );
        assert_eq!(single.ranks_recovered, 1, "{policy:?}");

        let multi = solve(
            (15, 15),
            13,
            3,
            policy,
            FailureScript::simultaneous(7, 11, 3, 13), // wraps: 11, 12, 0
        );
        assert_eq!(multi.ranks_recovered, 3, "{policy:?}");

        let overlapping = solve(
            (15, 15),
            13,
            3,
            policy,
            FailureScript::new(vec![
                FailureEvent {
                    when: FailAt::Iteration(5),
                    ranks: vec![6, 7],
                },
                FailureEvent {
                    when: FailAt::RecoverySubstep {
                        after_iteration: 5,
                        substep: 2,
                    },
                    ranks: vec![9],
                },
            ]),
        );
        assert_eq!(overlapping.ranks_recovered, 3, "{policy:?}");
    }
}

#[test]
fn phi_equals_n_minus_one_boundary() {
    // ψ = φ = N−1: the hardest recoverable event. Under Shrink a single
    // survivor adopts the entire system and finishes the solve alone.
    for policy in policies() {
        let res = solve(
            (14, 14),
            7,
            6,
            policy,
            FailureScript::simultaneous(5, 1, 6, 7),
        );
        assert_eq!(res.ranks_recovered, 6, "{policy:?}");
        if policy == RecoveryPolicy::Shrink {
            assert_eq!(res.retired_nodes(), 6);
            // The lone survivor (rank 0) owns every row afterwards.
            let survivor = res.per_node.iter().find(|o| !o.retired).unwrap();
            assert_eq!(survivor.x_loc.len(), 14 * 14);
        }
    }
}

#[test]
fn esr_recoveries_proceed_with_the_interrupted_iteration() {
    // An ESR reconstruction rebuilds the lost state exactly, so every
    // solver goes on with the interrupted iteration, in place and after a
    // Shrink: it takes its failure-free twin's iteration count, and a rank
    // that stays a member takes part in exactly the twin's all-reduces
    // (restarting the iteration would re-issue the reduction it was in).
    let nodes = 16;
    let problem = Problem::with_ones_solution(poisson2d(64, 64));
    for solver in [SolverKind::Pcg, SolverKind::PipeCg, SolverKind::BiCgStab] {
        for policy in [RecoveryPolicy::Replace, RecoveryPolicy::Shrink] {
            let cfg = SolverConfig::resilient_with_policy(2, policy);
            let solve = |script| run(solver, &problem, nodes, &cfg, cost(), script).unwrap();
            let twin = solve(FailureScript::none());
            let res = solve(FailureScript::simultaneous(20, 5, 2, nodes));
            let cell = format!("{solver:?} {policy:?}");
            assert!(res.converged && res.recoveries == 1, "{cell}");
            assert_eq!(res.iterations, twin.iterations, "{cell}");
            for r in (0..nodes).filter(|r| !(5..7).contains(r)) {
                assert_eq!(
                    res.per_node[r].stats.allreduces(),
                    twin.per_node[r].stats.allreduces(),
                    "{cell}: rank {r}"
                );
            }
        }
    }
}

#[test]
fn replace_iteration_counts_are_policy_default_bitwise() {
    // `Replace` must reproduce the default-policy trajectory bitwise —
    // the pinned counts of tests/iteration_pinning.rs run through the
    // identical code path.
    let a = poisson2d(14, 14);
    let problem = Problem::with_ones_solution(a);
    let script = || FailureScript::simultaneous(6, 2, 2, 7);
    let default_cfg = SolverConfig::resilient(2);
    let explicit = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Replace);
    let r1 = run_pcg(&problem, 7, &default_cfg, cost(), script()).unwrap();
    let r2 = run_pcg(&problem, 7, &explicit, cost(), script()).unwrap();
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.solver_residual, r2.solver_residual);
    assert_eq!(r1.vtime, r2.vtime);
}

#[test]
fn covered_spares_match_replace_trajectory() {
    // While the pool covers every failure, the spare-pool protocol is the
    // same reconstruction math as Replace — iteration counts and the
    // final residual must agree exactly.
    let a = poisson2d(14, 14);
    let problem = Problem::with_ones_solution(a);
    let script = || FailureScript::simultaneous(6, 2, 2, 7);
    let replace = run_pcg(&problem, 7, &SolverConfig::resilient(2), cost(), script()).unwrap();
    let spares = run_pcg(
        &problem,
        7,
        &SolverConfig::resilient_with_policy(2, RecoveryPolicy::Spares(4)),
        cost(),
        script(),
    )
    .unwrap();
    assert_eq!(replace.iterations, spares.iterations);
    assert_eq!(replace.solver_residual, spares.solver_residual);
    assert_eq!(spares.retired_nodes(), 0);
}

#[test]
fn spare_pool_exhaustion_falls_back_to_shrink() {
    // Pool of 1, two failure events of 2 ranks each: the first event gets
    // 1 spare (1 replaced, 1 adopted → N shrinks 7→6), the second event
    // finds the pool dry (both adopted → 6→4).
    let a = poisson2d(14, 14);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(4),
            ranks: vec![1, 5],
        },
        FailureEvent {
            when: FailAt::Iteration(12),
            ranks: vec![2, 6],
        },
    ]);
    let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Spares(1));
    let res = run_pcg(&problem, 7, &cfg, cost(), script).unwrap();
    assert!(res.converged);
    assert!(max_err_ones(&res) < 1e-6, "err={}", max_err_ones(&res));
    assert_eq!(res.recoveries, 2);
    assert_eq!(res.ranks_recovered, 4);
    assert_eq!(res.retired_nodes(), 3); // 4 failed, 1 spare granted
                                        // The adopters cover the whole system: assembled x is complete.
    let covered: usize = res.per_node.iter().map(|o| o.x_loc.len()).sum();
    assert_eq!(covered, 14 * 14);
}

#[test]
fn shrink_survives_failure_after_shrinking() {
    // Failure → shrink → another failure on the already-shrunken cluster:
    // the re-derived redundancy targets of the surviving ring must cover
    // the second event too.
    let a = poisson2d(14, 14);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(3),
            ranks: vec![4],
        },
        FailureEvent {
            when: FailAt::Iteration(11),
            ranks: vec![0],
        },
    ]);
    let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
    let res = run_pcg(&problem, 7, &cfg, cost(), script).unwrap();
    assert!(res.converged);
    assert!(max_err_ones(&res) < 1e-6, "err={}", max_err_ones(&res));
    assert_eq!(res.recoveries, 2);
    assert_eq!(res.retired_nodes(), 2);
}

#[test]
fn shrink_event_naming_retired_rank_is_inert() {
    // The second event names rank 4, which already retired in the first:
    // the hardware is gone, nothing new is lost, the solve just continues.
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(3),
            ranks: vec![4],
        },
        FailureEvent {
            when: FailAt::Iteration(9),
            ranks: vec![4],
        },
    ]);
    let cfg = SolverConfig::resilient_with_policy(1, RecoveryPolicy::Shrink);
    let res = run_pcg(&problem, 6, &cfg, cost(), script).unwrap();
    assert!(res.converged);
    assert!(max_err_ones(&res) < 1e-6);
    assert_eq!(res.recoveries, 1); // second event never fires
    assert_eq!(res.retired_nodes(), 1);
}

#[test]
fn shrink_failure_at_iteration_zero() {
    // No p(j-1) exists yet (z(0) = p(0)); the adopter reconstructs from
    // p(0) copies alone.
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
    let res = run_pcg(
        &problem,
        6,
        &cfg,
        cost(),
        FailureScript::simultaneous(0, 1, 2, 6),
    )
    .unwrap();
    assert!(res.converged);
    assert!(max_err_ones(&res) < 1e-6);
    assert_eq!(res.retired_nodes(), 2);
}

#[test]
fn shrink_with_jacobi_and_plain_cg() {
    // The M-given adoption path for the other block-diagonal
    // preconditioner configurations.
    use esr_core::PrecondConfig;
    for precond in [PrecondConfig::None, PrecondConfig::Jacobi] {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let mut cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
        cfg.precond = precond.clone();
        let res = run_pcg(
            &problem,
            6,
            &cfg,
            cost(),
            FailureScript::simultaneous(5, 2, 2, 6),
        )
        .unwrap();
        assert!(res.converged, "{precond:?}");
        assert!(max_err_ones(&res) < 1e-6, "{precond:?}");
        assert_eq!(res.retired_nodes(), 2, "{precond:?}");
    }
}

#[test]
fn checkpoint_restart_runs_under_every_policy() {
    // The other half of the engine fold: C/R protection composes with the
    // full recovery-policy axis, not just Replace.
    use esr_core::{CrConfig, Protection, ResilienceConfig};
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let cr = CrConfig::default().with_interval(4).with_copies(2);
    for policy in [
        RecoveryPolicy::Replace,
        RecoveryPolicy::Spares(2),
        RecoveryPolicy::Shrink,
    ] {
        let mut cfg = SolverConfig::resilient(2);
        cfg.resilience = Some(
            ResilienceConfig::paper(2)
                .with_policy(policy)
                .with_protection(Protection::Checkpoint(cr.clone())),
        );
        let script = FailureScript::simultaneous(5, 2, 2, 6);
        let res = run_pcg(&problem, 6, &cfg, cost(), script).unwrap();
        assert!(res.converged, "{policy:?}");
        assert_eq!(res.recoveries, 1, "{policy:?}");
        assert!(max_err_ones(&res) < 1e-6, "{policy:?}");
        let expected_retired = if policy == RecoveryPolicy::Shrink {
            2
        } else {
            0
        };
        assert_eq!(res.retired_nodes(), expected_retired, "{policy:?}");
    }
}

#[test]
fn explicit_p_rejects_shrink() {
    use esr_core::ConfigError;
    use precond::{BlockJacobi, BlockSolver};
    use std::sync::Arc;
    let a = poisson2d(12, 12);
    let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
    let p = bj.to_explicit_inverse(&a);
    let problem = Problem::with_ones_solution(a);
    let mut cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
    cfg.precond = esr_core::PrecondConfig::ExplicitP(Arc::new(p));
    let err = run_pcg(&problem, 6, &cfg, cost(), FailureScript::none())
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
    let a = poisson2d(8, 8);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig::resilient(4); // φ = N: no survivor holds copies
    let err = run_pcg(&problem, 4, &cfg, cost(), FailureScript::none())
        .expect_err("φ ≥ N must be rejected");
    assert!(
        matches!(err, esr_core::ConfigError::PhiTooLarge { phi: 4, nodes: 4 }),
        "{err:?}"
    );
}

#[test]
fn converged_at_x0_metrics_are_finite() {
    // b = 0 converges at x(0) = 0 with zero iterations; every per-iteration
    // metric and the relative residual must return 0.0, not NaN (the bench
    // JSON regression this guards).
    let a = poisson2d(8, 8);
    let problem = Problem::new(a, vec![0.0; 64]);
    let res = run_pcg(
        &problem,
        4,
        &SolverConfig::reference(),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(res.converged);
    assert_eq!(res.iterations, 0);
    for phase in [
        parcomm::CommPhase::Reduction,
        parcomm::CommPhase::Spmv,
        parcomm::CommPhase::Recovery,
    ] {
        assert_eq!(res.exposed_vtime_per_iter(phase), 0.0);
        assert_eq!(res.wait_vtime_per_iter(phase), 0.0);
        assert_eq!(res.hidden_vtime_per_iter(phase), 0.0);
    }
    assert_eq!(res.relative_residual(), 0.0);
}
