//! End-to-end failure-injection tests across the full stack: every failure
//! scenario of the paper's evaluation (Sec. 7.1) plus the corner cases the
//! algorithm must handle.

use esr_core::{run, run_pcg, BackupStrategy, PrecondConfig, Problem, SolverConfig, SolverKind};
use parcomm::{CostModel, FailAt, FailureEvent, FailureScript};
use precond::{BlockJacobi, BlockSolver};
use sparsemat::gen::{self, poisson2d, poisson3d};
use sparsemat::BlockPartition;
use std::sync::Arc;

fn max_err_ones(res: &esr_core::ExperimentResult) -> f64 {
    res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max)
}

fn cost() -> CostModel {
    CostModel::default()
}

#[test]
fn failure_at_each_progress_point() {
    // The paper injects at 20%, 50%, 80% of the reference progress.
    let a = poisson2d(16, 16);
    let problem = Problem::with_ones_solution(a);
    let reference = run_pcg(
        &problem,
        8,
        &SolverConfig::reference(),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(reference.converged);
    for pct in [0.2, 0.5, 0.8] {
        let at = ((reference.iterations as f64 * pct) as u64).max(1);
        let script = FailureScript::simultaneous(at, 4, 3, 8);
        let res = run_pcg(&problem, 8, &SolverConfig::resilient(3), cost(), script).unwrap();
        assert!(res.converged, "pct={pct}");
        assert_eq!(res.recoveries, 1, "pct={pct}");
        assert!(
            max_err_ones(&res) < 1e-6,
            "pct={pct} err={}",
            max_err_ones(&res)
        );
    }
}

#[test]
fn failure_at_iteration_zero() {
    // Edge case: no p(j-1) exists yet (z(0) = p(0), β undefined).
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(0, 1, 2, 6);
    let res = run_pcg(&problem, 6, &SolverConfig::resilient(2), cost(), script).unwrap();
    assert!(res.converged);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn psi_less_than_phi() {
    // Tolerating φ=3 but only ψ=1 node fails.
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(5, 3, 1, 6);
    let res = run_pcg(&problem, 6, &SolverConfig::resilient(3), cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.ranks_recovered, 1);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn two_separate_failure_events() {
    // Sequential (non-overlapping) failures at different iterations: the
    // redundancy self-heals after each recovery, so a later event is
    // recoverable even with φ=1.
    let a = poisson2d(16, 16);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(4),
            ranks: vec![2],
        },
        FailureEvent {
            when: FailAt::Iteration(11),
            ranks: vec![5],
        },
    ]);
    let res = run_pcg(&problem, 8, &SolverConfig::resilient(1), cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.recoveries, 2);
    assert_eq!(res.ranks_recovered, 2);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn back_to_back_failure_events() {
    // Rank k fails at boundary j and rank k + 1 at j + 1 (φ = 2: the chain
    // {k, k + 1}, then {k + 1, k + 2}). The second reconstruction reads
    // the copies of p(j) that the first replacement holds: its `prev`
    // generation, which the repair of iteration j's scatter refilled.
    let problem = Problem::with_ones_solution(poisson2d(16, 16));
    let (nodes, j, k) = (8, 5, 3);
    for solver in [SolverKind::Pcg, SolverKind::BiCgStab] {
        for phi in [1, 2] {
            let event = |at: u64, first: usize| FailureEvent {
                when: FailAt::Iteration(at),
                ranks: (first..first + phi).collect(),
            };
            let script = FailureScript::new(vec![event(j, k), event(j + 1, k + 1)]);
            let cfg = SolverConfig::resilient(phi);
            let twin = run(solver, &problem, nodes, &cfg, cost(), FailureScript::none()).unwrap();
            let res = run(solver, &problem, nodes, &cfg, cost(), script).unwrap();
            let at = format!("{solver:?}, φ = {phi}");
            assert!(res.converged, "{at}");
            assert_eq!(res.recoveries, 2, "{at}");
            assert_eq!(res.ranks_recovered, 2 * phi, "{at}");
            assert!(
                max_err_ones(&res) < 1e-6,
                "{at}: err {}",
                max_err_ones(&res)
            );
            assert!(
                res.iterations.abs_diff(twin.iterations) <= 2,
                "{at}: {} iterations, the failure-free twin {}",
                res.iterations,
                twin.iterations
            );
        }
    }
}

#[test]
fn repeated_failure_of_same_rank() {
    let a = poisson2d(16, 16);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(3),
            ranks: vec![1],
        },
        FailureEvent {
            when: FailAt::Iteration(9),
            ranks: vec![1],
        },
    ]);
    let res = run_pcg(&problem, 4, &SolverConfig::resilient(1), cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.recoveries, 2);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn overlapping_failure_during_recovery() {
    // A second node fails while the first reconstruction is in progress
    // (paper Sec. 4.1: restart with the enlarged failed set).
    let a = poisson2d(16, 16);
    let problem = Problem::with_ones_solution(a);
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
                ranks: vec![3],
            },
        ]);
        let res = run_pcg(&problem, 8, &SolverConfig::resilient(2), cost(), script).unwrap();
        assert!(res.converged, "substep={substep}");
        assert_eq!(res.recoveries, 1, "substep={substep}");
        assert_eq!(res.ranks_recovered, 2, "substep={substep}");
        assert!(
            max_err_ones(&res) < 1e-6,
            "substep={substep} err={}",
            max_err_ones(&res)
        );
    }
}

#[test]
fn cascading_overlapping_failures() {
    // Failures at two different recovery substeps: two restarts.
    let a = poisson2d(18, 18);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::new(vec![
        FailureEvent {
            when: FailAt::Iteration(5),
            ranks: vec![0],
        },
        FailureEvent {
            when: FailAt::RecoverySubstep {
                after_iteration: 5,
                substep: 1,
            },
            ranks: vec![4],
        },
        FailureEvent {
            when: FailAt::RecoverySubstep {
                after_iteration: 5,
                substep: 2,
            },
            ranks: vec![7],
        },
    ]);
    let res = run_pcg(&problem, 9, &SolverConfig::resilient(3), cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.recoveries, 1);
    assert_eq!(res.ranks_recovered, 3);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn full_block_strategy_survives() {
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let mut cfg = SolverConfig::resilient(2);
    cfg.resilience.as_mut().unwrap().strategy = BackupStrategy::FullBlock;
    let script = FailureScript::simultaneous(5, 1, 2, 6);
    let res = run_pcg(&problem, 6, &cfg, cost(), script).unwrap();
    assert!(res.converged);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn consecutive_ring_strategy_survives() {
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let mut cfg = SolverConfig::resilient(3);
    cfg.resilience.as_mut().unwrap().strategy = BackupStrategy::MinimalConsecutive;
    let script = FailureScript::simultaneous(5, 2, 3, 6);
    let res = run_pcg(&problem, 6, &cfg, cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.ranks_recovered, 3);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn checkpoint_restart_baseline_survives_failures() {
    use esr_core::{CrConfig, Protection, ResilienceConfig};
    let a = poisson2d(14, 14);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(9, 1, 2, 7);
    let cr = CrConfig {
        interval: 4,
        copies: 2,
    };
    let mut cfg = SolverConfig::resilient(2);
    cfg.resilience = Some(ResilienceConfig::paper(2).with_protection(Protection::Checkpoint(cr)));
    let res = run_pcg(&problem, 7, &cfg, cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.recoveries, 1);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn esr_rejects_a_nonsymmetric_matrix_and_cr_recovers_it() {
    // poisson2d(20, 20) − 0.05 at every (r, r + 1): ESR would rebuild a
    // wrong state and report convergence (LDLᵀ block factors, CG for x),
    // so `run` refuses it for every solver; C/R solves nothing and
    // recovers its failure-free twin's x.
    use esr_core::{ConfigError, CrConfig, Protection, ResilienceConfig};
    let a = poisson2d(20, 20);
    let n = a.n_rows();
    let mut coo = sparsemat::Coo::new(n, n);
    for r in 0..n {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(r, c as usize, v);
        }
        if r + 1 < n {
            coo.push(r, r + 1, -0.05);
        }
    }
    let problem = Problem::with_ones_solution(coo.to_csr());
    let esr = SolverConfig::resilient(2);
    let mut cr = SolverConfig::resilient(2);
    cr.resilience = Some(
        ResilienceConfig::paper(2).with_protection(Protection::Checkpoint(
            CrConfig::default().with_interval(4).with_copies(2),
        )),
    );
    let solver = SolverKind::BiCgStab;
    let twin = run(solver, &problem, 8, &cr, cost(), FailureScript::none()).unwrap();
    assert!(twin.converged);
    for psi in [1, 2] {
        let script = || FailureScript::simultaneous(6, 3, psi, 8);
        for kind in [SolverKind::Pcg, SolverKind::PipeCg, solver] {
            let err = run(kind, &problem, 8, &esr, cost(), script()).unwrap_err();
            assert_eq!(err, ConfigError::EsrNonsymmetric { solver: kind });
        }
        let res = run(solver, &problem, 8, &cr, cost(), script()).unwrap();
        assert!(res.converged && res.recoveries == 1, "ψ = {psi}");
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&res.x), bits(&twin.x), "ψ = {psi}");
    }
}

#[test]
fn ilu_inner_solver_matches_paper_setup() {
    // The paper's PETSc implementation uses ILU for the reconstruction
    // blocks instead of an exact factorization. Adjacent lost blocks share
    // rows of A on both matrices (28-row blocks, band 14 and 12), so the
    // inner solve on A_{If,If} is coupled and must iterate under every
    // solver.
    let mut cfg = SolverConfig::resilient(3);
    cfg.resilience
        .as_mut()
        .unwrap()
        .recovery
        .exact_block_precond = false;
    for (name, a) in [
        ("poisson2d", poisson2d(14, 14)),
        ("banded_spd", gen::banded_spd(196, 12, 0.5, 3)),
    ] {
        let problem = Problem::with_ones_solution(a);
        for solver in [SolverKind::Pcg, SolverKind::PipeCg, SolverKind::BiCgStab] {
            for psi in [2, 3] {
                let label = format!("{name}, {solver:?}, ψ = {psi}");
                let script = FailureScript::simultaneous(6, 2, psi, 7);
                let res = run(solver, &problem, 7, &cfg, cost(), script).unwrap();
                assert!(res.converged, "{label}");
                assert_eq!(res.ranks_recovered, psi, "{label}");
                let err = max_err_ones(&res);
                assert!(err < 1e-6, "{label}: err={err}");
                assert!(res.inner_iterations > 0, "{label}");
            }
        }
    }
}

#[test]
fn explicit_p_reconstruction_with_coupling() {
    // P-given variant (paper Alg. 2 lines 5-6) with a preconditioner that
    // couples across node boundaries: blocks misaligned with the
    // partition, so P_{If,I\If} ≠ 0 and the full gather + distributed
    // P-solve path runs.
    let a = poisson2d(12, 12); // n = 144 over 6 nodes: blocks of 24
    let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap(); // blocks of 36
    let p = bj.to_explicit_inverse(&a);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig {
        precond: PrecondConfig::ExplicitP(Arc::new(p)),
        ..SolverConfig::resilient(2)
    };
    let script = FailureScript::simultaneous(5, 2, 2, 6);
    let res = run_pcg(&problem, 6, &cfg, cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.ranks_recovered, 2);
    assert!(max_err_ones(&res) < 1e-6, "err={}", max_err_ones(&res));
}

#[test]
fn esr_state_matches_failure_free_state() {
    // The reconstruction is *exact*: with exact local solves, a run with
    // failures converges in (almost exactly) the same number of
    // iterations to (almost exactly) the same residual as the clean run.
    let a = poisson3d(8, 8, 8);
    let problem = Problem::with_random_rhs(a, 42);
    let clean = run_pcg(
        &problem,
        8,
        &SolverConfig::resilient(3),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    let script = FailureScript::simultaneous(10, 3, 3, 8);
    let failed = run_pcg(&problem, 8, &SolverConfig::resilient(3), cost(), script).unwrap();
    assert!(clean.converged && failed.converged);
    assert!(
        clean.iterations.abs_diff(failed.iterations) <= 2,
        "clean {} vs failed {}",
        clean.iterations,
        failed.iterations
    );
    let max_diff = clean
        .x
        .iter()
        .zip(&failed.x)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let scale = clean.x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    assert!(
        max_diff / scale < 1e-6,
        "solutions diverged: {max_diff} (scale {scale})"
    );
}

#[test]
fn wraparound_failure_ranks() {
    // Contiguous failed ranks that wrap around the ring (N-1, 0).
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(4, 5, 2, 6); // ranks 5, 0
    let res = run_pcg(&problem, 6, &SolverConfig::resilient(2), cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.ranks_recovered, 2);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn uneven_partition_with_failures() {
    // n not divisible by N: some nodes own ⌈n/N⌉, others ⌊n/N⌋ rows.
    let a = poisson2d(13, 11); // n = 143 over 7 nodes
    let problem = Problem::with_ones_solution(a);
    let part = BlockPartition::new(143, 7);
    assert_ne!(part.len_of(0), part.len_of(6));
    let script = FailureScript::simultaneous(5, 0, 2, 7);
    let res = run_pcg(&problem, 7, &SolverConfig::resilient(2), cost(), script).unwrap();
    assert!(res.converged);
    assert!(max_err_ones(&res) < 1e-6);
}

#[test]
fn all_paper_matrix_classes_survive_failures() {
    // Tiny instances of all eight Table-1 analogs survive 2 simultaneous
    // failures with φ=2.
    for id in gen::suite::all_ids() {
        let a = gen::generate(id, 0.0005);
        let n = a.n_rows();
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(2, 1, 2, 4);
        let mut cfg = SolverConfig::resilient(2);
        cfg.max_iter = 20_000;
        let res = run_pcg(&problem, 4, &cfg, cost(), script).unwrap();
        assert!(res.converged, "{id:?} (n={n}) did not converge");
        assert_eq!(res.recoveries, 1, "{id:?}");
        assert!(
            max_err_ones(&res) < 1e-5,
            "{id:?} err={}",
            max_err_ones(&res)
        );
    }
}

#[test]
fn more_failures_than_phi_is_unrecoverable() {
    // ψ > φ must be detected and reported, not silently mis-recovered.
    let a = poisson2d(10, 10);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(4, 0, 3, 5); // ψ=3 > φ=1
    let result = std::panic::catch_unwind(|| {
        run_pcg(&problem, 5, &SolverConfig::resilient(1), cost(), script).unwrap()
    });
    assert!(result.is_err(), "ψ > φ must fail loudly");
}

#[test]
fn failures_with_eight_simultaneous_nodes() {
    // The paper's largest scenario: ψ = φ = 8.
    let a = poisson2d(24, 24);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(6, 4, 8, 16);
    let res = run_pcg(&problem, 16, &SolverConfig::resilient(8), cost(), script).unwrap();
    assert!(res.converged);
    assert_eq!(res.ranks_recovered, 8);
    assert!(max_err_ones(&res) < 1e-6, "err={}", max_err_ones(&res));
}
