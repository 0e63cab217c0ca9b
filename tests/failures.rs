//! End-to-end failure injection on blocking PCG: every failure scenario of
//! the paper's evaluation (Sec. 7.1) plus the corner cases the algorithm
//! must handle, each a cell of `common::grid` held to its failure-free
//! twin. (The same scenarios on pipelined PCG are `tests/pipelined.rs`.)

mod common;

use common::grid::{check, grid, matrix, overlap, Cell, Matrix};
use esr_core::{
    run, run_pcg, BackupStrategy, ConfigError, CrConfig, PrecondConfig, Problem, Protection,
    RecoveryPolicy, SolverConfig, SolverKind as Solver,
};
use parcomm::{CostModel, FailureScript};
use precond::{BlockJacobi, BlockSolver};
use sparsemat::gen::{self, poisson2d, poisson3d};
use sparsemat::{BlockPartition, Csr};
use std::sync::Arc;

const P12: Matrix = matrix!(poisson2d(12, 12));
const P14: Matrix = matrix!(poisson2d(14, 14));
const P16: Matrix = matrix!(poisson2d(16, 16));

#[test]
fn failure_at_each_progress_point() {
    // The paper injects at 20%, 50%, 80% of the reference progress.
    let problem = Problem::with_ones_solution(poisson2d(16, 16));
    let (cfg, cost) = (SolverConfig::reference(), CostModel::default());
    let reference = run_pcg(&problem, 8, &cfg, cost, FailureScript::none());
    let iterations = reference.unwrap().iterations as f64;
    for pct in [0.2, 0.5, 0.8] {
        let at = ((iterations * pct) as u64).max(1);
        let script = FailureScript::simultaneous(at, 4, 3, 8);
        check(&Cell::new(P16, 8, 3, script));
    }
}

#[test]
fn failure_at_iteration_zero() {
    // Edge case: no p(j-1) exists yet (z(0) = p(0), β undefined).
    let script = FailureScript::simultaneous(0, 1, 2, 6);
    check(&Cell::new(P12, 6, 2, script));
}

#[test]
fn psi_less_than_phi() {
    // Tolerating φ=3 but only ψ=1 node fails.
    let script = FailureScript::simultaneous(5, 3, 1, 6);
    check(&Cell::new(P12, 6, 3, script));
}

#[test]
fn two_separate_failure_events() {
    // Sequential (non-overlapping) failures at different iterations: the
    // redundancy self-heals after each recovery, so a later event is
    // recoverable even with φ=1.
    let script = FailureScript::at_iterations(8, &[(4, 2), (11, 5)]);
    check(&Cell::new(P16, 8, 1, script));
}

#[test]
fn back_to_back_failure_events() {
    // Rank k fails at boundary j and rank k + 1 at j + 1 (φ = 2: the chain
    // {k, k + 1}, then {k + 1, k + 2}). The second reconstruction reads
    // the copies of p(j) that the first replacement holds: its `prev`
    // generation, which the repair of iteration j's scatter refilled.
    let (j, k) = (5, 3);
    for phi in [1, 2] {
        let chain: Vec<_> = (0..phi)
            .flat_map(|i| [(j, k + i), (j + 1, k + 1 + i)])
            .collect();
        let base = Cell::new(P16, 8, phi, FailureScript::none());
        let script = FailureScript::at_iterations(8, &chain);
        let solvers = [Solver::Pcg, Solver::BiCgStab];
        for cell in grid(&base, &solvers, &[RecoveryPolicy::Replace], &[script]) {
            check(&cell);
        }
    }
}

#[test]
fn repeated_failure_of_same_rank() {
    let script = FailureScript::at_iterations(4, &[(3, 1), (9, 1)]);
    check(&Cell::new(P16, 4, 1, script));
}

#[test]
fn overlapping_failure_during_recovery() {
    // A second node fails while the first reconstruction is in progress
    // (paper Sec. 4.1: restart with the enlarged failed set).
    for substep in 0..4 {
        check(&Cell::new(P16, 8, 2, overlap(6, vec![2], &[(substep, 3)])));
    }
}

#[test]
fn cascading_overlapping_failures() {
    // Failures at two different recovery substeps: two restarts.
    let cascade = overlap(5, vec![0], &[(1, 4), (2, 7)]);
    check(&Cell::new(matrix!(poisson2d(18, 18)), 9, 3, cascade));
}

#[test]
fn full_block_strategy_survives() {
    check(&Cell {
        tune: |cfg| cfg.resilience.as_mut().unwrap().strategy = BackupStrategy::FullBlock,
        ..Cell::new(P12, 6, 2, FailureScript::simultaneous(5, 1, 2, 6))
    });
}

#[test]
fn consecutive_ring_strategy_survives() {
    check(&Cell {
        tune: |cfg| {
            cfg.resilience.as_mut().unwrap().strategy = BackupStrategy::MinimalConsecutive;
        },
        ..Cell::new(P12, 6, 3, FailureScript::simultaneous(5, 2, 3, 6))
    });
}

#[test]
fn checkpoint_restart_baseline_survives_failures() {
    let cr = CrConfig {
        interval: 4,
        copies: 2,
    };
    check(&Cell {
        protection: Protection::Checkpoint(cr),
        ..Cell::new(P14, 7, 2, FailureScript::simultaneous(9, 1, 2, 7))
    });
}

/// poisson2d(20, 20) − 0.05 at every (r, r + 1).
fn nonsymmetric() -> Csr {
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
    coo.to_csr()
}

#[test]
fn esr_rejects_a_nonsymmetric_matrix_and_cr_recovers_it() {
    // ESR would rebuild a wrong state and report convergence (LDLᵀ block
    // factors, CG for x), so `run` refuses it for every solver; C/R solves
    // nothing and recovers its failure-free twin's x (the judge's bitwise
    // branch).
    let problem = Problem::with_ones_solution(nonsymmetric());
    let (esr, cost) = (SolverConfig::resilient(2), CostModel::default());
    let cr = Protection::Checkpoint(CrConfig::default().with_interval(4).with_copies(2));
    for psi in [1, 2] {
        let script = FailureScript::simultaneous(6, 3, psi, 8);
        for kind in [Solver::Pcg, Solver::PipeCg, Solver::BiCgStab] {
            let err = run(kind, &problem, 8, &esr, cost, script.clone()).unwrap_err();
            assert_eq!(err, ConfigError::EsrNonsymmetric { solver: kind });
        }
        check(&Cell {
            protection: cr.clone(),
            solver: Solver::BiCgStab,
            ..Cell::new(matrix!(nonsymmetric()), 8, 2, script)
        });
    }
}

#[test]
fn ilu_inner_solver_matches_paper_setup() {
    // The paper's PETSc implementation uses ILU for the reconstruction
    // blocks instead of an exact factorization. Adjacent lost blocks share
    // rows of A on both matrices (28-row blocks, band 14 and 12), so the
    // inner solve on A_{If,If} is coupled and must iterate under every
    // solver.
    let solvers = [Solver::Pcg, Solver::PipeCg, Solver::BiCgStab];
    for matrix in [P14, matrix!(gen::banded_spd(196, 12, 0.5, 3))] {
        let base = Cell {
            tune: |cfg| {
                cfg.resilience
                    .as_mut()
                    .unwrap()
                    .recovery
                    .exact_block_precond = false
            },
            ..Cell::new(matrix, 7, 3, FailureScript::none())
        };
        let schedules = [2, 3].map(|psi| FailureScript::simultaneous(6, 2, psi, 7));
        for cell in grid(&base, &solvers, &[RecoveryPolicy::Replace], &schedules) {
            assert!(check(&cell).res.inner_iterations > 0, "{}", cell.label());
        }
    }
}

#[test]
fn explicit_p_reconstruction_with_coupling() {
    // P-given variant (paper Alg. 2 lines 5-6) with a preconditioner that
    // couples across node boundaries: blocks of 36 rows misaligned with the
    // partition's 24, so P_{If,I\If} ≠ 0 and the full gather + distributed
    // P-solve path runs. The boundary ranks 0–1 fail at iteration 3, a cell
    // beside the one tests/iteration_pinning.rs pins (ranks 2–3 at 5): the
    // first block of P lies inside If, the second straddles its edge.
    check(&Cell {
        tune: |cfg| {
            let a = poisson2d(12, 12);
            let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
            cfg.precond = PrecondConfig::ExplicitP(Arc::new(bj.to_explicit_inverse(&a)));
        },
        ..Cell::new(P12, 6, 2, FailureScript::simultaneous(3, 0, 2, 6))
    });
}

#[test]
fn esr_state_matches_failure_free_state() {
    // The reconstruction is *exact*: a run with failures takes its
    // failure-free twin's iterations to its residual and its x.
    let random_b = Matrix {
        name: "poisson3d(8, 8, 8), random b (seed 42)",
        build: || poisson3d(8, 8, 8),
        rhs_seed: Some(42),
    };
    let script = FailureScript::simultaneous(10, 3, 3, 8);
    check(&Cell::new(random_b, 8, 3, script));
}

#[test]
fn wraparound_failure_ranks() {
    // Contiguous failed ranks that wrap around the ring (N-1, 0).
    let script = FailureScript::simultaneous(4, 5, 2, 6);
    check(&Cell::new(P12, 6, 2, script));
}

#[test]
fn uneven_partition_with_failures() {
    // n not divisible by N: some nodes own ⌈n/N⌉, others ⌊n/N⌋ rows.
    let part = BlockPartition::new(143, 7);
    assert_ne!(part.len_of(0), part.len_of(6));
    let uneven = matrix!(poisson2d(13, 11)); // n = 143 over 7 nodes
    let script = FailureScript::simultaneous(5, 0, 2, 7);
    check(&Cell::new(uneven, 7, 2, script));
}

#[test]
fn all_paper_matrix_classes_survive_failures() {
    // Tiny instances of all eight Table-1 analogs survive 2 simultaneous
    // failures with φ=2.
    fn suite<const I: usize>() -> Csr {
        gen::generate(gen::suite::all_ids()[I], 0.0005)
    }
    let suite = [
        matrix!(suite::<0>()),
        matrix!(suite::<1>()),
        matrix!(suite::<2>()),
        matrix!(suite::<3>()),
        matrix!(suite::<4>()),
        matrix!(suite::<5>()),
        matrix!(suite::<6>()),
        matrix!(suite::<7>()),
    ];
    for matrix in suite {
        check(&Cell {
            tune: |cfg| cfg.max_iter = 20_000,
            ..Cell::new(matrix, 4, 2, FailureScript::simultaneous(2, 1, 2, 4))
        });
    }
}

#[test]
fn more_failures_than_phi_is_unrecoverable() {
    // ψ > φ must be detected and reported, not silently mis-recovered.
    let problem = Problem::with_ones_solution(poisson2d(10, 10));
    let script = FailureScript::simultaneous(4, 0, 3, 5); // ψ=3 > φ=1
    let (cfg, cost) = (SolverConfig::resilient(1), CostModel::default());
    let result = std::panic::catch_unwind(|| run_pcg(&problem, 5, &cfg, cost, script).unwrap());
    assert!(result.is_err(), "ψ > φ must fail loudly");
}

#[test]
fn failures_with_eight_simultaneous_nodes() {
    // The paper's largest scenario: ψ = φ = 8.
    let script = FailureScript::simultaneous(6, 4, 8, 16);
    check(&Cell::new(matrix!(poisson2d(24, 24)), 16, 8, script));
}
