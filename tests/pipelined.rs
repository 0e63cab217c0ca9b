//! End-to-end tests for the resilient communication-hiding pipelined PCG:
//! numerical agreement with the blocking solver, recovery from single,
//! multiple-simultaneous, and overlapping failures — each a cell of
//! `common::grid` held to its failure-free twin — and the latency-hiding
//! property on the overlap-aware virtual clock.

mod common;

use common::grid::{check, grid, matrix, overlap, Cell, Matrix};
use esr_core::{
    run, run_pipecg, ExperimentResult, PrecondConfig, Problem, RecoveryPolicy, SolverConfig,
    SolverKind as Solver,
};
use parcomm::{CommPhase, CostModel, FailureScript};
use sparsemat::gen::{poisson2d, poisson3d};

const P12: Matrix = matrix!(poisson2d(12, 12));
const P16: Matrix = matrix!(poisson2d(16, 16));

/// A pipelined PCG cell under Replace.
fn pipecg(matrix: Matrix, nodes: usize, phi: usize, schedule: FailureScript) -> Cell {
    Cell {
        solver: Solver::PipeCg,
        ..Cell::new(matrix, nodes, phi, schedule)
    }
}

/// Reference (non-resilient) blocking and pipelined PCG on `nodes`.
fn reference_pair(problem: &Problem, nodes: usize) -> [ExperimentResult; 2] {
    let (cfg, none) = (SolverConfig::reference(), FailureScript::none);
    [Solver::Pcg, Solver::PipeCg]
        .map(|solver| run(solver, problem, nodes, &cfg, CostModel::default(), none()).unwrap())
}

#[test]
fn failure_free_pipecg_matches_blocking_pcg() {
    // Same Krylov method up to rounding: iteration counts nearly agree and
    // both reach the same solution.
    let problem = Problem::with_ones_solution(poisson2d(16, 16));
    for nodes in [6, 8] {
        let [blocking, piped] = reference_pair(&problem, nodes);
        assert!(blocking.converged && piped.converged, "N = {nodes}");
        let (ib, ip) = (blocking.iterations, piped.iterations);
        assert!(
            ib.abs_diff(ip) <= 2,
            "N = {nodes}: blocking {ib} vs pipelined {ip}"
        );
        let diff = |y: &[f64]| {
            (piped.x.iter().zip(y))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        let max_diff = diff(&blocking.x);
        assert!(
            max_diff < 1e-6,
            "N = {nodes}: solutions diverged: {max_diff}"
        );
        let err = diff(&vec![1.0; problem.n()]);
        assert!(err < 1e-6, "N = {nodes}: err = {err}");
    }
}

#[test]
fn pipecg_overlap_reduces_exposed_reduction_time() {
    // The point of the pipelined method: at sensible scale the reduction
    // cost is (largely) hidden behind SpMV + preconditioner work, so the
    // *exposed* reduction-phase time per iteration must come in strictly
    // below blocking PCG's, which pays 2 full reductions per iteration.
    let problem = Problem::with_ones_solution(poisson2d(32, 32));
    for nodes in [8usize, 16] {
        let [blocking, piped] = reference_pair(&problem, nodes);
        assert!(blocking.converged && piped.converged);
        let eb = blocking.exposed_vtime_per_iter(CommPhase::Reduction);
        let ep = piped.exposed_vtime_per_iter(CommPhase::Reduction);
        assert!(
            ep < eb,
            "N={nodes}: pipelined exposed reduction {ep:.3e} !< blocking {eb:.3e}"
        );
        // And some reduction time was genuinely hidden behind compute.
        let hidden = piped.hidden_vtime_per_iter(CommPhase::Reduction);
        assert!(hidden > 0.0, "N={nodes}: no reduction time was hidden");
    }
}

#[test]
fn pipecg_survives_single_failure() {
    let one = FailureScript::simultaneous(5, 1, 1, 4);
    assert!(check(&pipecg(P12, 4, 1, one)).res.vtime_recovery > 0.0);
}

#[test]
fn pipecg_survives_three_simultaneous_failures() {
    let three = FailureScript::simultaneous(8, 2, 3, 7);
    check(&pipecg(matrix!(poisson2d(14, 14)), 7, 3, three));
}

#[test]
fn pipecg_failure_at_iteration_zero() {
    // Edge case: no p(j-1), s, q, z exist yet; only x, r, u, w are live.
    let at_zero = FailureScript::simultaneous(0, 1, 2, 6);
    check(&pipecg(P12, 6, 2, at_zero));
}

#[test]
fn pipecg_overlapping_failure_during_recovery() {
    // A second node fails while the first reconstruction is in progress,
    // at each of the four substep boundaries (restart with enlarged set).
    let overlaps: Vec<_> = (0..4).map(|s| overlap(6, vec![2], &[(s, 3)])).collect();
    let base = Cell::new(P16, 8, 2, FailureScript::none());
    for cell in grid(
        &base,
        &[Solver::PipeCg],
        &[RecoveryPolicy::Replace],
        &overlaps,
    ) {
        check(&cell);
    }
}

#[test]
fn pipecg_two_separate_failure_events() {
    // Redundancy self-heals after each recovery: a later event is
    // recoverable even with φ=1.
    let two = FailureScript::at_iterations(8, &[(4, 2), (11, 5)]);
    check(&pipecg(P16, 8, 1, two));
}

#[test]
fn pipecg_reconstructed_state_matches_failure_free_trajectory() {
    // ESR is *exact*: with failures the solver takes its failure-free
    // twin's iterations to its residual and its x.
    let random_b = Matrix {
        name: "poisson3d(8, 8, 8), random b (seed 42)",
        build: || poisson3d(8, 8, 8),
        rhs_seed: Some(42),
    };
    let three = FailureScript::simultaneous(10, 3, 3, 8);
    check(&pipecg(random_b, 8, 3, three));
}

#[test]
fn pipecg_uneven_partition_with_failures() {
    let uneven = matrix!(poisson2d(13, 11)); // n = 143 over 7 nodes
    check(&pipecg(
        uneven,
        7,
        2,
        FailureScript::simultaneous(5, 0, 2, 7),
    ));
}

#[test]
fn pipecg_rejects_explicit_p() {
    use precond::{BlockJacobi, BlockSolver};
    use std::sync::Arc;
    let a = poisson2d(8, 8);
    let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
    let p = bj.to_explicit_inverse(&a);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig {
        precond: PrecondConfig::ExplicitP(Arc::new(p)),
        ..SolverConfig::reference()
    };
    let none = FailureScript::none;
    let result = std::panic::catch_unwind(|| {
        run_pipecg(&problem, 4, &cfg, CostModel::default(), none()).unwrap()
    });
    assert!(result.is_err(), "ExplicitP must be rejected loudly");
}
