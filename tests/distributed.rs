//! Cross-crate integration tests of the failure-free distributed solver:
//! numerical parity with the sequential baselines, overhead accounting
//! consistency with the analytical model, and scaling edge cases.

use esr_core::{analysis, run_pcg, BackupStrategy, PrecondConfig, Problem, SolverConfig};
use parcomm::{CommPhase, CostModel, FailureScript};
use sparsemat::gen::{self, poisson2d, poisson3d};
use sparsemat::BlockPartition;

fn cost() -> CostModel {
    CostModel::default()
}

#[test]
fn single_node_cluster_works() {
    let a = poisson2d(10, 10);
    let problem = Problem::with_ones_solution(a);
    let res = run_pcg(
        &problem,
        1,
        &SolverConfig::reference(),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(res.converged);
    // Exact block Jacobi on one node == a direct solve: 1-2 iterations.
    assert!(res.iterations <= 2, "iterations {}", res.iterations);
    let err = res.x.iter().map(|x| (x - 1.0).abs()).fold(0.0, f64::max);
    assert!(err < 1e-8);
}

#[test]
fn iterations_agree_across_node_counts() {
    // Block Jacobi weakens with more blocks, so iteration counts grow
    // with N — but the answer must not change.
    let a = poisson3d(6, 6, 6);
    let problem = Problem::with_random_rhs(a, 17);
    let mut prev_iters = 0;
    for nodes in [2usize, 4, 8] {
        let res = run_pcg(
            &problem,
            nodes,
            &SolverConfig::reference(),
            cost(),
            FailureScript::none(),
        )
        .unwrap();
        assert!(res.converged, "N={nodes}");
        assert!(
            res.iterations >= prev_iters,
            "block Jacobi should weaken with N: {} then {}",
            prev_iters,
            res.iterations
        );
        prev_iters = res.iterations;
        assert!(res.relative_residual() <= 1e-8);
    }
}

#[test]
fn redundancy_traffic_matches_analysis() {
    // The measured per-iteration redundancy elements must equal the
    // prediction computed from the matrix pattern alone (Sec. 4.2).
    let a = poisson2d(16, 16);
    let part = BlockPartition::new(256, 8);
    for phi in [1usize, 3] {
        let predicted =
            analysis::predict_overhead(&a, &part, phi, &BackupStrategy::Minimal, &cost());
        let problem = Problem::with_ones_solution(a.clone());
        let res = run_pcg(
            &problem,
            8,
            &SolverConfig::resilient(phi),
            cost(),
            FailureScript::none(),
        )
        .unwrap();
        assert!(res.converged);
        let measured = res.stats.elems(CommPhase::Redundancy);
        assert_eq!(
            measured,
            (predicted.total_extra_elems * res.iterations) as u64,
            "φ={phi}: measured {measured}, predicted/iter {}",
            predicted.total_extra_elems
        );
    }
}

#[test]
fn undisturbed_overhead_grows_with_phi() {
    // Table 2's "relative overhead undisturbed" column: vtime grows with
    // the number of redundant copies.
    let a = poisson3d(8, 8, 8);
    let problem = Problem::with_random_rhs(a, 5);
    let t0 = run_pcg(
        &problem,
        8,
        &SolverConfig::reference(),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    let mut prev = t0.vtime;
    for phi in [1usize, 3, 7] {
        let res = run_pcg(
            &problem,
            8,
            &SolverConfig::resilient(phi),
            cost(),
            FailureScript::none(),
        )
        .unwrap();
        assert_eq!(res.iterations, t0.iterations, "φ={phi}: same numerics");
        assert!(
            res.vtime >= prev,
            "φ={phi}: vtime {} should be ≥ {}",
            res.vtime,
            prev
        );
        prev = res.vtime;
    }
}

#[test]
fn plain_cg_and_jacobi_variants_work_distributed() {
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    for precond in [PrecondConfig::None, PrecondConfig::Jacobi] {
        let cfg = SolverConfig {
            precond,
            max_iter: 5000,
            ..SolverConfig::reference()
        };
        let res = run_pcg(&problem, 6, &cfg, cost(), FailureScript::none()).unwrap();
        assert!(res.converged);
        let err = res.x.iter().map(|x| (x - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6);
    }
}

#[test]
fn vclock_separates_setup_from_solve() {
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let res = run_pcg(
        &problem,
        4,
        &SolverConfig::reference(),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(res.vtime_setup > 0.0);
    assert!(res.vtime > 0.0);
    assert_eq!(res.vtime_recovery, 0.0);
}

#[test]
fn vtime_is_deterministic_across_runs() {
    // The virtual clock is a function of the algorithm, not the host's
    // thread scheduling: repeated runs agree bitwise.
    let a = poisson2d(10, 10);
    let problem = Problem::with_ones_solution(a);
    let r1 = run_pcg(
        &problem,
        5,
        &SolverConfig::resilient(2),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    let r2 = run_pcg(
        &problem,
        5,
        &SolverConfig::resilient(2),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    assert_eq!(r1.vtime, r2.vtime);
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.solver_residual, r2.solver_residual);
}

#[test]
fn suite_matrices_solve_distributed() {
    for id in gen::suite::all_ids() {
        let a = gen::generate(id, 0.0005);
        let problem = Problem::with_ones_solution(a);
        let mut cfg = SolverConfig::reference();
        cfg.max_iter = 20_000;
        let res = run_pcg(&problem, 4, &cfg, cost(), FailureScript::none()).unwrap();
        assert!(res.converged, "{id:?}");
        let err = res.x.iter().map(|x| (x - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-5, "{id:?}: err {err}");
    }
}

#[test]
fn wall_and_virtual_time_both_recorded() {
    let a = poisson2d(8, 8);
    let problem = Problem::with_ones_solution(a);
    let res = run_pcg(
        &problem,
        2,
        &SolverConfig::reference(),
        cost(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(res.wall.as_nanos() > 0);
    assert!(res.vtime > 0.0);
}
