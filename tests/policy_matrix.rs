//! The full recovery scenario matrix through the shared `RecoveryEngine`:
//!
//! {ESR, Checkpoint} × {Replace, Spares(1), Shrink} × {PCG, PipeCG, BiCGSTAB}
//!                   × {single, simultaneous, overlapping}
//!
//! at N = 7 and N = 13 (non-power-of-two collective sizes, uneven
//! partitions). Before the engine existed this grid had 3 working cells
//! (the three failure modes on blocking PCG × Replace, plus the PCG-only
//! policy module); every cell now runs through one shared protocol — and
//! since the checkpoint/restart fold, both protection flavors share the
//! attempt loop, so the C/R half of the grid rides the same machinery.
//!
//! The pinned invariant everywhere: reconstruction at the failure
//! boundary is *exact* — the solve converges to the usual tolerance and
//! the solution error stays below 1e-6 under every policy, whether the
//! failed subdomains were rebuilt on replacement nodes, partially covered
//! from an undersized spare pool (mixed replace + adopt events), or
//! adopted by survivors on a shrunken cluster.
//!
//! `Spares(1)` is deliberately *undersized* for the ψ = 2 scenarios: one
//! failed rank gets the spare and rebuilds in place, the other is adopted
//! — the mixed event exercises both halves of the engine at once.

use esr_core::{
    run, CrConfig, ExperimentResult, Problem, Protection, RecoveryPolicy, SolverConfig,
    SolverKind as Solver,
};
use parcomm::{CostModel, FailAt, FailureEvent, FailureScript};
use sparsemat::gen::{banded_spd, poisson2d};

const SOLVERS: [Solver; 3] = [Solver::Pcg, Solver::PipeCg, Solver::BiCgStab];

fn policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::Replace,
        RecoveryPolicy::Spares(1),
        RecoveryPolicy::Shrink,
    ]
}

#[derive(Clone, Copy, Debug)]
enum Failure {
    /// One rank dies.
    Single,
    /// Two ranks die at the same boundary.
    Simultaneous,
    /// A second rank dies at restart substep `s` of the first recovery.
    Overlapping(u32),
}

fn script(mode: Failure, at: u64, first: usize, nodes: usize) -> FailureScript {
    match mode {
        Failure::Single => FailureScript::simultaneous(at, first, 1, nodes),
        Failure::Simultaneous => FailureScript::simultaneous(at, first, 2, nodes),
        Failure::Overlapping(substep) => FailureScript::new(vec![
            FailureEvent {
                when: FailAt::Iteration(at),
                ranks: vec![first],
            },
            FailureEvent {
                when: FailAt::RecoverySubstep {
                    after_iteration: at,
                    substep,
                },
                ranks: vec![(first + 2) % nodes],
            },
        ]),
    }
}

fn failed_count(mode: Failure) -> usize {
    match mode {
        Failure::Single => 1,
        _ => 2,
    }
}

#[derive(Clone, Copy, Debug)]
enum Prot {
    Esr,
    Cr,
}

/// `phi` under `policy`; C/R deposits every 4 iterations, `phi` replicas
/// per block.
fn config(prot: Prot, policy: RecoveryPolicy, phi: usize) -> SolverConfig {
    let mut cfg = SolverConfig::resilient_with_policy(phi, policy);
    if matches!(prot, Prot::Cr) {
        let res = cfg.resilience.take().unwrap();
        cfg.resilience = Some(res.with_protection(Protection::Checkpoint(
            CrConfig::default().with_interval(4).with_copies(phi),
        )));
    }
    cfg
}

fn max_err_ones(res: &ExperimentResult) -> f64 {
    res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max)
}

fn run_cell(
    solver: Solver,
    policy: RecoveryPolicy,
    mode: Failure,
    nodes: usize,
    grid: (usize, usize),
    at: u64,
    first: usize,
) -> ExperimentResult {
    run_cell_prot(Prot::Esr, solver, policy, mode, nodes, grid, at, first)
}

#[allow(clippy::too_many_arguments)]
fn run_cell_prot(
    prot: Prot,
    solver: Solver,
    policy: RecoveryPolicy,
    mode: Failure,
    nodes: usize,
    grid: (usize, usize),
    at: u64,
    first: usize,
) -> ExperimentResult {
    let a = poisson2d(grid.0, grid.1);
    let problem = Problem::with_ones_solution(a);
    let cfg = config(prot, policy, 2);
    let cost = CostModel::default();
    let sc = script(mode, at, first, nodes);
    let res = run(solver, &problem, nodes, &cfg, cost, sc)
        .expect("every engine-backed cell is a supported configuration");
    let label = format!("{prot:?} × {solver:?} × {policy:?} × {mode:?} (N={nodes})");
    assert!(res.converged, "{label}: did not converge");
    let err = max_err_ones(&res);
    assert!(err < 1e-6, "{label}: reconstruction not exact, err={err}");
    assert_eq!(res.recoveries, 1, "{label}");
    assert_eq!(res.ranks_recovered, failed_count(mode), "{label}");
    // Where the policy left ranks uncovered, they retired and their
    // subdomains were adopted; the assembled solution is still complete
    // (checked by the exactness bound above, which spans every row).
    let expect_retired = match policy {
        RecoveryPolicy::Replace => 0,
        RecoveryPolicy::Spares(k) => failed_count(mode).saturating_sub(k),
        RecoveryPolicy::Shrink => failed_count(mode),
    };
    assert_eq!(res.retired_nodes(), expect_retired, "{label}");
    // Every completed recovery leaves a per-substep virtual-time timeline
    // on the result: one per recovery event, flavored by the protection,
    // with the final attempt covering all five substep labels and no
    // negative segment durations.
    assert_eq!(res.recovery_timelines.len(), 1, "{label}: timeline count");
    let tl = &res.recovery_timelines[0];
    let (flavor, substeps): (&str, [&str; 5]) = match prot {
        Prot::Esr => ("esr", ["setup", "gather", "rebuild", "xsolve", "commit"]),
        Prot::Cr => ("cr", ["setup", "fetch", "epoch", "idle", "commit"]),
    };
    assert_eq!(tl.flavor, flavor, "{label}: timeline flavor");
    assert!(!tl.segments.is_empty(), "{label}: empty substep timeline");
    let last_attempt = tl.segments.iter().map(|s| s.attempt).max().unwrap();
    for want in substeps {
        assert!(
            tl.segments
                .iter()
                .any(|s| s.attempt == last_attempt && s.label == want),
            "{label}: final attempt lacks substep {want:?}"
        );
    }
    assert!(
        tl.segments.iter().all(|s| s.vtime >= 0.0),
        "{label}: negative substep vtime"
    );
    res
}

#[test]
fn single_failure_full_matrix_n7() {
    for solver in SOLVERS {
        for policy in policies() {
            run_cell(solver, policy, Failure::Single, 7, (14, 14), 5, 3);
        }
    }
}

#[test]
fn simultaneous_failures_full_matrix_n7() {
    // ψ = 2 > the Spares(1) pool: a *mixed* event — rank 2 rebuilds on the
    // spare, rank 3 is adopted by a survivor, in one recovery.
    for solver in SOLVERS {
        for policy in policies() {
            run_cell(solver, policy, Failure::Simultaneous, 7, (14, 14), 5, 2);
        }
    }
}

#[test]
fn overlapping_failures_full_matrix_n7() {
    // A second node dies at every restart substep of the first event
    // (paper Sec. 4.1: restart with the enlarged failed set) — under
    // Spares(1)/Shrink the restart must also re-derive the grant and the
    // adoption plan.
    for solver in SOLVERS {
        for policy in policies() {
            for substep in 0..4 {
                run_cell(
                    solver,
                    policy,
                    Failure::Overlapping(substep),
                    7,
                    (14, 14),
                    5,
                    2,
                );
            }
        }
    }
}

#[test]
fn full_matrix_n13() {
    // The same grid at N = 13: fold-in/out collective sizes, uneven
    // 13-way partition of a 15×15 grid, wrap-around failed ranks. One
    // overlap substep suffices here (all four are swept at N = 7).
    for solver in SOLVERS {
        for policy in policies() {
            run_cell(solver, policy, Failure::Single, 13, (15, 15), 4, 7);
            run_cell(solver, policy, Failure::Simultaneous, 13, (15, 15), 6, 11);
            run_cell(solver, policy, Failure::Overlapping(2), 13, (15, 15), 5, 6);
        }
    }
}

#[test]
fn checkpoint_protection_full_matrix_n7() {
    // The C/R half of the protection axis: every solver × policy cell
    // runs single, simultaneous, and overlapping failures through the
    // rollback flavor (deposits every 4 iterations, 2 replicas per block).
    for solver in SOLVERS {
        for policy in policies() {
            run_cell_prot(Prot::Cr, solver, policy, Failure::Single, 7, (14, 14), 5, 3);
            run_cell_prot(
                Prot::Cr,
                solver,
                policy,
                Failure::Simultaneous,
                7,
                (14, 14),
                5,
                2,
            );
            run_cell_prot(
                Prot::Cr,
                solver,
                policy,
                Failure::Overlapping(2),
                7,
                (14, 14),
                5,
                2,
            );
        }
    }
}

#[test]
fn checkpoint_protection_full_matrix_n13() {
    for solver in SOLVERS {
        for policy in policies() {
            run_cell_prot(
                Prot::Cr,
                solver,
                policy,
                Failure::Single,
                13,
                (15, 15),
                4,
                7,
            );
            run_cell_prot(
                Prot::Cr,
                solver,
                policy,
                Failure::Simultaneous,
                13,
                (15, 15),
                6,
                11,
            );
        }
    }
}

#[test]
fn spares_cover_then_run_dry_for_every_solver() {
    // Two events against a pool of 2: the first (ψ=2) consumes the whole
    // pool (pure replacement, no retirement), the second (ψ=1) finds it
    // dry and shrinks. Exercises the pool bookkeeping end-to-end on every
    // engine-backed solver.
    for solver in SOLVERS {
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Spares(2));
        let cost = CostModel::default();
        let sc = FailureScript::at_iterations(7, &[(3, 1), (3, 5), (9, 2)]);
        let res = run(solver, &problem, 7, &cfg, cost, sc).unwrap();
        assert!(res.converged, "{solver:?}");
        let err = res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "{solver:?}: err={err}");
        assert_eq!(res.recoveries, 2, "{solver:?}");
        assert_eq!(res.ranks_recovered, 3, "{solver:?}");
        assert_eq!(res.retired_nodes(), 1, "{solver:?}");
    }
}

#[test]
fn shrink_after_shrink_for_every_solver() {
    // Failure → shrink → another failure on the already-shrunken cluster:
    // the second event runs on a non-uniform partition over a group
    // communicator, with re-derived redundancy targets — for all three
    // engine-backed solvers, whose preconditioner stays the setup
    // partition's through both shrinks.
    for solver in SOLVERS {
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
        let cost = CostModel::default();
        let sc = FailureScript::at_iterations(7, &[(3, 4), (9, 0)]);
        let res = run(solver, &problem, 7, &cfg, cost, sc).unwrap();
        assert!(res.converged, "{solver:?}");
        let err = res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "{solver:?}: err={err}");
        assert_eq!(res.recoveries, 2, "{solver:?}");
        assert_eq!(res.retired_nodes(), 2, "{solver:?}");
    }
}

#[test]
fn a_former_adopter_fails_for_every_solver() {
    // Under Shrink rank 3 adopts rank 4's block at iteration 3, then fails
    // itself at iteration 9: rank 2 rebuilds a block that covers two setup
    // blocks, and the `M` it multiplies and solves that block with must be
    // theirs, the one rank 3 applied. (Spares(1) spends its spare on rank
    // 4 and adopts rank 3's own block.)
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    for prot in [Prot::Esr, Prot::Cr] {
        for (policy, retired) in [(RecoveryPolicy::Shrink, 2), (RecoveryPolicy::Spares(1), 1)] {
            for solver in SOLVERS {
                let sc = FailureScript::at_iterations(7, &[(3, 4), (9, 3)]);
                let cfg = config(prot, policy, 2);
                let res = run(solver, &problem, 7, &cfg, CostModel::default(), sc).unwrap();
                let label = format!("{prot:?} × {solver:?} × {policy:?}");
                assert!(res.converged, "{label}");
                let err = max_err_ones(&res);
                assert!(err < 1e-6, "{label}: err={err}");
                assert_eq!(res.recoveries, 2, "{label}");
                assert_eq!(res.retired_nodes(), retired, "{label}");
            }
        }
    }
}

#[test]
fn a_split_run_recovers_for_every_solver() {
    // Under Shrink ranks 3–4 fail: rank 2 rebuilds both blocks, keeps
    // block 3 and hands block 4 over to rank 5. (a) Rank 5 fails at
    // substep 2 of that recovery, before the hand-over: the restart covers
    // ranks 3–5 and rank 6 takes block 5. (b) Rank 5 fails at iteration 9,
    // after taking block 4: rank 2 rebuilds a block widened on the left,
    // with the two setup blocks of `M` rank 5 applied.
    //
    // When ranks 3–5 fail, no member may hold more than two of the seven
    // setup blocks: rank 2 rebuilds blocks 3–5, keeps 3–4 and hands block
    // 5 to rank 6, and it hands its own block 2 to rank 1. (c) Rank 1,
    // which receives block 2, fails at substep 2 of that recovery: the
    // restart covers ranks 1 and 3–5. (d) Rank 2, which gave block 2 away,
    // fails at iteration 9: rank 1 rebuilds blocks 3–4, keeps block 3 and
    // hands block 4 to rank 6.
    //
    // A run of three at either end moves survivors away from their own
    // blocks altogether, so their new rows share nothing with their old
    // ones: (e) ranks 0–2 fail, rank 3 rebuilds them and keeps blocks 0–1,
    // rank 4 takes blocks 2–3; (f) ranks 4–6 fail, rank 3 rebuilds them
    // and keeps blocks 5–6, rank 2 takes blocks 3–4.
    let problem = Problem::with_ones_solution(poisson2d(14, 14));
    let overlap = |first: Vec<usize>, then: usize| {
        FailureScript::new(vec![
            FailureEvent {
                when: FailAt::Iteration(6),
                ranks: first,
            },
            FailureEvent {
                when: FailAt::RecoverySubstep {
                    after_iteration: 6,
                    substep: 2,
                },
                ranks: vec![then],
            },
        ])
    };
    // (case, φ, script, recoveries, retired nodes)
    let cases = [
        ("a", 3, overlap(vec![3, 4], 5), 1, 3),
        (
            "b",
            2,
            FailureScript::at_iterations(7, &[(3, 3), (3, 4), (9, 5)]),
            2,
            3,
        ),
        ("c", 3, overlap(vec![3, 4, 5], 1), 1, 4),
        (
            "d",
            3,
            FailureScript::at_iterations(7, &[(6, 3), (6, 4), (6, 5), (9, 2)]),
            2,
            4,
        ),
        (
            "e",
            3,
            FailureScript::at_iterations(7, &[(6, 0), (6, 1), (6, 2)]),
            1,
            3,
        ),
        (
            "f",
            3,
            FailureScript::at_iterations(7, &[(6, 4), (6, 5), (6, 6)]),
            1,
            3,
        ),
    ];
    for prot in [Prot::Esr, Prot::Cr] {
        for (case, phi, sc, recoveries, retired) in &cases {
            for solver in SOLVERS {
                let cfg = config(prot, RecoveryPolicy::Shrink, *phi);
                let res = run(solver, &problem, 7, &cfg, CostModel::default(), sc.clone()).unwrap();
                let label = format!("({case}) {prot:?} × {solver:?}");
                assert!(res.converged, "{label}");
                let err = max_err_ones(&res);
                assert!(err < 1e-6, "{label}: err={err}");
                assert_eq!(res.recoveries, *recoveries, "{label}");
                assert_eq!(res.retired_nodes(), *retired, "{label}");
            }
        }
    }
}

#[test]
fn spares_and_shrink_follow_replace_for_every_solver() {
    // `M` is the setup partition's block-Jacobi preconditioner under every
    // policy, so when ranks 3–4 (φ = 2) or 2–4 (φ = 3) fail, a Spares(1)
    // or Shrink cell runs the Replace cell's trajectory: the same
    // iterations, and `x` up to the reduction order of the shrunken group.
    // A Shrink splits the run between the members around it.
    let events = [(3, 2), (2, 3)];
    for a in [poisson2d(14, 14), banded_spd(196, 12, 0.5, 3)] {
        let problem = Problem::with_ones_solution(a);
        for prot in [Prot::Esr, Prot::Cr] {
            for ((first, psi), solver) in events.into_iter().flat_map(|e| SOLVERS.map(|s| (e, s))) {
                let solve = |policy| {
                    let sc = FailureScript::simultaneous(6, first, psi, 7);
                    let cfg = config(prot, policy, psi);
                    run(solver, &problem, 7, &cfg, CostModel::default(), sc).unwrap()
                };
                let replace = solve(RecoveryPolicy::Replace);
                for policy in [RecoveryPolicy::Spares(1), RecoveryPolicy::Shrink] {
                    let res = solve(policy);
                    let label = format!("{prot:?} × {solver:?} × {policy:?}, ψ = {psi}");
                    assert!(res.converged && res.retired_nodes() > 0, "{label}");
                    assert_eq!(res.iterations, replace.iterations, "{label}");
                    let dx = (res.x.iter().zip(&replace.x))
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    assert!(dx <= 1e-12, "{label}: max |x − x_replace| = {dx:e}");
                }
            }
        }
    }
}

#[test]
fn shrink_to_single_survivor_for_every_solver() {
    // ψ = φ = N−1 under Shrink: a single survivor adopts the entire
    // system and finishes the solve alone — for all three solvers.
    for solver in SOLVERS {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let cfg = SolverConfig::resilient_with_policy(4, RecoveryPolicy::Shrink);
        let cost = CostModel::default();
        let sc = FailureScript::simultaneous(4, 1, 4, 5);
        let res = run(solver, &problem, 5, &cfg, cost, sc).unwrap();
        assert!(res.converged, "{solver:?}");
        let err = res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "{solver:?}: err={err}");
        assert_eq!(res.retired_nodes(), 4, "{solver:?}");
        let survivor = res.per_node.iter().find(|o| !o.retired).unwrap();
        assert_eq!(survivor.x_loc.len(), 12 * 12, "{solver:?}");
    }
}

#[test]
fn shrink_at_iteration_zero_for_every_solver() {
    // Failure at the first boundary: PCG/PipeCG have no p(j-1) yet (the
    // adopter reconstructs from the current-generation copies alone and
    // the recurrences restart through the β = 0 branch); BiCGSTAB has
    // already scattered both of its channels.
    for solver in SOLVERS {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
        let cost = CostModel::default();
        let sc = FailureScript::simultaneous(0, 1, 2, 6);
        let res = run(solver, &problem, 6, &cfg, cost, sc).unwrap();
        assert!(res.converged, "{solver:?}");
        let err = res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max);
        assert!(err < 1e-6, "{solver:?}: err={err}");
        assert_eq!(res.retired_nodes(), 2, "{solver:?}");
    }
}

#[test]
fn covered_spares_match_replace_bitwise_for_every_solver() {
    // While the pool covers every failure, Spares runs the *identical*
    // engine path as Replace — iterations, residual, and virtual time
    // must agree exactly, for all three solvers.
    let a = poisson2d(14, 14);
    let problem = Problem::with_ones_solution(a);
    let cost = CostModel::default();
    let script = || FailureScript::simultaneous(5, 2, 2, 7);
    for solver in SOLVERS {
        let replace = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Replace);
        let spares = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Spares(4));
        let a_res = run(solver, &problem, 7, &replace, cost, script()).unwrap();
        let b_res = run(solver, &problem, 7, &spares, cost, script()).unwrap();
        assert_eq!(a_res.iterations, b_res.iterations, "{solver:?}");
        assert_eq!(a_res.solver_residual, b_res.solver_residual, "{solver:?}");
        assert_eq!(a_res.vtime, b_res.vtime, "{solver:?}");
        assert_eq!(b_res.retired_nodes(), 0, "{solver:?}");
    }
}

#[test]
fn checkpoint_recovery_matches_its_failure_free_twin_bitwise() {
    // A rollback restores the deposited state and replays the lost
    // iterations on the same partition, so under Replace and a covering
    // spare pool the recovered run *is* the failure-free run: iterations,
    // residual and every entry of x agree to the bit. (Shrink changes the
    // partition and with it the reduction order, so it is left out.)
    let cost = CostModel::default();
    let events = [
        (1, FailureScript::simultaneous(13, 2, 1, 6)),
        (2, FailureScript::simultaneous(9, 1, 2, 6)),
    ];
    for a in [poisson2d(14, 14), banded_spd(300, 5, 0.6, 7)] {
        let problem = Problem::with_ones_solution(a);
        for solver in SOLVERS {
            for (phi, failures) in &events {
                for policy in [RecoveryPolicy::Replace, RecoveryPolicy::Spares(2)] {
                    let label = format!("{solver:?} × {policy:?} × φ={phi} (n={})", problem.n());
                    let cfg = config(Prot::Cr, policy, *phi);
                    let twin = run(solver, &problem, 6, &cfg, cost, FailureScript::none()).unwrap();
                    let res = run(solver, &problem, 6, &cfg, cost, failures.clone()).unwrap();
                    assert_eq!(res.recoveries, 1, "{label}: the failure must strike");
                    assert!(twin.converged, "{label}");
                    assert_eq!(res.iterations, twin.iterations, "{label}");
                    assert_eq!(
                        res.solver_residual.to_bits(),
                        twin.solver_residual.to_bits(),
                        "{label}"
                    );
                    assert_eq!(res.x.len(), twin.x.len(), "{label}");
                    for (i, (r, t)) in res.x.iter().zip(&twin.x).enumerate() {
                        assert_eq!(r.to_bits(), t.to_bits(), "{label}: x[{i}]");
                    }
                }
            }
        }
    }
}
