//! Static data is derived once per `Problem` (`esr_core::statics`).
//!
//! Two properties, checked from outside the crate:
//!
//! * **counting** — which solves extract a block of `A` or factor one, read
//!   off the store's counters: the first solve at a cluster size builds one
//!   of each per node, and nothing after it does except a Shrink, whose
//!   widened rows are new (its preconditioner is not: the setup blocks'
//!   factors serve it) and, under ESR, so is the x solve's failed-row block;
//! * **bitwise** — a cell solved on a fresh `Problem` and the same cell
//!   solved on a `Problem` other cells have already filled agree to the
//!   bit in everything the result reports, virtual times included: the
//!   flops are charged by whoever *uses* a block, so who computed it is
//!   invisible. The bitwise cells are traced, and their Chrome traces must
//!   agree byte for byte too.

use esr_core::{
    run, CrConfig, ExperimentResult, Problem, Protection, RecoveryPolicy, SolverConfig, SolverKind,
    StaticCounts,
};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::suite::{self, PaperMatrix};

const NODES: usize = 7;
const SOLVERS: [SolverKind; 3] = [SolverKind::Pcg, SolverKind::PipeCg, SolverKind::BiCgStab];

/// The scattered circuit analog (M3) at ≈ 400 rows: not a stencil, so the
/// seven blocks differ in shape, fill and ghost sets.
fn m3_problem() -> Problem {
    Problem::with_random_rhs(suite::generate(PaperMatrix::M3, 2.5e-4), 11)
}

/// Traced, so every bitwise comparison covers the Chrome trace too.
fn config(policy: RecoveryPolicy, checkpoint: bool) -> SolverConfig {
    let mut cfg = SolverConfig::resilient_with_policy(3, policy);
    cfg.trace = true;
    if checkpoint {
        let res = cfg.resilience.take().expect("resilient config");
        cfg.resilience = Some(res.with_protection(Protection::Checkpoint(
            CrConfig::default().with_interval(4).with_copies(3),
        )));
    }
    cfg
}

/// ψ = 3 adjacent ranks (2, 3, 4) fail at iteration 5.
fn three_failures() -> FailureScript {
    FailureScript::simultaneous(5, 2, 3, NODES)
}

fn solve(
    problem: &Problem,
    solver: SolverKind,
    cfg: &SolverConfig,
    script: FailureScript,
) -> ExperimentResult {
    let res = run(solver, problem, NODES, cfg, CostModel::default(), script)
        .expect("a supported configuration");
    assert!(res.converged, "{solver:?} did not converge");
    res
}

/// What `f` added to `problem`'s store.
fn built_by(problem: &Problem, f: impl FnOnce()) -> (usize, usize) {
    let before = problem.static_counts();
    f();
    let after = problem.static_counts();
    (
        after.blocks_built - before.blocks_built,
        after.factors_built - before.factors_built,
    )
}

#[test]
fn only_the_first_solve_and_new_shrink_ranges_derive_static_data() {
    let problem = m3_problem();
    assert_eq!(problem.static_counts(), StaticCounts::default());
    let reference = SolverConfig::reference();
    let none = FailureScript::none;

    let first = built_by(&problem, || {
        solve(&problem, SolverKind::Pcg, &reference, none());
    });
    assert_eq!(
        first,
        (NODES, NODES),
        "first solve: one block + factor per node"
    );
    let second = built_by(&problem, || {
        solve(&problem, SolverKind::Pcg, &reference, none());
    });
    assert_eq!(second, (0, 0), "second reference solve");
    let undisturbed = built_by(&problem, || {
        let cfg = config(RecoveryPolicy::Replace, false);
        solve(&problem, SolverKind::Pcg, &cfg, none());
    });
    assert_eq!(undisturbed, (0, 0), "undisturbed ESR solve");

    // Replace: setup, the per-block M operators and the x solve's block
    // preconditioner all ask for ranges of the 7-node partition.
    for solver in SOLVERS {
        for checkpoint in [false, true] {
            let cfg = config(RecoveryPolicy::Replace, checkpoint);
            let built = built_by(&problem, || {
                let res = solve(&problem, solver, &cfg, three_failures());
                assert_eq!(res.ranks_recovered, 3);
            });
            assert_eq!(built, (0, 0), "{solver:?}, checkpoint = {checkpoint}");
        }
    }

    // Shrink: no member may hold more than two of the seven setup blocks,
    // so rank 0 takes block 1, rank 1 blocks 2–3 and rank 5 blocks 4–5.
    // Each of the three extracts its new range and factors nothing new —
    // its preconditioner is the setup blocks it now covers, factored at
    // setup. Under ESR rank 1 still rebuilds all three failed blocks, and
    // their union, which preconditions the x solve, is new too, extracted
    // and factored. Every other range is one of the seven.
    for solver in SOLVERS {
        for (checkpoint, built) in [(false, (4, 1)), (true, (3, 0))] {
            // A clone shares the store; a fresh one per cell keeps the
            // cells independent of each other's merged ranges.
            let cell = m3_problem();
            solve(&cell, SolverKind::Pcg, &reference, none());
            let cfg = config(RecoveryPolicy::Shrink, checkpoint);
            let shrink = || {
                let res = solve(&cell.clone(), solver, &cfg, three_failures());
                assert_eq!(res.retired_nodes(), 3);
            };
            let label = format!("{solver:?}, checkpoint = {checkpoint}");
            assert_eq!(built_by(&cell, shrink), built, "{label}");
            assert_eq!(built_by(&cell, shrink), (0, 0), "{label}, repeated");
        }
    }

    // Shrink with ranks 0 and 2 failing: rank 1 rebuilds a block on each
    // side of its own, so its rows of the x solve are not one range of `A`
    // and their block is extracted and factored for that solve only. It
    // keeps block 0 and hands block 2 to rank 3: the store gains the two
    // widened ranges' rows alone, and no factor.
    let cell = m3_problem();
    solve(&cell, SolverKind::Pcg, &reference, none());
    let cfg = config(RecoveryPolicy::Shrink, false);
    let both_sides = || {
        let script = FailureScript::at_iterations(NODES, &[(5, 0), (5, 2)]);
        let res = solve(&cell, SolverKind::Pcg, &cfg, script);
        assert_eq!((res.ranks_recovered, res.retired_nodes()), (2, 2));
        res
    };
    assert_eq!(built_by(&cell, || drop(both_sides())), (2, 0));
    assert_bitwise_equal(&both_sides(), &both_sides(), "adopter of blocks 0 and 2");
}

fn assert_bitwise_equal(cold: &ExperimentResult, warm: &ExperimentResult, label: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&cold.x), bits(&warm.x), "{label}: x");
    assert_eq!(cold.iterations, warm.iterations, "{label}");
    for (what, c, w) in [
        (
            "solver_residual",
            cold.solver_residual,
            warm.solver_residual,
        ),
        ("vtime", cold.vtime, warm.vtime),
        ("vtime_setup", cold.vtime_setup, warm.vtime_setup),
        ("vtime_recovery", cold.vtime_recovery, warm.vtime_recovery),
    ] {
        assert_eq!(c.to_bits(), w.to_bits(), "{label}: {what}");
    }
    assert_eq!(cold.stats, warm.stats, "{label}: stats");
    assert_eq!(cold.recovery_timelines.len(), warm.recovery_timelines.len());
    for (c, w) in cold.recovery_timelines.iter().zip(&warm.recovery_timelines) {
        assert_eq!((c.iteration, c.flavor), (w.iteration, w.flavor), "{label}");
        assert_eq!(c.segments.len(), w.segments.len(), "{label}");
        for (sc, sw) in c.segments.iter().zip(&w.segments) {
            assert_eq!((sc.attempt, sc.label), (sw.attempt, sw.label), "{label}");
            assert_eq!(
                sc.vtime.to_bits(),
                sw.vtime.to_bits(),
                "{label}: {}",
                sc.label
            );
        }
    }
    let chrome = |r: &ExperimentResult| {
        let trace = r.trace.as_ref().expect("a traced solve returns its trace");
        trace.chrome_trace_json()
    };
    assert_eq!(chrome(cold), chrome(warm), "{label}: trace");
}

#[test]
fn a_warm_problem_solves_every_cell_bitwise_like_a_cold_one() {
    // One Problem solves all twelve cells in turn, so every cell but the
    // first meets a store other cells filled (merged Shrink ranges
    // included); each is compared with the same cell on a Problem of its
    // own.
    let warm_problem = m3_problem();
    for solver in SOLVERS {
        for policy in [RecoveryPolicy::Replace, RecoveryPolicy::Shrink] {
            for checkpoint in [false, true] {
                let cfg = config(policy, checkpoint);
                let cold = solve(&m3_problem(), solver, &cfg, three_failures());
                let warm = solve(&warm_problem, solver, &cfg, three_failures());
                assert_eq!(cold.recoveries, 1);
                let label = format!("{solver:?} × {policy:?} × checkpoint = {checkpoint}");
                assert_bitwise_equal(&cold, &warm, &label);
            }
        }
    }
    assert!(warm_problem.static_counts().blocks_built > NODES);
}

#[test]
fn a_replaced_matrix_is_not_served_the_old_blocks() {
    let mut problem = m3_problem();
    let cfg = SolverConfig {
        trace: true,
        ..SolverConfig::reference()
    };
    let none = FailureScript::none;
    solve(&problem, SolverKind::Pcg, &cfg, none());
    let filled = problem.static_counts();

    // Same pattern and partition, heavier diagonal (still SPD): the old
    // blocks and factors would fit and silently solve the wrong system.
    let mut changed = (*problem.a).clone();
    let diag_at: Vec<usize> = (0..changed.n_rows())
        .map(|r| {
            let in_row = changed.row(r).0.iter().position(|&c| c as usize == r);
            changed.row_ptr()[r] + in_row.expect("SPD: stored diagonal")
        })
        .collect();
    for (r, k) in diag_at.into_iter().enumerate() {
        changed.vals_mut()[k] *= 2.0 + (r % 3) as f64;
    }
    let expect = solve(
        &Problem::new(changed.clone(), (*problem.b).clone()),
        SolverKind::Pcg,
        &cfg,
        none(),
    );
    problem.a = std::sync::Arc::new(changed);
    let got = solve(&problem, SolverKind::Pcg, &cfg, none());
    assert_bitwise_equal(&expect, &got, "replaced matrix");
    // The stale store was neither read nor written.
    assert_eq!(problem.static_counts(), filled);

    // A clone shares the store: solving it fills the original's too.
    let original = m3_problem();
    solve(&original.clone(), SolverKind::Pcg, &cfg, none());
    assert_eq!(original.static_counts().factors_built, NODES);
}
