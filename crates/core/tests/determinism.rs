//! Determinism regression test for the event-driven runtime (ISSUE 9).
//!
//! The scheduler dispatches the unique next runnable node by minimum
//! `(virtual time, rank)`, so two runs of the same experiment must replay
//! the identical schedule — not just "the same numbers to within epsilon"
//! but **bitwise-identical** everything: solution vectors, virtual times,
//! communication statistics (including the wait-time histograms, which are
//! sensitive to the exact interleaving of receives), and recovery
//! timelines. The solves are traced, and the serialized span trace must
//! match byte for byte too.
//!
//! This is the property the old thread-per-node runtime could only promise
//! for clock *values* (the clock algebra was scheduling-independent); any
//! observable that depended on host-thread timing — any-source match
//! order, trace event interleavings — was fair game. Now nothing is.

use esr_core::{
    run, run_pcg, CrConfig, Problem, Protection, RecoveryPolicy, SolverConfig, SolverKind,
};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::poisson2d;

fn bits(v: f64) -> u64 {
    v.to_bits()
}

#[test]
fn failure_recovery_solve_is_bitwise_reproducible() {
    let a = poisson2d(13, 13);
    let problem = Problem::with_ones_solution(a);
    let cfg = SolverConfig {
        trace: true,
        ..SolverConfig::resilient(2)
    };
    // Two nodes fail simultaneously mid-solve on a 13-node cluster: the
    // run exercises redundancy traffic, failure detection, group-scoped
    // reconstruction collectives, and the replacement hand-off.
    let run = || {
        run_pcg(
            &problem,
            13,
            &cfg,
            CostModel::default(),
            FailureScript::simultaneous(7, 3, 2, 13),
        )
        .unwrap()
    };
    let r1 = run();
    let r2 = run();

    assert!(r1.converged && r1.recoveries == 1 && r1.ranks_recovered == 2);

    // Solve-level scalars, bitwise.
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.converged, r2.converged);
    assert_eq!(bits(r1.solver_residual), bits(r2.solver_residual));
    assert_eq!(bits(r1.true_residual), bits(r2.true_residual));
    assert_eq!(bits(r1.residual_deviation), bits(r2.residual_deviation));
    assert_eq!(bits(r1.vtime), bits(r2.vtime));
    assert_eq!(bits(r1.vtime_recovery), bits(r2.vtime_recovery));
    assert_eq!(bits(r1.vtime_setup), bits(r2.vtime_setup));

    // The assembled solution, element-wise bitwise.
    assert_eq!(r1.x.len(), r2.x.len());
    for (i, (a, b)) in r1.x.iter().zip(&r2.x).enumerate() {
        assert_eq!(bits(*a), bits(*b), "x[{i}] differs");
    }

    // Cluster-wide communication statistics — `CommStats` equality covers
    // message/element counters, vtime accumulators, and the logarithmic
    // wait/size histograms (whose bucket counts detect any reordering of
    // individual receive charges, not just changed totals).
    assert_eq!(r1.stats, r2.stats);

    // The host work too: every suspension and spawned thread.
    assert_eq!(r1.host, r2.host);

    // Per-node outcomes.
    assert_eq!(r1.per_node.len(), r2.per_node.len());
    for (a, b) in r1.per_node.iter().zip(&r2.per_node) {
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.retired, b.retired);
        assert_eq!(bits(a.residual_norm), bits(b.residual_norm));
        assert_eq!(bits(a.vtime_total), bits(b.vtime_total), "rank {}", a.rank);
        assert_eq!(bits(a.vtime_recovery), bits(b.vtime_recovery));
        assert_eq!(bits(a.vtime_setup), bits(b.vtime_setup));
        assert_eq!(a.stats, b.stats, "rank {} stats differ", a.rank);
        assert_eq!(a.x_loc.len(), b.x_loc.len());
        for (xa, xb) in a.x_loc.iter().zip(&b.x_loc) {
            assert_eq!(bits(*xa), bits(*xb));
        }
    }

    // Recovery timelines: same substeps, same per-substep virtual times.
    assert_eq!(r1.recovery_timelines.len(), r2.recovery_timelines.len());
    for (a, b) in r1.recovery_timelines.iter().zip(&r2.recovery_timelines) {
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.flavor, b.flavor);
        assert_eq!(a.segments.len(), b.segments.len());
        for (sa, sb) in a.segments.iter().zip(&b.segments) {
            assert_eq!(sa.attempt, sb.attempt);
            assert_eq!(sa.label, sb.label);
            assert_eq!(bits(sa.vtime), bits(sb.vtime), "substep {}", sa.label);
        }
    }

    // The full serialized span trace — every event, in order, with its
    // virtual timestamp — must be byte-identical.
    let chrome = |r: &esr_core::ExperimentResult| {
        let trace = r.trace.as_ref().expect("a traced solve returns its trace");
        trace.chrome_trace_json()
    };
    assert_eq!(chrome(&r1), chrome(&r2));
}

/// A solve's host work is a function of its schedule, so it is pinned like
/// a message count. Each cell is solved twice and must agree with itself
/// and with the pin: no thread spawned, and as many node suspensions — a
/// poll that returned `Pending` — as the thread-per-node runtime this
/// replaced parked node threads on the same cell (measured on that
/// runtime; no offset, as it never counted the first baton wait as a
/// park).
#[test]
fn host_work_is_reproducible_and_pinned() {
    let problem = Problem::with_ones_solution(poisson2d(13, 13));
    let traced = |cfg: SolverConfig| SolverConfig { trace: true, ..cfg };
    let shrink = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
    let mut checkpoint = SolverConfig::resilient(2);
    let cr = CrConfig::default().with_interval(5).with_copies(2);
    checkpoint.resilience =
        (checkpoint.resilience).map(|res| res.with_protection(Protection::Checkpoint(cr)));
    let cells = [
        ("pcg esr", SolverKind::Pcg, SolverConfig::resilient(2), 928),
        ("pipecg shrink", SolverKind::PipeCg, shrink, 560),
        (
            "bicgstab checkpoint",
            SolverKind::BiCgStab,
            checkpoint,
            1182,
        ),
    ];
    for (cell, solver, cfg, parks) in cells {
        let cfg = traced(cfg);
        let solve = || {
            let script = FailureScript::simultaneous(7, 3, 2, 13);
            run(solver, &problem, 13, &cfg, CostModel::default(), script).unwrap()
        };
        let (r1, r2) = (solve(), solve());
        assert!(r1.converged && r1.recoveries == 1, "{cell}");
        assert_eq!(r1.host, r2.host, "{cell}");
        assert_eq!(r1.host.threads_spawned, 0, "{cell}");
        assert_eq!(r1.host.suspensions, parks, "{cell}");
    }
}
