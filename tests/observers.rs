//! The observers are observational: a traced solve computes and costs
//! exactly what the untraced one does.
//!
//! The tracer reads the virtual clock and never advances it, and the
//! protocol auditor (on wherever debug assertions are) does the same, so
//! one build runs both. Here every solver's ESR Replace failure cell is
//! solved with `SolverConfig::trace` on and off, and everything the result
//! reports must agree to the bit: iterations, `x`, every virtual time, the
//! communication statistics of the cluster and of each node, and the
//! substep timelines of every recovery.

use esr_suite::core::{run, ExperimentResult, Problem, RecoveryPolicy, SolverConfig, SolverKind};
use esr_suite::parcomm::{CostModel, FailureScript};
use esr_suite::sparsemat::gen::poisson2d;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn vtimes(r: &ExperimentResult) -> Vec<u64> {
    let mut v = vec![r.vtime, r.vtime_recovery, r.vtime_setup];
    for o in &r.per_node {
        v.extend([o.vtime_total, o.vtime_recovery, o.vtime_setup]);
        for tl in &o.recovery_timelines {
            v.extend(tl.segments.iter().map(|s| s.vtime));
        }
    }
    bits(&v)
}

#[test]
fn a_traced_solve_is_bitwise_its_untraced_twin() {
    let problem = Problem::with_ones_solution(poisson2d(12, 12));
    for solver in [SolverKind::Pcg, SolverKind::PipeCg, SolverKind::BiCgStab] {
        let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Replace);
        let solve = |trace: bool| {
            let cfg = SolverConfig {
                trace,
                ..cfg.clone()
            };
            let script = FailureScript::simultaneous(5, 1, 2, 4);
            run(solver, &problem, 4, &cfg, CostModel::default(), script).unwrap()
        };
        let (plain, traced) = (solve(false), solve(true));
        assert!(plain.converged && plain.recoveries == 1, "{solver:?}");
        assert!(plain.trace.is_none(), "{solver:?}");
        assert!(
            traced.trace.as_ref().is_some_and(|t| t.total_events() > 0),
            "{solver:?}"
        );

        assert_eq!(plain.iterations, traced.iterations, "{solver:?}");
        assert_eq!(
            plain.inner_iterations, traced.inner_iterations,
            "{solver:?}"
        );
        assert_eq!(bits(&plain.x), bits(&traced.x), "{solver:?}: x");
        let residuals = |r: &ExperimentResult| bits(&[r.solver_residual, r.true_residual]);
        assert_eq!(residuals(&plain), residuals(&traced), "{solver:?}");
        assert_eq!(vtimes(&plain), vtimes(&traced), "{solver:?}: vtimes");
        assert_eq!(plain.stats, traced.stats, "{solver:?}: stats");
        for (p, t) in plain.per_node.iter().zip(&traced.per_node) {
            assert_eq!(p.stats, t.stats, "{solver:?}: rank {} stats", p.rank);
        }
        let timelines = |r: &ExperimentResult| {
            let segments = r.recovery_timelines.iter().flat_map(|tl| &tl.segments);
            let labels = segments.map(|s| (s.attempt, s.label)).collect::<Vec<_>>();
            (r.recovery_timelines.len(), labels)
        };
        assert_eq!(timelines(&plain), timelines(&traced), "{solver:?}");
    }
}
