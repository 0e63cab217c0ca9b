//! ESR recovery costs what the failed block's neighbourhood costs, not what
//! the cluster size costs (the paper's Sec. 4.2 argument): on a pattern of
//! fixed degree, one lost block's recovery virtual time must not grow with
//! N beyond a few latencies.
//!
//! The problem grows with the cluster (`poisson2d(NX, N)`, one grid line of
//! `NX` rows per block), so the lost block, its two neighbour blocks and
//! the inner solve are the same at every N. What may still grow is the
//! ⌈log₂ N⌉ of the world collectives inside the recovery window.

use esr_core::{run, Problem, SolverConfig, SolverKind};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::poisson2d;

const NX: usize = 8;

/// `vtime_recovery` of resilient PCG under Replace with φ = ψ = 1, one
/// interior rank lost at iteration 3.
fn recovery_vtime(nodes: usize) -> f64 {
    let problem = Problem::with_ones_solution(poisson2d(NX, nodes));
    let mut cfg = SolverConfig::resilient(1);
    cfg.rel_tol = 1e-4;
    let script = FailureScript::simultaneous(3, nodes / 2, 1, nodes);
    let res = run(
        SolverKind::Pcg,
        &problem,
        nodes,
        &cfg,
        CostModel::default(),
        script,
    )
    .expect("a supported configuration");
    assert_eq!(res.ranks_recovered, 1, "N = {nodes}");
    res.vtime_recovery
}

#[test]
fn esr_recovery_time_is_flat_in_the_cluster_size() {
    let lambda = CostModel::default().lambda;
    let (small, large) = (recovery_vtime(16), recovery_vtime(256));
    let growth = (large - small) / lambda;
    assert!(
        growth < 10.0,
        "vtime_recovery {small:e} s at N = 16, {large:e} s at N = 256: \
         grew by {growth:.1} λ"
    );
}
