//! Recovery costs what the failed block's neighbourhood costs, not what the
//! cluster size costs (the paper's Sec. 4.2 argument): on a pattern of
//! fixed degree, one lost block's recovery virtual time must not grow with
//! N beyond a few latencies — under ESR and checkpoint rollback alike, and
//! when the cluster shrinks as well as when the block is replaced.
//!
//! The problem grows with the cluster (`poisson2d(NX, N)`, one grid line of
//! `NX` rows per block), so the lost block, its two neighbour blocks and
//! the inner solve are the same at every N. What may still grow is the
//! ⌈log₂ N⌉ of the world collectives inside the recovery window.

use esr_core::{run, CrConfig, Problem, Protection, RecoveryPolicy, SolverConfig, SolverKind};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::poisson2d;

const NX: usize = 8;

/// `vtime_recovery` of resilient PCG under `cfg` (φ = 1), one interior
/// rank lost at iteration 3.
fn recovery_vtime(nodes: usize, cfg: &SolverConfig) -> f64 {
    let problem = Problem::with_ones_solution(poisson2d(NX, nodes));
    let mut cfg = cfg.clone();
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

fn assert_flat_in_the_cluster_size(cfg: SolverConfig) {
    let lambda = CostModel::default().lambda;
    let (small, large) = (recovery_vtime(16, &cfg), recovery_vtime(256, &cfg));
    let growth = (large - small) / lambda;
    assert!(
        growth < 10.0,
        "vtime_recovery {small:e} s at N = 16, {large:e} s at N = 256: \
         grew by {growth:.1} λ"
    );
}

#[test]
fn esr_recovery_time_is_flat_in_the_cluster_size() {
    assert_flat_in_the_cluster_size(SolverConfig::resilient(1));
}

#[test]
fn esr_shrink_recovery_time_is_flat_in_the_cluster_size() {
    assert_flat_in_the_cluster_size(SolverConfig::resilient_with_policy(
        1,
        RecoveryPolicy::Shrink,
    ));
}

#[test]
fn cr_shrink_recovery_time_is_flat_in_the_cluster_size() {
    let mut cfg = SolverConfig::resilient_with_policy(1, RecoveryPolicy::Shrink);
    let rollback = Protection::Checkpoint(CrConfig::default().with_interval(4).with_copies(1));
    cfg.resilience = cfg.resilience.map(|res| res.with_protection(rollback));
    assert_flat_in_the_cluster_size(cfg);
}
