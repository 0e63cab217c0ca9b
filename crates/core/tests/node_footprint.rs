//! The memory each simulated node holds does not grow with the cluster
//! size N.
//!
//! Every per-node structure — the scheduler's mailbox, the communication
//! statistics, the layout's partition and member list — is sized by the
//! node's own traffic or shared by the whole cluster. A node-local array of
//! length N would make the simulator's memory quadratic in N, and it shows
//! first as a per-node footprint that rises with N.
//!
//! `VmHWM` (the peak resident set) is per process, so this test sits alone
//! in its binary: another test running beside it would move the reading.
//! The solves are not traced: a trace log holds the setup all-to-all as one
//! send and one receive per peer, N − 1 of each on every node.
#![cfg(target_os = "linux")]

use esr_core::{run, Problem, SolverConfig, SolverKind};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::suite::{self, PaperMatrix};

/// The process's peak resident set, in KB.
fn vm_hwm_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn per_node_peak_memory_is_flat_in_the_cluster_size() {
    // M1′ at scale 0.004: 2 197 rows, about 2 per node at N = 1 024.
    let problem = Problem::with_random_rhs(suite::generate(PaperMatrix::M1, 0.004), 1);
    let mut cfg = SolverConfig::reference();
    cfg.max_iter = 5;
    let start = vm_hwm_kb();
    // Growth of the peak per node once a failure-free solve on `nodes` ran.
    let per_node = |nodes: usize| {
        let res = run(
            SolverKind::Pcg,
            &problem,
            nodes,
            &cfg,
            CostModel::default(),
            FailureScript::none(),
        )
        .unwrap();
        assert_eq!(res.iterations, 5);
        (vm_hwm_kb() - start) / nodes as f64
    };
    let small = per_node(128);
    let large = per_node(1024);
    assert!(
        large <= 1.2 * small,
        "per-node peak grows with N: {small:.1} KB at N = 128, {large:.1} KB at N = 1024"
    );
}
