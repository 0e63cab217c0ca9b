//! Steady-state allocation audit.
//!
//! The kernel layer promises that after setup, solver iterations run
//! entirely out of persistent workspaces: ghost-exchange send buffers are
//! reused `Arc`s, preconditioner applies are in-place, retention deposits
//! copy into preallocated slots. Every hot-path site that *should* reuse a
//! buffer but has to allocate fresh reports to
//! [`sparsemat::hotpath::record_alloc_miss`]; this test asserts the miss
//! count stays **zero** across entire failure-free solves.
//!
//! The counter is thread-local, and a solve polls every node of the
//! simulated cluster on the calling thread (`parcomm::Cluster::run_async`),
//! so the audit brackets the whole solve: reset the counter, solve, read
//! the count of every node together. The solve must report no host thread
//! spawned — a node on another thread would miss the counter.
//!
//! Every solver runs the one generic node loop (`esr_core::node`), so the
//! audit takes the solver as an input and the cells are rows of one table:
//! {PCG, pipelined PCG, BiCGSTAB} × {plain, ESR φ = 2, checkpoint}.

use esr_core::{run, CrConfig, Problem, Protection, ResilienceConfig, SolverConfig, SolverKind};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::poisson2d;
use sparsemat::hotpath;

/// Run `solver` on a failure-free cluster and return the alloc-miss count
/// its nodes recorded, setup included, and whether the solve converged.
fn audit(nodes: usize, problem: &Problem, cfg: SolverConfig, solver: SolverKind) -> (u64, bool) {
    hotpath::reset_alloc_misses();
    let none = FailureScript::none();
    let res = run(solver, problem, nodes, &cfg, CostModel::default(), none).unwrap();
    assert_eq!(res.host.threads_spawned, 0, "a node ran off this thread");
    (hotpath::alloc_misses(), res.converged)
}

/// Checkpoint protection: periodic deposits allocate one fresh pack buffer
/// per round by design (cold path, every `interval`-th iteration); the
/// in-between iterations must still be miss-free.
fn checkpointed() -> SolverConfig {
    let mut cfg = SolverConfig::resilient(1);
    cfg.resilience = Some(
        ResilienceConfig::paper(1)
            .with_protection(Protection::Checkpoint(CrConfig::default().with_interval(5))),
    );
    cfg
}

#[test]
fn steady_state_allocates_nothing() {
    use SolverKind::{BiCgStab, Pcg, PipeCg};
    let ones = |g| Problem::with_ones_solution(poisson2d(g, g));
    // φ = 2 redundancy: every iteration ships natural ghosts *and* the
    // Eqn. (6) extras through the reused send buffers; pipelined PCG packs
    // its operand m and the copies of u and p per peer message through
    // the same buffers, and without protection m alone.
    let cells = [
        (
            "pcg plain",
            Pcg,
            Problem::with_random_rhs(poisson2d(16, 16), 7),
            SolverConfig::reference(),
        ),
        ("pcg esr", Pcg, ones(20), SolverConfig::resilient(2)),
        ("pcg checkpoint", Pcg, ones(16), checkpointed()),
        ("pipecg plain", PipeCg, ones(16), SolverConfig::reference()),
        ("pipecg esr", PipeCg, ones(18), SolverConfig::resilient(2)),
        ("pipecg checkpoint", PipeCg, ones(16), checkpointed()),
        (
            "bicgstab plain",
            BiCgStab,
            ones(16),
            SolverConfig::reference(),
        ),
        (
            "bicgstab esr",
            BiCgStab,
            ones(18),
            SolverConfig::resilient(2),
        ),
        ("bicgstab checkpoint", BiCgStab, ones(16), checkpointed()),
    ];
    for (cell, solver, problem, cfg) in cells {
        let (misses, converged) = audit(4, &problem, cfg, solver);
        assert!(converged, "{cell}: the solve did not converge");
        assert_eq!(misses, 0, "{cell}: {misses} hot-path allocation misses");
    }
}
