//! The SPMD cluster harness.
//!
//! [`Cluster::run`] gives every simulated compute node its own OS thread
//! (private stack, blocking call style) and executes the same program on
//! every node — the SPMD model of MPI. The
//! threads do not free-run: a [`crate::sched::Scheduler`] dispatches
//! exactly one runnable node at a time by minimum `(virtual time, rank)`,
//! so execution order is deterministic and node count is decoupled from
//! host parallelism (N = 1024 clusters run fine on a 2-core host).
//! Per-node results are collected in rank order.
//!
//! The paper runs one MPI process per node (Sec. 7.1, "we use only one
//! process per node"), so a node ≡ a rank here too.

use std::sync::Arc;
use std::thread;

use crate::comm::NodeCtx;
use crate::fault::{FailureScript, FaultOracle};
use crate::observe::NodeLogs;
use crate::sched::Scheduler;
use crate::vclock::{CostModel, VClock};

/// Cluster-wide configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of compute nodes N.
    pub(crate) nodes: usize,
    /// Latency–bandwidth–flop cost model for the virtual clock.
    pub(crate) cost: CostModel,
    /// Scheduled node failures (empty for failure-free runs).
    pub(crate) script: FailureScript,
    /// Size of the hot-spare pool: how many failed nodes the cluster can
    /// hand a replacement for before replacement capacity runs out (the
    /// capacity ULFM assumes is unbounded but a real machine is not —
    /// Pachajoa et al., arXiv:2007.04066). `0` means no spares.
    pub(crate) spares: usize,
}

impl ClusterConfig {
    /// A failure-free cluster of `nodes` nodes with the default cost model.
    pub fn new(nodes: usize) -> Self {
        ClusterConfig {
            nodes,
            cost: CostModel::default(),
            script: FailureScript::none(),
            spares: 0,
        }
    }

    /// Set the failure script.
    pub fn with_script(mut self, script: FailureScript) -> Self {
        self.script = script;
        self
    }

    /// Set the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Provision `spares` hot-spare nodes.
    pub fn with_spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }
}

/// The cluster's finite pool of hot-spare nodes.
///
/// In the simulation the spare is not a separate scheduler entity: as in
/// the paper's methodology (Sec. 6), the failed rank keeps its scheduler
/// slot and continues in the replacement-node role (see the node lifecycle
/// state machine in [`crate::fault`]) — what a spare buys is the *right*
/// to do so. The pool is claimed at failure boundaries, which every node
/// reaches with the same SPMD-deterministic failure information, so each
/// node's private copy of the pool evolves identically and no shared
/// mutable state is needed (the same determinism argument that stands in
/// for `MPI_Comm_agree`).
#[derive(Clone, Debug)]
pub struct SparePool {
    total: usize,
    claimed: usize,
}

impl SparePool {
    pub(crate) fn new(total: usize) -> Self {
        SparePool { total, claimed: 0 }
    }

    /// Spares not yet handed out.
    pub fn remaining(&self) -> usize {
        self.total - self.claimed
    }

    /// Claim up to `want` spares; returns how many were granted
    /// (`min(want, remaining)`).
    pub fn claim(&mut self, want: usize) -> usize {
        let granted = want.min(self.remaining());
        self.claimed += granted;
        granted
    }
}

/// The simulated parallel computer.
pub struct Cluster;

impl Cluster {
    /// Run `program` on every node of a cluster described by `config`;
    /// returns the per-node results in rank order.
    ///
    /// `program` is the SPMD node program: it receives this node's
    /// [`NodeCtx`] and runs to completion. A panic on any node aborts the
    /// run (the panic is propagated with its rank).
    pub fn run<T, F>(config: ClusterConfig, program: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> T + Sync,
    {
        Self::run_inner(config, false, program).0
    }

    /// Like [`Cluster::run`], but also records every node's virtual-time
    /// trace and returns the gathered per-rank logs as a
    /// [`crate::trace::ClusterTrace`]. The tracer observes the virtual clock
    /// without ever advancing it, so the per-node results are bitwise
    /// identical to what [`Cluster::run`] returns.
    pub fn run_traced<T, F>(
        config: ClusterConfig,
        program: F,
    ) -> (Vec<T>, crate::trace::ClusterTrace)
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> T + Sync,
    {
        let (values, logs) = Self::run_inner(config, true, program);
        let nodes = logs
            .into_iter()
            .map(|l| l.trace.expect("traced node").into_log())
            .collect();
        (values, crate::trace::ClusterTrace { nodes })
    }

    /// Per-node results in rank order and, next to them, what each node's
    /// diagnostic observers recorded (the tracer's log only when `trace`).
    fn run_inner<T, F>(config: ClusterConfig, trace: bool, program: F) -> (Vec<T>, Vec<NodeLogs>)
    where
        T: Send,
        F: Fn(&mut NodeCtx) -> T + Sync,
    {
        let n = config.nodes;
        assert!(n >= 1, "cluster needs at least one node");
        // A script naming ranks the cluster does not have would be silently
        // inert — reject it here, where the size is known.
        config.script.validate_for_cluster(n);
        let oracle = FaultOracle::new(config.script.clone());

        let sched = Arc::new(Scheduler::new(n));

        let program = &program;
        thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let oracle = oracle.clone();
                let cost = config.cost;
                let spares = config.spares;
                let sched = sched.clone();
                handles.push(
                    thread::Builder::new()
                        .name(format!("node-{rank}"))
                        // The solver recursion depth is shallow, but large
                        // local vectors live on the heap; default stack is
                        // plenty. Set explicitly for predictability.
                        .stack_size(4 * 1024 * 1024)
                        .spawn_scoped(s, move || {
                            let mut ctx = NodeCtx::new(
                                rank,
                                n,
                                sched.clone(),
                                oracle,
                                VClock::new(cost),
                                spares,
                                trace,
                            );
                            // The baton wait sits inside catch_unwind: a
                            // peer abort or a deadlock report surfaces as
                            // a panic out of the scheduler park.
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    sched.wait_for_baton(rank);
                                    program(&mut ctx)
                                }));
                            // Hand the baton on — or, on a panic, wake all
                            // parked peers into immediate teardown instead
                            // of stranding them in recv.
                            match &result {
                                Ok(_) => sched.finish(rank),
                                Err(_) => sched.abort(rank),
                            }
                            (result, ctx.into_logs())
                        })
                        .expect("failed to spawn node thread"),
                );
            }

            // Every node thread parks on the scheduler first; hand out the
            // first baton (rank 0, all clocks at 0.0).
            sched.start(handles.iter().map(|h| h.thread().clone()).collect());

            // Join all nodes first — teardown checks must see every log.
            let finishes = handles
                .into_iter()
                .map(|h| h.join().expect("node thread died outside the program"));

            let mut values = Vec::with_capacity(n);
            let mut logs = Vec::with_capacity(n);
            let mut panics: Vec<(usize, String)> = Vec::new();
            for (rank, (result, log)) in finishes.enumerate() {
                logs.push(log);
                match result {
                    Ok(v) => values.push(v),
                    Err(e) => {
                        let msg = e
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| e.downcast_ref::<&str>().copied())
                            .unwrap_or("<non-string panic>")
                            .to_string();
                        panics.push((rank, msg));
                    }
                }
            }
            let clean = panics.is_empty();
            // If any node panicked, the *root cause* is a real panic, not a
            // secondary "peer aborted" one.
            let root_cause = panics
                .iter()
                .find(|(_, m)| !m.contains("aborted"))
                .or_else(|| panics.first());

            // Queue-drain inspection: a message still sitting in a queue at
            // teardown is a protocol leak. Only meaningful on clean runs — a
            // panic legitimately strands in-flight traffic.
            let leaks = if clean {
                sched.drain_residue()
            } else {
                Vec::new()
            };

            // Where the auditor ran, its report names every violation, the
            // leaks included; elsewhere a leak alone fails the run.
            let audit = logs.iter_mut().filter_map(|l| l.audit.take());
            let audit_logs: Vec<_> = audit.map(|a| a.into_log()).collect();
            if !audit_logs.is_empty() {
                let violations = crate::audit::check_teardown(&audit_logs, &leaks, clean);
                if !violations.is_empty() {
                    let mut report =
                        format!("parcomm audit: {} protocol violation(s):", violations.len());
                    for v in &violations {
                        report.push_str("\n  ");
                        report.push_str(v);
                    }
                    if let Some((rank, msg)) = root_cause {
                        report.push_str(&format!("\n  (node {rank} also panicked: {msg})"));
                    }
                    panic!("{report}");
                }
            } else if let Some((rank, m)) = leaks.first() {
                panic!(
                    "queue residue at cluster teardown: rank {rank} holds an \
                     unconsumed message from rank {} (tag {}, {} elems); \
                     every send must be matched by a receive",
                    m.src,
                    m.tag.describe(),
                    m.payload.elems()
                );
            }

            if let Some((rank, msg)) = root_cause {
                panic!("node {rank} panicked: {msg}");
            }
            (values, logs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ReduceOp;
    use crate::payload::Payload;
    use crate::stats::CommPhase;

    #[test]
    fn ranks_and_size() {
        let out = Cluster::run(ClusterConfig::new(5), |ctx| (ctx.rank(), ctx.size()));
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn p2p_ring() {
        let out = Cluster::run(ClusterConfig::new(4), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(
                next,
                7,
                Payload::f64s(vec![ctx.rank() as f64]),
                CommPhase::Other,
            );
            ctx.recv(prev, 7).into_f64s()[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for n in 1..=9 {
            let out = Cluster::run(ClusterConfig::new(n), |ctx| {
                ctx.allreduce_sum((ctx.rank() + 1) as f64)
            });
            let expect = (n * (n + 1) / 2) as f64;
            assert!(out.iter().all(|&x| x == expect), "n={n}: {out:?}");
        }
    }

    #[test]
    fn allreduce_max_min() {
        let out = Cluster::run(ClusterConfig::new(6), |ctx| {
            let mx = ctx.allreduce_vec(ReduceOp::Max, vec![ctx.rank() as f64]);
            let mn = ctx.allreduce_vec(ReduceOp::Min, vec![ctx.rank() as f64]);
            (mx[0], mn[0])
        });
        assert!(out.iter().all(|&(mx, mn)| mx == 5.0 && mn == 0.0));
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            ctx.allreduce_vec(ReduceOp::Sum, vec![ctx.rank() as f64, 1.0])
        });
        assert!(out.iter().all(|v| v == &vec![3.0, 3.0]));
    }

    #[test]
    fn allreduce_is_deterministic_across_runs() {
        // Sum of values whose FP addition is order-sensitive.
        let run = || {
            Cluster::run(ClusterConfig::new(7), |ctx| {
                let x = 1.0 / (ctx.rank() as f64 + 3.0) * 1e10 + 1e-10;
                ctx.allreduce_sum(x)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "tree reduction must be bitwise reproducible");
        // All nodes agree within a run.
        assert!(a.windows(2).all(|w| w[0] == w[1]));
    }

    // The sparse all-to-all validates its destinations with a hard assert
    // (`cargo test --release` runs these with debug assertions off): a
    // repeated or out-of-range index must not be booked, let alone delivered.
    #[test]
    #[should_panic(expected = "alltoallv destinations must be ascending indices below 3")]
    fn sparse_alltoall_rejects_unsorted_destinations() {
        Cluster::run(ClusterConfig::new(3), |ctx| {
            ctx.alltoallv_sparse_u64(vec![(2, vec![1]), (1, vec![2])])
        });
    }

    #[test]
    #[should_panic(expected = "alltoallv destinations must be ascending indices below 3")]
    fn sparse_alltoall_rejects_out_of_range_destinations() {
        Cluster::run(ClusterConfig::new(3), |ctx| {
            ctx.alltoallv_sparse_u64(vec![(3, vec![1])])
        });
    }

    #[test]
    fn sparse_alltoall_leaves_out_the_silent_pairs() {
        // A ring: every rank sends to its successor only.
        let out = Cluster::run(ClusterConfig::new(4), |ctx| {
            let me = ctx.rank();
            ctx.alltoallv_sparse_u64(vec![((me + 1) % 4, vec![me as u64])])
        });
        for (me, recvd) in out.iter().enumerate() {
            let pred = (me + 3) % 4;
            assert_eq!(recvd, &vec![(pred, vec![pred as u64])]);
        }
    }

    #[test]
    fn alltoallv_exchanges() {
        let out = Cluster::run(ClusterConfig::new(3), |ctx| {
            // Send [my_rank, dest] to each dest, the own slot included.
            let sends = (0..3).map(|d| (d, vec![ctx.rank() as u64, d as u64]));
            ctx.alltoallv_sparse_u64(sends.collect())
        });
        for (me, recvd) in out.iter().enumerate() {
            assert_eq!(recvd.len(), 3);
            for (k, (src, v)) in recvd.iter().enumerate() {
                assert_eq!((*src, v), (k, &vec![k as u64, me as u64]));
            }
        }
    }

    #[test]
    fn barrier_syncs_vclocks() {
        let out = Cluster::run(ClusterConfig::new(4), |ctx| {
            // Rank 2 does expensive local work before the barrier.
            if ctx.rank() == 2 {
                ctx.clock_mut().advance(1.0);
            }
            ctx.barrier();
            ctx.vtime()
        });
        // Everyone's clock must be at least the slow node's time.
        assert!(out.iter().all(|&t| t >= 1.0), "{out:?}");
    }

    #[test]
    fn group_collectives() {
        let out = Cluster::run(ClusterConfig::new(5), |ctx| {
            // Odd ranks form a group; evens idle.
            if ctx.rank() % 2 == 1 {
                let mut g = ctx.group(&[1, 3]);
                let x = vec![ctx.rank() as f64];
                let s = g.allreduce_vec(ctx, ReduceOp::Sum, x.clone(), CommPhase::Recovery);
                let mx = g.allreduce_vec(ctx, ReduceOp::Max, x, CommPhase::Recovery);
                Some((s[0], mx[0]))
            } else {
                None
            }
        });
        for r in [1usize, 3] {
            assert_eq!(out[r], Some((4.0, 3.0)));
        }
    }

    #[test]
    fn stats_track_phases() {
        let out = Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::f64s(vec![0.0; 10]), CommPhase::Spmv);
                ctx.send(1, 2, Payload::f64s(vec![0.0; 3]), CommPhase::Redundancy);
            } else {
                ctx.recv(0, 1);
                ctx.recv(0, 2);
            }
            (
                ctx.stats().elems(CommPhase::Spmv),
                ctx.stats().elems(CommPhase::Redundancy),
            )
        });
        assert_eq!(out[0], (10, 3));
        assert_eq!(out[1], (0, 0)); // receives are counted at the sender
    }

    #[test]
    fn vclock_charges_messages() {
        let cost = CostModel {
            lambda: 1.0,
            mu: 0.1,
            gamma: 0.0,
        };
        let out = Cluster::run(ClusterConfig::new(2).with_cost(cost), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::f64s(vec![0.0; 10]), CommPhase::Spmv);
            } else {
                ctx.recv(0, 1);
            }
            ctx.vtime()
        });
        // Sender: λ + 10µ = 2.0. Receiver absorbs the same arrival stamp.
        assert_eq!(out[0], 2.0);
        assert_eq!(out[1], 2.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds for a cluster of 8 nodes")]
    fn out_of_bounds_failure_script_rejected() {
        // A script naming rank 9 on an 8-node cluster would be silently
        // inert; Cluster::run must reject it when the size is known.
        let script = crate::fault::FailureScript::new(vec![crate::fault::FailureEvent {
            when: crate::fault::FailAt::Iteration(3),
            ranks: vec![9],
        }]);
        Cluster::run(ClusterConfig::new(8).with_script(script), |_| ());
    }

    #[test]
    fn spare_pool_claims_deterministically() {
        let out = Cluster::run(ClusterConfig::new(3).with_spares(2), |ctx| {
            let mut pool = ctx.spare_pool();
            assert_eq!(pool.total, 2);
            let first = pool.claim(1);
            let second = pool.claim(3); // only 1 left
            let third = pool.claim(1); // dry
            (first, second, third, pool.remaining())
        });
        // Every node's private pool copy evolves identically.
        assert!(out.iter().all(|&o| o == (1, 1, 0, 0)), "{out:?}");
    }

    #[test]
    fn spare_pool_defaults_to_empty() {
        let out = Cluster::run(ClusterConfig::new(2), |ctx| ctx.spare_pool().remaining());
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "unconsumed message from rank 0")]
    fn a_leaked_message_fails_the_run_in_every_profile() {
        // The auditor's `[message-drain]` report where it runs, the queue
        // residue panic where it does not: both name the leak.
        Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 3, Payload::f64s(vec![1.0]), CommPhase::Other);
            }
        });
    }

    #[test]
    #[should_panic(expected = "[deadlock] wait-for cycle")]
    fn cross_recv_deadlock_reported_in_every_build() {
        // Rank 0 and rank 1 each wait for the other: the scheduler runs
        // out of runnable nodes and names the cycle instantly — in every
        // profile, with no timeout.
        Cluster::run(ClusterConfig::new(2), |ctx| {
            let peer = 1 - ctx.rank();
            ctx.recv(peer, 1);
        });
    }

    #[test]
    #[should_panic(expected = "wait chain ends at a terminated rank")]
    fn recv_from_finished_rank_is_reported() {
        Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 1 {
                // Rank 0 finishes without ever sending; rank 1's wait can
                // never be satisfied.
                ctx.recv(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 0 blocked in allreduce(tag coll(allreduce, seq 0)): \
                    1 of 3 arrived, missing ranks [1, 2] -> rank 1 (terminated)")]
    fn skipped_allreduce_is_reported_with_the_missing_ranks() {
        // Rank 1 returns without joining; rank 2 waits on rank 0, which is
        // parked in the collective. The walk starts at rank 0 and follows
        // its lowest missing rank.
        Cluster::run(ClusterConfig::new(3), |ctx| match ctx.rank() {
            0 => {
                ctx.allreduce_sum(1.0);
            }
            1 => {}
            _ => {
                ctx.recv(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "node 1 panicked")]
    fn node_panic_propagates() {
        Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 must not block forever on a dead peer in this test:
            // it does no communication.
        });
    }
}
