//! The SPMD cluster harness.
//!
//! A node program is an `async fn` over the node's [`NodeCtx`]: it runs
//! until it waits (a receive with no matching message, a collective not
//! every participant has reached), and the wait suspends it. A
//! [`crate::sched::Scheduler`] picks the next node to run by minimum
//! `(virtual time, rank)`, so execution order is deterministic and node
//! count is decoupled from host parallelism. [`Cluster::run_async`] polls
//! every node's future on the calling thread: no thread is spawned, and a
//! suspension costs a return from `poll`. Per-node results are collected in
//! rank order.
//!
//! [`Cluster::run`] keeps the blocking style for a synchronous program: it
//! gives every node an OS thread and a [`BlockingCtx`], whose few blocking
//! calls wrap the async ones and park the thread at each wait, with a
//! baton handed between the threads in the same order. No solve runs
//! there.
//!
//! The paper runs one MPI process per node (Sec. 7.1, "we use only one
//! process per node"), so a node ≡ a rank here too.

use std::any::Any;
use std::future::Future;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;

use crate::comm::{NodeCtx, ReduceOp};
use crate::fault::{FailureScript, FaultOracle};
use crate::observe::NodeLogs;
use crate::payload::Payload;
use crate::request::{self, AllreduceRequest};
use crate::sched::{HandOff, Scheduler};
use crate::stats::CommPhase;
use crate::trace::ClusterTrace;
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

/// The host work of one cluster run, counted exactly. Like the message
/// counts, both are a function of the schedule, which is deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostWork {
    /// How often a node stopped in a wait: a poll of its program that
    /// returned `Pending`.
    pub suspensions: u64,
    /// Host threads the run spawned: 0 for [`Cluster::run_async`].
    pub threads_spawned: usize,
}

/// What a cluster run returns.
#[derive(Debug)]
pub struct ClusterRun<T> {
    /// The per-node results, in rank order.
    pub values: Vec<T>,
    /// Every node's virtual-time trace ([`Cluster::run_traced`] only).
    pub trace: Option<ClusterTrace>,
    /// The host work the run took.
    pub host: HostWork,
}

/// The simulated parallel computer.
pub struct Cluster;

impl Cluster {
    /// Run the SPMD node program `program` on every node of a cluster
    /// described by `config`, all on the calling thread; returns the
    /// per-node results in rank order.
    ///
    /// Each node's program is polled while it is the runnable node with
    /// the minimum `(virtual time, rank)` until it suspends in a wait or
    /// finishes. A panic on any node aborts the run (the panic is
    /// propagated with its rank).
    pub fn run_async<T, F>(config: ClusterConfig, program: F) -> ClusterRun<T>
    where
        F: AsyncFn(&mut NodeCtx) -> T,
    {
        Self::poll(config, false, program)
    }

    /// Like [`Cluster::run_async`], but also records every node's
    /// virtual-time trace into [`ClusterRun::trace`]. The tracer observes
    /// the virtual clock without ever advancing it, so the per-node results
    /// are bitwise identical to what [`Cluster::run_async`] returns.
    pub fn run_traced<T, F>(config: ClusterConfig, program: F) -> ClusterRun<T>
    where
        F: AsyncFn(&mut NodeCtx) -> T,
    {
        Self::poll(config, true, program)
    }

    /// Run a synchronous node program on one OS thread per node (see the
    /// module doc); the schedule, and so every result, is that of
    /// [`Cluster::run_async`].
    pub fn run<T, F>(config: ClusterConfig, program: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut BlockingCtx) -> T + Sync,
    {
        Self::run_threads(config, program).values
    }

    /// The scheduler and every node's context, rank order.
    fn boot(config: &ClusterConfig, trace: bool) -> (Arc<Scheduler>, Vec<NodeCtx>) {
        let n = config.nodes;
        assert!(n >= 1, "cluster needs at least one node");
        // A script naming ranks the cluster does not have would be silently
        // inert — reject it here, where the size is known.
        config.script.validate_for_cluster(n);
        let oracle = FaultOracle::new(config.script.clone());
        let sched = Arc::new(Scheduler::new(n));
        let ctx = |rank| {
            let clock = VClock::new(config.cost);
            let (sched, oracle) = (sched.clone(), oracle.clone());
            NodeCtx::new(rank, n, sched, oracle, clock, config.spares, trace)
        };
        let ctxs = (0..n).map(ctx).collect();
        (sched, ctxs)
    }

    fn poll<T, F>(config: ClusterConfig, trace: bool, program: F) -> ClusterRun<T>
    where
        F: AsyncFn(&mut NodeCtx) -> T,
    {
        let (sched, mut ctxs) = Self::boot(&config, trace);
        let program = &program;
        let nodes = ctxs.iter_mut().map(|c| Box::pin(program(c))).collect();
        let results = drive(&sched, nodes);
        let logs = ctxs.into_iter().map(NodeCtx::into_logs).collect();
        finish(&sched, results, logs, trace, 0)
    }

    /// [`Cluster::run`], with the host work it took.
    fn run_threads<T, F>(config: ClusterConfig, program: F) -> ClusterRun<T>
    where
        T: Send,
        F: Fn(&mut BlockingCtx) -> T + Sync,
    {
        let (sched, ctxs) = Self::boot(&config, false);
        let program = &program;
        thread::scope(|s| {
            let spawn = |ctx: NodeCtx| {
                let (rank, sched) = (ctx.rank(), sched.clone());
                let node = move || {
                    let mut ctx = BlockingCtx(ctx);
                    // The baton wait sits inside catch_unwind: a peer abort
                    // or a deadlock report surfaces as a panic out of the
                    // scheduler park.
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        sched.wait_for_baton(rank);
                        program(&mut ctx)
                    }));
                    // Hand the baton on — or, on a panic, wake all parked
                    // peers into immediate teardown instead of stranding
                    // them in a wait.
                    sched.hand_off(sched.retire(rank, result.is_err()));
                    (result.map_err(panic_message), ctx.0.into_logs())
                };
                thread::Builder::new()
                    .name(format!("node-{rank}"))
                    .stack_size(4 * 1024 * 1024)
                    .spawn_scoped(s, node)
                    .expect("failed to spawn node thread")
            };
            let handles: Vec<_> = ctxs.into_iter().map(spawn).collect();
            sched.start(handles.iter().map(|h| h.thread().clone()).collect());
            // Join all nodes first — teardown checks must see every log.
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("node thread died"));
            let (results, logs) = joined.unzip();
            finish(&sched, results, logs, false, config.nodes)
        })
    }
}

/// Poll the runnable node with the minimum `(virtual time, rank)` until
/// every node finished or a panic or deadlock stopped the rest: per node,
/// its output, or the panic that ended or stopped it.
fn drive<T>(
    sched: &Scheduler,
    nodes: Vec<Pin<Box<impl Future<Output = T>>>>,
) -> Vec<Result<T, String>> {
    let mut nodes: Vec<_> = nodes.into_iter().map(Some).collect();
    let mut results: Vec<_> = nodes.iter().map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    let mut next = sched.first();
    while let HandOff::Wake(rank) = next {
        let node = nodes[rank].as_mut().expect("a runnable node is unfinished");
        let result = match catch_unwind(AssertUnwindSafe(|| node.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {
                next = sched.suspend(rank);
                continue;
            }
            Ok(Poll::Ready(v)) => Ok(v),
            Err(e) => Err(panic_message(e)),
        };
        nodes[rank] = None;
        next = sched.retire(rank, result.is_err());
        results[rank] = Some(result);
    }
    request::abandon(nodes);
    let stopped = |(rank, r): (usize, Option<_>)| r.unwrap_or_else(|| Err(sched.stop_report(rank)));
    results.into_iter().enumerate().map(stopped).collect()
}

/// A node's context in a synchronous program ([`Cluster::run`]): its
/// [`NodeCtx`], whose waits here park the node's thread. Only the calls
/// below block; everything else is the `NodeCtx`'s own.
pub struct BlockingCtx(NodeCtx);

impl BlockingCtx {
    /// Run `op` on this node to completion, parking the thread at each
    /// wait until the scheduler hands it the baton again.
    pub fn block_on<T>(&mut self, op: impl AsyncFnOnce(&mut NodeCtx) -> T) -> T {
        let (sched, rank) = (self.0.sched.clone(), self.0.rank());
        let mut op = pin!(op(&mut self.0));
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            match op.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => sched.park(rank),
            }
        }
    }

    /// [`NodeCtx::recv_phase`], blocking.
    pub fn recv_phase(&mut self, src: usize, tag: u32, phase: CommPhase) -> Payload {
        self.block_on(async |ctx| ctx.recv_phase(src, tag, phase).await)
    }

    /// [`NodeCtx::allreduce_sum`], blocking.
    pub fn allreduce_sum(&mut self, x: f64) -> f64 {
        self.block_on(async |ctx| ctx.allreduce_sum(x).await)
    }

    /// [`NodeCtx::allreduce_vec`], blocking.
    pub fn allreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> Vec<f64> {
        self.block_on(async |ctx| ctx.allreduce_vec(opr, x).await)
    }

    /// [`NodeCtx::iallreduce_vec`], blocking in its rendezvous.
    pub fn iallreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> AllreduceRequest {
        self.block_on(async |ctx| ctx.iallreduce_vec(opr, x).await)
    }
}

impl Deref for BlockingCtx {
    type Target = NodeCtx;

    fn deref(&self) -> &NodeCtx {
        &self.0
    }
}

impl DerefMut for BlockingCtx {
    fn deref_mut(&mut self) -> &mut NodeCtx {
        &mut self.0
    }
}

/// The text of a caught panic.
fn panic_message(e: Box<dyn Any + Send>) -> String {
    let text = e.downcast_ref::<&str>().copied();
    let text = e.downcast_ref::<String>().map(String::as_str).or(text);
    text.unwrap_or("<non-string panic>").to_string()
}

/// The checks every run ends with, over each node's result and logs in
/// rank order, and the run's outcome: the per-node values, or the panic
/// that names the root cause (a protocol leak or audit violation first).
fn finish<T>(
    sched: &Scheduler,
    results: Vec<Result<T, String>>,
    mut logs: Vec<NodeLogs>,
    trace: bool,
    threads_spawned: usize,
) -> ClusterRun<T> {
    let mut values = Vec::with_capacity(results.len());
    let mut panics: Vec<(usize, String)> = Vec::new();
    for (rank, result) in results.into_iter().enumerate() {
        match result {
            Ok(v) => values.push(v),
            Err(msg) => panics.push((rank, msg)),
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
            let mut report = format!("parcomm audit: {} protocol violation(s):", violations.len());
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
    let trace = trace.then(|| {
        let logs = logs.into_iter();
        let nodes = logs.map(|l| l.trace.expect("traced node").into_log());
        ClusterTrace {
            nodes: nodes.collect(),
        }
    });
    let host = HostWork {
        suspensions: sched.suspensions(),
        threads_spawned,
    };
    ClusterRun {
        values,
        trace,
        host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ReduceOp;
    use crate::payload::Payload;
    use crate::stats::CommPhase;

    fn run<T>(config: ClusterConfig, program: impl AsyncFn(&mut NodeCtx) -> T) -> Vec<T> {
        Cluster::run_async(config, program).values
    }

    #[test]
    fn ranks_and_size() {
        let out = run(ClusterConfig::new(5), async |ctx| (ctx.rank(), ctx.size()));
        assert_eq!(out, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]);
    }

    #[test]
    fn p2p_ring() {
        let out = run(ClusterConfig::new(4), async |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(
                next,
                7,
                Payload::f64s(vec![ctx.rank() as f64]),
                CommPhase::Other,
            );
            ctx.recv(prev, 7).await.into_f64s()[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for n in 1..=9 {
            let out = run(ClusterConfig::new(n), async |ctx| {
                ctx.allreduce_sum((ctx.rank() + 1) as f64).await
            });
            let expect = (n * (n + 1) / 2) as f64;
            assert!(out.iter().all(|&x| x == expect), "n={n}: {out:?}");
        }
    }

    #[test]
    fn allreduce_max_min() {
        let out = run(ClusterConfig::new(6), async |ctx| {
            let mx = ctx
                .allreduce_vec(ReduceOp::Max, vec![ctx.rank() as f64])
                .await;
            let mn = ctx
                .allreduce_vec(ReduceOp::Min, vec![ctx.rank() as f64])
                .await;
            (mx[0], mn[0])
        });
        assert!(out.iter().all(|&(mx, mn)| mx == 5.0 && mn == 0.0));
    }

    #[test]
    fn allreduce_vec_elementwise() {
        let out = run(ClusterConfig::new(3), async |ctx| {
            ctx.allreduce_vec(ReduceOp::Sum, vec![ctx.rank() as f64, 1.0])
                .await
        });
        assert!(out.iter().all(|v| v == &vec![3.0, 3.0]));
    }

    #[test]
    fn allreduce_is_deterministic_across_runs() {
        // Sum of values whose FP addition is order-sensitive.
        let run = || {
            run(ClusterConfig::new(7), async |ctx| {
                let x = 1.0 / (ctx.rank() as f64 + 3.0) * 1e10 + 1e-10;
                ctx.allreduce_sum(x).await
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
        run(ClusterConfig::new(3), async |ctx| {
            ctx.alltoallv_sparse_u64(vec![(2, vec![1]), (1, vec![2])])
                .await
        });
    }

    #[test]
    #[should_panic(expected = "alltoallv destinations must be ascending indices below 3")]
    fn sparse_alltoall_rejects_out_of_range_destinations() {
        run(ClusterConfig::new(3), async |ctx| {
            ctx.alltoallv_sparse_u64(vec![(3, vec![1])]).await
        });
    }

    #[test]
    fn sparse_alltoall_leaves_out_the_silent_pairs() {
        // A ring: every rank sends to its successor only.
        let out = run(ClusterConfig::new(4), async |ctx| {
            let me = ctx.rank();
            ctx.alltoallv_sparse_u64(vec![((me + 1) % 4, vec![me as u64])])
                .await
        });
        for (me, recvd) in out.iter().enumerate() {
            let pred = (me + 3) % 4;
            assert_eq!(recvd, &vec![(pred, vec![pred as u64])]);
        }
    }

    #[test]
    fn alltoallv_exchanges() {
        let out = run(ClusterConfig::new(3), async |ctx| {
            // Send [my_rank, dest] to each dest, the own slot included.
            let sends = (0..3).map(|d| (d, vec![ctx.rank() as u64, d as u64]));
            ctx.alltoallv_sparse_u64(sends.collect()).await
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
        let out = run(ClusterConfig::new(4), async |ctx| {
            // Rank 2 does expensive local work before the barrier.
            if ctx.rank() == 2 {
                ctx.clock_mut().advance(1.0);
            }
            ctx.barrier().await;
            ctx.vtime()
        });
        // Everyone's clock must be at least the slow node's time.
        assert!(out.iter().all(|&t| t >= 1.0), "{out:?}");
    }

    #[test]
    fn group_collectives() {
        let out = run(ClusterConfig::new(5), async |ctx| {
            // Odd ranks form a group; evens idle.
            if ctx.rank() % 2 == 1 {
                let mut g = ctx.group(&[1, 3]);
                let x = vec![ctx.rank() as f64];
                let s = g
                    .allreduce_vec(ctx, ReduceOp::Sum, x.clone(), CommPhase::Recovery)
                    .await;
                let mx = g
                    .allreduce_vec(ctx, ReduceOp::Max, x, CommPhase::Recovery)
                    .await;
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
        let out = run(ClusterConfig::new(2), async |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::f64s(vec![0.0; 10]), CommPhase::Spmv);
                ctx.send(1, 2, Payload::f64s(vec![0.0; 3]), CommPhase::Redundancy);
            } else {
                ctx.recv(0, 1).await;
                ctx.recv(0, 2).await;
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
        let out = run(ClusterConfig::new(2).with_cost(cost), async |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, Payload::f64s(vec![0.0; 10]), CommPhase::Spmv);
            } else {
                ctx.recv(0, 1).await;
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
        let out = run(ClusterConfig::new(3).with_spares(2), async |ctx| {
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
        let out = run(ClusterConfig::new(2), async |ctx| {
            ctx.spare_pool().remaining()
        });
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "unconsumed message from rank 0")]
    fn a_leaked_message_fails_the_run_in_every_profile() {
        // The auditor's `[message-drain]` report where it runs, the queue
        // residue panic where it does not: both name the leak.
        run(ClusterConfig::new(2), async |ctx| {
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
        run(ClusterConfig::new(2), async |ctx| {
            let peer = 1 - ctx.rank();
            ctx.recv(peer, 1).await;
        });
    }

    #[test]
    #[should_panic(expected = "wait chain ends at a terminated rank")]
    fn recv_from_finished_rank_is_reported() {
        // On node threads: the deadlock report reaches a parked thread too.
        Cluster::run(ClusterConfig::new(2), |ctx| {
            if ctx.rank() == 1 {
                // Rank 0 finishes without ever sending; rank 1's wait can
                // never be satisfied.
                ctx.recv_phase(0, 1, CommPhase::Other);
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
        run(ClusterConfig::new(3), async |ctx| match ctx.rank() {
            0 => {
                ctx.allreduce_sum(1.0).await;
            }
            1 => {}
            _ => {
                ctx.recv(0, 1).await;
            }
        });
    }

    #[test]
    #[should_panic(expected = "node 1 panicked")]
    fn node_panic_propagates() {
        run(ClusterConfig::new(2), async |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 must not block forever on a dead peer in this test:
            // it does no communication.
        });
    }

    /// A ring exchange and both all-reduces, as a polled and as a blocking
    /// program: the same results, clocks and statistics, and the same
    /// suspensions — a poll that returns `Pending` where a thread parks.
    #[test]
    fn blocking_threads_replay_the_polled_schedule() {
        let n = 5;
        let polled = Cluster::run_async(ClusterConfig::new(n), async |ctx| {
            let (me, next, prev) = (ctx.rank(), (ctx.rank() + 1) % n, (ctx.rank() + n - 1) % n);
            ctx.send(next, 1, Payload::f64s(vec![me as f64]), CommPhase::Spmv);
            let got = ctx.recv_phase(prev, 1, CommPhase::Spmv).await.into_f64s()[0];
            let sum = ctx.allreduce_sum(got).await;
            let req = ctx.iallreduce_vec(ReduceOp::Max, vec![sum]).await;
            (req.wait(ctx)[0], ctx.vtime().to_bits(), ctx.stats().clone())
        });
        let blocking = Cluster::run_threads(ClusterConfig::new(n), |ctx| {
            let (me, next, prev) = (ctx.rank(), (ctx.rank() + 1) % n, (ctx.rank() + n - 1) % n);
            ctx.send(next, 1, Payload::f64s(vec![me as f64]), CommPhase::Spmv);
            let got = ctx.recv_phase(prev, 1, CommPhase::Spmv).into_f64s()[0];
            let sum = ctx.allreduce_sum(got);
            let req = ctx.iallreduce_vec(ReduceOp::Max, vec![sum]);
            (req.wait(ctx)[0], ctx.vtime().to_bits(), ctx.stats().clone())
        });
        assert_eq!(polled.values, blocking.values);
        assert_eq!(polled.host.threads_spawned, 0);
        assert_eq!(blocking.host.threads_spawned, n);
        assert!(polled.host.suspensions > 0);
        assert_eq!(polled.host.suspensions, blocking.host.suspensions);
    }

    /// A node panics while its peer, holding an un-waited request, is
    /// parked in a second non-blocking all-reduce. Dropping the stopped
    /// peer must not replace the root cause with the request's own
    /// complaint — in either executor.
    #[test]
    fn an_abort_beside_an_unwaited_request_reports_the_root_cause() {
        let report = |run: &dyn Fn()| {
            let err = catch_unwind(AssertUnwindSafe(run)).expect_err("the run aborts");
            panic_message(err)
        };
        let polled = report(&|| {
            run(ClusterConfig::new(2), async |ctx| {
                let first = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]).await;
                if ctx.rank() == 0 {
                    panic!("boom");
                }
                let second = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]).await;
                (first.wait(ctx), second.wait(ctx))
            });
        });
        let blocking = report(&|| {
            Cluster::run(ClusterConfig::new(2), |ctx| {
                let first = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]);
                if ctx.rank() == 0 {
                    panic!("boom");
                }
                let second = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]);
                (first.wait(ctx), second.wait(ctx))
            });
        });
        for report in [polled, blocking] {
            assert!(report.contains("node 0 panicked: boom"), "{report}");
        }
    }
}
