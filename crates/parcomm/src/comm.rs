//! The per-node communicator handle: exact-source point-to-point messaging
//! and the three collectives a solver runs — all-reduce (blocking and
//! non-blocking), barrier and a sparse personalized all-to-all.
//!
//! Collectives have a **structure fixed by the participant count**, so
//! floating-point reductions are bitwise reproducible across runs — the
//! reduction order never depends on message timing. All-reduce and barrier
//! use **recursive doubling** (⌈log₂N⌉ rounds, no root bottleneck;
//! non-power-of-two sizes fold the surplus ranks in before and out after the
//! doubling phase, +2 rounds), as MPI implementations do on a fixed
//! topology.
//!
//! Every collective is **scheduler-resident**: participants meet once in
//! `crate::sched`, the last arriver computes what the message exchange
//! would have produced — an all-reduce's reduced buffer and every round's
//! message stamps, an all-to-all's payloads and stamp rows — and each rank
//! then books its own messages here, with the same `book_send` /
//! `book_recv` steps, in the same order, that exchanging them would have
//! made. Every virtual time, statistic and trace event is what the message
//! exchange produces; only the physical messages and the node suspensions
//! they would cost are absent.
//!
//! An all-reduce is written once, over a `Scope` — the world or a
//! [`Group`] — as `NodeCtx::allreduce_on`; the public methods here and on
//! `Group` name its span and phase and call it. Everything that watches the
//! traffic (statistics, auditor, tracer) does so through the one event
//! `NodeCtx::emit` hands to `crate::observe`.

use std::collections::HashMap;
use std::sync::Arc;

use crate::fault::{FailAt, FaultOracle};
use crate::group::Group;
use crate::observe::{split_elems, Event, NodeLogs, Observers};
use crate::payload::{Message, Payload};
use crate::request::AllreduceRequest;
use crate::sched::{Deposit, Outcome, Part, RdShape, Scheduler};
use crate::stats::{CommPhase, CommStats};
use crate::tag::{op, Tag};
use crate::vclock::VClock;

/// Element-wise reduction operators over `f64` buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    pub(crate) fn combine(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len(), "reduction length mismatch");
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += *b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    if *b > *a {
                        *a = *b;
                    }
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    if *b < *a {
                        *a = *b;
                    }
                }
            }
        }
    }
}

/// The communicator one collective call runs on: who takes part, as whom,
/// and which call of the communicator's SPMD-aligned sequence this is. The
/// world has identity ranks and [`Tag::coll`] tags; a [`Group`] maps
/// participant indices to its members and scopes its tags by its id.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scope<'a> {
    /// Participant index → global rank (`None` ⇒ identity: the world).
    pub(crate) members: Option<&'a [usize]>,
    /// This node's participant index in `0..n`.
    pub(crate) my_index: usize,
    pub(crate) n: usize,
    /// The group id (`None`: the world).
    pub(crate) id: Option<u32>,
    /// The communicator's collective sequence number of this call.
    pub(crate) seq: u64,
}

impl Scope<'_> {
    fn rank_of(&self, i: usize) -> usize {
        self.members.map_or(i, |m| m[i])
    }

    fn tag(&self, kind: u8) -> Tag {
        match self.id {
            None => Tag::coll(kind, self.seq),
            Some(gid) => Tag::group(gid, kind, self.seq as u32),
        }
    }
}

/// Whose clock a communication step is booked on: the node's own (the
/// blocking primitives), or a detached engine timeline that started when a
/// non-blocking all-reduce was issued and leaves the node clock untouched
/// until `wait` charges the un-hidden remainder (see [`crate::request`]).
/// Both run the same algebra — `now += λ + s·µ` per send,
/// `now = max(now, arrival)` per receive — so a collective's result and
/// completion time do not depend on which one its participants use.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Timeline {
    Node,
    Engine(f64),
}

impl Timeline {
    /// The timeline's current time (`clock` is the node's).
    pub(crate) fn now(self, clock: &VClock) -> f64 {
        match self {
            Timeline::Node => clock.now(),
            Timeline::Engine(now) => now,
        }
    }
}

/// A node's view of the cluster: rank, peers, clock, statistics, the
/// failure oracle, and the scheduler that carries its messages. Exactly one
/// `NodeCtx` exists per node.
pub struct NodeCtx {
    rank: usize,
    size: usize,
    /// The cluster's node scheduler: owns every rank's message queue and
    /// the open collectives, and parks this node when it must wait.
    pub(crate) sched: Arc<Scheduler>,
    oracle: FaultOracle,
    clock: VClock,
    /// Everything that watches this node's communication.
    obs: Observers,
    coll_seq: u64,
    group_counters: HashMap<Vec<usize>, u32>,
    spares: usize,
}

impl NodeCtx {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        sched: Arc<Scheduler>,
        oracle: FaultOracle,
        clock: VClock,
        spares: usize,
        trace: bool,
    ) -> Self {
        NodeCtx {
            rank,
            size,
            sched,
            oracle,
            clock,
            obs: Observers::new(rank, trace),
            coll_seq: 0,
            group_counters: HashMap::new(),
            spares,
        }
    }

    /// Surrender what the diagnostic observers recorded (at teardown).
    pub(crate) fn into_logs(self) -> NodeLogs {
        self.obs.into_logs()
    }

    /// Show the observers what happened at virtual time `t`: the one way
    /// statistics, auditor and tracer learn of anything.
    #[inline]
    pub(crate) fn emit(&mut self, t: f64, ev: Event<'_>) {
        self.obs.emit(t, ev);
    }

    /// Declare entry into recovery-attempt tag window `id` (a no-op with
    /// debug assertions off, where the auditor is off). The engine calls
    /// this at the top of each recovery attempt; receives issued until the
    /// matching [`NodeCtx::audit_exit_window`] must only match messages
    /// sent inside the same window, and collectives must be joined from it.
    /// Entering a new window while one is open closes the old one (an
    /// aborted attempt), including its residue check.
    pub fn audit_enter_window(&mut self, id: u32) {
        self.obs.window(&self.sched, self.rank, Some(id));
    }

    /// Close the current recovery-attempt tag window (a no-op where the
    /// auditor is off): checks that no message stamped with the closing
    /// window remains unconsumed in this node's queue.
    pub fn audit_exit_window(&mut self) {
        self.obs.window(&self.sched, self.rank, None);
    }

    /// Open a named trace span stamped with the current virtual clock
    /// (recorded in a traced run only). Spans nest; close the innermost
    /// one with [`NodeCtx::trace_close`]. Strictly observational.
    pub fn trace_open(&mut self, name: &'static str, arg: u64) {
        self.emit(self.clock.now(), Event::Open { name, arg });
    }

    /// Close the innermost open trace span.
    pub fn trace_close(&mut self) {
        self.emit(self.clock.now(), Event::Close);
    }

    /// Record a zero-duration trace marker.
    pub fn trace_instant(&mut self, name: &'static str, arg: u64) {
        self.emit(self.clock.now(), Event::Instant { name, arg });
    }

    /// This node's rank in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of nodes in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send `payload` to `dest` with a user tag, charged to `phase`.
    pub fn send(&mut self, dest: usize, tag: u32, payload: Payload, phase: CommPhase) {
        let split = [(phase, payload.elems())];
        self.send_with_phases(dest, tag, payload, &split);
    }

    /// Send one physical message whose elements belong to several
    /// accounting phases (e.g. natural SpMV traffic plus appended
    /// redundancy copies — the paper's latency-avoidance optimization:
    /// one message, one λ, split bookkeeping). The `split` counts must sum
    /// to the payload's element count.
    pub fn send_with_phases(
        &mut self,
        dest: usize,
        tag: u32,
        payload: Payload,
        split: &[(CommPhase, usize)],
    ) {
        debug_assert!(dest < self.size, "send to rank {} of {}", dest, self.size);
        debug_assert_ne!(dest, self.rank, "self-send is a protocol bug");
        debug_assert_eq!(
            split_elems(split),
            payload.elems(),
            "split covers the payload"
        );
        let tag = Tag::user(tag);
        let arrival = self.book_send(&mut Timeline::Node, dest, tag, split);
        let mut msg = Message::new(self.rank, tag, payload, arrival);
        self.obs.stamp(dest, &mut msg);
        self.sched.send(dest, msg);
    }

    /// Book one outgoing message on `tl` — clock, then the one `Send` event
    /// — and return its arrival stamp. Everything a send does except
    /// deliver: a point-to-point send delivers next, a resident
    /// collective's messages have nothing to deliver. `split` is the
    /// message's per-phase element accounting (see [`Event::Send`]).
    fn book_send(
        &mut self,
        tl: &mut Timeline,
        dst: usize,
        tag: Tag,
        split: &[(CommPhase, usize)],
    ) -> f64 {
        let elems = split_elems(split);
        // The transfer time of the one physical message is charged to the
        // first phase that actually contributes elements — a link carrying
        // only redundancy must book its time under Redundancy, not under
        // an empty leading Spmv slot.
        let owner = split.iter().find(|&&(_, n)| n > 0);
        let phase = owner.map_or(split[0].0, |&(p, _)| p);
        let (t0, dt, arrival) = match tl {
            Timeline::Node => {
                let t0 = self.clock.now();
                let arrival = self.clock.stamp_send(elems);
                (t0, arrival - t0, arrival)
            }
            Timeline::Engine(now) => {
                let (t0, cost) = (*now, self.clock.model().msg_cost(elems));
                *now += cost;
                (t0, cost, *now)
            }
        };
        let engine = matches!(tl, Timeline::Engine(_));
        self.emit(
            t0,
            Event::Send {
                phase,
                dst,
                tag,
                split,
                dt,
                engine,
            },
        );
        arrival
    }

    /// Book the receipt of a message stamped `arrival` on `tl`: a blocking
    /// receive stalls the node clock until the stamp; the engine timeline
    /// just moves up to it (any exposed cost is charged later, at `wait`)
    /// and stamps its event there.
    fn book_recv(
        &mut self,
        tl: &mut Timeline,
        src: usize,
        tag: Tag,
        elems: usize,
        arrival: f64,
        phase: CommPhase,
    ) {
        let (t, stall, engine) = match tl {
            Timeline::Node => {
                let t0 = self.clock.now();
                (t0, self.clock.absorb_arrival(arrival), false)
            }
            Timeline::Engine(now) => {
                if arrival > *now {
                    *now = arrival;
                }
                (*now, 0.0, true)
            }
        };
        self.emit(
            t,
            Event::Recv {
                phase,
                src,
                tag,
                elems,
                stall,
                engine,
            },
        );
    }

    /// Blocking receive of a user-tagged message from `src` (stall time
    /// accounted to [`CommPhase::Other`]; use [`NodeCtx::recv_phase`] to
    /// attribute it).
    pub async fn recv(&mut self, src: usize, tag: u32) -> Payload {
        self.recv_phase(src, tag, CommPhase::Other).await
    }

    /// Blocking receive of a user-tagged message from `src`, with the stall
    /// time attributed to `phase`. Messages from one source under one tag
    /// match in the order they were sent.
    pub async fn recv_phase(&mut self, src: usize, tag: u32, phase: CommPhase) -> Payload {
        let tag = Tag::user(tag);
        let m = self.sched.recv(self.rank, src, tag, self.clock.now()).await;
        self.emit(self.clock.now(), Event::Matched(&m));
        let (elems, arrival) = (m.payload.elems(), m.arrival_vtime);
        self.book_recv(&mut Timeline::Node, src, tag, elems, arrival, phase);
        m.payload
    }

    // ------------------------------------------------------------------
    // Collectives on the world
    // ------------------------------------------------------------------

    /// Synchronize all nodes (and their virtual clocks): a zero-length
    /// recursive-doubling all-reduce in ⌈log₂N⌉(+2) rounds, so every node
    /// transitively absorbs every other one's clock.
    pub async fn barrier(&mut self) {
        let s = self.world();
        let tag = self.coll_begin(&s, "barrier", op::BARRIER, None, Some(0));
        let (tl, x) = (&mut Timeline::Node, Vec::new());
        self.rd_rounds(tl, &s, tag, ReduceOp::Sum, x, CommPhase::Reduction)
            .await;
        self.trace_close();
    }

    /// All-reduce a scalar sum.
    pub async fn allreduce_sum(&mut self, x: f64) -> f64 {
        self.allreduce_vec(ReduceOp::Sum, vec![x]).await[0]
    }

    /// Element-wise all-reduce of an `f64` buffer (all nodes pass equal
    /// lengths; the result is bitwise identical on every node).
    ///
    /// Recursive doubling: ⌈log₂N⌉ rounds (+2 on non-power-of-two sizes),
    /// every node sends and receives one buffer per round — no root
    /// bottleneck. The pairing and combination order are fixed functions
    /// of (rank, size), so the result is deterministic.
    pub async fn allreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> Vec<f64> {
        let (world, tl) = (self.world(), &mut Timeline::Node);
        self.allreduce_on(tl, &world, "allreduce", opr, x, CommPhase::Reduction)
            .await
    }

    /// Non-blocking element-wise all-reduce: same deterministic
    /// recursive-doubling schedule (and bitwise-identical result) as
    /// [`NodeCtx::allreduce_vec`], but executed on a detached virtual
    /// timeline, as if by a communication offload engine. The node clock is
    /// untouched until [`AllreduceRequest::wait`], which charges only
    /// `max(clock, completion) − clock` — compute issued between `start`
    /// and `wait` hides the reduction's flight time.
    ///
    /// All nodes must issue the operation at the same SPMD point (it shares
    /// the collective sequence space with the blocking collectives).
    pub async fn iallreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> AllreduceRequest {
        let world = self.world();
        self.iallreduce_on(&world, "iallreduce", opr, x, CommPhase::Reduction)
            .await
    }

    /// Personalized all-to-all of index lists, sparse on both sides:
    /// `(destination rank, list)` ascending in, `(source rank, list)`
    /// ascending out, empty lists left out; an entry for the own rank is
    /// passed through untouched. Used for one-time plan setup (booked under
    /// [`CommPhase::Setup`]), where symmetric knowledge is simplest; the
    /// arguments are O(neighbours), not O(N).
    ///
    /// Every ordered pair of nodes still exchanges one message in virtual
    /// time — booked here, never built. This node books its `N − 1` sends
    /// on its own clock in ascending rank order (empty ones included),
    /// meets the others once in `Scheduler::collective` with the stamps
    /// and the non-empty payloads, and then books its `N − 1` receives in
    /// ascending order from the shared stamp rows: the events, clocks and
    /// statistics of posting all sends and then receiving in rank order.
    /// The order is part of the result — a send's stamp is the clock after
    /// every earlier send, a receive's stall depends on the receives before
    /// it — so it is pinned.
    ///
    /// # Panics
    /// Panics when the destinations are not strictly ascending ranks below
    /// the cluster size.
    pub async fn alltoallv_sparse_u64(
        &mut self,
        sends: Vec<(usize, Vec<u64>)>,
    ) -> Vec<(usize, Vec<u64>)> {
        let s = self.world();
        let ascending = sends.windows(2).all(|w| w[0].0 < w[1].0);
        assert!(
            ascending && sends.last().is_none_or(|&(i, _)| i < s.n),
            "alltoallv destinations must be ascending indices below {}",
            s.n
        );
        let tag = self.coll_begin(&s, "alltoall", op::ALLTOALL, None, None);
        let (tl, me, phase) = (&mut Timeline::Node, s.my_index, CommPhase::Setup);
        let mut own = None;
        let mut stamps = vec![0.0; s.n];
        // An empty list is a pair that exchanges nothing: booked, not sent.
        let mut lists = sends.into_iter().filter(|(_, l)| !l.is_empty()).peekable();
        let mut sends = Vec::new();
        for i in 0..s.n {
            let data = lists.next_if(|&(dst, _)| dst == i).map(|(_, data)| data);
            if i == me {
                own = data;
                continue;
            }
            let elems = data.as_ref().map_or(0, Vec::len);
            stamps[i] = self.book_send(tl, i, tag, &[(phase, elems)]);
            sends.extend(data.map(|data| (i, Payload::u64s(data))));
        }
        let part = Part::Exchange { stamps, sends };
        let (shared, recvd) = self.rendezvous(&s, tag, part).await;

        let mut out = Vec::with_capacity(recvd.len() + 1);
        let mut recvd = recvd.into_iter().peekable();
        for i in 0..s.n {
            if i == me {
                out.extend(own.take().map(|data| (me, data)));
                continue;
            }
            let payload = recvd.next_if(|&(src, _)| src == i).map(|(_, p)| p);
            let elems = payload.as_ref().map_or(0, Payload::elems);
            self.book_recv(tl, i, tag, elems, shared.stamps[i][me], phase);
            out.extend(payload.map(|p| (i, p.into_u64s())));
        }
        self.trace_close();
        out
    }

    // ------------------------------------------------------------------
    // Collective bodies, over a scope
    // ------------------------------------------------------------------

    /// The world communicator as the scope of its next collective call
    /// (consumes a sequence number).
    fn world(&mut self) -> Scope<'static> {
        self.coll_seq += 1;
        Scope {
            members: None,
            my_index: self.rank,
            n: self.size,
            id: None,
            seq: self.coll_seq - 1,
        }
    }

    /// The prologue of every collective: show the call to the observers,
    /// open its span (`name`, sequence number) and return the tag its
    /// messages travel under.
    fn coll_begin(
        &mut self,
        scope: &Scope<'_>,
        name: &'static str,
        kind: u8,
        rop: Option<ReduceOp>,
        len: Option<usize>,
    ) -> Tag {
        let call = Event::Coll {
            scope,
            kind,
            rop,
            len,
        };
        self.emit(self.clock.now(), call);
        self.trace_open(name, scope.seq);
        scope.tag(kind)
    }

    /// Element-wise all-reduce on `s`, booked on `tl` (all participants
    /// pass equal lengths; the result is bitwise identical on each).
    pub(crate) async fn allreduce_on(
        &mut self,
        tl: &mut Timeline,
        s: &Scope<'_>,
        name: &'static str,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> Vec<f64> {
        let tag = self.coll_begin(s, name, op::ALLREDUCE, Some(opr), Some(x.len()));
        let (acc, rounds) = self.rd_rounds(tl, s, tag, opr, x, phase).await;
        self.trace_close();
        self.emit(self.clock.now(), Event::Allreduce { rounds });
        acc
    }

    /// Non-blocking all-reduce on `s`: the same schedule on a detached
    /// engine timeline that starts now.
    pub(crate) async fn iallreduce_on(
        &mut self,
        s: &Scope<'_>,
        name: &'static str,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> AllreduceRequest {
        let start = self.clock.now();
        let mut engine = Timeline::Engine(start);
        let acc = self.allreduce_on(&mut engine, s, name, opr, x, phase).await;
        AllreduceRequest::new(acc, start, engine.now(&self.clock), phase)
    }

    /// Deterministic recursive-doubling all-reduce over the participants of
    /// `s` (schedule: [`RdShape`]), booked on `tl`. Returns the reduced
    /// buffer — **bitwise identical on every participant** — and the number
    /// of communication rounds this participant took part in.
    ///
    /// The rendezvous in [`Scheduler::collective`] yields the result and the
    /// arrival stamp of every message of the schedule; this node then books
    /// exactly its own rounds, in schedule order. Within one call every
    /// ordered pair of participants exchanges at most one message, so a
    /// single tag covers all rounds.
    async fn rd_rounds(
        &mut self,
        tl: &mut Timeline,
        s: &Scope<'_>,
        tag: Tag,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> (Vec<f64>, usize) {
        if s.n == 1 {
            return (x, 0);
        }
        let elems = x.len();
        let part = Part::Reduce {
            opr,
            entry: tl.now(&self.clock),
            x,
            msg_cost: self.clock.model().msg_cost(elems),
        };
        let (out, _) = self.rendezvous(s, tag, part).await;

        let mut rounds = 0;
        for (k, round) in RdShape::new(s.n).rounds_of(s.my_index).enumerate() {
            let peer = s.rank_of(round.peer);
            self.trace_open("round", k as u64);
            if round.sends {
                let sent = self.book_send(tl, peer, tag, &[(phase, elems)]);
                debug_assert_eq!(sent.to_bits(), out.stamps[round.row][s.my_index].to_bits());
            }
            if round.recvs {
                let arrival = out.stamps[round.row][round.peer];
                self.book_recv(tl, peer, tag, elems, arrival, phase);
            }
            self.trace_close();
            rounds += 1;
        }
        // Whoever finishes last takes the shared buffer; the others copy.
        let result = Arc::try_unwrap(out).map_or_else(|o| o.result.clone(), |o| o.result);
        (result, rounds)
    }

    /// Meet the other participants of `s` in the scheduler under `tag`.
    async fn rendezvous(&mut self, s: &Scope<'_>, tag: Tag, part: Part) -> Outcome {
        let deposit = Deposit {
            tag,
            index: s.my_index,
            n: s.n,
            members: s.members,
            part,
        };
        let now = self.clock.now();
        self.sched.collective(self.rank, deposit, now).await
    }

    // ------------------------------------------------------------------
    // Groups, faults, metrics
    // ------------------------------------------------------------------

    /// Create a sub-communicator over `ranks` (must contain this rank; all
    /// members must call with the same set at the same SPMD point).
    pub fn group(&mut self, ranks: &[usize]) -> Group {
        Group::create(self, ranks)
    }

    pub(crate) fn group_creation_counter(&mut self, members: &[usize]) -> u32 {
        let c = self.group_counters.entry(members.to_vec()).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    /// Consult the failure oracle at a boundary; all nodes receive the same
    /// answer (simulates ULFM failure notification + agreement).
    pub fn poll_failures(&self, boundary: FailAt) -> Vec<usize> {
        self.oracle.poll(boundary)
    }

    /// This node's view of the cluster's hot-spare pool (see
    /// [`crate::cluster::SparePool`]): a fresh handle holding the
    /// provisioned total. Claims are SPMD-deterministic bookkeeping, so
    /// every node's copy evolves identically.
    pub fn spare_pool(&self) -> crate::cluster::SparePool {
        crate::cluster::SparePool::new(self.spares)
    }

    /// Current virtual time on this node.
    pub fn vtime(&self) -> f64 {
        self.clock.now()
    }

    /// Mutable access to the virtual clock (compute-cost accounting).
    pub fn clock_mut(&mut self) -> &mut VClock {
        &mut self.clock
    }

    /// The virtual clock.
    pub(crate) fn clock(&self) -> &VClock {
        &self.clock
    }

    /// Communication statistics of this node.
    pub fn stats(&self) -> &CommStats {
        &self.obs.stats
    }

    /// Mutable statistics (e.g. recording extra-latency events).
    pub fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.obs.stats
    }

    /// Reset clock and statistics (between timed experiment sections);
    /// collective sequence numbers are preserved (they must stay aligned).
    pub fn reset_metrics(&mut self) {
        // The tracer folds the elapsed epoch into its time base before the
        // clock rewinds; the marker is stamped on the new epoch.
        self.emit(self.clock.now(), Event::ClockReset);
        self.clock.reset();
        self.obs.stats.reset();
        self.trace_instant("reset_metrics", 0);
    }
}

#[cfg(test)]
mod tests {
    /// The auditor re-finds the defect it was built for: a `swap_remove` in
    /// the pending-queue match once reordered same-`(src, tag)` messages
    /// when two were queued. The scheduler's test double re-seeds it on
    /// rank 1's queue; the teardown report must name the reorder.
    #[cfg(debug_assertions)]
    #[test]
    fn resurrected_swap_remove_fifo_bug_is_caught() {
        use crate::{Cluster, ClusterConfig, CommPhase, Payload};
        let err = std::panic::catch_unwind(|| {
            Cluster::run_async(ClusterConfig::new(2), async |ctx| {
                if ctx.rank() == 0 {
                    for v in [1.0, 2.0, 3.0] {
                        ctx.send(1, 7, Payload::f64s(vec![v]), CommPhase::Other);
                    }
                    ctx.send(1, 9, Payload::f64s(vec![9.0]), CommPhase::Other);
                } else {
                    ctx.sched.seed_fifo_bug(ctx.rank);
                    // Receiving tag 9 first forces the three tag-7 messages
                    // through the pending queue, where the seeded
                    // swap_remove reorders them.
                    let _ = ctx.recv(0, 9).await;
                    for _ in 0..3 {
                        let _ = ctx.recv(0, 7).await;
                    }
                }
            })
        })
        .expect_err("the auditor must have flagged this run");
        let msg = err.downcast_ref::<String>().expect("a formatted report");
        assert!(msg.contains("[non-overtaking]"), "{msg}");
        assert!(msg.contains("rank 1"), "{msg}");
        assert!(msg.contains("user(7)"), "{msg}");
        assert!(msg.contains("send order"), "{msg}");
    }
}
