//! The per-node communicator handle: point-to-point messaging and
//! deterministic collectives.
//!
//! Collectives have a **structure fixed by (root, size)**, so floating-point
//! reductions are bitwise reproducible across runs — the reduction order
//! never depends on message timing. Broadcast and gather use binomial trees
//! of point-to-point messages; all-reduce and barrier use **recursive
//! doubling** (⌈log₂N⌉ rounds, no root bottleneck; non-power-of-two sizes
//! fold the surplus ranks in before and out after the doubling phase,
//! +2 rounds). This mirrors what MPI implementations provide on a fixed
//! topology and is essential for the reproducibility of the numerical
//! experiments.
//!
//! The recursive-doubling rounds are **scheduler-resident**: participants
//! meet once in [`crate::sched`], the last arriver computes the reduced
//! buffer and every round's message stamps for everyone, and each rank then
//! books its own rounds here — the same `record_send` / `stamp_send` /
//! `absorb_arrival` / trace calls, in the same order, that exchanging the
//! messages would have made. Every virtual time, statistic and trace event
//! is what the message exchange produces; only the physical messages and
//! their host-thread hand-offs are gone.

use std::collections::HashMap;
use std::sync::Arc;

#[cfg(feature = "audit")]
use crate::audit;
use crate::fault::{FailAt, FaultOracle};
use crate::group::Group;
use crate::payload::{Message, Payload};
use crate::request::{AllreduceRequest, RecvRequest, SendRequest};
use crate::sched::{Deposit, RdShape, Scheduler};
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

/// Element types that can travel in a [`Payload`] buffer variant. Lets the
/// ragged-buffer logic (broadcast counts, then flattened data, then split)
/// be written once for both `f64` and `u64`.
pub(crate) trait PayloadElem: Clone {
    fn wrap(v: Vec<Self>) -> Payload;
    fn unwrap(p: Payload) -> Vec<Self>;
}

impl PayloadElem for f64 {
    fn wrap(v: Vec<f64>) -> Payload {
        Payload::f64s(v)
    }
    fn unwrap(p: Payload) -> Vec<f64> {
        p.into_f64s()
    }
}

impl PayloadElem for u64 {
    fn wrap(v: Vec<u64>) -> Payload {
        Payload::u64s(v)
    }
    fn unwrap(p: Payload) -> Vec<u64> {
        p.into_u64s()
    }
}

/// Personalized all-to-all of per-participant buffers under one tag: post
/// all sends first (sends never block — no deadlock), then receive in
/// ascending participant order; the own slot is passed through untouched.
/// One implementation for the world (`members: None`) and group
/// communicators and for every element type that fits in a payload — the
/// loop used to live in four near-identical copies.
pub(crate) fn alltoallv_generic<T: PayloadElem>(
    ctx: &mut NodeCtx,
    my_index: usize,
    members: Option<&[usize]>,
    tag: Tag,
    phase: CommPhase,
    mut sends: Vec<Vec<T>>,
) -> Vec<Vec<T>> {
    let n = sends.len();
    let rank_of = |i: usize| members.map_or(i, |m| m[i]);
    let mut own = Some(std::mem::take(&mut sends[my_index]));
    for i in 0..n {
        if i != my_index {
            // Most pairs of an all-to-all exchange nothing: an empty list
            // travels as `Empty`, not as a heap-allocated empty buffer.
            let data = std::mem::take(&mut sends[i]);
            let payload = if data.is_empty() {
                Payload::Empty
            } else {
                T::wrap(data)
            };
            ctx.send_tag(rank_of(i), tag, payload, phase);
        }
    }
    let mut out: Vec<Vec<T>> = Vec::with_capacity(n);
    for i in 0..n {
        if i == my_index {
            out.push(own.take().expect("own slot filled once"));
        } else {
            out.push(T::unwrap(ctx.recv_tag(rank_of(i), tag, phase).payload));
        }
    }
    out
}

/// Gather per-participant buffers on participant index `root`, in index
/// order (`members`: as in [`alltoallv_generic`]); the others return `None`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gatherv_generic<T: PayloadElem>(
    ctx: &mut NodeCtx,
    my_index: usize,
    n: usize,
    members: Option<&[usize]>,
    root: usize,
    tag: Tag,
    phase: CommPhase,
    x: Vec<T>,
) -> Option<Vec<Vec<T>>> {
    let rank_of = |i: usize| members.map_or(i, |m| m[i]);
    if my_index != root {
        ctx.send_tag(rank_of(root), tag, T::wrap(x), phase);
        return None;
    }
    let mut own = Some(x);
    let mut gathered = Vec::with_capacity(n);
    for i in 0..n {
        gathered.push(if i == root {
            own.take().expect("own slot filled once")
        } else {
            T::unwrap(ctx.recv_tag(rank_of(i), tag, phase).payload)
        });
    }
    Some(gathered)
}

/// Broadcast from participant index `root` over a binomial tree of `n`
/// participants (`members`: as in [`alltoallv_generic`]). The per-child
/// `data.clone()` is an `Arc` bump, not a buffer copy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tree_bcast_generic(
    ctx: &mut NodeCtx,
    my_index: usize,
    n: usize,
    members: Option<&[usize]>,
    root: usize,
    tag: Tag,
    phase: CommPhase,
    payload: Payload,
) -> Payload {
    if n == 1 {
        return payload;
    }
    // Tree positions are indices rotated so the root sits at 0.
    let rank_of = |v: usize| members.map_or((v + root) % n, |m| m[(v + root) % n]);
    let vrank = (my_index + n - root) % n;
    // Find the highest power of two ≤ n.
    let mut top = 1usize;
    while top << 1 < n {
        top <<= 1;
    }
    let data: Payload = if vrank == 0 {
        payload
    } else {
        // Receive from parent: clear lowest set bit of vrank.
        ctx.recv_tag(rank_of(vrank & (vrank - 1)), tag, phase)
            .payload
    };
    // Forward to children (bits below our lowest set bit), farthest
    // subtree first so it starts as early as possible.
    let lowbit = if vrank == 0 {
        top << 1
    } else {
        vrank & vrank.wrapping_neg()
    };
    let mut mask = top;
    while mask > 0 {
        if mask < lowbit && vrank | mask < n {
            ctx.send_tag(rank_of(vrank | mask), tag, data.clone(), phase);
        }
        mask >>= 1;
    }
    data
}

/// Split a flattened buffer back into per-rank pieces of the given lengths.
pub(crate) fn split_by_counts<T>(flat: Vec<T>, counts: &[u64]) -> Vec<Vec<T>> {
    debug_assert_eq!(flat.len() as u64, counts.iter().sum::<u64>());
    let mut it = flat.into_iter();
    counts
        .iter()
        .map(|&c| it.by_ref().take(c as usize).collect())
        .collect()
}

/// Whose clock a communication step is booked on: the node's own (the
/// blocking primitives), or a detached engine timeline that started when a
/// non-blocking operation was issued and leaves the node clock untouched
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
/// `NodeCtx` exists per node thread.
pub struct NodeCtx {
    rank: usize,
    size: usize,
    /// The cluster's node scheduler: owns every rank's message queue and
    /// the open collectives, and parks this node when it must wait.
    sched: Arc<Scheduler>,
    oracle: FaultOracle,
    clock: VClock,
    stats: CommStats,
    coll_seq: u64,
    group_counters: HashMap<Vec<usize>, u32>,
    spares: usize,
    #[cfg(feature = "audit")]
    audit: Option<Box<audit::AuditState>>,
    #[cfg(feature = "trace")]
    trace: Option<Box<crate::trace::TraceState>>,
}

impl NodeCtx {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        sched: Arc<Scheduler>,
        oracle: FaultOracle,
        clock: VClock,
        spares: usize,
    ) -> Self {
        NodeCtx {
            rank,
            size,
            sched,
            oracle,
            clock,
            stats: CommStats::new(),
            coll_seq: 0,
            group_counters: HashMap::new(),
            spares,
            #[cfg(feature = "audit")]
            audit: None,
            #[cfg(feature = "trace")]
            trace: None,
        }
    }

    /// Attach the virtual-time tracer. Called by `Cluster::run` before the
    /// program starts; strictly observational (never touches the clock).
    #[cfg(feature = "trace")]
    pub(crate) fn install_trace(&mut self) {
        self.trace = Some(Box::new(crate::trace::TraceState::new(self.rank)));
    }

    /// Surrender this node's trace log (called at teardown).
    #[cfg(feature = "trace")]
    pub(crate) fn take_trace(&mut self) -> Option<crate::trace::NodeTrace> {
        self.trace.take().map(|t| t.into_log())
    }

    /// Attach the protocol auditor (this node's event log). Called by
    /// `Cluster::run` before the program.
    #[cfg(feature = "audit")]
    pub(crate) fn install_audit(&mut self) {
        self.audit = Some(Box::new(audit::AuditState::new(self.rank)));
    }

    /// Surrender this node's audit event log (called at teardown).
    #[cfg(feature = "audit")]
    pub(crate) fn take_audit_log(&mut self) -> Option<audit::NodeLog> {
        self.audit.take().map(|a| a.into_log())
    }

    /// Record a matched receive into the audit log (no-op without the
    /// `audit` feature — keeps call sites feature-agnostic).
    #[cfg(feature = "audit")]
    fn audit_recv(&mut self, m: &Message) {
        if let Some(a) = &mut self.audit {
            a.record_recv(m);
        }
    }

    #[cfg(not(feature = "audit"))]
    #[inline(always)]
    fn audit_recv(&mut self, _m: &Message) {}

    /// Record a collective call into the audit log.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_coll(&mut self, ev: audit::CollEvent) {
        if let Some(a) = &mut self.audit {
            a.record_coll(ev);
        }
    }

    /// Record a world-communicator collective call (no-op without `audit`).
    /// `len` is the contributed length where the protocol requires
    /// agreement — `None` for ragged collectives and for participants that
    /// do not know it up front (bcast leaves); the checker compares lengths
    /// among declared values only.
    fn audit_world_coll(&mut self, seq: u64, kind: u8, rop: Option<ReduceOp>, len: Option<usize>) {
        #[cfg(not(feature = "audit"))]
        let _ = (seq, kind, rop, len);
        #[cfg(feature = "audit")]
        self.audit_coll(audit::CollEvent {
            scope: None,
            seq,
            kind,
            rop,
            len,
            members_hash: audit::WORLD_HASH,
            n_members: self.size,
        });
    }

    /// Declare entry into recovery-attempt tag window `id` (a no-op without
    /// the `audit` feature). The engine calls this at the top of each
    /// recovery attempt; receives issued until the matching
    /// [`NodeCtx::audit_exit_window`] must only match messages sent inside
    /// the same window. Entering a new window while one is open closes the
    /// old one (an aborted attempt), including its residue check.
    pub fn audit_enter_window(&mut self, id: u32) {
        #[cfg(feature = "audit")]
        if let Some(a) = &mut self.audit {
            if let Some(prev) = a.window.replace(id) {
                self.sched.scan_window_residue(self.rank, prev);
            }
        }
        #[cfg(not(feature = "audit"))]
        let _ = id;
    }

    /// Close the current recovery-attempt tag window (no-op without the
    /// `audit` feature): checks that no message stamped with the closing
    /// window remains unconsumed in this node's queue.
    pub fn audit_exit_window(&mut self) {
        #[cfg(feature = "audit")]
        if let Some(a) = &mut self.audit {
            if let Some(prev) = a.window.take() {
                self.sched.scan_window_residue(self.rank, prev);
            }
        }
    }

    /// Open a named trace span stamped with the current virtual clock (a
    /// no-op without the `trace` feature — keeps call sites
    /// feature-agnostic). Spans nest; close the innermost one with
    /// [`NodeCtx::trace_close`]. Strictly observational.
    pub fn trace_open(&mut self, name: &'static str, arg: u64) {
        #[cfg(feature = "trace")]
        {
            let t = self.clock.now();
            if let Some(tr) = &mut self.trace {
                tr.record(t, crate::trace::TraceEventKind::Open { name, arg });
            }
        }
        #[cfg(not(feature = "trace"))]
        let _ = (name, arg);
    }

    /// Close the innermost open trace span (no-op without `trace`).
    pub fn trace_close(&mut self) {
        #[cfg(feature = "trace")]
        {
            let t = self.clock.now();
            if let Some(tr) = &mut self.trace {
                tr.record(t, crate::trace::TraceEventKind::Close);
            }
        }
    }

    /// Record a zero-duration trace marker (no-op without `trace`).
    pub fn trace_instant(&mut self, name: &'static str, arg: u64) {
        #[cfg(feature = "trace")]
        {
            let t = self.clock.now();
            if let Some(tr) = &mut self.trace {
                tr.record(t, crate::trace::TraceEventKind::Instant { name, arg });
            }
        }
        #[cfg(not(feature = "trace"))]
        let _ = (name, arg);
    }

    /// Record a send event with its per-`(dst, tag)` sequence number
    /// (no-op without `trace`, like the span markers above).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_send_event(
        &mut self,
        phase: CommPhase,
        dst: usize,
        tag: Tag,
        elems: usize,
        t: f64,
        dt: f64,
        engine: bool,
    ) {
        #[cfg(not(feature = "trace"))]
        let _ = (phase, dst, tag, elems, t, dt, engine);
        #[cfg(feature = "trace")]
        if let Some(tr) = &mut self.trace {
            let seq = tr.next_send_seq(dst, tag);
            tr.record(
                t,
                crate::trace::TraceEventKind::Send {
                    phase,
                    dst,
                    tag,
                    elems,
                    seq,
                    dt,
                    engine,
                },
            );
        }
    }

    /// Record a receive event with its per-`(src, tag)` sequence number.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn trace_recv_event(
        &mut self,
        phase: CommPhase,
        src: usize,
        tag: Tag,
        elems: usize,
        t: f64,
        stall: f64,
        engine: bool,
    ) {
        #[cfg(not(feature = "trace"))]
        let _ = (phase, src, tag, elems, t, stall, engine);
        #[cfg(feature = "trace")]
        if let Some(tr) = &mut self.trace {
            let seq = tr.next_recv_seq(src, tag);
            tr.record(
                t,
                crate::trace::TraceEventKind::Recv {
                    phase,
                    src,
                    tag,
                    elems,
                    seq,
                    stall,
                    engine,
                },
            );
        }
    }

    /// Record the exposed/hidden split charged by a non-blocking `wait`.
    pub(crate) fn trace_wait_event(&mut self, phase: CommPhase, t: f64, exposed: f64, hidden: f64) {
        #[cfg(not(feature = "trace"))]
        let _ = (phase, t, exposed, hidden);
        #[cfg(feature = "trace")]
        if let Some(tr) = &mut self.trace {
            tr.record(
                t,
                crate::trace::TraceEventKind::Wait {
                    phase,
                    exposed,
                    hidden,
                },
            );
        }
    }

    /// Test double: reintroduce the PR 2 `swap_remove` FIFO defect in this
    /// node's queue, to prove the auditor's non-overtaking check fires.
    #[doc(hidden)]
    #[cfg(feature = "audit")]
    pub fn audit_seed_fifo_bug(&mut self) {
        self.sched.seed_fifo_bug(self.rank);
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
        self.send_tag(dest, Tag::user(tag), payload, phase);
    }

    pub(crate) fn send_tag(&mut self, dest: usize, tag: Tag, payload: Payload, phase: CommPhase) {
        debug_assert!(dest < self.size, "send to rank {} of {}", dest, self.size);
        let arrival = self.book_send(&mut Timeline::Node, dest, tag, payload.elems(), phase);
        self.raw_send(dest, tag, payload, arrival);
    }

    /// Book one outgoing message of `elems` elements on `tl` — statistics,
    /// clock, trace — and return its arrival stamp. Everything a send does
    /// except deliver: the blocking and non-blocking sends deliver next,
    /// a resident collective's rounds have nothing to deliver.
    fn book_send(
        &mut self,
        tl: &mut Timeline,
        dest: usize,
        tag: Tag,
        elems: usize,
        phase: CommPhase,
    ) -> f64 {
        self.stats.record_send(phase, elems);
        match tl {
            Timeline::Node => {
                let t0 = self.clock.now();
                let arrival = self.clock.stamp_send(elems);
                self.stats.record_send_vtime(phase, arrival - t0);
                self.trace_send_event(phase, dest, tag, elems, t0, arrival - t0, false);
                arrival
            }
            Timeline::Engine(now) => {
                let cost = self.clock.model().msg_cost(elems);
                self.trace_send_event(phase, dest, tag, elems, *now, cost, true);
                *now += cost;
                *now
            }
        }
    }

    /// Book the receipt of a message stamped `arrival` on `tl`: a blocking
    /// receive stalls the node clock until the stamp; the engine timeline
    /// just moves up to it (any exposed cost is charged later, at `wait`).
    fn book_recv(
        &mut self,
        tl: &mut Timeline,
        src: usize,
        tag: Tag,
        elems: usize,
        arrival: f64,
        phase: CommPhase,
    ) {
        match tl {
            Timeline::Node => {
                let t0 = self.clock.now();
                let stall = self.clock.absorb_arrival(arrival);
                self.stats.record_wait_vtime(phase, stall);
                self.trace_recv_event(phase, src, tag, elems, t0, stall, false);
            }
            Timeline::Engine(now) => {
                if arrival > *now {
                    *now = arrival;
                }
                self.trace_recv_event(phase, src, tag, elems, *now, 0.0, true);
            }
        }
    }

    /// Deliver a message with an explicit arrival stamp, touching neither
    /// the clock nor the statistics — the primitive beneath both the
    /// blocking path (which charges the sender first) and the non-blocking
    /// `isend` (which stamps with its own detached timeline).
    pub(crate) fn raw_send(&mut self, dest: usize, tag: Tag, payload: Payload, arrival_vtime: f64) {
        debug_assert_ne!(dest, self.rank, "self-send is a protocol bug");
        #[allow(unused_mut)]
        let mut msg = Message::new(self.rank, tag, payload, arrival_vtime);
        #[cfg(feature = "audit")]
        if let Some(a) = &mut self.audit {
            msg.stamp = a.stamp_send(dest, tag);
        }
        self.sched.send(dest, msg);
    }

    /// Blocking receive (`src: None` ⇒ any source) with no clock or stats
    /// effects: non-blocking requests account on their own timeline.
    pub(crate) fn raw_recv_blocking(&mut self, src: Option<usize>, tag: Tag) -> Message {
        let m = self.sched.recv(self.rank, src, tag, self.clock.now());
        self.audit_recv(&m);
        m
    }

    /// Arrival stamp of the next `(src, tag)` match already delivered, if
    /// any — non-blocking and non-consuming, with no clock or stats effects
    /// (advisory `test` path — matching stays in program order).
    pub(crate) fn raw_peek_arrival(&self, src: usize, tag: Tag) -> Option<f64> {
        self.sched.peek_arrival(self.rank, src, tag)
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
        debug_assert_eq!(
            split.iter().map(|&(_, n)| n).sum::<usize>(),
            payload.elems(),
            "phase split must cover the payload"
        );
        let mut first = true;
        for &(phase, elems) in split {
            if first {
                self.stats.record_send(phase, elems);
                first = false;
            } else {
                // Count elements without double-counting the message.
                let msgs_before = self.stats.msgs(phase);
                self.stats.record_send(phase, elems);
                // record_send bumped the message counter; compensate so
                // message counts reflect physical messages.
                debug_assert_eq!(self.stats.msgs(phase), msgs_before + 1);
                self.stats.uncount_msg(phase);
            }
        }
        let elems = payload.elems();
        let t0 = self.clock.now();
        let arrival_vtime = self.clock.stamp_send(elems);
        // The transfer time of the one physical message is charged to the
        // first phase that actually contributes elements — a link carrying
        // only redundancy must book its time under Redundancy, not under
        // an empty leading Spmv slot.
        let owner = split
            .iter()
            .find(|&&(_, n)| n > 0)
            .map_or(split[0].0, |&(p, _)| p);
        self.stats.record_send_vtime(owner, arrival_vtime - t0);
        self.trace_send_event(
            owner,
            dest,
            Tag::user(tag),
            elems,
            t0,
            arrival_vtime - t0,
            false,
        );
        self.raw_send(dest, Tag::user(tag), payload, arrival_vtime);
    }

    /// Blocking receive of a user-tagged message from `src` (stall time
    /// accounted to [`CommPhase::Other`]; use [`NodeCtx::recv_phase`] to
    /// attribute it).
    pub fn recv(&mut self, src: usize, tag: u32) -> Payload {
        self.recv_phase(src, tag, CommPhase::Other)
    }

    /// Blocking receive of a user-tagged message from `src`, with the stall
    /// time attributed to `phase`.
    pub fn recv_phase(&mut self, src: usize, tag: u32, phase: CommPhase) -> Payload {
        self.recv_tag(src, Tag::user(tag), phase).payload
    }

    pub(crate) fn recv_tag(&mut self, src: usize, tag: Tag, phase: CommPhase) -> Message {
        let m = self.raw_recv_blocking(Some(src), tag);
        let (elems, arrival) = (m.payload.elems(), m.arrival_vtime);
        self.book_recv(&mut Timeline::Node, src, tag, elems, arrival, phase);
        m
    }

    /// Blocking receive of a user-tagged message from any source.
    pub fn recv_any(&mut self, tag: u32) -> (usize, Payload) {
        let tag = Tag::user(tag);
        let m = self.raw_recv_blocking(None, tag);
        let (elems, arrival) = (m.payload.elems(), m.arrival_vtime);
        self.book_recv(
            &mut Timeline::Node,
            m.src,
            tag,
            elems,
            arrival,
            CommPhase::Other,
        );
        (m.src, m.payload)
    }

    // ------------------------------------------------------------------
    // Non-blocking point-to-point and collectives
    // ------------------------------------------------------------------

    /// Non-blocking send: the message departs immediately (stamped from the
    /// current clock), but the sender's clock is **not** charged — the
    /// transfer runs concurrently with whatever the node computes next.
    /// [`SendRequest::wait`] charges only the part of the transfer not
    /// hidden behind that compute.
    pub fn isend(
        &mut self,
        dest: usize,
        tag: u32,
        payload: Payload,
        phase: CommPhase,
    ) -> SendRequest {
        debug_assert!(dest < self.size, "send to rank {} of {}", dest, self.size);
        let elems = payload.elems();
        let mut engine = Timeline::Engine(self.clock.now());
        let done_at = self.book_send(&mut engine, dest, Tag::user(tag), elems, phase);
        self.raw_send(dest, Tag::user(tag), payload, done_at);
        SendRequest::new(done_at, self.clock.model().msg_cost(elems), phase)
    }

    /// Non-blocking receive: returns a handle that matches `(src, tag)`.
    /// Compute performed before [`RecvRequest::wait`] overlaps the message
    /// flight; `wait` charges only the remaining latency
    /// (`max(clock, arrival) − clock`). The message is matched at `wait`,
    /// in program order — interleaving blocking `recv`s on the same
    /// `(src, tag)` while the request is in flight matches them in the
    /// order the calls execute, deterministically.
    pub fn irecv(&mut self, src: usize, tag: u32, phase: CommPhase) -> RecvRequest {
        let tag = Tag::user(tag);
        let posted_at = self.clock.now();
        RecvRequest::new(src, tag, phase, posted_at)
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
    pub fn iallreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> AllreduceRequest {
        let seq = self.next_seq();
        let tag = Tag::coll(op::ALLREDUCE, seq);
        self.audit_world_coll(seq, op::ALLREDUCE, Some(opr), Some(x.len()));
        self.trace_open("iallreduce", seq);
        let start = self.clock.now();
        let mut engine = Timeline::Engine(start);
        let (rank, size) = (self.rank, self.size);
        let (acc, rounds) = self.rd_rounds(
            &mut engine,
            rank,
            size,
            None,
            tag,
            opr,
            x,
            CommPhase::Reduction,
        );
        self.trace_close();
        self.stats.record_allreduce(rounds);
        AllreduceRequest::new(acc, start, engine.now(&self.clock), CommPhase::Reduction)
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    fn next_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    /// Synchronize all nodes (and their virtual clocks). Implemented as a
    /// zero-length recursive-doubling all-reduce, so every node transitively
    /// absorbs every other node's clock in ⌈log₂N⌉(+2) rounds.
    pub fn barrier(&mut self) {
        let seq = self.next_seq();
        let tag = Tag::coll(op::BARRIER, seq);
        self.audit_world_coll(seq, op::BARRIER, None, Some(0));
        self.trace_open("barrier", seq);
        let (rank, size) = (self.rank, self.size);
        let (tl, x) = (&mut Timeline::Node, Vec::new());
        self.rd_rounds(
            tl,
            rank,
            size,
            None,
            tag,
            ReduceOp::Sum,
            x,
            CommPhase::Reduction,
        );
        self.trace_close();
    }

    /// Broadcast `payload` from `root`; every node returns the payload.
    pub fn bcast(&mut self, root: usize, payload: Payload) -> Payload {
        let seq = self.next_seq();
        self.audit_world_coll(seq, op::BCAST, None, None);
        self.trace_open("bcast", seq);
        let tag = Tag::coll(op::BCAST, seq);
        let (rank, size) = (self.rank, self.size);
        let out = tree_bcast_generic(
            self,
            rank,
            size,
            None,
            root,
            tag,
            CommPhase::Reduction,
            payload,
        );
        self.trace_close();
        out
    }

    /// All-reduce a scalar.
    pub fn allreduce_sum(&mut self, x: f64) -> f64 {
        self.allreduce_vec(ReduceOp::Sum, vec![x])[0]
    }

    /// All-reduce max of a scalar.
    pub fn allreduce_max(&mut self, x: f64) -> f64 {
        self.allreduce_vec(ReduceOp::Max, vec![x])[0]
    }

    /// All-reduce min of a scalar.
    pub fn allreduce_min(&mut self, x: f64) -> f64 {
        self.allreduce_vec(ReduceOp::Min, vec![x])[0]
    }

    /// Element-wise all-reduce of an `f64` buffer (all nodes pass equal
    /// lengths; the result is bitwise identical on every node).
    ///
    /// Recursive doubling: ⌈log₂N⌉ rounds (+2 on non-power-of-two sizes),
    /// every node sends and receives one buffer per round — no root
    /// bottleneck. The pairing and combination order are fixed functions
    /// of (rank, size), so the result is deterministic.
    pub fn allreduce_vec(&mut self, opr: ReduceOp, x: Vec<f64>) -> Vec<f64> {
        let seq = self.next_seq();
        let tag = Tag::coll(op::ALLREDUCE, seq);
        self.audit_world_coll(seq, op::ALLREDUCE, Some(opr), Some(x.len()));
        self.trace_open("allreduce", seq);
        let (rank, size) = (self.rank, self.size);
        let tl = &mut Timeline::Node;
        let (acc, rounds) = self.rd_rounds(tl, rank, size, None, tag, opr, x, CommPhase::Reduction);
        self.trace_close();
        self.stats.record_allreduce(rounds);
        acc
    }

    /// Deterministic recursive-doubling all-reduce over `n` participants
    /// (schedule: [`RdShape`]), booked on `tl`.
    ///
    /// `my_index` is this node's participant index; `members` maps
    /// participant indices to global ranks (`None` ⇒ identity, i.e. the
    /// world communicator). Returns the reduced buffer — **bitwise
    /// identical on every participant** — and the number of communication
    /// rounds this participant took part in.
    ///
    /// The rendezvous in [`Scheduler::allreduce`] yields the result and the
    /// arrival stamp of every message of the schedule; this node then books
    /// exactly its own rounds, in schedule order. Within one call every
    /// ordered pair of participants exchanges at most one message, so a
    /// single tag covers all rounds.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rd_rounds(
        &mut self,
        tl: &mut Timeline,
        my_index: usize,
        n: usize,
        members: Option<&[usize]>,
        tag: Tag,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> (Vec<f64>, usize) {
        if n == 1 {
            return (x, 0);
        }
        let elems = x.len();
        let deposit = Deposit {
            tag,
            index: my_index,
            n,
            members,
            opr,
            entry: tl.now(&self.clock),
            x,
            msg_cost: self.clock.model().msg_cost(elems),
        };
        let out = self.sched.allreduce(self.rank, deposit, self.clock.now());

        let rank_of = |i: usize| members.map_or(i, |m| m[i]);
        let mine = RdShape::new(n).rounds_of(my_index);
        for (k, round) in mine.iter().enumerate() {
            let peer = rank_of(round.peer);
            self.trace_open("round", k as u64);
            if round.sends {
                let sent = self.book_send(tl, peer, tag, elems, phase);
                debug_assert_eq!(sent.to_bits(), out.stamps[round.row][my_index].to_bits());
            }
            if round.recvs {
                let arrival = out.stamps[round.row][round.peer];
                self.book_recv(tl, peer, tag, elems, arrival, phase);
            }
            self.trace_close();
        }
        // Whoever finishes last takes the shared buffer; the others copy.
        let result = Arc::try_unwrap(out).map_or_else(|o| o.result.clone(), |o| o.result);
        (result, mine.len())
    }

    /// Gather variable-length `f64` buffers on `root` (rank order).
    /// Non-roots return `None`.
    pub fn gatherv_f64(&mut self, root: usize, x: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        self.gatherv(root, x)
    }

    fn gatherv<T: PayloadElem>(&mut self, root: usize, x: Vec<T>) -> Option<Vec<Vec<T>>> {
        let seq = self.next_seq();
        let tag = Tag::coll(op::GATHER, seq);
        self.audit_world_coll(seq, op::GATHER, None, None);
        self.trace_open("gather", seq);
        let (rank, size) = (self.rank, self.size);
        let out = gatherv_generic(self, rank, size, None, root, tag, CommPhase::Other, x);
        self.trace_close();
        out
    }

    /// All-gather variable-length `f64` buffers; result indexed by rank.
    pub fn allgatherv_f64(&mut self, x: Vec<f64>) -> Vec<Vec<f64>> {
        let gathered = self.gatherv(0, x);
        self.bcast_ragged(0, gathered)
    }

    /// All-gather variable-length `u64` buffers; result indexed by rank.
    pub fn allgatherv_u64(&mut self, x: Vec<u64>) -> Vec<Vec<u64>> {
        let gathered = self.gatherv(0, x);
        self.bcast_ragged(0, gathered)
    }

    /// Broadcast ragged per-rank buffers from `root`: counts first, then the
    /// flattened data, then split back. One implementation for every element
    /// type that fits in a payload (the logic used to be triplicated).
    fn bcast_ragged<T: PayloadElem>(
        &mut self,
        root: usize,
        vecs: Option<Vec<Vec<T>>>,
    ) -> Vec<Vec<T>> {
        let counts = self.bcast(
            root,
            match &vecs {
                Some(vs) => Payload::u64s(vs.iter().map(|v| v.len() as u64).collect()),
                None => Payload::Empty,
            },
        );
        let flat = self.bcast(
            root,
            match vecs {
                Some(vs) => T::wrap(vs.into_iter().flatten().collect()),
                None => Payload::Empty,
            },
        );
        split_by_counts(T::unwrap(flat), &counts.into_u64s())
    }

    /// Personalized all-to-all of index lists: `sends[k]` goes to rank `k`;
    /// returns the lists received from every rank (own slot passed through).
    /// Every pair exchanges a message (possibly empty) — used for one-time
    /// plan setup, where symmetric knowledge is simplest and N ≤ a few
    /// hundred.
    pub fn alltoallv_u64(&mut self, sends: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        assert_eq!(sends.len(), self.size, "alltoallv needs one list per rank");
        let seq = self.next_seq();
        let tag = Tag::coll(op::ALLTOALL, seq);
        self.audit_world_coll(seq, op::ALLTOALL, None, None);
        let rank = self.rank;
        self.trace_open("alltoall", seq);
        let out = alltoallv_generic(self, rank, None, tag, CommPhase::Setup, sends);
        self.trace_close();
        out
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

    /// The failure oracle handle.
    pub fn oracle(&self) -> &FaultOracle {
        &self.oracle
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
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// Communication statistics of this node.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Mutable statistics (e.g. recording extra-latency events).
    pub fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    /// Reset clock and statistics (between timed experiment sections);
    /// collective sequence numbers are preserved (they must stay aligned).
    pub fn reset_metrics(&mut self) {
        #[cfg(feature = "trace")]
        if let Some(tr) = self.trace.as_mut() {
            tr.clock_reset(self.clock.now());
        }
        self.clock.reset();
        self.stats.reset();
        self.trace_instant("reset_metrics", 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_by_counts_partitions() {
        let out = split_by_counts(vec![1u64, 2, 3, 4, 5], &[2, 0, 3]);
        assert_eq!(out, vec![vec![1, 2], vec![], vec![3, 4, 5]]);
    }
}
