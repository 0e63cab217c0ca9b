//! Non-blocking communication: request handles and the overlap-aware clock
//! accounting behind them.
//!
//! The blocking primitives charge the node's virtual clock immediately: a
//! `send` makes the sender busy for `λ + s·µ`, a `recv` stalls the receiver
//! until the arrival stamp. Communication-hiding algorithms (pipelined PCG,
//! Levonyak et al., arXiv:1912.09230) instead *start* an operation, compute
//! while it is in flight, and *wait* for it later. The handles here model
//! that with a detached timeline, as if the transfer ran on a communication
//! offload engine or MPI progress thread:
//!
//! * `start` records the operation's begin time `t₀` and computes its
//!   completion time `T` on the engine timeline (for collectives the engine
//!   books the exact recursive-doubling schedule, so the *result* is
//!   bitwise identical to the blocking collective);
//! * compute issued between `start` and `wait` advances the node clock
//!   normally — concurrently with the flight time;
//! * `wait` charges only the remaining latency `max(clock, T) − clock`.
//!   The charged part is recorded as *exposed* ([`crate::CommStats::wait_vtime`]),
//!   the overlapped part `T − t₀ − exposed` as *hidden*
//!   ([`crate::CommStats::hidden_vtime`]).
//!
//! A non-blocking all-reduce meets its partners in the scheduler's
//! rendezvous inside `start` — which may park the node like any blocking
//! operation, and may pair it with partners that issued the blocking form.
//! That is invisible to the cost model: scheduling order carries no time,
//! and the rendezvous computes the same stamps for either accounting (see
//! [`crate::comm::Timeline`]); virtual time is what the experiments measure.
//!
//! Requests are **linear**: every request must be consumed by `wait`.
//! Dropping an un-waited request is a protocol bug (MPI would leak the
//! request and possibly its buffer) and panics.

use crate::comm::NodeCtx;
use crate::observe::Event;
use crate::payload::Payload;
use crate::stats::CommPhase;
use crate::tag::Tag;

/// Charge the un-hidden remainder of an operation spanning
/// `[start, done_at]` on the engine timeline: the node clock advances by
/// `max(done_at − clock, 0)` (exposed, recorded as wait time); the rest of
/// the operation's duration was hidden behind compute.
fn charge_wait(ctx: &mut NodeCtx, phase: CommPhase, start: f64, done_at: f64) {
    let t0 = ctx.clock().now();
    let exposed = (done_at - t0).max(0.0);
    if exposed > 0.0 {
        ctx.clock_mut().advance(exposed);
    }
    let duration = (done_at - start).max(0.0);
    let hidden = (duration - exposed).max(0.0);
    ctx.emit(
        t0,
        Event::Wait {
            phase,
            exposed,
            hidden,
        },
    );
}

fn guard_unwaited(what: &str, completed: bool) {
    if !completed && !std::thread::panicking() {
        panic!("{what} dropped without wait — requests are linear; call wait() (or test() until complete, then wait())");
    }
}

/// Handle of an in-flight non-blocking send ([`NodeCtx::isend`]).
#[must_use = "requests must be completed with wait()"]
pub struct SendRequest {
    start: f64,
    done_at: f64,
    phase: CommPhase,
    completed: bool,
}

impl SendRequest {
    pub(crate) fn new(done_at: f64, cost: f64, phase: CommPhase) -> Self {
        SendRequest {
            start: done_at - cost,
            done_at,
            phase,
            completed: false,
        }
    }

    /// True once the transfer is complete in virtual time (the node clock
    /// has caught up with the transfer's end) — a subsequent `wait` charges
    /// nothing.
    pub fn test(&self, ctx: &NodeCtx) -> bool {
        self.done_at <= ctx.clock().now()
    }

    /// Complete the send: charges the part of the transfer not hidden
    /// behind compute issued since [`NodeCtx::isend`].
    pub fn wait(mut self, ctx: &mut NodeCtx) {
        self.completed = true;
        charge_wait(ctx, self.phase, self.start, self.done_at);
    }
}

impl Drop for SendRequest {
    fn drop(&mut self) {
        guard_unwaited("SendRequest", self.completed);
    }
}

/// Handle of an in-flight non-blocking receive ([`NodeCtx::irecv`]).
///
/// The request never consumes a message before `wait`: matching happens
/// purely in the order `wait`/`recv` calls execute on this node, so which
/// payload a request gets is independent of host-thread delivery timing —
/// the determinism contract of the simulator. `test` is a non-consuming
/// probe with MPI_Test-like advisory semantics: it can flip from `false`
/// to `true` depending on how far the sending thread has physically
/// progressed, so solver numerics must never branch on it.
#[must_use = "requests must be completed with wait()"]
pub struct RecvRequest {
    src: usize,
    tag: Tag,
    phase: CommPhase,
    posted_at: f64,
    completed: bool,
}

impl RecvRequest {
    pub(crate) fn new(src: usize, tag: Tag, phase: CommPhase, posted_at: f64) -> Self {
        RecvRequest {
            src,
            tag,
            phase,
            posted_at,
            completed: false,
        }
    }

    /// True once a matching message has been delivered *and* has arrived
    /// in virtual time — a subsequent `wait` charges nothing. Advisory
    /// (see the type docs); never consumes the message.
    pub fn test(&self, ctx: &NodeCtx) -> bool {
        ctx.raw_peek_arrival(self.src, self.tag)
            .is_some_and(|arrival| arrival <= ctx.clock().now())
    }

    /// Complete the receive: blocks until the matching message is here and
    /// charges only the remaining flight time
    /// (`max(clock, arrival) − clock`).
    pub fn wait(mut self, ctx: &mut NodeCtx) -> Payload {
        self.completed = true;
        let m = ctx.raw_recv_blocking(Some(self.src), self.tag);
        ctx.emit(
            ctx.clock().now(),
            Event::Recv {
                phase: self.phase,
                src: self.src,
                tag: self.tag,
                elems: m.payload.elems(),
                stall: 0.0,
                engine: true,
            },
        );
        charge_wait(
            ctx,
            self.phase,
            self.posted_at.min(m.arrival_vtime),
            m.arrival_vtime,
        );
        m.payload
    }
}

impl Drop for RecvRequest {
    fn drop(&mut self) {
        guard_unwaited("RecvRequest", self.completed);
    }
}

/// Handle of an in-flight non-blocking all-reduce
/// ([`NodeCtx::iallreduce_vec`]). The reduced buffer is bitwise identical
/// to what the blocking [`NodeCtx::allreduce_vec`] would return — the same
/// deterministic schedule runs, only the time accounting differs.
#[must_use = "requests must be completed with wait()"]
pub struct AllreduceRequest {
    result: Option<Vec<f64>>,
    start: f64,
    done_at: f64,
    phase: CommPhase,
}

impl AllreduceRequest {
    pub(crate) fn new(result: Vec<f64>, start: f64, done_at: f64, phase: CommPhase) -> Self {
        AllreduceRequest {
            result: Some(result),
            start,
            done_at,
            phase,
        }
    }

    /// True once the reduction is complete in virtual time — a subsequent
    /// `wait` charges nothing.
    pub fn test(&self, ctx: &NodeCtx) -> bool {
        self.done_at <= ctx.clock().now()
    }

    /// The reduction's completion time on the engine timeline.
    pub fn completion_vtime(&self) -> f64 {
        self.done_at
    }

    /// Complete the reduction and return the reduced buffer, charging only
    /// the part of the reduction not hidden behind compute issued since
    /// [`NodeCtx::iallreduce_vec`].
    pub fn wait(mut self, ctx: &mut NodeCtx) -> Vec<f64> {
        let result = self.result.take().expect("result present until wait");
        charge_wait(ctx, self.phase, self.start, self.done_at);
        result
    }
}

impl Drop for AllreduceRequest {
    fn drop(&mut self) {
        guard_unwaited("AllreduceRequest", self.result.is_none());
    }
}
