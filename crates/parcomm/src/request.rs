//! The non-blocking all-reduce: its request handle and the overlap-aware
//! clock accounting behind it.
//!
//! The blocking primitives charge the node's virtual clock immediately: a
//! `send` makes the sender busy for `λ + s·µ`, a `recv` stalls the receiver
//! until the arrival stamp. Communication-hiding algorithms (pipelined PCG,
//! Levonyak et al., arXiv:1912.09230) instead *start* a reduction, compute
//! while it is in flight, and *wait* for it later. [`AllreduceRequest`]
//! models that with a detached timeline, as if the reduction ran on a
//! communication offload engine or MPI progress thread:
//!
//! * `start` records the reduction's begin time `t₀` and computes its
//!   completion time `T` on the engine timeline, which books the exact
//!   recursive-doubling schedule, so the *result* is bitwise identical to
//!   the blocking all-reduce;
//! * compute issued between `start` and `wait` advances the node clock
//!   normally — concurrently with the flight time;
//! * `wait` charges only the remaining latency `max(clock, T) − clock`.
//!   The charged part is recorded as *exposed* ([`crate::CommStats::wait_vtime`]),
//!   the overlapped part `T − t₀ − exposed` as *hidden*
//!   ([`crate::CommStats::hidden_vtime`]).
//!
//! The reduction meets its partners in the scheduler's rendezvous inside
//! `start` — which may park the node like any blocking operation, and may
//! pair it with partners that issued the blocking form. That is invisible
//! to the cost model: scheduling order carries no time, and the rendezvous
//! computes the same stamps for either accounting (see
//! `crate::comm::Timeline`); virtual time is what the experiments
//! measure. `wait` itself never parks.
//!
//! Requests are **linear**: every request must be consumed by `wait`.
//! Dropping an un-waited request is a protocol bug (MPI would leak the
//! request and possibly its buffer) and panics — except while a panic
//! unwinds, or while an aborted run drops the node programs the panic
//! stopped (`abandon`): the report then names the root cause.

use std::cell::Cell;

use crate::comm::NodeCtx;
use crate::observe::Event;
use crate::stats::CommPhase;

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

    /// The reduction's completion time on the engine timeline.
    #[cfg(test)]
    pub(crate) fn completion_vtime(&self) -> f64 {
        self.done_at
    }

    /// Complete the reduction and return the reduced buffer, charging only
    /// the part of the reduction not hidden behind compute issued since
    /// [`NodeCtx::iallreduce_vec`]: the node clock advances by
    /// `max(done_at − clock, 0)` (exposed, recorded as wait time); the rest
    /// of the reduction's duration was hidden.
    pub fn wait(mut self, ctx: &mut NodeCtx) -> Vec<f64> {
        let result = self.result.take().expect("result present until wait");
        let t0 = ctx.clock().now();
        let exposed = (self.done_at - t0).max(0.0);
        if exposed > 0.0 {
            ctx.clock_mut().advance(exposed);
        }
        let hidden = ((self.done_at - self.start).max(0.0) - exposed).max(0.0);
        let phase = self.phase;
        ctx.emit(
            t0,
            Event::Wait {
                phase,
                exposed,
                hidden,
            },
        );
        result
    }
}

thread_local! {
    static ABANDONING: Cell<bool> = const { Cell::new(false) };
}

/// Drop `stopped`, the node programs an abort left unfinished, without the
/// un-waited-request check: a request they hold is no bug of theirs.
pub(crate) fn abandon<T>(stopped: T) {
    ABANDONING.set(true);
    drop(stopped);
    ABANDONING.set(false);
}

impl Drop for AllreduceRequest {
    fn drop(&mut self) {
        if self.result.is_some() && !std::thread::panicking() && !ABANDONING.get() {
            panic!("AllreduceRequest dropped without wait — requests are linear; call wait()");
        }
    }
}
