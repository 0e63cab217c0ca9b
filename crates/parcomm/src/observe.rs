//! The instrumentation spine: one typed [`Event`] per communication
//! boundary, emitted once, read by every observer.
//!
//! [`crate::comm::NodeCtx`] owns one [`Observers`] and calls
//! [`Observers::emit`] where something observable happens — a message is
//! booked or matched, a wait is charged, a collective is entered, a span
//! opens or closes. The consumers are selected at compile time:
//! [`CommStats`] always, the protocol auditor under `--features audit`, the
//! virtual-time tracer under `--features trace`; each is one `observe`
//! match over the event. With [`Observers::new`], [`Observers::into_logs`],
//! [`Observers::stamp`] and [`Observers::window`], `emit` is the only code
//! on the communication path that knows a feature exists.

use crate::comm::{ReduceOp, Scope};
use crate::payload::Message;
use crate::sched::Scheduler;
use crate::stats::{CommPhase, CommStats};
use crate::tag::Tag;

/// What happened at one instrumented boundary. Built on the caller's stack
/// and passed by value; observers copy out what they keep. Some fields are
/// read only by an observer that a feature compiles in.
#[allow(dead_code)]
#[derive(Debug)]
pub(crate) enum Event<'a> {
    /// A named span opens (`NodeCtx::trace_open`).
    Open { name: &'static str, arg: u64 },
    /// The innermost open span closes.
    Close,
    /// A zero-duration marker.
    Instant { name: &'static str, arg: u64 },
    /// One physical message was booked on a timeline. `split` is its
    /// per-phase element accounting: the message counts under `split[0].0`,
    /// its transfer time `dt` under `phase` (the first phase that
    /// contributes elements). `engine`: booked on a detached timeline, so
    /// `dt` is not charged to the node clock here.
    Send {
        phase: CommPhase,
        dst: usize,
        tag: Tag,
        split: &'a [(CommPhase, usize)],
        dt: f64,
        engine: bool,
    },
    /// A receive matched this delivered message (before any booking).
    Matched(&'a Message),
    /// The receipt of a message was booked; `stall` is what the node clock
    /// waited for it (0 when `engine`).
    Recv {
        phase: CommPhase,
        src: usize,
        tag: Tag,
        elems: usize,
        stall: f64,
        engine: bool,
    },
    /// A non-blocking operation completed: the exposed/hidden split.
    Wait {
        phase: CommPhase,
        exposed: f64,
        hidden: f64,
    },
    /// A collective call was entered on `scope` (emitted before it runs, so
    /// an interrupted collective still shows what each rank intended).
    /// `len` is the contributed length where the protocol requires
    /// agreement; `None` for ragged collectives and broadcast.
    Coll {
        scope: &'a Scope<'a>,
        kind: u8,
        rop: Option<ReduceOp>,
        len: Option<usize>,
    },
    /// An all-reduce finished after this node took part in `rounds` rounds.
    Allreduce { rounds: usize },
    /// The node clock is about to rewind to zero from the stamped time.
    ClockReset,
}

/// Total element count of a [`Event::Send`] split.
pub(crate) fn split_elems(split: &[(CommPhase, usize)]) -> usize {
    split.iter().map(|&(_, n)| n).sum()
}

/// One node's observers. The statistics are part of every build's results;
/// the auditor and the tracer are diagnostics a feature compiles in, boxed
/// like the statistics' histograms to keep the node context small.
pub(crate) struct Observers {
    pub(crate) stats: CommStats,
    #[cfg(feature = "audit")]
    audit: Box<crate::audit::AuditState>,
    #[cfg(feature = "trace")]
    trace: Box<crate::trace::TraceState>,
}

/// What a node's diagnostic observers recorded, handed back at teardown.
pub(crate) struct NodeLogs {
    #[cfg(feature = "audit")]
    pub(crate) audit: crate::audit::NodeLog,
    #[cfg(feature = "trace")]
    pub(crate) trace: crate::trace::NodeTrace,
}

impl Observers {
    pub(crate) fn new(rank: usize) -> Self {
        #[cfg(not(any(feature = "audit", feature = "trace")))]
        let _ = rank;
        Observers {
            stats: CommStats::new(),
            #[cfg(feature = "audit")]
            audit: Box::new(crate::audit::AuditState::new(rank)),
            #[cfg(feature = "trace")]
            trace: Box::new(crate::trace::TraceState::new(rank)),
        }
    }

    /// Show `ev`, stamped with virtual time `t`, to every observer. Strictly
    /// observational: no observer touches the clock.
    #[inline]
    pub(crate) fn emit(&mut self, t: f64, ev: Event<'_>) {
        debug_assert!(t >= 0.0, "virtual time is non-negative");
        self.stats.observe(&ev);
        #[cfg(feature = "audit")]
        self.audit.observe(&ev);
        #[cfg(feature = "trace")]
        self.trace.observe(t, &ev);
    }

    /// Stamp an outgoing message with the auditor's provenance. The stamp
    /// travels on the wire because only the receiver's log can show an
    /// overtaken or cross-window match.
    #[inline]
    pub(crate) fn stamp(&mut self, dest: usize, msg: &mut Message) {
        #[cfg(feature = "audit")]
        {
            msg.stamp = self.audit.stamp_send(dest, msg.tag);
        }
        #[cfg(not(feature = "audit"))]
        let _ = (dest, msg);
    }

    /// Move to recovery-attempt tag window `id` (`None`: outside recovery).
    /// Leaving a window checks `rank`'s queue for messages stamped with it.
    pub(crate) fn window(&mut self, sched: &Scheduler, rank: usize, id: Option<u32>) {
        #[cfg(feature = "audit")]
        if let Some(prev) = std::mem::replace(&mut self.audit.window, id) {
            sched.scan_window_residue(rank, prev);
        }
        #[cfg(not(feature = "audit"))]
        let _ = (sched, rank, id);
    }

    pub(crate) fn into_logs(self) -> NodeLogs {
        NodeLogs {
            #[cfg(feature = "audit")]
            audit: self.audit.into_log(),
            #[cfg(feature = "trace")]
            trace: self.trace.into_log(),
        }
    }
}
