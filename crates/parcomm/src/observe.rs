//! The instrumentation spine: one typed [`Event`] per communication
//! boundary, emitted once, read by every observer.
//!
//! [`crate::comm::NodeCtx`] owns one [`Observers`] and calls
//! [`Observers::emit`] where something observable happens — a message is
//! booked or matched, a wait is charged, a collective is entered, a span
//! opens or closes. The consumers: [`CommStats`] always, the protocol
//! auditor wherever debug assertions are on (as `debug_assert!` is), the
//! virtual-time tracer in a run started with
//! [`crate::Cluster::run_traced`]; each is one `observe` match over the
//! event. With [`Observers::new`], [`Observers::into_logs`],
//! [`Observers::stamp`] and [`Observers::window`], `emit` is the only code
//! on the communication path that knows which observers are on.

use crate::audit::AuditState;
use crate::comm::{ReduceOp, Scope};
use crate::payload::Message;
use crate::sched::Scheduler;
use crate::stats::{CommPhase, CommStats};
use crate::tag::Tag;
use crate::trace::TraceState;

/// What happened at one instrumented boundary. Built on the caller's stack
/// and passed by value; observers copy out what they keep.
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
    /// agreement; `None` for the ragged all-to-all.
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

/// One node's observers. The statistics are part of every result; the
/// auditor runs where debug assertions do, and the tracer when the run was
/// started with [`crate::Cluster::run_traced`]. Both are boxed like the
/// statistics' histograms to keep the node context small.
pub(crate) struct Observers {
    pub(crate) stats: CommStats,
    audit: Option<Box<AuditState>>,
    trace: Option<Box<TraceState>>,
}

/// A node's diagnostic observers, handed back at teardown still boxed: the
/// node thread returns two pointers whichever observers ran. (Unboxed logs
/// cost every node thread another stack page, +2.4 MB peak RSS on
/// `scale_m1_n512`'s 512 threads.)
pub(crate) struct NodeLogs {
    pub(crate) audit: Option<Box<AuditState>>,
    pub(crate) trace: Option<Box<TraceState>>,
}

impl Observers {
    pub(crate) fn new(rank: usize, trace: bool) -> Self {
        Observers {
            stats: CommStats::new(),
            audit: cfg!(debug_assertions).then(|| Box::new(AuditState::new(rank))),
            trace: trace.then(|| Box::new(TraceState::new(rank))),
        }
    }

    /// Show `ev`, stamped with virtual time `t`, to every observer. Strictly
    /// observational: no observer touches the clock. The auditor's and the
    /// tracer's readings stay out of line, so where both are off this is
    /// the statistics' inlined match and two tests.
    #[inline]
    pub(crate) fn emit(&mut self, t: f64, ev: Event<'_>) {
        debug_assert!(t >= 0.0, "virtual time is non-negative");
        self.stats.observe(&ev);
        if let Some(audit) = &mut self.audit {
            audit.observe(&ev);
        }
        if let Some(trace) = &mut self.trace {
            trace.observe(t, &ev);
        }
    }

    /// Stamp an outgoing message with the auditor's provenance. The stamp
    /// travels on the wire because only the receiver's log can show an
    /// overtaken or cross-window match.
    #[inline]
    pub(crate) fn stamp(&mut self, dest: usize, msg: &mut Message) {
        if let Some(audit) = &mut self.audit {
            msg.stamp = audit.stamp_send(dest, msg.tag);
        }
    }

    /// Move to recovery-attempt tag window `id` (`None`: outside recovery).
    /// Leaving a window checks `rank`'s queue for messages stamped with it.
    pub(crate) fn window(&mut self, sched: &Scheduler, rank: usize, id: Option<u32>) {
        let Some(audit) = &mut self.audit else { return };
        if let Some(prev) = std::mem::replace(&mut audit.window, id) {
            sched.scan_window_residue(rank, prev);
        }
    }

    pub(crate) fn into_logs(self) -> NodeLogs {
        NodeLogs {
            audit: self.audit,
            trace: self.trace,
        }
    }
}
