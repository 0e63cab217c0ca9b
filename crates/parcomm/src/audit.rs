//! The communication-protocol auditor. It is on exactly where debug
//! assertions are on, as `debug_assert!` is, and nothing switches it.
//!
//! The ESR correctness argument (Pachajoa et al., ICPP 2019) rests on
//! protocol invariants the test suite historically never checked: disjoint
//! per-attempt reconstruction tag windows, agreed-upon collective schedules
//! across survivors, and complete message drain across the restart substeps.
//! Every shipped protocol bug (the PR 2 FIFO non-overtaking violation, the
//! mismatched-reduction hangs) was found by accident. This module makes the
//! contract machine-checked. The auditor is one consumer of the node's
//! event stream ([`crate::observe`]; [`AuditState::observe`] reads the
//! `Matched` and `Coll` events), plus the one thing an observer cannot do
//! from the receiving side — the stamp on the wire:
//!
//! * every delivered message is stamped ([`MsgStamp`]) with a
//!   per-`(dest, tag)` sequence number and the sender's current
//!   recovery-attempt window;
//! * every matched receive is recorded into a per-node [`NodeLog`] with the
//!   receiver's window, and every collective is recorded with its window;
//! * [`check_teardown`] runs after all node threads have joined (so every
//!   send has landed — the checks are deterministic) and enforces
//!   **message-drain**, **non-overtaking**, **collective agreement**, and
//!   **tag-window disjointness**.
//!
//! Deadlock detection is *not* an audit concern anymore: the event-driven
//! scheduler ([`crate::sched`]) proves a wait-for cycle the instant the
//! cluster runs out of runnable nodes, in every build. (It used to live
//! here as a polled shared blocked-on table with double-snapshot
//! heuristics, needed only because free-running threads could race the
//! detector.)
//!
//! Everything here is diagnostics: the auditor never touches the virtual
//! clock or the statistics, so it cannot change any simulated timing — a
//! debug and a release run of one solve take the same virtual times
//! (`recovery_pins` holds the same constants in both profiles).

use std::collections::{BTreeMap, HashMap};

use crate::comm::ReduceOp;
use crate::group::fnv1a;
use crate::observe::Event;
use crate::payload::Message;
use crate::tag::Tag;

/// Audit stamp carried by every [`Message`]; filled in only while the
/// auditor is on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct MsgStamp {
    /// Per-`(sender, dest, tag)` send sequence number, starting at 0. The
    /// non-overtaking check demands that same-`(src, tag)` deliveries at one
    /// receiver observe strictly increasing values.
    pub(crate) seq: u64,
    /// The sender's recovery-attempt window at send time (`None` outside
    /// recovery). A receive must observe its own current window here.
    pub(crate) window: Option<u32>,
}

/// One recorded receive.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecvRec {
    /// Sending rank.
    pub(crate) src: usize,
    /// Matched tag.
    pub(crate) tag: Tag,
    /// The message's send sequence number (see [`MsgStamp::seq`]).
    pub(crate) seq: u64,
    /// The window the message was sent in.
    pub(crate) msg_window: Option<u32>,
    /// The receiver's window when the receive matched.
    pub(crate) window: Option<u32>,
}

/// One recorded collective call (logged *before* the collective runs, so an
/// interrupted collective still shows what each rank intended to do).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CollEvent {
    /// `None` for the world communicator, `Some(gid)` for a group.
    pub(crate) scope: Option<u32>,
    /// The communicator's collective sequence number.
    pub(crate) seq: u64,
    /// Collective kind (a [`crate::tag::op`] constant).
    pub(crate) kind: u8,
    /// Reduction operator, for reductions.
    pub(crate) rop: Option<ReduceOp>,
    /// Contributed buffer length where the protocol requires agreement
    /// (all-reduce, barrier); `None` for the ragged all-to-all.
    pub(crate) len: Option<usize>,
    /// Hash of the member set (0 for the world communicator).
    pub(crate) members_hash: u64,
    /// Number of participants the caller believes the communicator has.
    pub(crate) n_members: usize,
    /// The caller's recovery-attempt window at the call. The resident
    /// all-reduce rounds deliver no message a receive could check, so the
    /// call itself carries the window.
    pub(crate) window: Option<u32>,
}

/// Placeholder member-set hash for world-communicator collectives.
pub(crate) const WORLD_HASH: u64 = 0;

/// Per-node event log, returned by the node thread at teardown.
#[derive(Debug, Default)]
pub(crate) struct NodeLog {
    /// The rank that produced this log.
    pub(crate) rank: usize,
    /// Receives, in program order.
    pub(crate) recvs: Vec<RecvRec>,
    /// Collective calls, in program order.
    pub(crate) colls: Vec<CollEvent>,
}

/// Per-node audit state owned by the `NodeCtx`.
pub(crate) struct AuditState {
    pub(crate) log: NodeLog,
    send_seqs: HashMap<(usize, Tag), u64>,
    /// Current recovery-attempt window (see `NodeCtx::audit_enter_window`).
    pub(crate) window: Option<u32>,
}

impl AuditState {
    pub(crate) fn new(rank: usize) -> Self {
        AuditState {
            log: NodeLog {
                rank,
                ..NodeLog::default()
            },
            send_seqs: HashMap::new(),
            window: None,
        }
    }

    /// Stamp an outgoing message to `dest` under `tag`.
    #[inline(never)]
    pub(crate) fn stamp_send(&mut self, dest: usize, tag: Tag) -> MsgStamp {
        let c = self.send_seqs.entry((dest, tag)).or_insert(0);
        let seq = *c;
        *c += 1;
        MsgStamp {
            seq,
            window: self.window,
        }
    }

    /// The auditor's reading of the event stream (see [`crate::observe`]):
    /// every matched receive and every collective call, in program order.
    /// A group's record is scoped by its id, so the checker compares
    /// schedules member-against-member, never across groups.
    #[inline(never)]
    pub(crate) fn observe(&mut self, ev: &Event<'_>) {
        match *ev {
            Event::Matched(m) => self.log.recvs.push(RecvRec {
                src: m.src,
                tag: m.tag,
                seq: m.stamp.seq,
                msg_window: m.stamp.window,
                window: self.window,
            }),
            Event::Coll {
                scope,
                kind,
                rop,
                len,
            } => self.log.colls.push(CollEvent {
                scope: scope.id,
                seq: scope.seq,
                kind,
                rop,
                len,
                members_hash: scope.members.map_or(WORLD_HASH, |m| fnv1a(m) as u64),
                n_members: scope.n,
                window: self.window,
            }),
            _ => {}
        }
    }

    pub(crate) fn into_log(self) -> NodeLog {
        self.log
    }
}

// ---------------------------------------------------------------------------
// Teardown checker
// ---------------------------------------------------------------------------

/// Cap on reported violations, so a systemic bug does not produce a
/// megabyte-sized panic message.
const MAX_REPORTED: usize = 20;

fn describe_coll(c: &CollEvent) -> String {
    let mut s = String::from(crate::tag::op::name(c.kind));
    if let Some(rop) = c.rop {
        s.push_str(&format!("({rop:?})"));
    }
    if let Some(len) = c.len {
        s.push_str(&format!(" len {len}"));
    }
    s.push_str(&format!(" on {} members", c.n_members));
    s
}

fn window_name(w: Option<u32>) -> String {
    match w {
        Some(k) => format!("recovery window {k}"),
        None => "no window".to_string(),
    }
}

/// Run the post-join protocol checks over all node logs and queue
/// residue. Deterministic: every send has landed by the time this runs.
/// `clean` is false when some node panicked — completeness-style checks
/// (message drain, collective participation) are skipped then, because an
/// interrupted run legitimately leaves both behind; the pairwise agreement
/// checks still run on whatever was recorded.
pub(crate) fn check_teardown(
    logs: &[NodeLog],
    leaks: &[(usize, Message)],
    clean: bool,
) -> Vec<String> {
    let mut violations = Vec::new();

    // (1) Message drain: a clean run must consume every delivered message.
    if clean {
        for (rank, m) in leaks {
            violations.push(format!(
                "[message-drain] rank {rank}: unconsumed message from rank {} \
                 (tag {}, {} elems, send #{}, sent in {})",
                m.src,
                m.tag.describe(),
                m.payload.elems(),
                m.stamp.seq,
                window_name(m.stamp.window),
            ));
        }
    }

    // (2) Non-overtaking: same-(src, tag) deliveries in send order.
    for log in logs {
        let mut last: HashMap<(usize, Tag), u64> = HashMap::new();
        for r in &log.recvs {
            if let Some(&prev) = last.get(&(r.src, r.tag)) {
                if r.seq <= prev {
                    violations.push(format!(
                        "[non-overtaking] rank {}: (src {}, tag {}) delivered send #{} \
                         after send #{} — same-(src, tag) messages must match in send order",
                        log.rank,
                        r.src,
                        r.tag.describe(),
                        r.seq,
                        prev,
                    ));
                }
            }
            last.insert((r.src, r.tag), r.seq);
        }
    }

    // (4) Tag-window disjointness: a receive must match only messages sent
    // in the receiver's current recovery-attempt window.
    for log in logs {
        for r in &log.recvs {
            if r.msg_window != r.window {
                violations.push(format!(
                    "[tag-window] rank {}: message from rank {} (tag {}) sent in {} \
                     was matched by a receive in {} — recovery-attempt tag windows \
                     must be disjoint",
                    log.rank,
                    r.src,
                    r.tag.describe(),
                    window_name(r.msg_window),
                    window_name(r.window),
                ));
            }
        }
    }

    // (3) Collective agreement: every participant of a collective instance
    // must have issued the same (op, operator, length) on the same member
    // set. Instances are keyed by (scope, seq) — SPMD programs consume
    // sequence numbers in lockstep.
    // One collective instance, keyed (scope, seq) → its participants.
    type Instances<'a> = BTreeMap<(Option<u32>, u64), Vec<(usize, &'a CollEvent)>>;
    let mut instances: Instances<'_> = BTreeMap::new();
    for log in logs {
        for c in &log.colls {
            instances
                .entry((c.scope, c.seq))
                .or_default()
                .push((log.rank, c));
        }
    }
    for ((scope, seq), parts) in &instances {
        let scope_name = match scope {
            Some(gid) => format!("group {gid:#x}"),
            None => "world".to_string(),
        };
        let (rank0, ev0) = parts[0];
        // Tag-window disjointness, for collectives: all participants of one
        // instance must have called from the same recovery-attempt window.
        if let Some((rank, ev)) = parts[1..].iter().find(|(_, c)| c.window != ev0.window) {
            violations.push(format!(
                "[tag-window] {scope_name} collective seq {seq} ({}): rank {rank0} joined \
                 from {} but rank {rank} joined from {} — recovery-attempt tag windows \
                 must be disjoint",
                describe_coll(ev0),
                window_name(ev0.window),
                window_name(ev.window),
            ));
        }
        if let Some((rank, ev)) = parts[1..].iter().find(|(_, c)| {
            c.kind != ev0.kind
                || c.rop != ev0.rop
                || c.members_hash != ev0.members_hash
                || c.n_members != ev0.n_members
        }) {
            violations.push(format!(
                "[collective-mismatch] {scope_name} collective seq {seq}: rank {rank0} \
                 issued {} but rank {rank} issued {}",
                describe_coll(ev0),
                describe_coll(ev),
            ));
            continue;
        }
        // Length agreement among participants that declared one.
        let mut with_len = parts.iter().filter_map(|&(r, c)| c.len.map(|l| (r, l)));
        if let Some((r0, l0)) = with_len.next() {
            if let Some((r1, l1)) = with_len.find(|&(_, l)| l != l0) {
                violations.push(format!(
                    "[collective-mismatch] {scope_name} collective seq {seq} \
                     ({}): rank {r0} contributed len {l0} but rank {r1} \
                     contributed len {l1}",
                    describe_coll(ev0),
                ));
                continue;
            }
        }
        // Participation: on a clean run, everyone the callers believe is a
        // member must have shown up.
        if clean && parts.len() != ev0.n_members {
            let present: Vec<usize> = parts.iter().map(|&(r, _)| r).collect();
            violations.push(format!(
                "[collective-mismatch] {scope_name} collective seq {seq} ({}): only \
                 {} of {} members participated (ranks {present:?})",
                describe_coll(ev0),
                parts.len(),
                ev0.n_members,
            ));
        }
    }

    violations.truncate(MAX_REPORTED);
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::tag::op;

    fn coll(
        scope: Option<u32>,
        seq: u64,
        kind: u8,
        rop: Option<ReduceOp>,
        len: Option<usize>,
        n: usize,
    ) -> CollEvent {
        CollEvent {
            scope,
            seq,
            kind,
            rop,
            len,
            members_hash: WORLD_HASH,
            n_members: n,
            window: None,
        }
    }

    #[test]
    fn clean_logs_produce_no_violations() {
        let logs = vec![
            NodeLog {
                rank: 0,
                recvs: vec![RecvRec {
                    src: 1,
                    tag: Tag::user(7),
                    seq: 0,
                    msg_window: None,
                    window: None,
                }],
                colls: vec![coll(
                    None,
                    0,
                    op::ALLREDUCE,
                    Some(ReduceOp::Sum),
                    Some(3),
                    2,
                )],
            },
            NodeLog {
                rank: 1,
                recvs: vec![],
                colls: vec![coll(
                    None,
                    0,
                    op::ALLREDUCE,
                    Some(ReduceOp::Sum),
                    Some(3),
                    2,
                )],
            },
        ];
        assert!(check_teardown(&logs, &[], true).is_empty());
    }

    #[test]
    fn out_of_order_delivery_is_flagged() {
        let logs = vec![NodeLog {
            rank: 0,
            recvs: [1u64, 0]
                .iter()
                .map(|&seq| RecvRec {
                    src: 2,
                    tag: Tag::user(5),
                    seq,
                    msg_window: None,
                    window: None,
                })
                .collect(),
            colls: vec![],
        }];
        let v = check_teardown(&logs, &[], true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("[non-overtaking]"), "{}", v[0]);
        assert!(v[0].contains("rank 0"), "{}", v[0]);
        assert!(v[0].contains("user(5)"), "{}", v[0]);
    }

    #[test]
    fn window_mismatch_is_flagged() {
        let logs = vec![NodeLog {
            rank: 3,
            recvs: vec![RecvRec {
                src: 1,
                tag: Tag::user(9),
                seq: 0,
                msg_window: Some(0),
                window: Some(1),
            }],
            colls: vec![],
        }];
        let v = check_teardown(&logs, &[], true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("[tag-window]"), "{}", v[0]);
        assert!(v[0].contains("rank 3"), "{}", v[0]);
    }

    #[test]
    fn leak_reported_with_provenance() {
        let mut m = Message::new(2, Tag::user(4), Payload::f64s(vec![1.0]), 0.0);
        m.stamp = MsgStamp {
            seq: 7,
            window: Some(3),
        };
        let v = check_teardown(&[], &[(5, m)], true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("[message-drain]"), "{}", v[0]);
        assert!(v[0].contains("rank 5"), "{}", v[0]);
        assert!(v[0].contains("from rank 2"), "{}", v[0]);
        assert!(v[0].contains("send #7"), "{}", v[0]);
        assert!(v[0].contains("window 3"), "{}", v[0]);
    }

    #[test]
    fn leaks_tolerated_on_panicked_runs() {
        let m = Message::new(2, Tag::user(4), Payload::f64s(vec![1.0]), 0.0);
        assert!(check_teardown(&[], &[(5, m)], false).is_empty());
    }

    #[test]
    fn operator_disagreement_is_flagged() {
        let logs = vec![
            NodeLog {
                rank: 0,
                recvs: vec![],
                colls: vec![coll(
                    None,
                    0,
                    op::ALLREDUCE,
                    Some(ReduceOp::Sum),
                    Some(1),
                    2,
                )],
            },
            NodeLog {
                rank: 1,
                recvs: vec![],
                colls: vec![coll(
                    None,
                    0,
                    op::ALLREDUCE,
                    Some(ReduceOp::Max),
                    Some(1),
                    2,
                )],
            },
        ];
        let v = check_teardown(&logs, &[], true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("[collective-mismatch]"), "{}", v[0]);
        assert!(v[0].contains("Sum"), "{}", v[0]);
        assert!(v[0].contains("Max"), "{}", v[0]);
    }

    #[test]
    fn length_disagreement_is_flagged() {
        let logs = vec![
            NodeLog {
                rank: 0,
                recvs: vec![],
                colls: vec![coll(
                    None,
                    2,
                    op::ALLREDUCE,
                    Some(ReduceOp::Sum),
                    Some(1),
                    2,
                )],
            },
            NodeLog {
                rank: 1,
                recvs: vec![],
                colls: vec![coll(
                    None,
                    2,
                    op::ALLREDUCE,
                    Some(ReduceOp::Sum),
                    Some(4),
                    2,
                )],
            },
        ];
        let v = check_teardown(&logs, &[], true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("len 1"), "{}", v[0]);
        assert!(v[0].contains("len 4"), "{}", v[0]);
    }

    #[test]
    fn missing_participant_flagged_only_when_clean() {
        let logs = vec![NodeLog {
            rank: 0,
            recvs: vec![],
            colls: vec![coll(None, 0, op::BARRIER, None, Some(0), 2)],
        }];
        let v = check_teardown(&logs, &[], true);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("1 of 2 members"), "{}", v[0]);
        assert!(check_teardown(&logs, &[], false).is_empty());
    }
}
