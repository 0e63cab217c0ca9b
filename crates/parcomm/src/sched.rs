//! The discrete-event node scheduler: deterministic cooperative execution
//! of the simulated cluster, its message queues, and its resident
//! collectives.
//!
//! A node program is a future ([`crate::cluster::Cluster::run_async`]).
//! Exactly **one** node executes at any moment, and the scheduler decides
//! which: a node runs until it *suspends* (a receive with no matching
//! message, or a collective not every participant has reached) or
//! *finishes*; the executor then runs the runnable node with the minimum
//! `(virtual time, rank)` key. Execution order is therefore a pure function
//! of the program — independent of host load, core count, and OS
//! scheduling. The poller drives every node from the calling thread, so a
//! suspension is a return from `poll` and N = 1024 runs are routine.
//! [`crate::cluster::Cluster::run`] drives a blocking program by the same
//! dispatch on one OS thread per node: a suspended node's thread parks,
//! and the next node's thread is handed the baton directly (its atomic
//! flag, then an unpark, with the lock released).
//!
//! ## Invariants
//!
//! * **One runner.** At most one node is [`NodeState::Running`]; every
//!   other node is suspended or done. All scheduler state — node states,
//!   the per-rank message queues, the runnable heap, the open collectives —
//!   sits behind one lock, and only the running node transitions it.
//! * **Suspend implies no match.** A receive checks its rank's queue and
//!   marks itself blocked under one lock hold before it returns `Pending`,
//!   and a send needs to be running, so a suspended node's wait is
//!   genuine. "No runnable node while blocked nodes exist" is therefore
//!   *exactly* a deadlock: detected the instant it forms, with the wait-for
//!   chain spelled out. No timeouts, no snapshot heuristics.
//! * **Wake on match only.** A send marks a blocked matching receiver
//!   runnable (at the virtual time it suspended at) but does not preempt
//!   the sender; the receiver runs when dispatch order reaches it.
//! * **One rendezvous per collective.** Every resident collective — an
//!   all-reduce, a barrier, a personalized all-to-all — goes through the
//!   same [`Scheduler::collective`]: a participant deposits its [`Part`]
//!   in the one map of open collectives and suspends once, the participant
//!   count (and a reduction's operator and length) are compared there in
//!   every build, and the last arriver finishes the collective for
//!   everyone, leaves each suspended participant its outcome, marks it
//!   runnable at its suspended virtual time, and runs on — a completing
//!   collective never preempts. An all-reduce deposits
//!   `(entry clock, contribution)`, the last arriver runs the whole
//!   recursive-doubling schedule ([`run_rounds`]) and each rank then books
//!   its own rounds from the shared stamps. An all-to-all books its sends
//!   *before* the rendezvous (their stamps depend on the sender's clock
//!   alone), deposits the stamps with its non-empty payloads, and books
//!   its receives afterwards from the shared stamp rows. No [`Message`] is
//!   built for either.
//! * **Counted suspensions.** Every suspension passes through
//!   [`Scheduler::suspend`], which counts it: the host work of a run is as
//!   deterministic as its schedule.
//!
//! Dispatching by minimum `(vtime, rank)` mirrors the BSP cost model of
//! [`crate::vclock`]: virtual time advances only through each node's own
//! compute and communication charges, message arrival stamps are fixed by
//! the sender, and a collective's stamps are a function of the deposited
//! entry clocks alone — the scheduler's choice never feeds back into the
//! clock algebra.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::task::Poll;
use std::thread::Thread;

use crate::comm::ReduceOp;
use crate::payload::{Message, Payload};
use crate::tag::Tag;

/// What a blocked node is waiting for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockedOn {
    /// A message from `src` under `tag`.
    Recv { src: usize, tag: Tag },
    /// The remaining participants of the collective open under `tag`.
    Collective { tag: Tag },
}

/// The node lifecycle, as the scheduler sees it. (Failed-and-replaced
/// and retired are *solver-level* roles layered on top — see
/// [`crate::fault`]; a node acting as a replacement or retiring early is
/// still Runnable/Blocked/Done here.)
#[derive(Clone, Debug)]
enum NodeState {
    /// Suspended but dispatchable: its `(vtime, rank)` key is in the heap.
    Runnable,
    /// Running (at most one node at a time).
    Running,
    /// Suspended in a receive or collective that cannot complete yet.
    Blocked { on: BlockedOn, vtime: f64 },
    /// The node program returned — or panicked (see `retire`).
    Done,
}

/// Geometry of a recursive-doubling all-reduce over `n` participants (the
/// standard MPICH scheme, fixed pairing so reductions are reproducible):
///
/// 1. **Fold-in** (non-power-of-two only): the first `2·rem` indices pair
///    up `(2k, 2k+1)`; evens push their buffer to the odd neighbour and
///    sit out. `pof2 = n − rem` participants remain.
/// 2. **Doubling**: `log₂(pof2)` rounds; in round `mask` the holder of
///    doubling index `d` exchanges its partial with `d ⊕ mask` and both
///    combine, always lower-index group first, so after every round both
///    partners hold bitwise-identical buffers.
/// 3. **Fold-out**: the odd fold-in indices return the finished result to
///    their even neighbours.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RdShape {
    /// Largest power of two ≤ `n`.
    pub(crate) pof2: usize,
    /// `n − pof2`: how many index pairs fold.
    pub(crate) rem: usize,
}

impl RdShape {
    pub(crate) fn new(n: usize) -> Self {
        let pof2 = 1 << n.ilog2();
        RdShape {
            pof2,
            rem: n - pof2,
        }
    }

    /// The participant index holding doubling index `d`.
    fn orig(&self, d: usize) -> usize {
        if d < self.rem {
            2 * d + 1
        } else {
            d + self.rem
        }
    }

    /// Participant `i`'s doubling index (`None`: folded out, sits idle).
    fn doubling_index(&self, i: usize) -> Option<usize> {
        if i >= 2 * self.rem {
            Some(i - self.rem)
        } else {
            (i % 2 == 1).then_some(i / 2)
        }
    }

    /// Rounds of the whole schedule: fold-in, doubling, fold-out.
    fn rounds(&self) -> usize {
        2 * usize::from(self.rem > 0) + self.pof2.trailing_zeros() as usize
    }

    /// The rounds participant `i` takes part in, in schedule order (at most
    /// `2 + log₂ n` of them; nothing is allocated).
    pub(crate) fn rounds_of(self, i: usize) -> impl Iterator<Item = Round> {
        let round = |row, peer, sends, recvs| Round {
            row,
            peer,
            sends,
            recvs,
        };
        let folds = i < 2 * self.rem;
        let even = i.is_multiple_of(2);
        let first = usize::from(self.rem > 0);
        let doubling = self.doubling_index(i).into_iter().flat_map(move |d| {
            (0..self.pof2.trailing_zeros() as usize)
                .map(move |k| round(first + k, self.orig(d ^ (1 << k)), true, true))
        });
        let fold_in = folds.then(|| round(0, i ^ 1, even, !even));
        let fold_out = folds.then(|| round(self.rounds() - 1, i ^ 1, !even, even));
        fold_in.into_iter().chain(doubling).chain(fold_out)
    }
}

/// One participant's part in one round: a send to and/or a receive from
/// participant `peer` (send first), in row `row` of the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Round {
    pub(crate) row: usize,
    pub(crate) peer: usize,
    pub(crate) sends: bool,
    pub(crate) recvs: bool,
}

/// What one participant brings to a collective's rendezvous.
pub(crate) struct Deposit<'a> {
    pub(crate) tag: Tag,
    /// This participant's index in `0..n`.
    pub(crate) index: usize,
    pub(crate) n: usize,
    /// Participant index → global rank (`None` ⇒ identity: the world).
    pub(crate) members: Option<&'a [usize]>,
    pub(crate) part: Part,
}

/// The kind-specific half of a [`Deposit`].
pub(crate) enum Part {
    /// An all-reduce or barrier contribution.
    Reduce {
        opr: ReduceOp,
        /// The clock the participant's first round starts from.
        entry: f64,
        x: Vec<f64>,
        /// `λ + len·µ`: what each of the schedule's messages costs.
        msg_cost: f64,
    },
    /// A personalized all-to-all contribution, its sends already booked.
    Exchange {
        /// Arrival stamp of the send to each participant index (own: 0).
        stamps: Vec<f64>,
        /// The non-empty payloads, by ascending destination index.
        sends: Vec<(usize, Payload)>,
    },
}

impl Part {
    /// What every participant must agree on besides the participant count:
    /// a reduction's operator and length. An all-to-all is ragged — its
    /// kind is already part of the tag.
    fn shape(&self) -> Option<(ReduceOp, usize)> {
        match self {
            Part::Reduce { opr, x, .. } => Some((*opr, x.len())),
            Part::Exchange { .. } => None,
        }
    }
}

/// A finished collective, as far as its participants share it.
pub(crate) struct CollOutcome {
    /// The reduced buffer, bitwise identical for every participant (empty
    /// for an all-to-all).
    pub(crate) result: Vec<f64>,
    /// All-reduce: `stamps[row][i]` is the arrival stamp of the message
    /// participant `i` sent in round `row` of the schedule (0 where it sent
    /// none). All-to-all: `stamps[src][dst]` is the arrival stamp of the
    /// message `src` booked for `dst`.
    pub(crate) stamps: Vec<Vec<f64>>,
}

/// What one participant takes home: the shared outcome and the payloads
/// addressed to it, by ascending source index (all-to-all only).
pub(crate) type Outcome = (Arc<CollOutcome>, Vec<(usize, Payload)>);

/// A collective between its first and its last arrival.
struct CollSlot {
    n: usize,
    /// The first arriver's [`Part::shape`].
    shape: Option<(ReduceOp, usize)>,
    /// Rank of the first arriver (whom a mismatching peer is named against).
    first: usize,
    members: Option<Vec<usize>>,
    deposits: Vec<Option<Part>>,
    arrived: usize,
}

impl CollSlot {
    /// Global ranks that have not deposited yet, ascending.
    fn missing(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&i| self.deposits[i].is_none())
            .map(|i| self.members.as_ref().map_or(i, |m| m[i]))
            .collect()
    }

    /// All participants have arrived: the shared outcome and, per
    /// participant index, the payloads addressed to it (walking the sources
    /// in ascending order sorts each list by source).
    fn finish(self) -> (CollOutcome, Vec<Vec<(usize, Payload)>>) {
        let mut reduce = None;
        let mut entries = Vec::new();
        let mut stamps = Vec::new();
        // A reduction hands nobody a payload: no lists then.
        let lists = if self.shape.is_none() { self.n } else { 0 };
        let mut recvd: Vec<Vec<_>> = (0..lists).map(|_| Vec::new()).collect();
        for (src, part) in self.deposits.into_iter().flatten().enumerate() {
            match part {
                Part::Reduce {
                    opr,
                    entry,
                    x,
                    msg_cost,
                } => {
                    reduce = Some((opr, msg_cost));
                    entries.push((entry, x));
                }
                Part::Exchange { stamps: row, sends } => {
                    stamps.push(row);
                    for (dst, payload) in sends {
                        recvd[dst].push((src, payload));
                    }
                }
            }
        }
        let shared = match reduce {
            Some((opr, msg_cost)) => run_rounds(RdShape::new(self.n), opr, msg_cost, entries),
            None => CollOutcome {
                result: Vec::new(),
                stamps,
            },
        };
        (shared, recvd)
    }
}

/// Run the whole recursive-doubling schedule for every participant in one
/// pass: the reduced value (a pairwise tree — groups that have exchanged
/// hold identical buffers, so one buffer per group suffices) and, round by
/// round, the clock algebra of the message exchange it replaces:
/// `now += λ + s·µ` per send, `now = max(now, arrival)` per receive.
fn run_rounds(
    shape: RdShape,
    opr: ReduceOp,
    msg_cost: f64,
    deposits: Vec<(f64, Vec<f64>)>,
) -> CollOutcome {
    let n = deposits.len();
    let RdShape { pof2, rem } = shape;
    let (mut now, bufs): (Vec<f64>, Vec<Vec<f64>>) = deposits.into_iter().unzip();
    let mut stamps = vec![vec![0.0; n]; shape.rounds()];
    let mut rows = stamps.iter_mut();
    // One message `from → to` in the current round.
    let send = |now: &mut [f64], row: &mut [f64], from: usize| {
        now[from] += msg_cost;
        row[from] = now[from];
    };
    let recv = |now: &mut [f64], row: &[f64], from: usize, to: usize| {
        if row[from] > now[to] {
            now[to] = row[from];
        }
    };

    if rem > 0 {
        let row = rows.next().expect("fold-in row");
        for k in 0..rem {
            send(&mut now, row, 2 * k);
            recv(&mut now, row, 2 * k, 2 * k + 1);
        }
    }
    let mut mask = 1;
    while mask < pof2 {
        let row = rows.next().expect("doubling row");
        for d in 0..pof2 {
            send(&mut now, row, shape.orig(d));
        }
        for d in 0..pof2 {
            recv(&mut now, row, shape.orig(d ^ mask), shape.orig(d));
        }
        mask <<= 1;
    }
    if rem > 0 {
        let row = rows.next().expect("fold-out row");
        for k in 0..rem {
            send(&mut now, row, 2 * k + 1);
            recv(&mut now, row, 2 * k + 1, 2 * k);
        }
    }

    // Level 0: one buffer per doubling index (fold-in pairs combined,
    // lower index first); each level halves by combining neighbours.
    let mut it = bufs.into_iter();
    let mut level: Vec<Vec<f64>> = Vec::with_capacity(pof2);
    for d in 0..pof2 {
        let mut lower = it.next().expect("one buffer per participant");
        if d < rem {
            opr.combine(&mut lower, &it.next().expect("fold-in partner"));
        }
        level.push(lower);
    }
    while level.len() > 1 {
        let mut it = level.into_iter();
        let mut next = Vec::with_capacity(it.len() / 2);
        while let (Some(mut lower), Some(higher)) = (it.next(), it.next()) {
            opr.combine(&mut lower, &higher);
            next.push(lower);
        }
        level = next;
    }
    CollOutcome {
        result: level.pop().expect("n ≥ 1 participants"),
        stamps,
    }
}

struct SchedInner {
    state: Vec<NodeState>,
    /// Per-rank unexpected-message queue, in delivery order. One queue per
    /// receiver: per-source deques cost 30 % more resident memory at
    /// N = 512 and bought no wall time. Each starts empty and grows to the
    /// largest burst its rank receives (a ghost exchange queues up to the
    /// node's degree). Never pre-size them for N: a ring buffer's head walks
    /// its whole capacity under steady traffic, so N² slots would be
    /// resident.
    queues: Vec<VecDeque<Message>>,
    /// Runnable nodes keyed by `(vtime bits, rank)`. Virtual times are
    /// non-negative, so their bit patterns order like the values; ties
    /// resolve to the lower rank.
    runnable: BinaryHeap<Reverse<(u64, usize)>>,
    /// Collectives some participant has yet to reach.
    colls: HashMap<Tag, CollSlot>,
    /// Per rank: the outcome of the collective it is suspended in, left by
    /// the last arriver for pick-up.
    outcomes: Vec<Option<Outcome>>,
    /// First rank whose program panicked: the nodes it stops name it.
    abort: Option<usize>,
    /// Deadlock report, built by the dispatch that proved the stall.
    deadlock: Option<String>,
    /// Node suspensions so far: each time a node stopped in a wait.
    suspensions: u64,
    /// Test double: ranks whose queue reintroduces the `swap_remove` FIFO
    /// defect, so the auditor's non-overtaking check can be proven.
    #[cfg(test)]
    fifo_bug: Vec<bool>,
}

/// Whom the executor runs next, once the running node stopped.
pub(crate) enum HandOff {
    /// Run this rank: it is now `Running`.
    Wake(usize),
    /// A node panicked or the cluster deadlocked: every node left stops
    /// with [`Scheduler::stop_report`].
    Poison,
    /// Nobody is left to run.
    Idle,
}

// The thread executor's per-rank baton flag values. `store(Release)` by the
// thread handing over pairs with the `swap(Acquire)` in `wait_for_baton`,
// so everything the previous baton holder wrote is visible to the next one.
const PARKED: u8 = 0;
const GO: u8 = 1;
/// Abort or deadlock: panic with [`Scheduler::stop_report`].
const POISONED: u8 = 2;

/// The cluster-wide scheduler. One per [`crate::cluster::Cluster`] run,
/// shared by all node contexts.
pub(crate) struct Scheduler {
    inner: Mutex<SchedInner>,
    /// Thread executor only: the baton flags, by rank.
    flags: Vec<AtomicU8>,
    /// Thread executor only: the node threads, by rank (set once by
    /// `start`).
    threads: OnceLock<Vec<Thread>>,
}

impl Scheduler {
    pub(crate) fn new(n: usize) -> Self {
        Scheduler {
            inner: Mutex::new(SchedInner {
                state: vec![NodeState::Runnable; n],
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                runnable: (0..n).map(|r| Reverse((0, r))).collect(),
                colls: HashMap::new(),
                outcomes: (0..n).map(|_| None).collect(),
                abort: None,
                deadlock: None,
                suspensions: 0,
                #[cfg(test)]
                fifo_bug: vec![false; n],
            }),
            flags: (0..n).map(|_| AtomicU8::new(PARKED)).collect(),
            threads: OnceLock::new(),
        }
    }

    /// Thread executor: register the node threads and hand out the first
    /// baton. Called by the harness thread.
    pub(crate) fn start(&self, threads: Vec<Thread>) {
        self.threads
            .set(threads)
            .expect("a scheduler is started once");
        self.hand_off(self.first());
    }

    /// Thread executor: park until this rank holds the baton. Panics
    /// (inside the node's `catch_unwind`) when the cluster aborted or
    /// deadlocked meanwhile.
    pub(crate) fn wait_for_baton(&self, rank: usize) {
        loop {
            match self.flags[rank].swap(PARKED, Ordering::Acquire) {
                GO => return,
                POISONED => panic!("{}", self.stop_report(rank)),
                _ => std::thread::park(),
            }
        }
    }

    /// Why `rank` stops unfinished after a [`HandOff::Poison`]: the
    /// deadlock report, or the peer whose panic aborted the run.
    pub(crate) fn stop_report(&self, rank: usize) -> String {
        let g = self.lock();
        match (&g.deadlock, g.abort) {
            (Some(report), _) => report.clone(),
            (None, Some(p)) => format!("rank {rank}: peer {p} aborted"),
            (None, None) => unreachable!("poisoned without a cause"),
        }
    }

    /// Deliver `msg` into `dest`'s queue. If `dest` is blocked on a
    /// matching receive it becomes runnable (at the virtual time it
    /// suspended at) — the sender keeps running.
    pub(crate) fn send(&self, dest: usize, msg: Message) {
        let mut g = self.lock();
        if let NodeState::Blocked {
            on: BlockedOn::Recv { src, tag },
            vtime,
        } = g.state[dest]
        {
            if matches(&msg, src, tag) {
                g.make_runnable(dest, vtime);
            }
        }
        g.queues[dest].push_back(msg);
    }

    /// Blocking receive of the earliest-delivered `(src, tag)` message in
    /// `rank`'s queue; `now` is the virtual time the node suspends at if
    /// nothing matches yet.
    ///
    /// # Panics
    /// Panics when the receive can never be matched: the dispatch that
    /// finds no runnable node reports the exact wait-for cycle (or
    /// terminated-rank chain).
    pub(crate) async fn recv(&self, rank: usize, src: usize, tag: Tag, now: f64) -> Message {
        loop {
            {
                let mut g = self.lock();
                if let Some(m) = g.take_match(rank, src, tag) {
                    return m;
                }
                g.block(rank, BlockedOn::Recv { src, tag }, now);
            }
            // Wake on match only: the re-scan after this suspension succeeds.
            suspended().await;
        }
    }

    /// Join the collective open under `d.tag` and return its outcome once
    /// all `d.n` participants have arrived. Everyone but the last arriver
    /// suspends here (at `vtime`); the last arriver finishes the collective,
    /// leaves each of them its outcome, and runs on.
    ///
    /// # Panics
    /// `[collective-mismatch]` when this participant's participant count —
    /// or, for a reduction, operator or length — disagrees with the first
    /// arriver's.
    pub(crate) async fn collective(&self, rank: usize, d: Deposit<'_>, vtime: f64) -> Outcome {
        if let Some(out) = self.arrive(rank, d, vtime) {
            return out;
        }
        suspended().await;
        let out = self.lock().outcomes[rank].take();
        out.expect("woken by the last arriver")
    }

    /// [`Scheduler::collective`] up to the suspension: deposit, and either
    /// block (`None`) or, as the last arriver, finish the collective.
    fn arrive(&self, rank: usize, d: Deposit<'_>, vtime: f64) -> Option<Outcome> {
        let (tag, n, shape) = (d.tag, d.n, d.part.shape());
        let mut g = self.lock();
        let inner = &mut *g;
        let slot = inner.colls.entry(tag).or_insert_with(|| CollSlot {
            n,
            shape,
            first: rank,
            members: d.members.map(<[usize]>::to_vec),
            deposits: (0..n).map(|_| None).collect(),
            arrived: 0,
        });
        if (slot.n, slot.shape) != (n, shape) {
            let issued = |shape: Option<(ReduceOp, usize)>, n: usize| match shape {
                Some((opr, len)) => format!("{opr:?} len {len} on {n} members"),
                None => format!("an all-to-all on {n} members"),
            };
            let report = format!(
                "[collective-mismatch] tag {}: rank {} issued {} but rank {rank} issued {}",
                tag.describe(),
                slot.first,
                issued(slot.shape, slot.n),
                issued(shape, n),
            );
            // Panicking under the lock would poison it and hang teardown.
            drop(g);
            panic!("{report}");
        }
        slot.deposits[d.index] = Some(d.part);
        slot.arrived += 1;
        if slot.arrived < slot.n {
            inner.block(rank, BlockedOn::Collective { tag }, vtime);
            return None;
        }
        let slot = inner.colls.remove(&tag).expect("slot just used");
        let (shared, recvd) = slot.finish();
        let shared = Arc::new(shared);
        let mut recvd = recvd.into_iter();
        let mut mine = Vec::new();
        for i in 0..n {
            let got = recvd.next().unwrap_or_default();
            let peer = d.members.map_or(i, |m| m[i]);
            if i == d.index {
                mine = got;
            } else if let NodeState::Blocked { vtime, .. } = inner.state[peer] {
                inner.outcomes[peer] = Some((shared.clone(), got));
                inner.make_runnable(peer, vtime);
            }
        }
        Some((shared, mine))
    }

    /// The first node to run: rank 0, all clocks at 0.0.
    pub(crate) fn first(&self) -> HandOff {
        self.lock().dispatch()
    }

    /// `rank` stopped in a wait (its state is `Blocked`): count the
    /// suspension and pick the next node.
    ///
    /// # Panics
    /// Panics when `rank` is not blocked: its program suspended in a
    /// future that no send or collective of this cluster will ever wake.
    pub(crate) fn suspend(&self, rank: usize) -> HandOff {
        let mut g = self.lock();
        if matches!(g.state[rank], NodeState::Blocked { .. }) {
            g.suspensions += 1;
            return g.dispatch();
        }
        drop(g);
        panic!("rank {rank} suspended outside a parcomm wait");
    }

    /// `rank`'s program returned, or `panicked`. A clean return picks the
    /// next node. A panic records the root cause (first aborter wins) and,
    /// the first time, stops every node left with a report naming it.
    pub(crate) fn retire(&self, rank: usize, panicked: bool) -> HandOff {
        let mut g = self.lock();
        g.state[rank] = NodeState::Done;
        if !panicked {
            return g.dispatch();
        }
        let first = g.abort.is_none() && g.deadlock.is_none();
        g.abort.get_or_insert(rank);
        // Later aborters are the node threads this stop woke.
        if first {
            HandOff::Poison
        } else {
            HandOff::Idle
        }
    }

    /// Node suspensions since the cluster started.
    pub(crate) fn suspensions(&self) -> u64 {
        self.lock().suspensions
    }

    /// Test double: reintroduce the `swap_remove` FIFO defect on `rank`.
    #[cfg(test)]
    pub(crate) fn seed_fifo_bug(&self, rank: usize) {
        self.lock().fifo_bug[rank] = true;
    }

    /// Recovery-attempt boundary check: when the engine closes tag window
    /// `window`, no message stamped with it may remain undelivered to the
    /// program — such a message could only ever be matched (wrongly) by a
    /// later attempt, or leak. Panics with provenance if one is found.
    pub(crate) fn scan_window_residue(&self, rank: usize, window: u32) {
        let g = self.lock();
        let mut q = g.queues[rank].iter();
        let report = q.find(|m| m.stamp.window == Some(window)).map(|m| {
            format!(
                "[message-drain] rank {rank}: recovery window {window} closed with an \
                 unconsumed message from rank {} (tag {}, {} elems, send #{})",
                m.src,
                m.tag.describe(),
                m.payload.elems(),
                m.stamp.seq,
            )
        });
        drop(g);
        if let Some(report) = report {
            panic!("{report}");
        }
    }

    /// Hand over everything still queued, as `(receiver, message)`. Called
    /// by the cluster after every node program stopped; any message here
    /// was never matched by a receive: every run's teardown fails on it.
    pub(crate) fn drain_residue(&self) -> Vec<(usize, Message)> {
        let mut g = self.lock();
        let queues = g.queues.iter_mut().enumerate();
        queues
            .flat_map(|(rank, q)| q.drain(..).map(move |m| (rank, m)))
            .collect()
    }

    fn lock(&self) -> MutexGuard<'_, SchedInner> {
        self.inner.lock().expect("scheduler lock poisoned")
    }

    /// Thread executor: `rank` suspended; pass the baton and park until it
    /// comes back.
    pub(crate) fn park(&self, rank: usize) {
        let next = self.suspend(rank);
        self.hand_off(next);
        self.wait_for_baton(rank);
    }

    /// Thread executor: the lock-free half of a baton pass (call with the
    /// lock released, so the woken thread never runs into it).
    pub(crate) fn hand_off(&self, next: HandOff) {
        let threads = self.threads.get().expect("node threads started");
        let wake = |rank: usize, flag: u8| {
            self.flags[rank].store(flag, Ordering::Release);
            threads[rank].unpark();
        };
        match next {
            HandOff::Wake(rank) => wake(rank, GO),
            HandOff::Poison => (0..threads.len()).for_each(|rank| wake(rank, POISONED)),
            HandOff::Idle => {}
        }
    }
}

/// Does `m` satisfy a receive for `(src, tag)`?
fn matches(m: &Message, src: usize, tag: Tag) -> bool {
    m.src == src && m.tag == tag
}

/// Suspend the calling node once: `Pending` on the first poll, `Ready` on
/// the next, which comes once a send or a collective made it runnable.
fn suspended() -> impl Future<Output = ()> {
    let mut yielded = false;
    std::future::poll_fn(move |_| {
        if std::mem::replace(&mut yielded, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
}

impl SchedInner {
    /// `rank` waits for `on` from virtual time `vtime`.
    fn block(&mut self, rank: usize, on: BlockedOn, vtime: f64) {
        self.state[rank] = NodeState::Blocked { on, vtime };
    }

    fn make_runnable(&mut self, rank: usize, vtime: f64) {
        debug_assert!(vtime >= 0.0, "virtual time is non-negative");
        self.state[rank] = NodeState::Runnable;
        self.runnable.push(Reverse((vtime.to_bits(), rank)));
    }

    /// Remove and return the earliest-delivered message in `rank`'s queue
    /// matching `(src, tag)`, preserving the order of the rest.
    fn take_match(&mut self, rank: usize, src: usize, tag: Tag) -> Option<Message> {
        let q = &mut self.queues[rank];
        let pos = q.iter().position(|m| matches(m, src, tag))?;
        #[cfg(test)]
        if self.fifo_bug[rank] {
            // Test double: the historical defect. Moving the last queued
            // message into this slot makes a later receive for the same
            // `(src, tag)` match out of delivery order.
            return q.swap_remove_back(pos);
        }
        // Order-preserving removal: anything else would reorder later
        // same-`(src, tag)` matches — an MPI non-overtaking violation.
        q.remove(pos)
    }

    /// Run the runnable node with the minimum `(vtime, rank)` key next. If
    /// none is runnable but blocked nodes remain, the cluster is
    /// deadlocked: publish the report.
    fn dispatch(&mut self) -> HandOff {
        if let Some(Reverse((_, rank))) = self.runnable.pop() {
            self.state[rank] = NodeState::Running;
            return HandOff::Wake(rank);
        }
        let any_blocked = self
            .state
            .iter()
            .any(|s| matches!(s, NodeState::Blocked { .. }));
        if any_blocked && self.abort.is_none() && self.deadlock.is_none() {
            self.deadlock = Some(deadlock_report(&self.state, &self.colls));
            return HandOff::Poison;
        }
        HandOff::Idle
    }
}

/// Spell out why the cluster can make no progress. Reached only when no
/// node is runnable and at least one is blocked — every live node is
/// blocked, so the wait-for graph has either a cycle or a chain into a
/// terminated rank. A rank suspended in a collective waits for its missing
/// ranks (there is always one: the last arriver never suspends); the walk
/// follows the lowest.
fn deadlock_report(state: &[NodeState], colls: &HashMap<Tag, CollSlot>) -> String {
    let blocked_on = |r: usize| match &state[r] {
        NodeState::Blocked { on, .. } => Some(*on),
        _ => None,
    };
    let describe = |r: usize| match blocked_on(r) {
        Some(BlockedOn::Recv { src, tag }) => {
            format!(
                "rank {r} blocked in recv(src {src}, tag {})",
                tag.describe()
            )
        }
        Some(BlockedOn::Collective { tag }) => {
            let slot = &colls[&tag];
            format!(
                "rank {r} blocked in {}(tag {}): {} of {} arrived, missing ranks {:?}",
                slot.shape.map_or("alltoall", |_| "allreduce"),
                tag.describe(),
                slot.arrived,
                slot.n,
                slot.missing()
            )
        }
        None => format!("rank {r} (running)"),
    };
    let join = |ranks: &[usize]| {
        let described: Vec<String> = ranks.iter().map(|&r| describe(r)).collect();
        described.join(" -> ")
    };
    let start = state
        .iter()
        .position(|s| matches!(s, NodeState::Blocked { .. }))
        .expect("deadlock report needs a blocked node");
    let mut chain = vec![start];
    loop {
        let cur = *chain.last().expect("chain non-empty");
        let src = match blocked_on(cur).expect("chain members are blocked") {
            BlockedOn::Recv { src, .. } => src,
            BlockedOn::Collective { tag } => colls[&tag].missing()[0],
        };
        if matches!(state[src], NodeState::Done) {
            return format!(
                "[deadlock] wait chain ends at a terminated rank: {} -> rank {src} (terminated)",
                join(&chain)
            );
        }
        if let Some(pos) = chain.iter().position(|&r| r == src) {
            return format!(
                "[deadlock] wait-for cycle, no messages in flight: {} -> rank {src}",
                join(&chain[pos..])
            );
        }
        chain.push(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;

    fn blocked(src: usize, tag: Tag) -> NodeState {
        NodeState::Blocked {
            on: BlockedOn::Recv { src, tag },
            vtime: 0.0,
        }
    }

    fn msg(src: usize, tag: Tag, x: f64) -> Message {
        Message::new(src, tag, Payload::f64s(vec![x]), 0.0)
    }

    /// A scheduler whose rank-0 queue holds `msgs`, in delivery order.
    fn queued(msgs: &[(usize, u32, f64)]) -> Scheduler {
        let s = Scheduler::new(1);
        for &(src, tag, x) in msgs {
            s.send(0, msg(src, Tag::user(tag), x));
        }
        s
    }

    fn take(s: &Scheduler, src: usize, tag: u32) -> Option<Payload> {
        let m = s.lock().take_match(0, src, Tag::user(tag));
        m.map(|m| m.payload)
    }

    #[test]
    fn matches_src_and_tag_and_buffers_the_rest() {
        let s = queued(&[(2, 9, 2.0), (1, 7, 1.0)]);
        // Ask for the later-sent message first: the other stays queued.
        assert_eq!(take(&s, 1, 7), Some(Payload::f64s(vec![1.0])));
        assert_eq!(take(&s, 1, 7), None);
        assert_eq!(take(&s, 2, 8), None);
        assert_eq!(take(&s, 2, 9), Some(Payload::f64s(vec![2.0])));
        assert!(s.drain_residue().is_empty());
    }

    #[test]
    fn fifo_preserved_with_three_queued_same_key() {
        // Regression: with ≥3 messages of the same (src, tag) queued,
        // `swap_remove` matched the *third* before the second. Take an
        // unrelated message from behind them first, then demand delivery
        // order.
        let s = queued(&[(1, 7, 1.0), (1, 7, 2.0), (1, 7, 3.0), (2, 9, 99.0)]);
        assert_eq!(take(&s, 2, 9), Some(Payload::f64s(vec![99.0])));
        for x in [1.0, 2.0, 3.0] {
            assert_eq!(take(&s, 1, 7), Some(Payload::f64s(vec![x])));
        }
    }

    #[test]
    fn drain_residue_names_each_receiver() {
        let s = Scheduler::new(3);
        s.send(2, msg(0, Tag::user(1), 1.0));
        s.send(1, msg(0, Tag::user(2), 2.0));
        s.send(2, msg(1, Tag::user(3), 3.0));
        let residue = s.drain_residue();
        let who: Vec<(usize, usize)> = residue.iter().map(|(r, m)| (*r, m.src)).collect();
        assert_eq!(who, vec![(1, 0), (2, 0), (2, 1)]);
        assert!(s.drain_residue().is_empty());
    }

    #[test]
    fn fifo_bug_double_reorders_same_key_matches() {
        let s = queued(&[(1, 7, 1.0), (1, 7, 2.0), (1, 7, 3.0), (2, 9, 99.0)]);
        s.seed_fifo_bug(0);
        assert_eq!(take(&s, 2, 9), Some(Payload::f64s(vec![99.0])));
        // The defect: matching the earliest entry but removing with
        // swap_remove delivers 1, then *3*, then 2.
        for x in [1.0, 3.0, 2.0] {
            assert_eq!(take(&s, 1, 7), Some(Payload::f64s(vec![x])));
        }
    }

    #[test]
    fn queues_start_without_capacity() {
        // A queue's capacity follows its own rank's traffic, never N.
        let s = Scheduler::new(1024);
        assert!(s.lock().queues.iter().all(|q| q.capacity() == 0));
    }

    #[test]
    fn dispatch_pops_minimum_vtime_then_rank() {
        let s = Scheduler::new(4);
        let mut g = s.lock();
        g.runnable.clear();
        for (r, vt) in [(3, 2.0), (1, 1.0), (2, 1.0), (0, 1.5)] {
            g.make_runnable(r, vt);
        }
        let order: Vec<usize> = std::iter::from_fn(|| match g.dispatch() {
            HandOff::Wake(r) => Some(r),
            _ => None,
        })
        .collect();
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn rd_shape_geometry() {
        for (n, pof2) in [(1, 1), (2, 2), (3, 2), (13, 8), (16, 16), (64, 64)] {
            assert_eq!(RdShape::new(n).pof2, pof2, "n={n}");
        }
        // n = 13: five pairs fold, indices 10.. go straight to doubling.
        let s = RdShape::new(13);
        let rows = |i: usize| -> Vec<usize> { s.rounds_of(i).map(|r| r.row).collect() };
        assert_eq!(rows(4), vec![0, 4]); // even: fold-in, sit out, fold-out
        assert_eq!(rows(5), vec![0, 1, 2, 3, 4]);
        assert_eq!(rows(12), vec![1, 2, 3]);
        let fold_in = Round {
            row: 0,
            peer: 5,
            sends: true,
            recvs: false,
        };
        assert_eq!(s.rounds_of(4).next(), Some(fold_in));
        // Doubling index 2 (participant 5) meets index 3 (participant 7).
        assert_eq!(s.rounds_of(5).nth(1).unwrap().peer, 7);
        assert_eq!(s.rounds_of(7).nth(1).unwrap().peer, 5);
    }

    #[test]
    fn one_pass_matches_hand_computed_three_ranks() {
        // n = 3: fold-in 0→1, one doubling round 1↔2, fold-out 1→0.
        let shape = RdShape::new(3);
        assert_eq!((shape.pof2, shape.rem, shape.rounds()), (2, 1, 3));
        let deposits = vec![(0.0, vec![1.0]), (5.0, vec![2.0]), (1.0, vec![4.0])];
        let out = run_rounds(shape, ReduceOp::Sum, 1.0, deposits);
        assert_eq!(out.result, vec![7.0]);
        assert_eq!(out.stamps[0][0], 1.0); // 0 sends at 0 → arrives 1; 1 stays at 5
        assert_eq!(out.stamps[1][1], 6.0); // 1 sends at 5
        assert_eq!(out.stamps[1][2], 2.0); // 2 sends at 1, then waits until 6
        assert_eq!(out.stamps[2][1], 7.0); // 1 (at 6) returns the result to 0
    }

    #[test]
    fn participant_count_mismatch_panics_outside_the_lock() {
        // A world or group all-to-all cannot disagree on its size through
        // the public API (the tag scopes the communicator), so plant the
        // first arriver's slot and arrive with another count.
        let s = Scheduler::new(3);
        let tag = Tag::coll(crate::tag::op::ALLTOALL, 0);
        let exchange = |n: usize| Part::Exchange {
            stamps: vec![0.0; n],
            sends: Vec::new(),
        };
        let slot = CollSlot {
            n: 2,
            shape: None,
            first: 0,
            members: None,
            deposits: vec![Some(exchange(2)), None],
            arrived: 1,
        };
        s.lock().colls.insert(tag, slot);
        let late = Deposit {
            tag,
            index: 1,
            n: 3,
            members: None,
            part: exchange(3),
        };
        let join = std::panic::AssertUnwindSafe(|| s.arrive(1, late, 0.0));
        let err = std::panic::catch_unwind(join).err().expect("refused");
        assert_eq!(
            err.downcast_ref::<String>().expect("a formatted report"),
            "[collective-mismatch] tag coll(alltoall, seq 0): rank 0 issued an all-to-all \
             on 2 members but rank 1 issued an all-to-all on 3 members"
        );
        // Raised with the lock released: the scheduler is not poisoned and
        // the open collective is as the first arriver left it.
        assert_eq!(s.lock().colls[&tag].arrived, 1);
    }

    #[test]
    fn report_names_cycles() {
        let state = vec![blocked(1, Tag::user(1)), blocked(0, Tag::user(2))];
        let r = deadlock_report(&state, &HashMap::new());
        assert!(r.contains("[deadlock] wait-for cycle"), "{r}");
        assert!(
            r.contains("rank 0 blocked in recv(src 1, tag user(1))"),
            "{r}"
        );
        assert!(
            r.contains("rank 1 blocked in recv(src 0, tag user(2))"),
            "{r}"
        );
        assert!(r.ends_with("-> rank 0"), "{r}");
    }

    #[test]
    fn report_names_terminated_targets() {
        let state = vec![blocked(1, Tag::user(1)), NodeState::Done];
        let r = deadlock_report(&state, &HashMap::new());
        assert!(r.contains("wait chain ends at a terminated rank"), "{r}");
        assert!(r.ends_with("-> rank 1 (terminated)"), "{r}");
    }

    #[test]
    fn report_names_missing_collective_participants() {
        // Group members {1, 4, 6}: 1 and 6 arrived, 4 waits on a receive
        // from terminated rank 0 — the walk follows the missing rank.
        // Both kinds of resident collective suspend in the same slot map.
        let part = |kind: u8| match kind {
            crate::tag::op::ALLTOALL => Part::Exchange {
                stamps: vec![0.0; 3],
                sends: Vec::new(),
            },
            _ => Part::Reduce {
                opr: ReduceOp::Sum,
                entry: 0.0,
                x: vec![1.0],
                msg_cost: 1.0,
            },
        };
        use crate::tag::op::{ALLREDUCE, ALLTOALL};
        for (kind, name) in [(ALLREDUCE, "allreduce"), (ALLTOALL, "alltoall")] {
            let part = || part(kind);
            let tag = Tag::coll(kind, 3);
            let in_coll = NodeState::Blocked {
                on: BlockedOn::Collective { tag },
                vtime: 0.0,
            };
            let mut state = vec![NodeState::Done; 7];
            state[1] = in_coll.clone();
            state[6] = in_coll;
            state[4] = blocked(0, Tag::user(2));
            let slot = CollSlot {
                n: 3,
                shape: part().shape(),
                first: 6,
                members: Some(vec![1, 4, 6]),
                deposits: vec![Some(part()), None, Some(part())],
                arrived: 2,
            };
            let r = deadlock_report(&state, &HashMap::from([(tag, slot)]));
            let parked = format!(
                "rank 1 blocked in {name}(tag coll({name}, seq 3)): \
                 2 of 3 arrived, missing ranks [4]"
            );
            assert!(r.contains(&parked), "{r}");
            assert!(
                r.ends_with("-> rank 4 blocked in recv(src 0, tag user(2)) -> rank 0 (terminated)"),
                "{r}"
            );
        }
    }
}
