//! Virtual-time tracing: per-node span/event logs, Chrome-trace export, and
//! critical-path analysis.
//!
//! On in a run started with [`crate::Cluster::run_traced`] (in `esr-core`,
//! a solve with `SolverConfig::trace`). The tracer is **strictly
//! observational**: it reads the virtual clock but never advances it, so
//! a traced run produces bitwise-identical trajectories, virtual times and
//! statistics to the untraced one (the same discipline as the auditor;
//! `tests/observers.rs` holds it for every solver).
//!
//! The recorder is one consumer of the node's event stream
//! ([`crate::observe`]): [`TraceState::observe`] keeps every span, marker,
//! send, receive and wait it is shown, so the trace and [`crate::CommStats`]
//! are two readings of the same events in the same order.
//!
//! Each node records a flat list of [`TraceEvent`]s stamped with the
//! virtual clock: `Open`/`Close` span markers (solver iterations, recovery
//! attempts and their substeps, collectives and their recursive-doubling
//! rounds, checkpoint deposits), point-to-point `Send`/`Recv` events
//! carrying `(peer, tag, elems)` and a per-`(peer, tag)` sequence number
//! that pairs each receive with the exact send that produced its message,
//! and `Wait` events carrying the exposed-vs-hidden split charged by the
//! overlap-aware clock. [`crate::cluster::Cluster::run_traced`] gathers the
//! per-rank logs into a [`ClusterTrace`] with three consumers:
//!
//! 1. [`ClusterTrace::chrome_trace_json`] — a Chrome-trace/Perfetto JSON
//!    export (one process per rank, one thread lane per phase);
//! 2. [`ClusterTrace::critical_path`] — a deterministic longest-path walk
//!    over program order and send→recv dependencies, attributing the
//!    longest dependent chain by rank, phase, and enclosing scope;
//! 3. [`ClusterTrace::validate`] — structural well-formedness (balanced
//!    nesting, monotone timestamps, every receive matched to a send).

use std::collections::HashMap;

use crate::observe::{split_elems, Event};
use crate::stats::CommPhase;
use crate::tag::Tag;

/// One recorded event on a node's virtual-time line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual time the event was recorded at: span start for `Open`,
    /// operation start for `Send`/`Recv`/`Wait`. Events flagged
    /// `engine: true` are stamped from the detached engine timeline and
    /// are exempt from the per-rank monotonicity invariant.
    pub t: f64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The event payload.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEventKind {
    /// A named scope span begins (iteration, recovery, collective, round…).
    Open {
        /// Scope name (static — scopes are a closed vocabulary).
        name: &'static str,
        /// Scope argument (iteration index, attempt sequence, round…).
        arg: u64,
    },
    /// The innermost open scope span ends.
    Close,
    /// A message left this node.
    Send {
        /// Accounting phase the traffic was booked under.
        phase: CommPhase,
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Payload size in vector elements.
        elems: usize,
        /// Per-`(dst, tag)` send sequence number (pairs with the matching
        /// receive's per-`(src, tag)` sequence number).
        seq: u64,
        /// Transfer cost `λ + s·µ`. Charged to the node clock for blocking
        /// sends; flows on the detached timeline when `engine`.
        dt: f64,
        /// True when issued by the non-blocking engine (isend or a
        /// detached collective schedule) — the cost is then charged later,
        /// at the `Wait` event.
        engine: bool,
    },
    /// A message was consumed on this node.
    Recv {
        /// Accounting phase the stall was booked under.
        phase: CommPhase,
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// Payload size in vector elements.
        elems: usize,
        /// Per-`(src, tag)` receive sequence number.
        seq: u64,
        /// Blocking stall (`max(arrival − clock, 0)`); 0 when `engine`.
        stall: f64,
        /// True when consumed by the non-blocking engine — any exposed
        /// cost is charged later, at the `Wait` event.
        engine: bool,
    },
    /// A non-blocking operation was completed (`wait`), charging the
    /// un-hidden remainder.
    Wait {
        /// Accounting phase.
        phase: CommPhase,
        /// Virtual time the node clock actually advanced.
        exposed: f64,
        /// Flight time hidden behind compute since the operation started.
        hidden: f64,
    },
    /// A zero-duration marker (failure notification, grant, retirement…).
    Instant {
        /// Marker name.
        name: &'static str,
        /// Marker argument.
        arg: u64,
    },
}

impl TraceEventKind {
    fn is_engine(&self) -> bool {
        matches!(
            self,
            TraceEventKind::Send { engine: true, .. } | TraceEventKind::Recv { engine: true, .. }
        )
    }
}

/// Per-node recorder, owned by the `NodeCtx` while the program runs.
#[derive(Debug)]
pub struct TraceState {
    rank: usize,
    events: Vec<TraceEvent>,
    send_seq: HashMap<(usize, Tag), u64>,
    recv_seq: HashMap<(usize, Tag), u64>,
    /// Virtual time already elapsed on clock epochs that were since reset
    /// (`NodeCtx::reset_metrics` rewinds the node clock to zero after
    /// setup). Folding the pre-reset value into a base offset keeps trace
    /// time monotone across the whole run while the solver's own vtime
    /// accounting still starts from zero.
    base: f64,
}

impl TraceState {
    pub(crate) fn new(rank: usize) -> Self {
        TraceState {
            rank,
            events: Vec::new(),
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            base: 0.0,
        }
    }

    /// The tracer's reading of the event stream (see [`crate::observe`]):
    /// spans, markers, and every send, receive and wait, stamped `t` on a
    /// time line that stays monotone across clock resets. The queue is FIFO
    /// per `(src, tag)`, so the k-th message consumed by the receiver is
    /// the k-th sent: numbering both sides per `(peer, tag)` here pairs
    /// sends and receives without touching the wire format. (A resident
    /// collective's rounds are numbered too, though no message is
    /// delivered — this is not the auditor's stamp counter.)
    #[inline(never)]
    pub(crate) fn observe(&mut self, t: f64, ev: &Event<'_>) {
        let kind = match *ev {
            Event::Open { name, arg } => TraceEventKind::Open { name, arg },
            Event::Close => TraceEventKind::Close,
            Event::Instant { name, arg } => TraceEventKind::Instant { name, arg },
            Event::Send {
                phase,
                dst,
                tag,
                split,
                dt,
                engine,
            } => TraceEventKind::Send {
                phase,
                dst,
                tag,
                elems: split_elems(split),
                seq: next_seq(&mut self.send_seq, dst, tag),
                dt,
                engine,
            },
            Event::Recv {
                phase,
                src,
                tag,
                elems,
                stall,
                engine,
            } => TraceEventKind::Recv {
                phase,
                src,
                tag,
                elems,
                seq: next_seq(&mut self.recv_seq, src, tag),
                stall,
                engine,
            },
            Event::Wait {
                phase,
                exposed,
                hidden,
            } => TraceEventKind::Wait {
                phase,
                exposed,
                hidden,
            },
            // The node clock is about to rewind to zero from `t`: absorb
            // the elapsed epoch into the base offset.
            Event::ClockReset => {
                self.base += t;
                return;
            }
            Event::Matched(_) | Event::Coll { .. } | Event::Allreduce { .. } => return,
        };
        let t = self.base + t;
        self.events.push(TraceEvent { t, kind });
    }

    pub(crate) fn into_log(self) -> NodeTrace {
        NodeTrace {
            rank: self.rank,
            events: self.events,
        }
    }
}

/// Next sequence number of the `(peer, tag)` stream in `seqs`.
fn next_seq(seqs: &mut HashMap<(usize, Tag), u64>, peer: usize, tag: Tag) -> u64 {
    let c = seqs.entry((peer, tag)).or_insert(0);
    *c += 1;
    *c - 1
}

/// One node's completed event log.
#[derive(Clone, Debug, Default)]
pub struct NodeTrace {
    /// The recording node's rank.
    pub rank: usize,
    /// Events in program order.
    pub events: Vec<TraceEvent>,
}

/// All nodes' logs, gathered at cluster teardown (indexed by rank).
#[derive(Clone, Debug, Default)]
pub struct ClusterTrace {
    /// Per-rank logs in rank order.
    pub nodes: Vec<NodeTrace>,
}

/// A step of the critical path: one event whose cost the longest dependent
/// chain actually pays.
#[derive(Clone, Debug)]
pub struct CriticalStep {
    /// Rank the step executed on.
    pub rank: usize,
    /// Accounting phase of the step's cost.
    pub phase: Option<CommPhase>,
    /// Innermost enclosing scope when the step ran (e.g.
    /// `("iteration", 7)`), if any.
    pub scope: Option<(&'static str, u64)>,
    /// Step kind: `"send"`, `"recv"`, or `"wait"`.
    pub kind: &'static str,
    /// Virtual time the chain spends in this step.
    pub weight: f64,
    /// Virtual time the step started.
    pub t: f64,
}

/// Result of [`ClusterTrace::critical_path`]: the longest dependent chain
/// of communication costs, with attribution rollups.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    /// Total virtual time along the chain.
    pub total: f64,
    /// The chain's cost-bearing steps, in execution order.
    pub steps: Vec<CriticalStep>,
    /// Chain time by phase (non-zero entries, `phase_index` order).
    pub by_phase: Vec<(CommPhase, f64)>,
    /// Chain time by rank (non-zero entries, ascending rank).
    pub by_rank: Vec<(usize, f64)>,
    /// Chain time by innermost scope label (non-zero entries, first-seen
    /// order; e.g. `"iteration 7"`, `"recovery 3"`, `"<toplevel>"`).
    pub by_scope: Vec<(String, f64)>,
}

impl ClusterTrace {
    /// Total number of recorded events across all ranks.
    pub fn total_events(&self) -> usize {
        self.nodes.iter().map(|n| n.events.len()).sum()
    }

    /// Structural well-formedness:
    ///
    /// 1. span nesting is balanced on every rank (`Close` never underflows
    ///    and every `Open` is closed),
    /// 2. timestamps of non-engine events are monotone non-decreasing in
    ///    the virtual clock on every rank,
    /// 3. every `Recv` names a `Send` recorded at the source with the same
    ///    `(src, dst, tag, seq)` key and the same element count.
    pub fn validate(&self) -> Result<(), String> {
        for nt in &self.nodes {
            let mut depth: i64 = 0;
            let mut last_t = f64::NEG_INFINITY;
            for (i, ev) in nt.events.iter().enumerate() {
                if !ev.kind.is_engine() {
                    if ev.t < last_t {
                        return Err(format!(
                            "rank {}: event {} at t={} precedes t={}",
                            nt.rank, i, ev.t, last_t
                        ));
                    }
                    last_t = ev.t;
                }
                match ev.kind {
                    TraceEventKind::Open { .. } => depth += 1,
                    TraceEventKind::Close => {
                        depth -= 1;
                        if depth < 0 {
                            return Err(format!(
                                "rank {}: event {} closes a span that was never opened",
                                nt.rank, i
                            ));
                        }
                    }
                    _ => {}
                }
            }
            if depth != 0 {
                return Err(format!(
                    "rank {}: {} span(s) left open at teardown",
                    nt.rank, depth
                ));
            }
        }
        // Cross-node receive ↔ send matching.
        let mut sends: HashMap<(usize, usize, Tag, u64), usize> = HashMap::new();
        for nt in &self.nodes {
            for ev in &nt.events {
                if let TraceEventKind::Send {
                    dst,
                    tag,
                    elems,
                    seq,
                    ..
                } = ev.kind
                {
                    if sends.insert((nt.rank, dst, tag, seq), elems).is_some() {
                        return Err(format!(
                            "rank {}: duplicate send seq {} to rank {} tag {}",
                            nt.rank,
                            seq,
                            dst,
                            tag.describe()
                        ));
                    }
                }
            }
        }
        for nt in &self.nodes {
            for ev in &nt.events {
                if let TraceEventKind::Recv {
                    src,
                    tag,
                    elems,
                    seq,
                    ..
                } = ev.kind
                {
                    match sends.get(&(src, nt.rank, tag, seq)) {
                        None => {
                            return Err(format!(
                                "rank {}: recv seq {} from rank {} tag {} names no send",
                                nt.rank,
                                seq,
                                src,
                                tag.describe()
                            ));
                        }
                        Some(&sent) if sent != elems => {
                            return Err(format!(
                                "rank {}: recv seq {} from rank {} tag {} got {} elems, send had {}",
                                nt.rank,
                                seq,
                                src,
                                tag.describe(),
                                elems,
                                sent
                            ));
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// The longest dependent chain of communication costs.
    ///
    /// Events form a DAG: program order within each rank, plus one edge
    /// from every send to its matching receive. An event's own cost —
    /// blocking send transfer `dt`, blocking receive `stall`, `Wait`
    /// `exposed`; engine events cost 0, their exposure surfaces at the
    /// `Wait` — is paid when the chain enters it through program order;
    /// entering a receive through its cross edge costs nothing (the
    /// message's flight was already paid on the sender's chain, and any
    /// residual stall overlaps it). The walk is a deterministic
    /// longest-path DP in topological order; ties break toward the
    /// earliest `(rank, index)`. On a serial (N=1) run the chain is the
    /// single rank's program order and the total equals the node's total
    /// exposed communication vtime exactly.
    pub fn critical_path(&self) -> CriticalPath {
        let nranks = self.nodes.len();
        let mut offsets = vec![0usize; nranks + 1];
        for (r, nt) in self.nodes.iter().enumerate() {
            offsets[r + 1] = offsets[r] + nt.events.len();
        }
        let nev = offsets[nranks];
        if nev == 0 {
            return CriticalPath::default();
        }
        let rank_of = |g: usize| offsets.partition_point(|&o| o <= g) - 1;
        let event_of = |g: usize| {
            let r = rank_of(g);
            (r, &self.nodes[r].events[g - offsets[r]])
        };
        let own_cost = |ev: &TraceEvent| match ev.kind {
            TraceEventKind::Send { dt, engine, .. } => {
                if engine {
                    0.0
                } else {
                    dt
                }
            }
            TraceEventKind::Recv { stall, engine, .. } => {
                if engine {
                    0.0
                } else {
                    stall
                }
            }
            TraceEventKind::Wait { exposed, .. } => exposed,
            _ => 0.0,
        };

        // Edges as predecessor lists: (pred, edge weight).
        let mut preds: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nev];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nev];
        let mut sends: HashMap<(usize, usize, Tag, u64), usize> = HashMap::new();
        for (r, nt) in self.nodes.iter().enumerate() {
            for (i, ev) in nt.events.iter().enumerate() {
                let g = offsets[r] + i;
                if i > 0 {
                    preds[g].push((g - 1, own_cost(ev)));
                    succs[g - 1].push(g);
                }
                if let TraceEventKind::Send { dst, tag, seq, .. } = ev.kind {
                    sends.insert((r, dst, tag, seq), g);
                }
            }
        }
        for (r, nt) in self.nodes.iter().enumerate() {
            for (i, ev) in nt.events.iter().enumerate() {
                if let TraceEventKind::Recv { src, tag, seq, .. } = ev.kind {
                    if let Some(&s) = sends.get(&(src, r, tag, seq)) {
                        let g = offsets[r] + i;
                        preds[g].push((s, 0.0));
                        succs[s].push(g);
                    }
                }
            }
        }

        // Longest-path DP in Kahn topological order (FIFO queue seeded in
        // global order keeps the walk deterministic).
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut queue: std::collections::VecDeque<usize> =
            (0..nev).filter(|&g| indeg[g] == 0).collect();
        let mut dist = vec![0.0f64; nev];
        let mut best_pred: Vec<Option<usize>> = vec![None; nev];
        let mut seen = 0usize;
        while let Some(g) = queue.pop_front() {
            seen += 1;
            let (_, ev) = event_of(g);
            let mut d = if preds[g].is_empty() {
                own_cost(ev)
            } else {
                f64::NEG_INFINITY
            };
            for &(p, w) in &preds[g] {
                let cand = dist[p] + w;
                if cand > d {
                    d = cand;
                    best_pred[g] = Some(p);
                }
            }
            dist[g] = d;
            for &s in &succs[g] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        debug_assert_eq!(seen, nev, "trace dependency graph has a cycle");

        let mut end = 0usize;
        for g in 1..nev {
            if dist[g] > dist[end] {
                end = g;
            }
        }
        let total = dist[end].max(0.0);

        // Innermost scope per event, per rank.
        let mut scope_of: Vec<Option<(&'static str, u64)>> = vec![None; nev];
        for (r, nt) in self.nodes.iter().enumerate() {
            let mut stack: Vec<(&'static str, u64)> = Vec::new();
            for (i, ev) in nt.events.iter().enumerate() {
                match ev.kind {
                    TraceEventKind::Open { name, arg } => {
                        scope_of[offsets[r] + i] = stack.last().copied();
                        stack.push((name, arg));
                    }
                    TraceEventKind::Close => {
                        stack.pop();
                        scope_of[offsets[r] + i] = stack.last().copied();
                    }
                    _ => scope_of[offsets[r] + i] = stack.last().copied(),
                }
            }
        }

        // Backtrack the chain; keep only cost-bearing steps.
        let mut chain = Vec::new();
        let mut g = end;
        loop {
            chain.push(g);
            match best_pred[g] {
                Some(p) => g = p,
                None => break,
            }
        }
        chain.reverse();
        let mut steps = Vec::new();
        for (k, &g) in chain.iter().enumerate() {
            let paid = if k == 0 {
                dist[g]
            } else {
                dist[g] - dist[chain[k - 1]]
            };
            if paid <= 0.0 {
                continue;
            }
            let (r, ev) = event_of(g);
            let (kind, phase) = match ev.kind {
                TraceEventKind::Send { phase, .. } => ("send", Some(phase)),
                TraceEventKind::Recv { phase, .. } => ("recv", Some(phase)),
                TraceEventKind::Wait { phase, .. } => ("wait", Some(phase)),
                _ => ("other", None),
            };
            steps.push(CriticalStep {
                rank: r,
                phase,
                scope: scope_of[g],
                kind,
                weight: paid,
                t: ev.t,
            });
        }

        // Rollups.
        let mut by_phase_acc = [0.0f64; crate::stats::NPHASES];
        let mut by_rank_acc = vec![0.0f64; nranks];
        let mut by_scope: Vec<(String, f64)> = Vec::new();
        for s in &steps {
            if let Some(p) = s.phase {
                by_phase_acc[p.index()] += s.weight;
            }
            by_rank_acc[s.rank] += s.weight;
            let label = match s.scope {
                Some((name, arg)) => format!("{name} {arg}"),
                None => "<toplevel>".to_string(),
            };
            match by_scope.iter_mut().find(|(l, _)| *l == label) {
                Some((_, w)) => *w += s.weight,
                None => by_scope.push((label, s.weight)),
            }
        }
        let by_phase = CommPhase::ALL
            .iter()
            .filter(|p| by_phase_acc[p.index()] > 0.0)
            .map(|&p| (p, by_phase_acc[p.index()]))
            .collect();
        let by_rank = by_rank_acc
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0.0)
            .map(|(r, &w)| (r, w))
            .collect();

        CriticalPath {
            total,
            steps,
            by_phase,
            by_rank,
            by_scope,
        }
    }

    /// Export as Chrome-trace ("Trace Event Format") JSON, loadable in
    /// Perfetto or `chrome://tracing`. One *process* per rank; within a
    /// rank, thread lane 0 carries the scope spans and instants, lanes
    /// `1 + phase` the blocking comm events and waits of that phase, lanes
    /// `7 + phase` the detached engine events. Timestamps are virtual
    /// seconds scaled to microseconds.
    pub fn chrome_trace_json(&self) -> String {
        const US: f64 = 1e6;
        let mut out = String::with_capacity(4096 + 160 * self.total_events());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        for nt in &self.nodes {
            let pid = nt.rank;
            push(
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                     \"args\":{{\"name\":\"rank {pid}\"}}}}"
                ),
                &mut out,
                &mut first,
            );
            // Emit thread-name metadata only for lanes this rank uses.
            let mut lanes_used = [false; 13];
            lanes_used[0] = true;
            for ev in &nt.events {
                match ev.kind {
                    TraceEventKind::Send { phase, engine, .. }
                    | TraceEventKind::Recv { phase, engine, .. } => {
                        lanes_used[if engine { 7 } else { 1 } + phase.index()] = true;
                    }
                    TraceEventKind::Wait { phase, .. } => {
                        lanes_used[1 + phase.index()] = true;
                    }
                    _ => {}
                }
            }
            for (tid, &used) in lanes_used.iter().enumerate() {
                if !used {
                    continue;
                }
                let lane = if tid == 0 {
                    "control".to_string()
                } else if tid < 7 {
                    format!("comm:{}", CommPhase::ALL[tid - 1].name())
                } else {
                    format!("engine:{}", CommPhase::ALL[tid - 7].name())
                };
                push(
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                         \"name\":\"thread_name\",\"args\":{{\"name\":\"{lane}\"}}}}"
                    ),
                    &mut out,
                    &mut first,
                );
            }
            // Scope spans: match Open/Close on a stack into complete "X"
            // events; any span left open closes at the last timestamp.
            let t_end = nt.events.last().map_or(0.0, |e| e.t);
            let mut stack: Vec<(&'static str, u64, f64)> = Vec::new();
            for ev in &nt.events {
                match ev.kind {
                    TraceEventKind::Open { name, arg } => stack.push((name, arg, ev.t)),
                    TraceEventKind::Close => {
                        if let Some((name, arg, t0)) = stack.pop() {
                            push(
                                format!(
                                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\
                                     \"name\":\"{name}\",\"ts\":{},\"dur\":{},\
                                     \"args\":{{\"arg\":{arg}}}}}",
                                    num(t0 * US),
                                    num((ev.t - t0).max(0.0) * US),
                                ),
                                &mut out,
                                &mut first,
                            );
                        }
                    }
                    TraceEventKind::Instant { name, arg } => {
                        push(
                            format!(
                                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\
                                 \"name\":\"{name}\",\"ts\":{},\"s\":\"t\",\
                                 \"args\":{{\"arg\":{arg}}}}}",
                                num(ev.t * US),
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                    TraceEventKind::Send {
                        phase,
                        dst,
                        tag,
                        elems,
                        seq,
                        dt,
                        engine,
                    } => {
                        let tid = if engine { 7 } else { 1 } + phase.index();
                        push(
                            format!(
                                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                                 \"name\":\"send\",\"ts\":{},\"dur\":{},\
                                 \"args\":{{\"dst\":{dst},\"tag\":\"{}\",\
                                 \"elems\":{elems},\"seq\":{seq}}}}}",
                                num(ev.t * US),
                                num(dt * US),
                                esc(&tag.describe()),
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                    TraceEventKind::Recv {
                        phase,
                        src,
                        tag,
                        elems,
                        seq,
                        stall,
                        engine,
                    } => {
                        let tid = if engine { 7 } else { 1 } + phase.index();
                        push(
                            format!(
                                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                                 \"name\":\"recv\",\"ts\":{},\"dur\":{},\
                                 \"args\":{{\"src\":{src},\"tag\":\"{}\",\
                                 \"elems\":{elems},\"seq\":{seq}}}}}",
                                num(ev.t * US),
                                num(stall * US),
                                esc(&tag.describe()),
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                    TraceEventKind::Wait {
                        phase,
                        exposed,
                        hidden,
                    } => {
                        let tid = 1 + phase.index();
                        push(
                            format!(
                                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
                                 \"name\":\"wait\",\"ts\":{},\"dur\":{},\
                                 \"args\":{{\"exposed\":{},\"hidden\":{}}}}}",
                                num(ev.t * US),
                                num(exposed * US),
                                num(exposed),
                                num(hidden),
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                }
            }
            while let Some((name, arg, t0)) = stack.pop() {
                push(
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\
                         \"name\":\"{name}\",\"ts\":{},\"dur\":{},\
                         \"args\":{{\"arg\":{arg}}}}}",
                        num(t0 * US),
                        num((t_end - t0).max(0.0) * US),
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
        out.push_str("]}");
        out
    }
}

/// Format a finite `f64` as a JSON number. `Display` for `f64` never emits
/// exponent notation or non-numeric tokens for finite values.
fn num(x: f64) -> String {
    debug_assert!(x.is_finite(), "trace timestamps are finite");
    format!("{x}")
}

/// Escape a string for a JSON literal (the tag vocabulary only needs the
/// two structural characters, but stay safe for arbitrary input).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ----------------------------------------------------------------------
// Chrome-trace schema validation (hand-rolled JSON — the workspace has no
// serde; see DESIGN.md "Dependency policy").
// ----------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through bytewise.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parse `json` and verify it is a structurally valid Chrome-trace
/// document: a top-level object holding a `traceEvents` array whose every
/// entry is an event object with the fields Perfetto requires for its
/// phase (`X` complete events, `M` metadata, `i` instants). Returns the
/// number of events on success.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let mut p = Parser::new(json);
    let doc = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing garbage"));
    }
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        _ => return Err("top-level object lacks a traceEvents array".to_string()),
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph") {
            Some(Json::Str(s)) => s.as_str(),
            _ => return Err(format!("event {i}: missing ph")),
        };
        let need_num = |key: &str| match ev.get(key) {
            Some(Json::Num(x)) if x.is_finite() => Ok(*x),
            _ => Err(format!("event {i} (ph {ph}): missing numeric {key}")),
        };
        let need_str = |key: &str| match ev.get(key) {
            Some(Json::Str(_)) => Ok(()),
            _ => Err(format!("event {i} (ph {ph}): missing string {key}")),
        };
        match ph {
            "X" => {
                need_str("name")?;
                need_num("pid")?;
                need_num("tid")?;
                need_num("ts")?;
                let dur = need_num("dur")?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
            }
            "M" => {
                need_str("name")?;
                need_num("pid")?;
            }
            "i" => {
                need_str("name")?;
                need_num("pid")?;
                need_num("tid")?;
                need_num("ts")?;
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { t, kind }
    }

    fn send(dst: usize, seq: u64, dt: f64) -> TraceEventKind {
        TraceEventKind::Send {
            phase: CommPhase::Spmv,
            dst,
            tag: Tag::user(1),
            elems: 4,
            seq,
            dt,
            engine: false,
        }
    }

    fn recv(src: usize, seq: u64, stall: f64) -> TraceEventKind {
        TraceEventKind::Recv {
            phase: CommPhase::Spmv,
            src,
            tag: Tag::user(1),
            elems: 4,
            seq,
            stall,
            engine: false,
        }
    }

    #[test]
    fn validate_accepts_matched_pair() {
        let tr = ClusterTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    events: vec![ev(0.0, send(1, 0, 0.5))],
                },
                NodeTrace {
                    rank: 1,
                    events: vec![ev(0.0, recv(0, 0, 0.5))],
                },
            ],
        };
        tr.validate().expect("well-formed");
    }

    #[test]
    fn validate_rejects_orphan_recv() {
        let tr = ClusterTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    events: vec![],
                },
                NodeTrace {
                    rank: 1,
                    events: vec![ev(0.0, recv(0, 0, 0.5))],
                },
            ],
        };
        let err = tr.validate().unwrap_err();
        assert!(err.contains("names no send"), "{err}");
    }

    #[test]
    fn validate_rejects_unbalanced_nesting() {
        let tr = ClusterTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                events: vec![ev(
                    0.0,
                    TraceEventKind::Open {
                        name: "iteration",
                        arg: 0,
                    },
                )],
            }],
        };
        assert!(tr.validate().unwrap_err().contains("left open"));
        let tr = ClusterTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                events: vec![ev(0.0, TraceEventKind::Close)],
            }],
        };
        assert!(tr.validate().unwrap_err().contains("never opened"));
    }

    #[test]
    fn validate_rejects_time_regression() {
        let tr = ClusterTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                events: vec![
                    ev(1.0, TraceEventKind::Instant { name: "a", arg: 0 }),
                    ev(0.5, TraceEventKind::Instant { name: "b", arg: 0 }),
                ],
            }],
        };
        assert!(tr.validate().unwrap_err().contains("precedes"));
    }

    #[test]
    fn serial_critical_path_sums_exposed() {
        // One rank: costs accumulate along program order.
        let tr = ClusterTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                events: vec![
                    ev(
                        0.0,
                        TraceEventKind::Wait {
                            phase: CommPhase::Reduction,
                            exposed: 0.25,
                            hidden: 0.1,
                        },
                    ),
                    ev(
                        1.0,
                        TraceEventKind::Wait {
                            phase: CommPhase::Spmv,
                            exposed: 0.5,
                            hidden: 0.0,
                        },
                    ),
                ],
            }],
        };
        let cp = tr.critical_path();
        assert_eq!(cp.total, 0.75);
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.by_rank, vec![(0, 0.75)]);
    }

    #[test]
    fn cross_edge_does_not_double_count_flight() {
        // Rank 0 sends (dt 1.0); rank 1 stalls 0.9 waiting for it. The
        // chain crosses at the send: total is 1.0, not 1.9.
        let tr = ClusterTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    events: vec![ev(0.0, send(1, 0, 1.0))],
                },
                NodeTrace {
                    rank: 1,
                    events: vec![ev(0.1, recv(0, 0, 0.9))],
                },
            ],
        };
        let cp = tr.critical_path();
        assert_eq!(cp.total, 1.0);
        assert_eq!(cp.steps.len(), 1);
        assert_eq!(cp.steps[0].kind, "send");
        assert_eq!(cp.by_rank, vec![(0, 1.0)]);
    }

    #[test]
    fn critical_path_attributes_scopes() {
        let tr = ClusterTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                events: vec![
                    ev(
                        0.0,
                        TraceEventKind::Open {
                            name: "iteration",
                            arg: 3,
                        },
                    ),
                    ev(
                        0.0,
                        TraceEventKind::Wait {
                            phase: CommPhase::Reduction,
                            exposed: 2.0,
                            hidden: 0.0,
                        },
                    ),
                    ev(2.0, TraceEventKind::Close),
                ],
            }],
        };
        let cp = tr.critical_path();
        assert_eq!(cp.total, 2.0);
        assert_eq!(cp.by_scope, vec![("iteration 3".to_string(), 2.0)]);
        assert_eq!(cp.by_phase, vec![(CommPhase::Reduction, 2.0)]);
    }

    #[test]
    fn chrome_export_is_schema_valid() {
        let tr = ClusterTrace {
            nodes: vec![
                NodeTrace {
                    rank: 0,
                    events: vec![
                        ev(
                            0.0,
                            TraceEventKind::Open {
                                name: "iteration",
                                arg: 0,
                            },
                        ),
                        ev(0.0, send(1, 0, 0.5)),
                        ev(
                            0.5,
                            TraceEventKind::Instant {
                                name: "failure",
                                arg: 1,
                            },
                        ),
                        ev(1.0, TraceEventKind::Close),
                    ],
                },
                NodeTrace {
                    rank: 1,
                    events: vec![
                        ev(0.0, recv(0, 0, 0.5)),
                        ev(
                            0.5,
                            TraceEventKind::Wait {
                                phase: CommPhase::Reduction,
                                exposed: 0.25,
                                hidden: 0.25,
                            },
                        ),
                    ],
                },
            ],
        };
        let json = tr.chrome_trace_json();
        let n = validate_chrome_trace(&json).expect("schema-valid");
        // 2 process_name + 3 thread lanes (rank 0: control+spmv; rank 1:
        // control+spmv+reduction... rank 1 control lane is still emitted)
        // plus 5 payload events.
        assert!(n >= 7, "{n} events in {json}");
    }

    #[test]
    fn chrome_export_closes_dangling_spans() {
        let tr = ClusterTrace {
            nodes: vec![NodeTrace {
                rank: 0,
                events: vec![ev(
                    0.25,
                    TraceEventKind::Open {
                        name: "iteration",
                        arg: 1,
                    },
                )],
            }],
        };
        validate_chrome_trace(&tr.chrome_trace_json()).expect("dangling span closed at export");
    }

    #[test]
    fn json_validator_rejects_garbage() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"Q\"}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]} x").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_ok());
    }

    #[test]
    fn seq_counters_pair_per_peer_and_tag() {
        let mut st = TraceState::new(0);
        assert_eq!(next_seq(&mut st.send_seq, 1, Tag::user(1)), 0);
        assert_eq!(next_seq(&mut st.send_seq, 1, Tag::user(1)), 1);
        assert_eq!(next_seq(&mut st.send_seq, 2, Tag::user(1)), 0);
        assert_eq!(next_seq(&mut st.send_seq, 1, Tag::user(2)), 0);
        assert_eq!(next_seq(&mut st.recv_seq, 1, Tag::user(1)), 0);
        assert_eq!(next_seq(&mut st.recv_seq, 1, Tag::user(1)), 1);
    }
}
