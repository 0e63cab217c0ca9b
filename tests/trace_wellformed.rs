//! Well-formedness of the virtual-time tracing layer (`SolverConfig::trace`,
//! `Cluster::run_traced`).
//!
//! [`parcomm::ClusterTrace::validate`] is the production gate; these tests
//! re-derive its invariants independently over a real failure-and-recovery
//! solve so a validator bug and a recorder bug can't cancel out:
//!
//! * span nesting is balanced per rank (every `Close` has an `Open`,
//!   nothing left open at teardown);
//! * timestamps are monotone in the virtual clock per rank (detached
//!   engine-timeline events exempt);
//! * every receive names a matching send — same `(src, dst, tag, seq)`
//!   key, same element count;
//! * on a serial (N = 1) run the critical path degenerates to the single
//!   rank's program order and its length equals the rank's total exposed
//!   communication vtime *exactly* (bitwise `f64` equality — everything
//!   is deterministic);
//! * the Chrome-trace export parses and carries the fields Perfetto needs
//!   for each event (`validate_chrome_trace`, at the end of this file).

use std::collections::HashMap;

use esr_suite::core::{
    run, run_pcg, run_pipecg, ExperimentResult, Problem, RecoveryPolicy, SolverConfig, SolverKind,
};
use esr_suite::parcomm::{
    Cluster, ClusterConfig, ClusterTrace, CommPhase, CostModel, FailureScript, NodeTrace, Payload,
    Tag, TraceEvent, TraceEventKind,
};
use esr_suite::sparsemat::gen::poisson2d;

/// `cfg` with the tracer on.
fn traced(cfg: SolverConfig) -> SolverConfig {
    SolverConfig { trace: true, ..cfg }
}

/// The trace a traced solve returned.
fn trace_of(r: &ExperimentResult) -> &ClusterTrace {
    r.trace.as_ref().expect("a traced solve returns its trace")
}

/// A traced resilient solve with one mid-run failure: the shared fixture
/// for the structural checks.
fn traced_failure_solve() -> ClusterTrace {
    let a = poisson2d(12, 12);
    let problem = Problem::with_ones_solution(a);
    let script = FailureScript::simultaneous(5, 1, 1, 4);
    let r = run_pcg(
        &problem,
        4,
        &traced(SolverConfig::resilient(1)),
        CostModel::default(),
        script,
    )
    .unwrap();
    assert!(r.converged);
    assert_eq!(r.recoveries, 1);
    r.trace.expect("a traced solve returns its trace")
}

#[test]
fn validator_accepts_a_real_failure_solve() {
    let trace = traced_failure_solve();
    trace.validate().expect("trace must be well-formed");
    // The trace is not degenerate: every rank recorded events, every rank
    // opened iteration spans, and the failure left recovery spans behind.
    assert_eq!(trace.nodes.len(), 4);
    for nt in &trace.nodes {
        assert!(!nt.events.is_empty(), "rank {}: empty trace", nt.rank);
        assert!(
            nt.events.iter().any(|e| matches!(
                e.kind,
                TraceEventKind::Open {
                    name: "iteration",
                    ..
                }
            )),
            "rank {}: no iteration spans",
            nt.rank
        );
    }
    assert!(
        trace
            .nodes
            .iter()
            .any(|nt| nt.events.iter().any(|e| matches!(
                e.kind,
                TraceEventKind::Open {
                    name: "recovery",
                    ..
                }
            ))),
        "no rank recorded a recovery span"
    );
}

#[test]
fn span_nesting_is_balanced_per_rank() {
    let trace = traced_failure_solve();
    for nt in &trace.nodes {
        let mut depth: i64 = 0;
        for (i, ev) in nt.events.iter().enumerate() {
            match ev.kind {
                TraceEventKind::Open { .. } => depth += 1,
                TraceEventKind::Close => {
                    depth -= 1;
                    assert!(depth >= 0, "rank {}: event {i} closes nothing", nt.rank);
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "rank {}: spans left open", nt.rank);
    }
}

#[test]
fn timestamps_are_monotone_per_rank() {
    let trace = traced_failure_solve();
    for nt in &trace.nodes {
        let mut last = f64::NEG_INFINITY;
        for (i, ev) in nt.events.iter().enumerate() {
            let engine = matches!(
                ev.kind,
                TraceEventKind::Send { engine: true, .. }
                    | TraceEventKind::Recv { engine: true, .. }
            );
            if !engine {
                assert!(
                    ev.t >= last,
                    "rank {}: event {i} at t={} precedes t={last}",
                    nt.rank,
                    ev.t
                );
                last = ev.t;
            }
        }
    }
}

#[test]
fn every_recv_names_a_matching_send() {
    let trace = traced_failure_solve();
    let mut sends = HashMap::new();
    for nt in &trace.nodes {
        for ev in &nt.events {
            if let TraceEventKind::Send {
                dst,
                tag,
                elems,
                seq,
                ..
            } = ev.kind
            {
                let prev = sends.insert((nt.rank, dst, tag, seq), elems);
                assert!(
                    prev.is_none(),
                    "rank {}: duplicate send seq {seq} to {dst}",
                    nt.rank
                );
            }
        }
    }
    let mut matched = 0usize;
    for nt in &trace.nodes {
        for ev in &nt.events {
            if let TraceEventKind::Recv {
                src,
                tag,
                elems,
                seq,
                ..
            } = ev.kind
            {
                let sent = sends.get(&(src, nt.rank, tag, seq));
                assert_eq!(
                    sent,
                    Some(&elems),
                    "rank {}: recv seq {seq} from {src} tag {tag:?} names no equal-size send",
                    nt.rank
                );
                matched += 1;
            }
        }
    }
    assert!(matched > 0, "no receives recorded at all");
}

#[test]
fn serial_critical_path_equals_total_exposed_vtime() {
    // A serial (N = 1) solve: collectives degenerate to local folds and
    // no message ever leaves the rank, so the total exposed communication
    // vtime — and therefore the critical path — is exactly zero. The
    // equality is still asserted bitwise so a critical-path walker that
    // invents cost out of spans or instants is caught.
    let a = poisson2d(10, 10);
    let problem = Problem::with_ones_solution(a);
    let r = run_pcg(
        &problem,
        1,
        &traced(SolverConfig::reference()),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();
    assert!(r.converged);
    let trace = trace_of(&r);
    trace.validate().expect("serial trace must be well-formed");
    assert_eq!(trace.nodes.len(), 1);
    assert!(!trace.nodes[0].events.is_empty());
    let exposed: f64 = CommPhase::ALL
        .iter()
        .map(|&p| r.per_node[0].stats.exposed_vtime(p))
        .sum();
    let cp = trace.critical_path();
    assert_eq!(
        cp.total.to_bits(),
        exposed.to_bits(),
        "critical path {} != total exposed vtime {exposed}",
        cp.total
    );
}

#[test]
fn chain_critical_path_equals_total_exposed_vtime() {
    // The nonzero counterpart: rank 0 blocking-sends a burst of mixed
    // sizes, rank 1 drains it. Every chain through the DAG — pure sender
    // (transfer charges), pure receiver (stalls), or mixed via a cross
    // edge — sums to the same total, because each stall equals the
    // matching transfer charge here. The critical path must reproduce
    // both ranks' exposed vtime bit-for-bit.
    const TAG: u32 = 977;
    const SIZES: [usize; 5] = [3, 64, 1000, 1, 17];
    let run = Cluster::run_traced(ClusterConfig::new(2), async |ctx| {
        if ctx.rank() == 0 {
            ctx.trace_open("burst", 0);
            for (i, len) in SIZES.into_iter().enumerate() {
                ctx.send(
                    1,
                    TAG + i as u32,
                    Payload::f64s(vec![1.0; len]),
                    CommPhase::Other,
                );
            }
            ctx.trace_close();
        } else {
            for (i, len) in SIZES.into_iter().enumerate() {
                let got = ctx.recv_phase(0, TAG + i as u32, CommPhase::Other).await;
                assert_eq!(got.elems(), len);
            }
        }
        CommPhase::ALL
            .iter()
            .map(|&p| ctx.stats().exposed_vtime(p))
            .sum::<f64>()
    });
    let (out, trace) = (run.values, run.trace.expect("a traced run"));
    trace.validate().expect("chain trace must be well-formed");
    let cp = trace.critical_path();
    assert!(cp.total > 0.0);
    assert_eq!(cp.total.to_bits(), out[0].to_bits(), "sender chain");
    assert_eq!(cp.total.to_bits(), out[1].to_bits(), "receiver chain");
}

#[test]
fn each_iteration_opens_one_span_per_rank() {
    // An ESR recovery goes on with the interrupted iteration, after a
    // Shrink as in place and in the pipelined solver too: no rank opens a
    // second `iteration` span for the same index.
    let problem = Problem::with_ones_solution(poisson2d(12, 12));
    for (solver, policy) in [
        (SolverKind::Pcg, RecoveryPolicy::Shrink),
        (SolverKind::PipeCg, RecoveryPolicy::Replace),
    ] {
        let cfg = traced(SolverConfig::resilient_with_policy(1, policy));
        let script = FailureScript::simultaneous(5, 1, 1, 4);
        let r = run(solver, &problem, 4, &cfg, CostModel::default(), script).unwrap();
        assert!(r.converged && r.recoveries == 1, "{solver:?}");
        for nt in &trace_of(&r).nodes {
            let mut opened: HashMap<u64, usize> = HashMap::new();
            for ev in &nt.events {
                if let TraceEventKind::Open {
                    name: "iteration",
                    arg,
                } = ev.kind
                {
                    *opened.entry(arg).or_default() += 1;
                }
            }
            assert!(opened.contains_key(&5), "{solver:?} rank {}", nt.rank);
            for (j, n) in opened {
                assert_eq!(n, 1, "{solver:?} rank {}: iteration {j}", nt.rank);
            }
        }
    }
}

#[test]
fn chrome_export_of_a_failure_solve_validates() {
    let trace = traced_failure_solve();
    let json = trace.chrome_trace_json();
    let n = validate_chrome_trace(&json)
        .expect("chrome trace JSON must parse and carry the required fields");
    assert!(n > 0);
    // The bench report counts the exported events by their `ph` keys
    // without parsing; the parser must agree with that count.
    assert_eq!(n, json.matches("\"ph\":").count());
}

#[test]
fn statistics_and_trace_are_two_readings_of_one_stream() {
    // `CommStats` and the tracer consume the same events in the same order,
    // so replaying a rank's trace from its last `reset_metrics` marker must
    // reproduce that rank's statistics exactly — counts, and every
    // per-phase virtual-time accumulator bit for bit. Blocking PCG covers
    // sends and stalls (with split ghost-exchange messages, φ = 2), the
    // pipelined solver the engine timeline and the exposed/hidden waits.
    let problem = Problem::with_ones_solution(poisson2d(12, 12));
    for run in [run_pcg, run_pipecg] {
        let script = FailureScript::simultaneous(5, 1, 2, 4);
        let cfg = traced(SolverConfig::resilient(2));
        let r = run(&problem, 4, &cfg, CostModel::default(), script).unwrap();
        assert!(r.converged);
        assert_eq!(r.ranks_recovered, 2);
        for nt in &trace_of(&r).nodes {
            let stats = &r.per_node[nt.rank].stats;
            let reset = TraceEventKind::Instant {
                name: "reset_metrics",
                arg: 0,
            };
            let start = nt.events.iter().rposition(|e| e.kind == reset);
            let start = start.expect("reset marker");
            let (mut msgs, mut elems) = (0u64, 0u64);
            let mut send = [0.0f64; CommPhase::ALL.len()];
            let (mut wait, mut hidden) = (send, send);
            for ev in &nt.events[start..] {
                match ev.kind {
                    TraceEventKind::Send {
                        phase,
                        elems: e,
                        dt,
                        engine,
                        ..
                    } => {
                        msgs += 1;
                        elems += e as u64;
                        if !engine {
                            send[phase.index()] += dt;
                        }
                    }
                    TraceEventKind::Recv {
                        phase,
                        stall,
                        engine: false,
                        ..
                    } => wait[phase.index()] += stall,
                    TraceEventKind::Wait {
                        phase,
                        exposed,
                        hidden: h,
                    } => {
                        wait[phase.index()] += exposed;
                        hidden[phase.index()] += h;
                    }
                    _ => {}
                }
            }
            assert!(msgs > 0, "rank {}: no sends after the reset", nt.rank);
            assert_eq!(msgs, stats.total_msgs(), "rank {}", nt.rank);
            assert_eq!(msgs, stats.msg_size_hist().count(), "rank {}", nt.rank);
            assert_eq!(elems, stats.total_elems(), "rank {}", nt.rank);
            for p in CommPhase::ALL {
                let i = p.index();
                let at = format!("rank {}, phase {}", nt.rank, p.name());
                assert_eq!(send[i].to_bits(), stats.send_vtime(p).to_bits(), "{at}");
                assert_eq!(wait[i].to_bits(), stats.wait_vtime(p).to_bits(), "{at}");
                assert_eq!(hidden[i].to_bits(), stats.hidden_vtime(p).to_bits(), "{at}");
            }
        }
    }
}

fn ev(t: f64, kind: TraceEventKind) -> TraceEvent {
    TraceEvent { t, kind }
}

fn send(dst: usize, seq: u64, dt: f64) -> TraceEventKind {
    TraceEventKind::Send {
        phase: CommPhase::Spmv,
        dst,
        tag: Tag(1),
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
        tag: Tag(1),
        elems: 4,
        seq,
        stall,
        engine: false,
    }
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

/// The Chrome events one recorded event exports to, and that event's
/// variant number. The `match` has no wildcard arm: a new
/// `TraceEventKind` variant fails to compile here until it is given a
/// number, an export count and a place in
/// `chrome_export_covers_every_event_kind`'s trace.
fn exported_events(kind: &TraceEventKind) -> (usize, usize) {
    match kind {
        // A span exports one complete event, counted at its `Open`.
        TraceEventKind::Open { .. } => (0, 1),
        TraceEventKind::Close => (1, 0),
        TraceEventKind::Send { .. } => (2, 1),
        TraceEventKind::Recv { .. } => (3, 1),
        TraceEventKind::Wait { .. } => (4, 1),
        TraceEventKind::Instant { .. } => (5, 1),
    }
}

#[test]
fn chrome_export_covers_every_event_kind() {
    const KINDS: usize = 6;
    let events = vec![
        ev(
            0.0,
            TraceEventKind::Open {
                name: "iteration",
                arg: 0,
            },
        ),
        ev(0.0, send(0, 0, 0.25)),
        ev(0.25, recv(0, 0, 0.0)),
        ev(
            0.25,
            TraceEventKind::Wait {
                phase: CommPhase::Reduction,
                exposed: 0.5,
                hidden: 0.25,
            },
        ),
        ev(
            0.75,
            TraceEventKind::Instant {
                name: "failure",
                arg: 0,
            },
        ),
        ev(1.0, TraceEventKind::Close),
    ];
    let mut covered = [false; KINDS];
    let mut payload = 0;
    for e in &events {
        let (variant, exported) = exported_events(&e.kind);
        covered[variant] = true;
        payload += exported;
    }
    assert!(covered.iter().all(|&c| c), "{covered:?}");
    let tr = ClusterTrace {
        nodes: vec![NodeTrace { rank: 0, events }],
    };
    tr.validate().expect("well-formed");
    let json = tr.chrome_trace_json();
    let n = validate_chrome_trace(&json).expect("schema-valid");
    // One process name and the thread names of three lanes (control,
    // comm:spmv, comm:reduction), then the payload events.
    assert_eq!(n, 4 + payload, "{json}");
    assert_eq!(n, json.matches("\"ph\":").count());
}

// ----------------------------------------------------------------------
// Chrome-trace schema validation (hand-rolled JSON — the workspace has no
// serde; see DESIGN.md "Dependency policy"). It re-reads what
// `ClusterTrace::chrome_trace_json` wrote, so an export bug cannot hide
// behind the exporter's own view of its output.
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
fn validate_chrome_trace(json: &str) -> Result<usize, String> {
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
