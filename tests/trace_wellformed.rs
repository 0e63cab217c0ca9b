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
//!   is deterministic).

use std::collections::HashMap;

use esr_suite::core::{
    run, run_pcg, run_pipecg, ExperimentResult, Problem, RecoveryPolicy, SolverConfig, SolverKind,
};
use esr_suite::parcomm::{
    Cluster, ClusterConfig, CommPhase, CostModel, FailureScript, Payload, TraceEventKind,
};
use esr_suite::sparsemat::gen::poisson2d;

/// `cfg` with the tracer on.
fn traced(cfg: SolverConfig) -> SolverConfig {
    SolverConfig { trace: true, ..cfg }
}

/// The trace a traced solve returned.
fn trace_of(r: &ExperimentResult) -> &esr_suite::parcomm::ClusterTrace {
    r.trace.as_ref().expect("a traced solve returns its trace")
}

/// A traced resilient solve with one mid-run failure: the shared fixture
/// for the structural checks.
fn traced_failure_solve() -> esr_suite::parcomm::ClusterTrace {
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
    let (out, trace) = Cluster::run_traced(ClusterConfig::new(2), |ctx| {
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
                let got = ctx.recv_phase(0, TAG + i as u32, CommPhase::Other);
                assert_eq!(got.elems(), len);
            }
        }
        CommPhase::ALL
            .iter()
            .map(|&p| ctx.stats().exposed_vtime(p))
            .sum::<f64>()
    });
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
    let n = esr_suite::parcomm::trace::validate_chrome_trace(&json)
        .expect("chrome trace JSON must parse and carry the required fields");
    assert!(n > 0);
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
