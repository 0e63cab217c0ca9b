//! Machine-readable perf report: `BENCH_comm.json` + `BENCH_pcg.json` +
//! `BENCH_pipecg.json` + `BENCH_policy_matrix.json`.
//!
//! Establishes the performance trajectory of the communication hot path so
//! this and every future PR has a number attached. Three artifacts land in
//! `target/esr-results/` (override with `ESR_RESULTS_DIR`):
//!
//! * **`BENCH_comm.json`** — the all-reduce microbenchmark across cluster
//!   sizes: virtual time per call, communication rounds on the critical
//!   path, and message/element counts.
//! * **`BENCH_pcg.json`** — reference PCG (failure-free) across cluster
//!   sizes: virtual time per iteration, all-reduces per iteration, the
//!   reduction-phase traffic, and the exposed (send + stall) communication
//!   time split.
//! * **`BENCH_pipecg.json`** — pipelined vs blocking PCG: vtime per
//!   iteration and the exposed/hidden reduction time per iteration. At
//!   N ≥ 16 the pipelined solver's exposed reduction time must come in
//!   strictly below blocking PCG's (asserted here, so CI gates on it).
//! * **`BENCH_policy_matrix.json`** — the full protection × policy ×
//!   solver grid through the one restart protocol: for every cell of
//!   {ESR, checkpoint} × {replace, spares(1), shrink} × {PCG, pipelined
//!   PCG, BiCGSTAB}, recovery virtual time, reconstruction traffic
//!   (Recovery-phase messages/elements), retired-node count, and
//!   post-recovery iterations for the same ψ = 2 failure event at N ≤ 16.
//!   Checkpoint cells additionally report the rolled-back iteration count
//!   and each solver carries the steady-state checkpoint overhead
//!   (failure-free C/R vtime vs. the unprotected reference). Schema v3
//!   adds per-cell log-bucket quantiles (message sizes, per-phase wait
//!   times) and the per-substep recovery timelines.
//! * **`BENCH_scale.json`** — the event-driven runtime's scaling sweep:
//!   the same fixed-work problem (M1 at the configured scale) solved by
//!   resilient PCG with one injected failure across cluster sizes
//!   N ∈ {16, 64, 128, 256, 1024}. Reports virtual time and host
//!   wall-clock per size, and asserts the N = 1024 solve finishes within
//!   its wall-clock budget (20 s) — the capability the scheduler refactor
//!   bought; the old thread-per-node runtime could not run N = 1024 at
//!   all (1024 free-running OS threads on a 2-core host).
//! * **`BENCH_trace.json` + `ESR_pcg_n16_failure.trace.json`** — a
//!   traced (`SolverConfig::trace`) N = 16 single-failure solve: the
//!   Chrome-trace/Perfetto artifact plus an event census and the
//!   virtual-time critical path attributed by phase/rank/scope.
//!
//! `BENCH_comm`/`BENCH_pcg` embed the pre-overhaul numbers
//! (reduce-to-root + broadcast all-reduce, 3 reductions per PCG iteration)
//! measured on the same machine/model as `baseline`, so the before/after
//! is part of the artifact.
//!
//! Knobs: `ESR_REPORT_NODES` (comma list, default `4,8,13,16,32,64`),
//! `ESR_SCALE_REPORT_NODES` (the scaling sweep's sizes, default
//! `16,64,128,256,1024`) and the usual `ESR_SCALE`. CI runs this at small
//! N as a smoke gate (the scaling sweep always includes N = 1024 — that
//! *is* the smoke test for the scheduler).

use std::time::Instant;

use esr_bench::{env_list, write_json, BenchConfig};
use esr_core::{
    run, run_pcg, run_pipecg, ExperimentResult, RecoveryPolicy, SolverConfig, SolverKind,
};
use parcomm::comm::ReduceOp;
use parcomm::{Cluster, ClusterConfig, CommPhase, FailureScript};
use sparsemat::gen::suite::PaperMatrix;

/// Pre-PR reference numbers (reduce+bcast all-reduce, 3 reductions/iter),
/// captured with the default cost model before the overhaul. Virtual times
/// are deterministic, so these are exact, not sampled.
/// (nodes, vtime_per_call, msgs_per_call)
const BASELINE_COMM: &[(usize, f64, f64)] = &[
    (4, 4.006e-6, 6.0),
    (8, 6.010e-6, 14.0),
    (13, 7.011e-6, 24.0),
    (16, 8.013e-6, 30.0),
    (32, 1.002e-5, 62.0),
    (64, 1.202e-5, 126.0),
];

/// (nodes, iterations, vtime_per_iter) for reference PCG on M1 at the
/// default scale; allreduces/iter was 3 by construction.
const BASELINE_PCG: &[(usize, usize, f64)] = &[
    (4, 25, 1.2635e-4),
    (8, 31, 5.8778e-5),
    (13, 39, 3.5105e-5),
    (16, 43, 2.9346e-5),
];

/// Reference-PCG timings (M1, default cost model, default scale), captured
/// before any instrumentation layer existed. The auditor and the tracer
/// only read the clock, never advance it, so every run must reproduce
/// these *bitwise* — equality of `f64::to_bits`, not a tolerance. Virtual
/// times are deterministic, so any drift is a real hot-path change.
const INSTR_OFF_PCG: &[(usize, usize, f64)] = &[
    (4, 25, 1.2476338399999983e-4),
    (8, 31, 5.1020322580645216e-5),
    (13, 39, 2.6066512820512788e-5),
    (16, 43, 1.55297674418605e-5),
];

fn report_nodes() -> Vec<usize> {
    env_list("ESR_REPORT_NODES", "a node count").unwrap_or_else(|| vec![4, 8, 13, 16, 32, 64])
}

fn json_f(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".into()
    }
}

fn comm_report(cfgb: &BenchConfig, nodes: &[usize]) -> String {
    const CALLS: usize = 100;
    let mut cases = Vec::new();
    for &n in nodes {
        let wall = Instant::now();
        let out = Cluster::run(ClusterConfig::new(n).with_cost(cfgb.cost), move |ctx| {
            ctx.reset_metrics();
            for i in 0..CALLS {
                ctx.allreduce_vec(ReduceOp::Sum, vec![i as f64, 1.0]);
            }
            (
                ctx.vtime(),
                ctx.stats().allreduces(),
                ctx.stats().allreduce_rounds(),
                ctx.stats().total_msgs(),
                ctx.stats().total_elems(),
            )
        });
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let vtime = out.iter().map(|o| o.0).fold(0.0, f64::max);
        let rounds_max = out.iter().map(|o| o.2 / o.1).max().unwrap();
        let msgs: u64 = out.iter().map(|o| o.3).sum();
        let elems: u64 = out.iter().map(|o| o.4).sum();
        let baseline = BASELINE_COMM
            .iter()
            .find(|b| b.0 == n)
            .map(|&(_, vt, msgs)| {
                format!(
                    r#", "baseline_reduce_bcast": {{"vtime_per_call": {}, "msgs_per_call": {}, "rounds": {}}}"#,
                    json_f(vt),
                    json_f(msgs),
                    2 * (usize::BITS - (n - 1).leading_zeros())
                )
            })
            .unwrap_or_default();
        cases.push(format!(
            r#"    {{"nodes": {n}, "calls": {CALLS}, "vtime_per_call": {}, "rounds_per_call": {rounds_max}, "msgs_per_call": {}, "elems_per_call": {}, "wall_ms": {}{baseline}}}"#,
            json_f(vtime / CALLS as f64),
            json_f(msgs as f64 / CALLS as f64),
            json_f(elems as f64 / CALLS as f64),
            json_f(wall_ms),
        ));
        println!(
            "comm N={n:3}  vtime/call {:.3e}s  rounds {rounds_max}  msgs/call {:.1}",
            vtime / CALLS as f64,
            msgs as f64 / CALLS as f64
        );
    }
    format!(
        "{{\n  \"schema\": \"esr-bench/comm/v1\",\n  \"collective\": \"allreduce_vec(len=2)\",\n  \"algorithm\": \"recursive-doubling (fold-in/out on non-pow2)\",\n  \"cost_model\": {{\"lambda\": {}, \"mu\": {}, \"gamma\": {}}},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json_f(cfgb.cost.lambda),
        json_f(cfgb.cost.mu),
        json_f(cfgb.cost.gamma),
        cases.join(",\n")
    )
}

/// Whether the instrumentation-off bitwise guard applies: the run must use
/// the baseline configuration.
fn instr_guard_applicable(cfgb: &BenchConfig) -> bool {
    let d = parcomm::CostModel::default();
    cfgb.scale == 0.01
        && cfgb.cost.lambda == d.lambda
        && cfgb.cost.mu == d.mu
        && cfgb.cost.gamma == d.gamma
}

fn pcg_report(cfgb: &BenchConfig, nodes: &[usize]) -> (String, Vec<(usize, ExperimentResult)>) {
    let guard = instr_guard_applicable(cfgb);
    let mut guarded = 0usize;
    let mut cases = Vec::new();
    let mut results = Vec::new();
    for &n in nodes {
        let problem = cfgb.problem(PaperMatrix::M1);
        let r = run_pcg(
            &problem,
            n,
            &SolverConfig::reference(),
            cfgb.cost,
            FailureScript::none(),
        )
        .unwrap();
        assert!(r.converged, "reference PCG must converge (N={n})");
        let iters = r.iterations as f64;
        if guard {
            if let Some(&(_, bi, bvt)) = INSTR_OFF_PCG.iter().find(|b| b.0 == n) {
                let vt = r.vtime / iters;
                assert_eq!(
                    r.iterations as usize, bi,
                    "N={n}: iteration count drifted from the instrumentation-off baseline"
                );
                assert_eq!(
                    vt.to_bits(),
                    bvt.to_bits(),
                    "N={n}: vtime/iter {vt:e} != instrumentation-off baseline {bvt:e} — \
                     the observers must never move the clock"
                );
                guarded += 1;
            }
        }
        // Every rank issues the same collective sequence, so calls/iter is
        // uniform; rounds differ per rank (folded-out ranks take only 2 on
        // non-power-of-two sizes), so report the critical-path maximum.
        let ar_per_iter = r.per_node[0].stats.allreduces() as f64 / iters;
        let rounds_per_ar = r
            .per_node
            .iter()
            .map(|o| o.stats.allreduce_rounds() as f64 / o.stats.allreduces() as f64)
            .fold(0.0, f64::max);
        let baseline = BASELINE_PCG
            .iter()
            .find(|b| b.0 == n)
            .map(|&(_, bi, bvt)| {
                format!(
                    r#", "baseline_reduce_bcast": {{"iterations": {bi}, "vtime_per_iter": {}, "allreduces_per_iter": 3.0}}"#,
                    json_f(bvt)
                )
            })
            .unwrap_or_default();
        cases.push(format!(
            r#"    {{"nodes": {n}, "iterations": {}, "vtime_total": {}, "vtime_per_iter": {}, "allreduces_per_iter": {}, "rounds_per_allreduce": {}, "reduction_msgs": {}, "reduction_elems": {}, "total_msgs": {}, "total_elems": {}, "exposed_reduction_vtime_per_iter": {}, "reduction_wait_vtime_per_iter": {}, "wall_ms": {}{baseline}}}"#,
            r.iterations,
            json_f(r.vtime),
            json_f(r.vtime / iters),
            json_f(ar_per_iter),
            json_f(rounds_per_ar),
            r.stats.msgs(CommPhase::Reduction),
            r.stats.elems(CommPhase::Reduction),
            r.stats.total_msgs(),
            r.stats.total_elems(),
            json_f(r.exposed_vtime_per_iter(CommPhase::Reduction)),
            json_f(r.wait_vtime_per_iter(CommPhase::Reduction)),
            json_f(r.wall.as_secs_f64() * 1e3),
        ));
        println!(
            "pcg  N={n:3}  iters {:3}  vtime/iter {:.4e}s  allreduces/iter {:.2}  rounds/allreduce {:.1}",
            r.iterations,
            r.vtime / iters,
            ar_per_iter,
            rounds_per_ar
        );
        results.push((n, r));
    }
    if guard {
        println!("instrumentation-off bitwise guard: {guarded} case(s) matched the pinned baselines exactly");
    }
    let json = format!(
        "{{\n  \"schema\": \"esr-bench/pcg/v1\",\n  \"matrix\": \"M1\",\n  \"scale\": {},\n  \"solver\": \"reference PCG, fused rr+rz reduction (2 allreduces/iter)\",\n  \"instrumentation_zero_cost\": {{\"bitwise_guard_cases\": {guarded}}},\n  \"cost_model\": {{\"lambda\": {}, \"mu\": {}, \"gamma\": {}}},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json_f(cfgb.scale),
        json_f(cfgb.cost.lambda),
        json_f(cfgb.cost.mu),
        json_f(cfgb.cost.gamma),
        cases.join(",\n")
    );
    (json, results)
}

/// The pipelined-vs-blocking comparison; `blocking_results` are the solves
/// `pcg_report` already ran on the identical configuration (reused — the
/// large-N blocking solves dominate the harness's wall time).
fn pipecg_report(
    cfgb: &BenchConfig,
    nodes: &[usize],
    blocking_results: &[(usize, ExperimentResult)],
) -> String {
    let mut cases = Vec::new();
    for &n in nodes {
        let problem = cfgb.problem(PaperMatrix::M1);
        let blocking = &blocking_results
            .iter()
            .find(|(bn, _)| *bn == n)
            .expect("pcg_report covers the same node list")
            .1;
        let piped = run_pipecg(
            &problem,
            n,
            &SolverConfig::reference(),
            cfgb.cost,
            FailureScript::none(),
        )
        .unwrap();
        assert!(piped.converged, "pipelined PCG must converge (N={n})");
        let eb = blocking.exposed_vtime_per_iter(CommPhase::Reduction);
        let ep = piped.exposed_vtime_per_iter(CommPhase::Reduction);
        let hidden = piped.hidden_vtime_per_iter(CommPhase::Reduction);
        // The latency-hiding contract of the ISSUE's acceptance criteria:
        // at N ≥ 16 the pipelined solver exposes strictly less reduction
        // time per iteration than the blocking solver.
        if n >= 16 {
            assert!(
                ep < eb,
                "N={n}: pipelined exposed reduction {ep:.3e} !< blocking {eb:.3e}"
            );
        }
        cases.push(format!(
            r#"    {{"nodes": {n}, "pipelined": {{"iterations": {}, "vtime_per_iter": {}, "exposed_reduction_vtime_per_iter": {}, "hidden_reduction_vtime_per_iter": {}, "allreduces_per_iter": {}}}, "blocking": {{"iterations": {}, "vtime_per_iter": {}, "exposed_reduction_vtime_per_iter": {}, "allreduces_per_iter": {}}}, "exposed_reduction_ratio": {}}}"#,
            piped.iterations,
            json_f(piped.vtime / piped.iterations as f64),
            json_f(ep),
            json_f(hidden),
            json_f(piped.per_node[0].stats.allreduces() as f64 / piped.iterations as f64),
            blocking.iterations,
            json_f(blocking.vtime / blocking.iterations as f64),
            json_f(eb),
            json_f(blocking.per_node[0].stats.allreduces() as f64 / blocking.iterations as f64),
            json_f(ep / eb),
        ));
        println!(
            "pipecg N={n:3}  iters {:3}  vtime/iter {:.4e}s  exposed-red/iter {:.3e}s (blocking {:.3e}s)  hidden/iter {:.3e}s",
            piped.iterations,
            piped.vtime / piped.iterations as f64,
            ep,
            eb,
            hidden
        );
    }
    format!(
        "{{\n  \"schema\": \"esr-bench/pipecg/v1\",\n  \"matrix\": \"M1\",\n  \"scale\": {},\n  \"solver\": \"pipelined PCG (1 overlapped iallreduce/iter) vs blocking PCG (2 allreduces/iter)\",\n  \"cost_model\": {{\"lambda\": {}, \"mu\": {}, \"gamma\": {}}},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json_f(cfgb.scale),
        json_f(cfgb.cost.lambda),
        json_f(cfgb.cost.mu),
        json_f(cfgb.cost.gamma),
        cases.join(",\n")
    )
}

/// The protection × policy × solver grid (`BENCH_policy_matrix.json`):
/// the same ψ-failure event handled by both protection flavors — exact
/// state reconstruction and periodic diskless checkpointing — under every
/// [`RecoveryPolicy`] — in-place replacement, an *undersized* spare pool
/// (1 spare for ψ = 2, so one subdomain is replaced and one adopted in a
/// mixed event), and pure shrink — on every engine-backed
/// solver (blocking PCG, pipelined PCG, BiCGSTAB). Reports per cell the
/// recovery cost (virtual time, Recovery-phase reconstruction traffic),
/// retired-node count, and the post-recovery iteration count; checkpoint
/// cells add the rolled-back iteration count (`fail_at mod interval` —
/// re-executed work ESR never pays), and each solver reports the
/// steady-state checkpoint overhead of the failure-free C/R run against
/// the unprotected reference.
fn policy_matrix_report(cfgb: &BenchConfig, nodes: &[usize]) -> String {
    const PSI: usize = 2;
    const PHI: usize = 2;
    const CR_INTERVAL: usize = 4;
    let solvers = [
        ("pcg", SolverKind::Pcg),
        ("pipecg", SolverKind::PipeCg),
        ("bicgstab", SolverKind::BiCgStab),
    ];
    let policies: [(&str, RecoveryPolicy); 3] = [
        ("replace", RecoveryPolicy::Replace),
        ("spares(1)", RecoveryPolicy::Spares(1)),
        ("shrink", RecoveryPolicy::Shrink),
    ];
    let mut cases = Vec::new();
    for &n in nodes.iter().filter(|&&n| (4..=16).contains(&n)) {
        let problem = cfgb.problem(PaperMatrix::M1);
        let mut solver_rows = Vec::new();
        for (sname, solver) in solvers {
            // Each solver's failure is injected at half of its own
            // failure-free progress.
            let reference = run(
                solver,
                &problem,
                n,
                &SolverConfig::reference(),
                cfgb.cost,
                FailureScript::none(),
            )
            .unwrap();
            assert!(reference.converged, "{sname} reference (N={n})");
            let fail_at = (reference.iterations as u64 / 2).max(1);
            let cr = esr_core::CrConfig::default()
                .with_interval(CR_INTERVAL)
                .with_copies(PSI);
            // Steady-state checkpoint cost: the failure-free C/R run pays
            // the periodic deposits but never rolls back, so its vtime
            // excess over the unprotected reference is pure protection
            // overhead (the quantity paper Sec. 2.2 argues against).
            let cr_clean_cfg = {
                let mut c = SolverConfig::resilient(PHI);
                c.resilience = c
                    .resilience
                    .map(|r| r.with_protection(esr_core::Protection::Checkpoint(cr.clone())));
                c
            };
            let cr_clean = run(
                solver,
                &problem,
                n,
                &cr_clean_cfg,
                cfgb.cost,
                FailureScript::none(),
            )
            .unwrap();
            assert!(cr_clean.converged, "{sname} clean C/R (N={n})");
            let ckpt_overhead_pct = 100.0 * (cr_clean.vtime / reference.vtime - 1.0);
            let mut rows = Vec::new();
            for (label, policy) in policies {
                for prot in ["esr", "checkpoint"] {
                    let mut cfg = SolverConfig::resilient_with_policy(PHI, policy);
                    if prot == "checkpoint" {
                        cfg.resilience = cfg.resilience.map(|r| {
                            r.with_protection(esr_core::Protection::Checkpoint(cr.clone()))
                        });
                    }
                    let script = FailureScript::simultaneous(fail_at, n / 2, PSI, n);
                    let r = run(solver, &problem, n, &cfg, cfgb.cost, script).unwrap();
                    assert!(
                        r.converged,
                        "{sname} × {label} × {prot} must converge (N={n})"
                    );
                    let post = r.iterations as u64 - fail_at;
                    // Deposits land at multiples of the interval, so the
                    // rollback re-executes `fail_at mod interval` iterations.
                    let rolled_back = if prot == "checkpoint" {
                        format!(
                            r#", "rolled_back_iterations": {}"#,
                            fail_at as usize % CR_INTERVAL
                        )
                    } else {
                        String::new()
                    };
                    // Schema v3: deterministic log-bucket quantiles of the
                    // message-size and per-phase wait-time distributions
                    // (cluster-merged), plus the per-substep virtual-time
                    // timeline of each completed recovery.
                    let ms = r.stats.msg_size_hist();
                    let waits = CommPhase::ALL
                        .iter()
                        .map(|&p| (p, r.stats.wait_hist(p)))
                        .filter(|(_, h)| h.count() > 0)
                        .map(|(p, h)| {
                            format!(
                                r#""{}": {{"count": {}, "p50": {}, "p99": {}}}"#,
                                p.name(),
                                h.count(),
                                json_f(h.p50()),
                                json_f(h.p99())
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    let substeps = r
                        .recovery_timelines
                        .iter()
                        .map(|tl| {
                            let segs = tl
                                .segments
                                .iter()
                                .map(|s| {
                                    format!(
                                        r#"{{"attempt": {}, "label": "{}", "vtime": {}}}"#,
                                        s.attempt,
                                        s.label,
                                        json_f(s.vtime)
                                    )
                                })
                                .collect::<Vec<_>>()
                                .join(", ");
                            format!(
                                r#"{{"iteration": {}, "flavor": "{}", "total_vtime": {}, "segments": [{segs}]}}"#,
                                tl.iteration,
                                tl.flavor,
                                json_f(tl.total_vtime())
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    rows.push(format!(
                        r#"        {{"policy": "{label}", "protection": "{prot}", "iterations": {}, "post_recovery_iterations": {post}, "vtime_recovery": {}, "vtime_total": {}, "retired_nodes": {}, "recovery_msgs": {}, "recovery_elems": {}{rolled_back}, "msg_size_elems": {{"count": {}, "p50": {}, "p99": {}}}, "wait_vtime_quantiles": {{{waits}}}, "recovery_substeps": [{substeps}]}}"#,
                        r.iterations,
                        json_f(r.vtime_recovery),
                        json_f(r.vtime),
                        r.retired_nodes(),
                        r.stats.msgs(CommPhase::Recovery),
                        r.stats.elems(CommPhase::Recovery),
                        ms.count(),
                        json_f(ms.p50()),
                        json_f(ms.p99()),
                    ));
                    println!(
                        "matrix N={n:3} {sname:8} {label:10} {prot:10}  iters {:3} (post-fail {post:3})  t_rec {:.3e}s  retired {}",
                        r.iterations,
                        r.vtime_recovery,
                        r.retired_nodes()
                    );
                }
            }
            solver_rows.push(format!(
                "      {{\"solver\": \"{sname}\", \"reference_iterations\": {}, \"fail_at_iteration\": {fail_at}, \"checkpoint\": {{\"interval\": {CR_INTERVAL}, \"copies\": {PSI}, \"clean_vtime_total\": {}, \"steady_state_overhead_pct\": {}}}, \"cells\": [\n{}\n      ]}}",
                reference.iterations,
                json_f(cr_clean.vtime),
                json_f(ckpt_overhead_pct),
                rows.join(",\n")
            ));
        }
        cases.push(format!(
            "    {{\"nodes\": {n}, \"psi\": {PSI}, \"phi\": {PHI}, \"solvers\": [\n{}\n    ]}}",
            solver_rows.join(",\n")
        ));
    }
    format!(
        "{{\n  \"schema\": \"esr-bench/policy-matrix/v3\",\n  \"matrix\": \"M1\",\n  \"scale\": {},\n  \"scenario\": \"psi=2 contiguous failures at N/2, injected at 50% of each solver's reference progress; protections: esr (exact reconstruction) and checkpoint (diskless neighbour C/R, interval 4, psi replicas); v3 adds log-bucket msg-size/wait quantiles and per-substep recovery timelines per cell\",\n  \"cost_model\": {{\"lambda\": {}, \"mu\": {}, \"gamma\": {}}},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json_f(cfgb.scale),
        json_f(cfgb.cost.lambda),
        json_f(cfgb.cost.mu),
        json_f(cfgb.cost.gamma),
        cases.join(",\n")
    )
}

/// Wall-clock budget for the N = 1024 cell of the scaling sweep. The
/// acceptance bar of the event-driven-runtime refactor: a 1024-node
/// resilient PCG solve with one injected failure, on a laptop-class host
/// (≈ 7 s on a 2-core one since the communication plan is per neighbour;
/// 10.4 s before).
const SCALE_WALL_BUDGET_S: f64 = 20.0;

fn scale_nodes() -> Vec<usize> {
    env_list("ESR_SCALE_REPORT_NODES", "a node count")
        .unwrap_or_else(|| vec![16, 64, 128, 256, 1024])
}

/// The scaling sweep (`BENCH_scale.json`): fixed work — the same M1
/// system at the configured scale — solved by resilient PCG (φ = 1) with
/// one failure injected at rank N/2, across cluster sizes up to the
/// paper-scale N = 128 and beyond to N = 1024. Virtual time measures the
/// simulated cluster (strong scaling under the BSP cost model); wall
/// time measures the simulator itself — the scheduler dispatches one
/// node at a time, so wall cost grows with total event count, not with
/// host-thread contention.
fn scale_report(cfgb: &BenchConfig, nodes: &[usize]) -> String {
    // A fixed early iteration keeps the failure inside every solve
    // (iteration counts grow with N as the block-Jacobi blocks shrink,
    // so any later choice could fall past convergence at small N).
    const FAIL_AT: u64 = 8;
    let problem = cfgb.problem(PaperMatrix::M1);
    let n_rows = problem.n();
    let mut cases = Vec::new();
    for &n in nodes {
        let script = FailureScript::simultaneous(FAIL_AT, n / 2, 1, n);
        let r = run_pcg(&problem, n, &SolverConfig::resilient(1), cfgb.cost, script).unwrap();
        assert!(r.converged, "scaling sweep solve must converge (N={n})");
        assert_eq!(r.recoveries, 1, "exactly one recovery expected (N={n})");
        let wall_s = r.wall.as_secs_f64();
        if n >= 1024 {
            assert!(
                wall_s < SCALE_WALL_BUDGET_S,
                "N={n}: wall-clock {wall_s:.1}s exceeds the {SCALE_WALL_BUDGET_S:.0}s budget \
                 — the event-driven scheduler has regressed"
            );
        }
        cases.push(format!(
            r#"    {{"nodes": {n}, "iterations": {}, "vtime_total": {}, "vtime_recovery": {}, "total_msgs": {}, "total_elems": {}, "wall_s": {}}}"#,
            r.iterations,
            json_f(r.vtime),
            json_f(r.vtime_recovery),
            r.stats.total_msgs(),
            r.stats.total_elems(),
            json_f(wall_s),
        ));
        println!(
            "scale N={n:4}  iters {:3}  vtime {:.4e}s  t_rec {:.3e}s  msgs {:8}  wall {:.2}s",
            r.iterations,
            r.vtime,
            r.vtime_recovery,
            r.stats.total_msgs(),
            wall_s
        );
    }
    format!(
        "{{\n  \"schema\": \"esr-bench/scale/v1\",\n  \"matrix\": \"M1\",\n  \"scale\": {},\n  \"rows\": {n_rows},\n  \"scenario\": \"fixed-work resilient PCG (phi=1), one failure at rank N/2 iteration 8; wall budget {SCALE_WALL_BUDGET_S}s at N=1024\",\n  \"cost_model\": {{\"lambda\": {}, \"mu\": {}, \"gamma\": {}}},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json_f(cfgb.scale),
        json_f(cfgb.cost.lambda),
        json_f(cfgb.cost.mu),
        json_f(cfgb.cost.gamma),
        cases.join(",\n")
    )
}

/// The trace artifact pair: a traced resilient N = 16 PCG solve with one
/// injected failure, exported as (a) a Perfetto-loadable Chrome-trace JSON
/// (`about://tracing` / ui.perfetto.dev both open it) and (b) a
/// `BENCH_trace.json` summary with the event census and the virtual-time
/// critical path attributed by phase, rank, and enclosing scope. Both are
/// derived from the same validated
/// [`parcomm::ClusterTrace`], so CI loading this artifact is also a
/// schema gate.
fn trace_report(cfgb: &BenchConfig) -> (String, String) {
    const N: usize = 16;
    let problem = cfgb.problem(PaperMatrix::M1);
    let reference = run_pcg(
        &problem,
        N,
        &SolverConfig::reference(),
        cfgb.cost,
        FailureScript::none(),
    )
    .unwrap();
    let fail_at = (reference.iterations as u64 / 2).max(1);
    let cfg = SolverConfig {
        trace: true,
        ..SolverConfig::resilient(1)
    };
    let r = run_pcg(
        &problem,
        N,
        &cfg,
        cfgb.cost,
        FailureScript::simultaneous(fail_at, N / 2, 1, N),
    )
    .unwrap();
    assert!(r.converged, "traced N={N} single-failure PCG must converge");
    assert_eq!(r.recoveries, 1, "exactly one recovery event expected");
    let trace = r.trace.expect("a traced solve returns its trace");
    trace.validate().expect("trace must be well-formed");
    let chrome = trace.chrome_trace_json();
    // Every exported event carries exactly one `ph` key
    // (tests/trace_wellformed.rs parses the export and checks the count).
    let chrome_events = chrome.matches("\"ph\":").count();
    let cp = trace.critical_path();
    let by_phase = cp
        .by_phase
        .iter()
        .map(|(p, t)| format!(r#""{}": {}"#, p.name(), json_f(*t)))
        .collect::<Vec<_>>()
        .join(", ");
    let by_rank = cp
        .by_rank
        .iter()
        .map(|(rk, t)| format!(r#"{{"rank": {rk}, "vtime": {}}}"#, json_f(*t)))
        .collect::<Vec<_>>()
        .join(", ");
    let top_scopes = cp
        .by_scope
        .iter()
        .take(8)
        .map(|(s, t)| format!(r#"{{"scope": "{s}", "vtime": {}}}"#, json_f(*t)))
        .collect::<Vec<_>>()
        .join(", ");
    let per_rank_events = trace
        .nodes
        .iter()
        .map(|nt| nt.events.len().to_string())
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "trace N={N}  events {}  chrome-events {chrome_events}  critical path {:.4e}s (vtime {:.4e}s)  steps {}",
        trace.total_events(),
        cp.total,
        r.vtime,
        cp.steps.len()
    );
    let summary = format!(
        "{{\n  \"schema\": \"esr-bench/trace/v1\",\n  \"matrix\": \"M1\",\n  \"scale\": {},\n  \"scenario\": \"resilient PCG (phi=1), N={N}, one failure at rank {} iteration {fail_at}\",\n  \"artifact\": \"ESR_pcg_n16_failure.trace.json\",\n  \"events_total\": {},\n  \"events_per_rank\": [{per_rank_events}],\n  \"chrome_events\": {chrome_events},\n  \"iterations\": {},\n  \"vtime_total\": {},\n  \"critical_path\": {{\"total\": {}, \"steps\": {}, \"by_phase\": {{{by_phase}}}, \"by_rank\": [{by_rank}], \"top_scopes\": [{top_scopes}]}}\n}}\n",
        json_f(cfgb.scale),
        N / 2,
        trace.total_events(),
        r.iterations,
        json_f(r.vtime),
        json_f(cp.total),
        cp.steps.len(),
    );
    (summary, chrome)
}

fn main() {
    let cfgb = BenchConfig::from_env();
    let nodes = report_nodes();
    println!("== collective/PCG perf report (N = {nodes:?}) ==");
    write_json("BENCH_comm.json", &comm_report(&cfgb, &nodes));
    let (pcg_json, pcg_results) = pcg_report(&cfgb, &nodes);
    write_json("BENCH_pcg.json", &pcg_json);
    write_json(
        "BENCH_pipecg.json",
        &pipecg_report(&cfgb, &nodes, &pcg_results),
    );
    write_json(
        "BENCH_policy_matrix.json",
        &policy_matrix_report(&cfgb, &nodes),
    );
    write_json("BENCH_scale.json", &scale_report(&cfgb, &scale_nodes()));
    let (summary, chrome) = trace_report(&cfgb);
    write_json("BENCH_trace.json", &summary);
    write_json("ESR_pcg_n16_failure.trace.json", &chrome);
}
