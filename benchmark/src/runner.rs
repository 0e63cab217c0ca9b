//! One run of one workload: set-up, repetitions of the cell set with every
//! solve checked, and — in a traced run — the outside-in layer replay.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{self, Failure, Mode, Protection, SolveOutput, Solver, System};
use crate::json::Json;
use crate::metrics::{unit_of, Metric, END_TO_END, PER_LAYER};
use crate::stats::{mean, summarize};
use crate::trace::Tracer;
use crate::workloads::{failure_iteration, placement, Cell, CellKind, Placement, Workload};

/// Relative true residual ‖b − Ax‖/‖b‖ a checked solve may leave.
const MAX_TRUE_RESIDUAL: f64 = 1e-6;
/// Relative distance ‖x − x_ref‖/‖x_ref‖ from the same solver's reference.
const MAX_SOLUTION_DIFF: f64 = 1e-6;

pub struct Outcome {
    pub attempted: usize,
    /// Labels of the solves that failed a check, with the reason.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub repetitions: usize,
    /// Chrome-trace document of a traced run.
    pub trace: Option<Json>,
}

/// One solve of one repetition, solution dropped after checking.
struct CellRun {
    span_s: f64,
    out: SolveOutput,
}

/// One repetition of the cell set; `None` where a cell was skipped.
struct Rep {
    cells: Vec<Option<CellRun>>,
}

impl Rep {
    /// Host seconds of the end-to-end cell set.
    fn wall_s(&self, w: &Workload) -> f64 {
        self.of(w, |c| !c.traced_only).map(|(_, r)| r.span_s).sum()
    }

    fn of<'a>(
        &'a self,
        w: &'a Workload,
        keep: impl Fn(&Cell) -> bool + 'a,
    ) -> impl Iterator<Item = (&'a Cell, &'a CellRun)> + 'a {
        w.cells
            .iter()
            .zip(&self.cells)
            .filter(move |(c, _)| keep(c))
            .filter_map(|(c, r)| r.as_ref().map(|r| (c, r)))
    }

    fn reference<'a>(&'a self, w: &'a Workload, solver: Solver) -> &'a CellRun {
        self.of(w, move |c| {
            c.solver == solver && c.kind == CellKind::Reference
        })
        .next()
        .expect("every solver of a cell set has a reference cell")
        .1
    }

    fn node_iterations(&self, w: &Workload) -> f64 {
        let its: usize = self
            .of(w, |c| !c.traced_only)
            .map(|(_, r)| r.out.iterations)
            .sum();
        (w.nodes * its) as f64
    }
}

/// NaN exceeds every limit: a solve that produced one must fail its check.
fn exceeds(x: f64, limit: f64) -> bool {
    x.is_nan() || x > limit
}

fn is_failure(c: &Cell) -> bool {
    matches!(c.kind, CellKind::Failure { .. })
}

struct Session<'a> {
    w: &'a Workload,
    sys: &'a System,
    place: Placement,
    tracer: Tracer,
    next_solve_id: u64,
    attempted: usize,
    failures: Vec<String>,
}

impl<'a> Session<'a> {
    fn new(w: &'a Workload, sys: &'a System, tracer: Tracer) -> Self {
        Session {
            w,
            sys,
            place: placement(w.nodes),
            tracer,
            next_solve_id: 0,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn check(&mut self, cell: &Cell, out: &SolveOutput, reference_x: Option<&[f64]>) {
        let mut why = Vec::new();
        if !out.converged {
            why.push(format!(
                "did not converge at rel_tol {:e}",
                adapter::REL_TOL
            ));
        }
        if exceeds(out.rel_true_residual, MAX_TRUE_RESIDUAL) {
            why.push(format!("true residual {:e}", out.rel_true_residual));
        }
        let (events, ranks) = if is_failure(cell) {
            (1, self.w.phi)
        } else {
            (0, 0)
        };
        if (out.recoveries, out.ranks_recovered) != (events, ranks) {
            why.push(format!(
                "recovered {} ranks in {} events, script has {ranks} in {events}",
                out.ranks_recovered, out.recoveries
            ));
        }
        if let Some(x_ref) = reference_x {
            let diff = adapter::rel_diff(&out.x, x_ref);
            if exceeds(diff, MAX_SOLUTION_DIFF) {
                why.push(format!("solution differs from the reference by {diff:e}"));
            }
        }
        if !why.is_empty() {
            self.failures
                .push(format!("{}: {}", cell.label, why.join("; ")));
        }
    }

    /// Run the cell set once, checking every solve.
    fn repetition(&mut self, traced: bool) -> Rep {
        let w = self.w;
        let rep_span = self.tracer.open("bench.repetition", 0);
        // Per solver: the reference solve's solution and iteration count.
        let mut reference_x: BTreeMap<Solver, (Vec<f64>, usize)> = BTreeMap::new();
        let mut cells = Vec::new();
        for cell in &w.cells {
            if cell.traced_only && !traced {
                cells.push(None);
                continue;
            }
            let key = &cell.solver;
            let mode = match cell.kind {
                CellKind::Reference => Mode::Reference,
                CellKind::Undisturbed => Mode::Undisturbed { phi: w.phi },
                CellKind::Failure { policy, protection } => Mode::Failing {
                    phi: w.phi,
                    policy,
                    protection,
                    failure: Failure {
                        iteration: failure_iteration(
                            self.place.progress,
                            reference_x[key].1,
                            protection,
                        ),
                        first_rank: self.place.first_rank,
                        count: w.phi,
                    },
                },
            };
            self.next_solve_id += 1;
            let name = format!("core.run_{}", cell.label);
            let (mut out, span_s) = self.tracer.time(&name, self.next_solve_id, || {
                adapter::solve(self.sys, w.nodes, cell.solver, mode)
            });
            self.attempted += 1;
            let x_ref = reference_x.get(key).map(|(x, _)| x.as_slice());
            self.check(cell, &out, x_ref);
            let x = std::mem::take(&mut out.x);
            if cell.kind == CellKind::Reference {
                reference_x.insert(cell.solver, (x, out.iterations));
            }
            cells.push(Some(CellRun { span_s, out }));
        }
        self.tracer.close(rep_span);
        Rep { cells }
    }

    /// One untimed, unchecked solve of the first cell before the timed
    /// repetitions: the first solve of a process pays for page faults and
    /// thread stacks that no later one does (it read 10–30 % slow).
    fn warm_up(&self) {
        let first = &self.w.cells[0];
        debug_assert_eq!(first.kind, CellKind::Reference);
        adapter::solve(self.sys, self.w.nodes, first.solver, Mode::Reference);
    }

    /// The simulator is deterministic: a virtual time or iteration count
    /// that differs between repetitions of one seed is a bug, not noise.
    fn check_determinism(&mut self, reps: &[Rep]) {
        for (i, cell) in self.w.cells.iter().enumerate() {
            let mut runs = reps.iter().filter_map(|r| r.cells[i].as_ref());
            let Some(first) = runs.next() else { continue };
            let same = |r: &CellRun| {
                r.out.vtime.to_bits() == first.out.vtime.to_bits()
                    && r.out.iterations == first.out.iterations
                    && r.out.msgs == first.out.msgs
            };
            if !runs.all(same) {
                self.failures.push(format!(
                    "{}: virtual time, iterations or messages differ between repetitions",
                    cell.label
                ));
            }
        }
    }
}

/// Σ t₀ over the reference solves and the mean failure overhead in percent.
fn virtual_times(w: &Workload, rep: &Rep) -> (f64, f64) {
    let t0: f64 = rep
        .of(w, |c| c.kind == CellKind::Reference)
        .map(|(_, r)| r.out.vtime)
        .sum();
    let overheads: Vec<f64> = rep
        .of(w, is_failure)
        .map(|(c, r)| 100.0 * (r.out.vtime / rep.reference(w, c.solver).out.vtime - 1.0))
        .collect();
    (t0, mean(&overheads))
}

fn metric(name: &str, samples: Vec<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit_of(name).to_string(),
        summary: summarize(&samples),
        samples,
    }
}

/// Build the system over and over for a third of a second, five times at
/// least, and keep every build's time. The smallest workload builds in a
/// quarter of a millisecond: a handful of builds right after `exec` would
/// time the CPU waking up, not the generator.
fn setup_samples(w: &Workload, seed: u64) -> (System, Vec<f64>) {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        let sys = System::build(w.matrix, w.scale, seed);
        samples.push(t.elapsed().as_secs_f64());
        let enough = start.elapsed().as_secs_f64() >= 0.33 || samples.len() >= 5000;
        if samples.len() >= 5 && enough {
            return (sys, samples);
        }
    }
}

/// Repeat the cell set until `budget_s` is used (the last repetition may
/// overrun by at most half of itself), `min_reps` times at least.
fn repeat_untraced(s: &mut Session, min_reps: usize, budget_s: f64) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(s.repetition(false));
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / reps.len() as f64;
        if reps.len() >= min_reps && elapsed + 0.5 * mean >= budget_s {
            return reps;
        }
    }
}

/// An untraced run: the end-to-end metrics.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let (sys, setup) = setup_samples(w, seed);
    let mut s = Session::new(w, &sys, Tracer::new());
    s.warm_up();
    let reps = repeat_untraced(&mut s, 3, seconds);
    s.check_determinism(&reps);

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s(w)).collect();
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.node_iterations(w) / r.wall_s(w))
        .collect();
    let (t0, overhead) = virtual_times(w, &reps[0]);
    let rss = crate::pin::peak_rss_mb().expect("VmHWM in /proc/self/status (Linux)");
    let metrics = vec![
        metric("wall_s", walls),
        metric("setup_s", setup),
        metric("sim_node_iters_per_s", rates),
        metric("peak_rss_mb", vec![rss]),
        metric("vtime_t0_s", vec![t0]),
        metric("vtime_failure_overhead_pct", vec![overhead]),
    ];
    debug_assert!(metrics
        .iter()
        .map(|m| &m.name)
        .eq(END_TO_END.iter().map(|m| m.name)));
    Outcome {
        attempted: s.attempted,
        failures: s.failures,
        metrics,
        repetitions: reps.len(),
        trace: None,
    }
}

/// A traced run: untraced repetitions for the baseline, one traced
/// repetition, then the replay of each layer's public functions at the
/// counts the PCG reference solve reported.
pub fn run_per_layer(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut tracer = Tracer::new();
    tracer.set_recording(true);
    let (sys, gen_s) = tracer.time("sparsemat.generate", 0, || {
        System::build(w.matrix, w.scale, seed)
    });
    tracer.set_recording(false);
    let mut s = Session::new(w, &sys, tracer);
    s.warm_up();
    let mut reps = repeat_untraced(&mut s, 1, seconds / 3.0);
    let untraced_wall = summarize(&reps.iter().map(|r| r.wall_s(w)).collect::<Vec<_>>()).median;
    s.tracer.set_recording(true);
    reps.push(s.repetition(true));
    s.check_determinism(&reps);
    let traced = reps.last().expect("the traced repetition");

    // ---- replay, at the PCG reference solve's counts ---------------------
    let reference = traced.reference(w, Solver::Pcg);
    let its = reference.out.iterations;
    let n = w.nodes;
    let t = &mut s.tracer;
    let replay = t.open("bench.replay", 0);
    let (_, analysis_s) = t.time("sparsemat.ghost_needs", 0, || adapter::analysis(&sys, n));
    let (blocks, localmat_s) = t.time("core.LocalMatrix_build", 0, || {
        adapter::local_blocks(&sys, n)
    });
    let (spmv, spmv_s) = t.time("sparsemat.spmv_fused", 0, || {
        adapter::spmv_replay(&blocks, its)
    });
    let (_, vecops_s) = t.time("sparsemat.vecops", 0, || {
        adapter::vecops_replay(&blocks, its)
    });
    let (factors, factor_s) = t.time("precond.SparseLdl_new", 0, || adapter::factor(&blocks));
    let (solve_flops, psolve_s) = t.time("precond.solve_in_place", 0, || {
        adapter::precond_solve_replay(&factors, &blocks, its + 1)
    });
    let (_, spawn_s) = t.time("parcomm.spawn", 0, || adapter::spawn(n));
    let pattern = adapter::comm_pattern(&sys, n);
    let (replay_msgs, comm_s) = t.time("parcomm.replay", 0, || adapter::comm_replay(&pattern, its));
    // Enough calls to rise above the spawn time, few enough to stay short.
    let rounds = n.next_power_of_two().trailing_zeros().max(1) as usize;
    let calls = (100_000 / (n * rounds)).clamp(8, 400);
    let (_, allreduce_s) = t.time("parcomm.allreduce_vec", 0, || {
        adapter::allreduce_loop(n, calls, false)
    });
    let (_, iallreduce_s) = t.time("parcomm.iallreduce_vec", 0, || {
        adapter::allreduce_loop(n, calls, true)
    });
    let (_, plan_s) = t.time("core.ScatterPlan_build", 0, || {
        adapter::plan_and_exchange(&blocks, w.phi, 0)
    });
    let (_, plan_exchange_s) = t.time("core.ScatterPlan_exchange", 0, || {
        adapter::plan_and_exchange(&blocks, w.phi, its)
    });
    let ((seq_its, seq_ok), seq_s) = t.time("krylov.pcg", 0, || adapter::seq_pcg(&sys, n));
    t.close(replay);
    if !seq_ok || seq_its.abs_diff(its) > 2 {
        s.failures.push(format!(
            "krylov.pcg: sequential baseline took {seq_its} iterations \
             (converged: {seq_ok}), the distributed reference {its}"
        ));
    }

    // ---- per-layer metrics ----------------------------------------------
    let mean_span = |keep: &dyn Fn(&Cell) -> bool| {
        mean(
            &traced
                .of(w, keep)
                .map(|(_, r)| r.span_s)
                .collect::<Vec<_>>(),
        )
    };
    let undisturbed = traced
        .of(w, |c| {
            c.solver == Solver::Pcg && c.kind == CellKind::Undisturbed
        })
        .next()
        .expect("every cell set has an undisturbed PCG solve")
        .1;
    // Failure-solve wall minus its failure-free counterpart, per repetition.
    let recovery_wall: Vec<f64> = reps
        .iter()
        .map(|rep| {
            let extra: Vec<f64> = rep
                .of(w, is_failure)
                .map(|(c, r)| {
                    let counterpart = rep
                        .of(w, |u| {
                            u.solver == c.solver
                                && u.kind == CellKind::Undisturbed
                                && !u.traced_only
                        })
                        .next()
                        .map_or(rep.reference(w, c.solver), |(_, u)| u);
                    r.span_s - counterpart.span_s
                })
                .collect();
            mean(&extra)
        })
        .collect();
    let recovery_spread = recovery_wall.iter().cloned().fold(f64::MIN, f64::max)
        - recovery_wall.iter().cloned().fold(f64::MAX, f64::min);
    let substep = |label: &str| -> f64 {
        traced
            .of(w, |c| {
                matches!(
                    c.kind,
                    CellKind::Failure {
                        protection: Protection::Esr,
                        ..
                    }
                )
            })
            .flat_map(|(_, r)| r.out.substeps.iter())
            .filter(|(l, _)| *l == label)
            .map(|(_, v)| v)
            .sum()
    };
    let recovery_pct: Vec<f64> = traced
        .of(w, is_failure)
        .map(|(c, r)| 100.0 * r.out.vtime_recovery / traced.reference(w, c.solver).out.vtime)
        .collect();
    let attributed =
        localmat_s + (plan_s - spawn_s) + factor_s + spmv_s + vecops_s + psolve_s + comm_s;
    let unattributed = reference.span_s - attributed;

    let values: Vec<(&str, f64)> = vec![
        ("sparsemat.gen_s", gen_s),
        ("sparsemat.rows", sys.rows() as f64),
        ("sparsemat.nnz", sys.nnz() as f64),
        ("sparsemat.spmv_s", spmv_s),
        ("sparsemat.spmv_gflops", spmv.flops / spmv_s / 1e9),
        ("sparsemat.spmv_bytes_computed", spmv.bytes_computed),
        ("sparsemat.vecops_s", vecops_s),
        ("sparsemat.analysis_s", analysis_s),
        ("precond.factor_s", factor_s),
        ("precond.solve_s", psolve_s),
        ("precond.solve_gflops", solve_flops / psolve_s / 1e9),
        ("precond.l_nnz", factors.l_nnz as f64),
        ("precond.fill_ratio", factors.fill_ratio),
        ("parcomm.spawn_s", spawn_s),
        ("parcomm.replay_s", comm_s),
        ("parcomm.us_per_msg", 1e6 * comm_s / replay_msgs as f64),
        (
            "parcomm.allreduce_us",
            1e6 * (allreduce_s - spawn_s) / calls as f64,
        ),
        (
            "parcomm.iallreduce_us",
            1e6 * (iallreduce_s - spawn_s) / calls as f64,
        ),
        ("parcomm.msgs", reference.out.msgs as f64),
        ("parcomm.elems", reference.out.elems as f64),
        ("parcomm.allreduces", reference.out.allreduces as f64),
        (
            "core.solve_wall_s.reference",
            mean_span(&|c| c.kind == CellKind::Reference),
        ),
        (
            "core.solve_wall_s.undisturbed",
            mean_span(&|c| c.kind == CellKind::Undisturbed),
        ),
        ("core.solve_wall_s.failure", mean_span(&is_failure)),
        (
            "core.driver_post_s",
            traced
                .of(w, |_| true)
                .map(|(_, r)| r.span_s - r.out.cluster_wall_s)
                .sum(),
        ),
        ("core.localmat_build_s", localmat_s),
        ("core.plan_build_s", plan_s - spawn_s),
        ("core.exchange_s", plan_exchange_s - plan_s),
        ("core.recovery_wall_s", summarize(&recovery_wall).median),
        ("core.recovery_wall_spread_s", recovery_spread),
        (
            "core.iterations",
            traced
                .of(w, |c| c.kind == CellKind::Reference)
                .map(|(_, r)| r.out.iterations as f64)
                .sum(),
        ),
        (
            "core.redundancy_elems",
            undisturbed.out.redundancy_elems as f64,
        ),
        (
            "core.extra_latency_msgs",
            undisturbed.out.extra_latency_msgs as f64,
        ),
        (
            "core.vtime_undisturbed_overhead_pct",
            100.0 * (undisturbed.out.vtime / reference.out.vtime - 1.0),
        ),
        ("core.vtime_recovery_pct", mean(&recovery_pct)),
        ("core.substep.gather_vtime_s", substep("gather")),
        ("core.substep.rebuild_vtime_s", substep("rebuild")),
        ("core.substep.xsolve_vtime_s", substep("xsolve")),
        ("core.substep.commit_vtime_s", substep("commit")),
        ("krylov.seq_pcg_s", seq_s),
        ("krylov.seq_iterations", seq_its as f64),
        ("bench.sim_over_seq_ratio", reference.span_s / seq_s),
        ("bench.unattributed_s", unattributed),
        ("bench.unattributed_share", unattributed / reference.span_s),
        (
            "bench.trace_overhead_pct",
            100.0 * (traced.wall_s(w) / untraced_wall - 1.0),
        ),
    ];
    debug_assert!(values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|m| m.0)));
    let metrics = values
        .into_iter()
        .map(|(name, v)| metric(name, vec![v]))
        .collect();
    Outcome {
        attempted: s.attempted,
        failures: s.failures,
        metrics,
        repetitions: reps.len(),
        trace: Some(s.tracer.chrome_trace()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{all, DEFAULT_SEED};

    fn assert_reports(outcome: &Outcome, names: Vec<&str>, what: &str) {
        assert!(
            outcome.failures.is_empty(),
            "{what}: {:?}",
            outcome.failures
        );
        assert!(outcome.attempted >= 1, "{what}");
        for name in &names {
            let hits: Vec<&Metric> = outcome.metrics.iter().filter(|m| m.name == *name).collect();
            assert_eq!(hits.len(), 1, "{what}: {name} appears {} times", hits.len());
            assert!(!hits[0].unit.is_empty(), "{what}: {name} has no unit");
            assert!(
                hits[0].summary.median.is_finite(),
                "{what}: {name} is not finite"
            );
        }
        assert_eq!(
            outcome.metrics.len(),
            names.len(),
            "{what}: no metric outside the tables"
        );
    }

    /// Every workload's cell set, on a problem of a thousand-odd rows and 8
    /// nodes, on the default and on another seed's right-hand side.
    #[test]
    fn smoke_every_workload_reports_every_metric_once() {
        for w in all() {
            let w = w.tiny();
            for seed in [DEFAULT_SEED, 12345] {
                let what = format!("{} seed {seed}", w.name);
                let e2e = run_end_to_end(&w, seed, 0.01);
                assert_reports(&e2e, END_TO_END.iter().map(|m| m.name).collect(), &what);
                assert!(e2e.repetitions >= 3, "{what}");
                for m in &e2e.metrics {
                    assert!(m.summary.median > 0.0, "{what}: {} must never be 0", m.name);
                }
                let solves = w.cells.iter().filter(|c| !c.traced_only).count();
                assert_eq!(e2e.attempted, solves * e2e.repetitions, "{what}");
            }
            let layers = run_per_layer(&w, DEFAULT_SEED, 0.01);
            assert_reports(&layers, PER_LAYER.iter().map(|m| m.0).collect(), w.name);
            // The trace holds one span per solve of the traced repetition
            // and one per replayed layer, under their parents.
            let doc = layers.trace.expect("a traced run keeps its spans");
            let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
            let named = |n: &str| {
                events
                    .iter()
                    .filter(|e| e.get("name").unwrap().as_str() == Some(n))
                    .count()
            };
            for c in &w.cells {
                assert_eq!(named(&format!("core.run_{}", c.label)), 1, "{}", c.label);
            }
            assert_eq!(named("bench.replay"), 1);
            assert_eq!(named("parcomm.replay"), 1);
        }
    }

    #[test]
    fn a_wrong_solve_is_counted_and_named() {
        let w = &all()[2].tiny();
        let sys = System::build(w.matrix, w.scale, 1);
        let mut s = Session::new(w, &sys, Tracer::new());
        let good = adapter::solve(&sys, w.nodes, Solver::Pcg, Mode::Reference);
        s.check(&w.cells[0], &good, None);
        assert!(s.failures.is_empty());

        let mut off = good.clone();
        off.x[0] += 1.0;
        off.converged = false;
        off.rel_true_residual = f64::NAN;
        off.recoveries = 1;
        s.check(&w.cells[0], &off, Some(&good.x));
        assert_eq!(s.failures.len(), 1);
        let f = &s.failures[0];
        assert!(f.starts_with("pcg.reference: "), "{f}");
        for reason in [
            "did not converge",
            "true residual",
            "recovered",
            "differs from the reference",
        ] {
            assert!(f.contains(reason), "{f}");
        }

        // A virtual time that moves between repetitions is a failed solve.
        let rep = |vtime: f64| {
            let run = CellRun {
                span_s: 1.0,
                out: SolveOutput {
                    vtime,
                    ..good.clone()
                },
            };
            let mut cells: Vec<Option<CellRun>> = w.cells.iter().map(|_| None).collect();
            cells[0] = Some(run);
            Rep { cells }
        };
        s.failures.clear();
        s.check_determinism(&[rep(1.0), rep(1.0)]);
        assert!(s.failures.is_empty());
        s.check_determinism(&[rep(1.0), rep(1.0 + f64::EPSILON)]);
        assert_eq!(s.failures.len(), 1, "{:?}", s.failures);
    }
}
