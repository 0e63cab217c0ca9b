//! The metric tables: names, units, directions and bounds. `BENCHMARK.json`
//! at the repo root repeats them for the driver; a unit test keeps the two
//! in step.

use crate::stats::Summary;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric reads. Host metrics are noisy and compared within
/// their bound; virtual metrics are exact and compared bitwise between two
/// runs of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Virtual,
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
    /// Absolute worsening, in the metric's unit, under which `compare`
    /// never reports a regression (0 for none).
    pub floor: f64,
    pub clock: Clock,
}

/// The end-to-end metrics, reported for every workload by an untraced run.
///
/// The host-time bounds are as wide as the reference host is noisy: runs of
/// one commit drift by 10–20 % over minutes there (README.md, "Noise"). The
/// virtual-time bounds are what the driver's contract needs — a share above
/// zero that covers the spread across seeds, since the seed moves the
/// right-hand side and the failure; `compare` holds two runs of one seed to
/// bitwise equality instead.
pub const END_TO_END: [EndToEnd; 6] = [
    // Host seconds for one repetition of the workload's cell set (every
    // run_* call, set-up excluded), pinned to one CPU.
    e2e("wall_s", "s", Better::Lower, 0.25, 0.0, Clock::Host),
    // Matrix generation + right-hand side + Problem construction. The
    // smallest workload builds in a quarter of a millisecond, hence the floor.
    e2e("setup_s", "s", Better::Lower, 0.25, 0.02, Clock::Host),
    // Σ over the cell set's solves of N × iterations, per wall_s: simulator
    // throughput at the workload's size.
    e2e(
        "sim_node_iters_per_s",
        "1/s",
        Better::Higher,
        0.25,
        0.0,
        Clock::Host,
    ),
    // VmHWM of the workload's child process at exit.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, 0.0, Clock::Host),
    // Virtual seconds: BSP makespan of the unprotected failure-free
    // reference solve(s), the paper's t₀.
    e2e("vtime_t0_s", "s", Better::Lower, 0.15, 0.0, Clock::Virtual),
    // Mean over the failure solves of 100·(vtime / t₀ − 1): the paper's
    // Table 2 headline.
    e2e(
        "vtime_failure_overhead_pct",
        "%",
        Better::Lower,
        0.25,
        0.0,
        Clock::Virtual,
    ),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    clock: Clock,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
        clock,
    }
}

/// The per-layer metrics, reported for every workload by a traced run.
/// (name, unit, better).
pub const PER_LAYER: [(&str, &str, Better); 45] = [
    ("sparsemat.gen_s", "s", Better::Lower),
    ("sparsemat.rows", "count", Better::Lower),
    ("sparsemat.nnz", "count", Better::Lower),
    ("sparsemat.spmv_s", "s", Better::Lower),
    ("sparsemat.spmv_gflops", "Gflop/s", Better::Higher),
    ("sparsemat.spmv_bytes_computed", "B", Better::Lower),
    ("sparsemat.vecops_s", "s", Better::Lower),
    ("sparsemat.analysis_s", "s", Better::Lower),
    ("precond.factor_s", "s", Better::Lower),
    ("precond.solve_s", "s", Better::Lower),
    ("precond.solve_gflops", "Gflop/s", Better::Higher),
    ("precond.l_nnz", "count", Better::Lower),
    ("precond.fill_ratio", "ratio", Better::Lower),
    ("parcomm.spawn_s", "s", Better::Lower),
    ("parcomm.replay_s", "s", Better::Lower),
    ("parcomm.us_per_msg", "us", Better::Lower),
    ("parcomm.allreduce_us", "us", Better::Lower),
    ("parcomm.iallreduce_us", "us", Better::Lower),
    ("parcomm.msgs", "count", Better::Lower),
    ("parcomm.elems", "count", Better::Lower),
    ("parcomm.allreduces", "count", Better::Lower),
    ("core.solve_wall_s.reference", "s", Better::Lower),
    ("core.solve_wall_s.undisturbed", "s", Better::Lower),
    ("core.solve_wall_s.failure", "s", Better::Lower),
    ("core.driver_post_s", "s", Better::Lower),
    ("core.localmat_build_s", "s", Better::Lower),
    ("core.plan_build_s", "s", Better::Lower),
    ("core.exchange_s", "s", Better::Lower),
    ("core.recovery_wall_s", "s", Better::Lower),
    ("core.recovery_wall_spread_s", "s", Better::Lower),
    ("core.iterations", "count", Better::Lower),
    ("core.redundancy_elems", "count", Better::Lower),
    ("core.extra_latency_msgs", "count", Better::Lower),
    ("core.vtime_undisturbed_overhead_pct", "%", Better::Lower),
    ("core.vtime_recovery_pct", "%", Better::Lower),
    ("core.substep.gather_vtime_s", "s", Better::Lower),
    ("core.substep.rebuild_vtime_s", "s", Better::Lower),
    ("core.substep.xsolve_vtime_s", "s", Better::Lower),
    ("core.substep.commit_vtime_s", "s", Better::Lower),
    ("krylov.seq_pcg_s", "s", Better::Lower),
    ("krylov.seq_iterations", "count", Better::Lower),
    ("bench.sim_over_seq_ratio", "ratio", Better::Lower),
    ("bench.unattributed_s", "s", Better::Lower),
    ("bench.unattributed_share", "ratio", Better::Lower),
    ("bench.trace_overhead_pct", "%", Better::Lower),
];

/// One reported metric: its summary and, for the result file, its samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub summary: Summary,
    pub samples: Vec<f64>,
}

/// Unit of the metric `name`, from the tables above.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
        .1
}

/// Per-layer metrics that repeat exactly between two runs of one seed:
/// counts, and the virtual times of the engine.
pub fn is_exact(name: &str, unit: &str) -> bool {
    unit == "count" || name.starts_with("core.vtime_") || name.starts_with("core.substep.")
}
