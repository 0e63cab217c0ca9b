//! Experiment orchestration: run a distributed solve on the simulated
//! cluster and aggregate the metrics the paper reports (Secs. 6–7).

use std::sync::Arc;
use std::time::{Duration, Instant};

use parcomm::{Cluster, ClusterConfig, CommStats, CostModel, FailureScript, HostWork, NodeCtx};
use sparsemat::vecops::norm2;
use sparsemat::Csr;

use crate::config::{ConfigError, RecoveryPolicy, SolverConfig, SolverKind};
use crate::engine::RecoveryTimeline;
use crate::node::{node_program, NodeOutcome};
use crate::statics::{StaticCounts, StaticData};

/// A linear system `A x = b` with `A` SPD. Clones share the matrix, the
/// right-hand side and the static data solves derive from the matrix
/// (`crate::statics`): block rows and their exact factors are computed
/// by the first solve that needs them and reused by every later one.
#[derive(Clone)]
pub struct Problem {
    /// The SPD system matrix (static data on reliable storage).
    pub a: Arc<Csr>,
    /// The right-hand side.
    pub b: Arc<Vec<f64>>,
    /// What solves have derived from `a` so far.
    statics: Arc<StaticData>,
}

impl Problem {
    /// Wrap a matrix and right-hand side.
    pub fn new(a: Csr, b: Vec<f64>) -> Self {
        assert_eq!(a.n_rows(), b.len());
        let a = Arc::new(a);
        Problem {
            statics: Arc::new(StaticData::new(a.clone())),
            a,
            b: Arc::new(b),
        }
    }

    /// Problem with known solution `x = 1` (`b = A·1`).
    pub fn with_ones_solution(a: Csr) -> Self {
        let b = sparsemat::gen::rhs_for_ones(&a);
        Problem::new(a, b)
    }

    /// Problem with a deterministic random right-hand side.
    pub fn with_random_rhs(a: Csr, seed: u64) -> Self {
        let b = sparsemat::gen::random_rhs(a.n_rows(), seed);
        Problem::new(a, b)
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.a.n_rows()
    }

    /// The static data of `a`. `a` is a public field: if it was replaced
    /// since this `Problem` was built, what was derived from the old matrix
    /// must not be served, and the result is a new, unshared store.
    pub fn statics(&self) -> Arc<StaticData> {
        if Arc::ptr_eq(&self.a, self.statics.matrix()) {
            self.statics.clone()
        } else {
            Arc::new(StaticData::new(self.a.clone()))
        }
    }

    /// How many blocks and factors the solves of this `Problem` (and of
    /// its clones) have derived so far.
    pub fn static_counts(&self) -> StaticCounts {
        self.statics.counts()
    }
}

/// Aggregated result of one distributed solve.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Assembled global solution.
    pub x: Vec<f64>,
    /// Completed outer iterations.
    pub iterations: usize,
    /// Whether the residual target was reached.
    pub converged: bool,
    /// Final solver (recursive) residual norm ‖r‖₂.
    pub solver_residual: f64,
    /// Recomputed true residual ‖b − A x‖₂.
    pub true_residual: f64,
    /// The paper's Eqn. (7): `∆ = (‖r‖ − ‖b−Ax‖) / ‖b−Ax‖`.
    pub residual_deviation: f64,
    /// Virtual solve time: max over nodes (the BSP makespan).
    pub vtime: f64,
    /// Virtual time spent in reconstruction: max over nodes.
    pub vtime_recovery: f64,
    /// Virtual setup time (plans + factorizations): max over nodes.
    pub vtime_setup: f64,
    /// Host wall-clock time of the whole cluster run (oversubscribed
    /// host — use `vtime` for paper-shaped comparisons).
    pub wall: Duration,
    /// The host work behind `wall`, counted exactly: node suspensions and
    /// host threads spawned (none: every node is polled on the calling
    /// thread).
    pub host: HostWork,
    /// Cluster-wide communication totals.
    pub stats: CommStats,
    /// Failure events recovered from (max over nodes — identical on all).
    pub recoveries: usize,
    /// Total ranks reconstructed.
    pub ranks_recovered: usize,
    /// Per-node outcomes for detailed analysis.
    pub per_node: Vec<NodeOutcome>,
    /// Per-substep virtual-time timeline of every completed recovery, in
    /// event order (from the canonical surviving node; empty when the run
    /// was failure-free).
    pub recovery_timelines: Vec<RecoveryTimeline>,
    /// Inner-solver iterations of the x reconstructions: per recovery
    /// event the most any node ran, summed over the events (0 for C/R).
    pub inner_iterations: usize,
    /// Per-rank span trace of the whole run (virtual-clock-stamped) when
    /// [`SolverConfig::trace`] was set. Export with
    /// [`parcomm::ClusterTrace::chrome_trace_json`] or analyze with
    /// [`parcomm::ClusterTrace::critical_path`].
    pub trace: Option<parcomm::ClusterTrace>,
}

/// Critical-path communication-time breakdown for one [`parcomm::CommPhase`]:
/// the max-over-nodes totals of the three ways an operation's virtual time
/// can be spent. `exposed` is the time charged on the critical path
/// (blocking transfers + stalls + non-blocking wait charges); `wait` is the
/// stalled subset of it (receiver idle at a matched recv or wait); `hidden`
/// is flight time fully overlapped by compute (never on the critical path).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseBreakdown {
    /// The communication phase this breakdown describes.
    pub(crate) phase: parcomm::CommPhase,
    /// Exposed (critical-path) communication vtime, max over nodes.
    pub(crate) exposed: f64,
    /// Stalled (wait-only) vtime, max over nodes. A subset of `exposed`.
    pub(crate) wait: f64,
    /// Overlapped (hidden) flight vtime, max over nodes.
    pub(crate) hidden: f64,
}

impl ExperimentResult {
    /// The canonical node outcome for solve-level scalars: the first node
    /// that finished the solve (never a retired one — a node that left the
    /// cluster mid-solve carries stale iteration/convergence state).
    fn canonical(per_node: &[NodeOutcome]) -> &NodeOutcome {
        per_node
            .iter()
            .find(|o| !o.retired)
            .expect("at least one node survives the solve")
    }

    /// Divide a per-solve total by the iteration count, returning 0.0 for
    /// the converged-at-`x0` case (`iterations == 0`) instead of NaN —
    /// 0/0 would otherwise poison bench JSON with `NaN`.
    fn per_iter(&self, total: f64) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            total / self.iterations as f64
        }
    }

    /// Relative residual reduction achieved (0.0 when the initial guess
    /// already solved the system).
    pub fn relative_residual(&self) -> f64 {
        let r0 = Self::canonical(&self.per_node).initial_residual_norm;
        if r0 == 0.0 {
            0.0
        } else {
            self.solver_residual / r0
        }
    }

    /// Full exposed/wait/hidden breakdown of `phase`, max over nodes.
    /// The one place benches and tests get per-phase communication time
    /// from — re-deriving these folds from raw [`CommStats`] at call sites
    /// is a bug factory (easy to forget the max-over-nodes step).
    pub(crate) fn phase_breakdown(&self, phase: parcomm::CommPhase) -> PhaseBreakdown {
        let fold = |get: fn(&CommStats, parcomm::CommPhase) -> f64| {
            self.per_node
                .iter()
                .map(|o| get(&o.stats, phase))
                .fold(0.0, f64::max)
        };
        PhaseBreakdown {
            phase,
            exposed: fold(CommStats::exposed_vtime),
            wait: fold(CommStats::wait_vtime),
            hidden: fold(CommStats::hidden_vtime),
        }
    }

    /// Critical-path **exposed** communication time per iteration in
    /// `phase`: max over nodes of blocking send transfers + stalls +
    /// non-blocking wait charges, divided by the iteration count. The
    /// metric the pipelined-vs-blocking comparison gates on — defined
    /// once here so the bench, tests, and examples measure the same thing.
    pub fn exposed_vtime_per_iter(&self, phase: parcomm::CommPhase) -> f64 {
        self.per_iter(self.phase_breakdown(phase).exposed)
    }

    /// Critical-path stalled (wait-only) time per iteration in `phase`.
    pub fn wait_vtime_per_iter(&self, phase: parcomm::CommPhase) -> f64 {
        self.per_iter(self.phase_breakdown(phase).wait)
    }

    /// Critical-path **hidden** communication time per iteration in
    /// `phase` (non-blocking flight time overlapped by compute).
    pub fn hidden_vtime_per_iter(&self, phase: parcomm::CommPhase) -> f64 {
        self.per_iter(self.phase_breakdown(phase).hidden)
    }

    /// Number of nodes that retired mid-solve (left the cluster because no
    /// replacement was available; their subdomains were adopted). Always 0
    /// under [`RecoveryPolicy::Replace`].
    pub fn retired_nodes(&self) -> usize {
        self.per_node.iter().filter(|o| o.retired).count()
    }
}

/// Run the (optionally resilient) `solver` on a simulated cluster of
/// `nodes` nodes.
///
/// Validates the cluster size against the system (`1 ≤ nodes ≤ n`: every
/// node owns at least one row) and the solver × policy × preconditioner
/// combination (`SolverConfig::validate`) and, under ESR protection, the
/// symmetry of `A` up front, and returns a typed
/// [`ConfigError`] naming the violated constraint — unsupported
/// combinations fail as a `Result`, not as a panic deep in a node program.
/// State protection is part of the configuration, not of the entry point:
/// checkpoint/restart is `cfg.resilience` with
/// [`crate::config::Protection::Checkpoint`].
pub fn run(
    solver: SolverKind,
    problem: &Problem,
    nodes: usize,
    cfg: &SolverConfig,
    cost: CostModel,
    script: FailureScript,
) -> Result<ExperimentResult, ConfigError> {
    if nodes == 0 || nodes > problem.n() {
        return Err(ConfigError::NodesOutOfRange {
            nodes,
            rows: problem.n(),
        });
    }
    cfg.validate(solver, nodes)?;
    // One store for all nodes, also when `problem.a` was replaced.
    let shared = Problem {
        statics: problem.statics(),
        ..problem.clone()
    };
    // Checked on every run, so the first one pays it whatever it protects.
    let symmetric = shared.statics.is_symmetric();
    if cfg.resilience.as_ref().is_some_and(|r| r.is_esr()) && !symmetric {
        return Err(ConfigError::EsrNonsymmetric { solver });
    }
    let cfg = cfg.clone();
    // A Spares policy provisions the cluster's hot-spare pool; the node
    // programs consume it through `NodeCtx::spare_pool`.
    let spares = match cfg.resilience.as_ref().map(|r| r.policy) {
        Some(RecoveryPolicy::Spares(k)) => k,
        _ => 0,
    };
    let cluster_cfg = ClusterConfig::new(nodes)
        .with_cost(cost)
        .with_script(script)
        .with_spares(spares);
    let traced = cfg.trace;
    let program = async move |ctx: &mut NodeCtx| node_program(solver, ctx, &shared, &cfg).await;
    let start = Instant::now();
    let run = if traced {
        Cluster::run_traced(cluster_cfg, program)
    } else {
        Cluster::run_async(cluster_cfg, program)
    };
    let wall = start.elapsed();
    let per_node = run.values;

    // Assemble the global solution in rank order (retired nodes own no
    // rows; adopters cover the gaps with their widened blocks).
    let mut x = vec![0.0; problem.n()];
    for o in &per_node {
        x[o.range_start..o.range_start + o.x_loc.len()].copy_from_slice(&o.x_loc);
    }

    // True residual and the Eqn. (7) deviation.
    let mut resid = problem.a.mul_vec(&x);
    for (ri, bi) in resid.iter_mut().zip(problem.b.iter()) {
        *ri = bi - *ri;
    }
    let true_residual = norm2(&resid);
    // Solve-level scalars come from a node that finished the solve — a
    // retired node's values froze when it left the cluster.
    let canon = ExperimentResult::canonical(&per_node);
    let solver_residual = canon.residual_norm;
    let residual_deviation = if true_residual > 0.0 {
        (solver_residual - true_residual) / true_residual
    } else {
        0.0
    };

    let mut stats = CommStats::new();
    for o in &per_node {
        stats.merge(&o.stats);
    }
    let vtime = per_node.iter().map(|o| o.vtime_total).fold(0.0, f64::max);
    let vtime_recovery = per_node
        .iter()
        .map(|o| o.vtime_recovery)
        .fold(0.0, f64::max);
    let vtime_setup = per_node.iter().map(|o| o.vtime_setup).fold(0.0, f64::max);
    let most = |k| {
        per_node
            .iter()
            .filter_map(|o| o.inner_iterations.get(k))
            .max()
    };
    let inner_iterations = (0..canon.recoveries).filter_map(most).sum();

    Ok(ExperimentResult {
        iterations: canon.iterations,
        converged: canon.converged,
        solver_residual,
        true_residual,
        residual_deviation,
        vtime,
        vtime_recovery,
        vtime_setup,
        wall,
        host: run.host,
        stats,
        recoveries: canon.recoveries,
        ranks_recovered: canon.ranks_recovered,
        recovery_timelines: canon.recovery_timelines.clone(),
        inner_iterations,
        x,
        per_node,
        trace: run.trace,
    })
}

/// [`run`] with blocking PCG ([`SolverKind::Pcg`]).
pub fn run_pcg(
    problem: &Problem,
    nodes: usize,
    cfg: &SolverConfig,
    cost: CostModel,
    script: FailureScript,
) -> Result<ExperimentResult, ConfigError> {
    run(SolverKind::Pcg, problem, nodes, cfg, cost, script)
}

/// [`run`] with **pipelined** PCG ([`SolverKind::PipeCg`]): the
/// communication-hiding variant that overlaps its single fused reduction
/// with the SpMV and preconditioner application (Levonyak et al.,
/// arXiv:1912.09230). Requires a block-diagonal (M-given) preconditioner.
pub fn run_pipecg(
    problem: &Problem,
    nodes: usize,
    cfg: &SolverConfig,
    cost: CostModel,
    script: FailureScript,
) -> Result<ExperimentResult, ConfigError> {
    run(SolverKind::PipeCg, problem, nodes, cfg, cost, script)
}

/// [`run`] with preconditioned BiCGSTAB ([`SolverKind::BiCgStab`]; paper
/// Sec. 1 extension).
pub fn run_bicgstab(
    problem: &Problem,
    nodes: usize,
    cfg: &SolverConfig,
    cost: CostModel,
    script: FailureScript,
) -> Result<ExperimentResult, ConfigError> {
    run(SolverKind::BiCgStab, problem, nodes, cfg, cost, script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrecondConfig, SolverConfig};
    use parcomm::FailureScript;
    use precond::{BlockJacobi, BlockSolver};
    use sparsemat::gen::poisson2d;
    use sparsemat::BlockPartition;

    fn solve_error(result: &ExperimentResult) -> f64 {
        result
            .x
            .iter()
            .map(|xi| (xi - 1.0).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn failure_free_matches_sequential_pcg() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a.clone());
        let cfg = SolverConfig::reference();
        let res = run_pcg(
            &problem,
            4,
            &cfg,
            CostModel::default(),
            FailureScript::none(),
        )
        .unwrap();
        assert!(res.converged);
        assert!(solve_error(&res) < 1e-6, "err={}", solve_error(&res));
        // Sequential oracle with the same preconditioner.
        let part = BlockPartition::new(144, 4);
        let bj = BlockJacobi::from_partition(&a, &part, BlockSolver::ExactLdl).unwrap();
        let seq = krylov::pcg(&a, &problem.b, &vec![0.0; 144], &bj, 1e-8, 10_000);
        assert!(seq.converged());
        assert!(
            res.iterations.abs_diff(seq.iterations) <= 1,
            "dist {} vs seq {}",
            res.iterations,
            seq.iterations
        );
    }

    #[test]
    fn a_cluster_the_rows_cannot_be_cut_over_is_a_typed_error() {
        // Four rows: eight nodes would leave some without one, and
        // `BlockPartition::new` would panic inside node 0.
        let problem = Problem::with_ones_solution(poisson2d(2, 2));
        for solver in [SolverKind::Pcg, SolverKind::PipeCg, SolverKind::BiCgStab] {
            for nodes in [8, 0] {
                let err = run(
                    solver,
                    &problem,
                    nodes,
                    &SolverConfig::reference(),
                    CostModel::default(),
                    FailureScript::none(),
                )
                .expect_err("no block-row distribution exists");
                assert_eq!(err, ConfigError::NodesOutOfRange { nodes, rows: 4 });
                assert!(err.to_string().contains("1 ≤ N ≤ n"), "{err}");
            }
        }
        // The boundary is fine: one row per node.
        let res = run_pcg(
            &problem,
            4,
            &SolverConfig::reference(),
            CostModel::default(),
            FailureScript::none(),
        )
        .unwrap();
        assert!(res.converged);
    }

    #[test]
    fn resilient_without_failures_same_iterations() {
        let a = poisson2d(10, 10);
        let problem = Problem::with_random_rhs(a, 3);
        let plain = run_pcg(
            &problem,
            4,
            &SolverConfig::reference(),
            CostModel::default(),
            FailureScript::none(),
        )
        .unwrap();
        let resilient = run_pcg(
            &problem,
            4,
            &SolverConfig::resilient(2),
            CostModel::default(),
            FailureScript::none(),
        )
        .unwrap();
        // Redundancy changes communication, not numerics.
        assert_eq!(plain.iterations, resilient.iterations);
        assert_eq!(plain.solver_residual, resilient.solver_residual);
        // But it does cost extra elements.
        assert!(
            resilient.stats.elems(parcomm::CommPhase::Redundancy)
                > plain.stats.elems(parcomm::CommPhase::Redundancy)
        );
    }

    #[test]
    fn survives_single_failure() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(5, 1, 1, 4);
        let res = run_pcg(
            &problem,
            4,
            &SolverConfig::resilient(1),
            CostModel::default(),
            script,
        )
        .unwrap();
        assert!(res.converged);
        assert_eq!(res.recoveries, 1);
        assert_eq!(res.ranks_recovered, 1);
        assert!(solve_error(&res) < 1e-6, "err={}", solve_error(&res));
        assert!(res.vtime_recovery > 0.0);
    }

    #[test]
    fn survives_three_simultaneous_failures() {
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(8, 2, 3, 7);
        let res = run_pcg(
            &problem,
            7,
            &SolverConfig::resilient(3),
            CostModel::default(),
            script,
        )
        .unwrap();
        assert!(res.converged);
        assert_eq!(res.recoveries, 1);
        assert_eq!(res.ranks_recovered, 3);
        assert!(solve_error(&res) < 1e-6, "err={}", solve_error(&res));
    }

    #[test]
    fn jacobi_preconditioner_with_failures() {
        let a = poisson2d(10, 10);
        let problem = Problem::with_ones_solution(a);
        let cfg = SolverConfig {
            precond: PrecondConfig::Jacobi,
            ..SolverConfig::resilient(2)
        };
        let script = FailureScript::simultaneous(10, 0, 2, 5);
        let res = run_pcg(&problem, 5, &cfg, CostModel::default(), script).unwrap();
        assert!(res.converged);
        assert!(solve_error(&res) < 1e-6);
    }

    #[test]
    fn deviation_metric_is_small() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_random_rhs(a, 9);
        let script = FailureScript::simultaneous(6, 1, 2, 6);
        let res = run_pcg(
            &problem,
            6,
            &SolverConfig::resilient(2),
            CostModel::default(),
            script,
        )
        .unwrap();
        assert!(res.converged);
        // Eqn. 7 deviation: tiny compared to the 1e8 residual reduction.
        assert!(
            res.residual_deviation.abs() < 1e-4,
            "∆ESR = {}",
            res.residual_deviation
        );
    }
}
