//! The only file of the benchmark that calls into the repo's crates.
//!
//! Everything the rest of the benchmark knows about the system under test
//! goes through the plain-data types below, so a change to the public API
//! (ROADMAP item 4's single `run`, say) is a change to this file alone.
//! Nothing here reads a clock except to pass through the wall time the
//! driver itself reports: the callers time these functions with spans.

use std::hint::black_box;
use std::sync::Arc;

use esr_core::config::{
    BackupStrategy, CrConfig, Protection as CoreProtection, RecoveryPolicy, SolverConfig,
};
use esr_core::driver::{run_bicgstab, run_pcg, run_pipecg, ExperimentResult, Problem};
use esr_core::localmat::LocalMatrix;
use esr_core::redundancy::compute_extra_sends;
use esr_core::retention::Retention;
use esr_core::scatter::ScatterPlan;
use parcomm::{Cluster, ClusterConfig, CommPhase, CostModel, FailureScript, Payload, ReduceOp};
use precond::ldl::SparseLdl;
use precond::{BlockJacobi, BlockSolver};
use sparsemat::analysis::ghost_needs;
use sparsemat::gen::suite::{self, PaperMatrix};
use sparsemat::vecops::{axpy, dot, norm2, xpay};
use sparsemat::BlockPartition;

/// The solver tolerance every workload uses (the paper's 10⁸ reduction).
pub const REL_TOL: f64 = 1e-8;

/// Suite matrices the workloads use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    M1,
    M3,
    M5,
}

/// The distributed solvers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Solver {
    Pcg,
    PipeCg,
    BiCgStab,
}

/// What happens to a failed node's subdomain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    Replace,
    Shrink,
}

/// How the dynamic solver state is protected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protection {
    Esr,
    Checkpoint { interval: usize, copies: usize },
}

/// `count` contiguous ranks starting at `first_rank` fail at `iteration`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Failure {
    pub iteration: u64,
    pub first_rank: usize,
    pub count: usize,
}

/// One solve's configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Unprotected, failure-free: the paper's t₀.
    Reference,
    /// Resilient with `phi` copies, failure-free.
    Undisturbed { phi: usize },
    /// Resilient with `phi` copies and one failure event.
    Failing {
        phi: usize,
        policy: Policy,
        protection: Protection,
        failure: Failure,
    },
}

/// A generated linear system (matrix, seeded right-hand side, ‖b‖).
pub struct System {
    problem: Problem,
    b_norm: f64,
}

impl System {
    /// `suite::generate` + `Problem::with_random_rhs`: the benchmark's set-up.
    pub fn build(matrix: Matrix, scale: f64, rhs_seed: u64) -> System {
        let id = match matrix {
            Matrix::M1 => PaperMatrix::M1,
            Matrix::M3 => PaperMatrix::M3,
            Matrix::M5 => PaperMatrix::M5,
        };
        let problem = Problem::with_random_rhs(suite::generate(id, scale), rhs_seed);
        let b_norm = norm2(&problem.b);
        System { problem, b_norm }
    }

    pub fn rows(&self) -> usize {
        self.problem.n()
    }

    pub fn nnz(&self) -> usize {
        self.problem.a.nnz()
    }
}

/// What one distributed solve reported.
#[derive(Clone, Debug)]
pub struct SolveOutput {
    pub x: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// ‖b − Ax‖ / ‖b‖.
    pub rel_true_residual: f64,
    /// BSP makespan of the solve, virtual seconds.
    pub vtime: f64,
    /// Virtual seconds inside recovery.
    pub vtime_recovery: f64,
    /// Host seconds of the cluster run alone, as the driver measured it.
    pub cluster_wall_s: f64,
    pub recoveries: usize,
    pub ranks_recovered: usize,
    pub msgs: u64,
    pub elems: u64,
    pub allreduces: u64,
    pub redundancy_elems: u64,
    pub extra_latency_msgs: u64,
    /// (substep label, virtual seconds) of every recovery segment.
    pub substeps: Vec<(&'static str, f64)>,
}

fn solver_config(mode: Mode) -> SolverConfig {
    let mut cfg = match mode {
        Mode::Reference => SolverConfig::reference(),
        Mode::Undisturbed { phi } => SolverConfig::resilient(phi),
        Mode::Failing {
            phi,
            policy,
            protection,
            ..
        } => {
            let policy = match policy {
                Policy::Replace => RecoveryPolicy::Replace,
                Policy::Shrink => RecoveryPolicy::Shrink,
            };
            let mut cfg = SolverConfig::resilient_with_policy(phi, policy);
            if let Protection::Checkpoint { interval, copies } = protection {
                let res = cfg.resilience.take().expect("resilient preset");
                cfg.resilience = Some(
                    res.with_protection(CoreProtection::Checkpoint(
                        CrConfig::default()
                            .with_interval(interval)
                            .with_copies(copies),
                    )),
                );
            }
            cfg
        }
    };
    cfg.rel_tol = REL_TOL;
    cfg
}

/// Run one distributed solve through the public `run_*` entry point.
pub fn solve(sys: &System, nodes: usize, solver: Solver, mode: Mode) -> SolveOutput {
    let cfg = solver_config(mode);
    let script = match mode {
        Mode::Failing { failure: f, .. } => {
            FailureScript::simultaneous(f.iteration, f.first_rank, f.count, nodes)
        }
        _ => FailureScript::none(),
    };
    let run = match solver {
        Solver::Pcg => run_pcg,
        Solver::PipeCg => run_pipecg,
        Solver::BiCgStab => run_bicgstab,
    };
    let r: ExperimentResult = run(&sys.problem, nodes, &cfg, CostModel::default(), script)
        .expect("every workload uses a supported solver × policy × protection cell");
    SolveOutput {
        iterations: r.iterations,
        converged: r.converged,
        rel_true_residual: r.true_residual / sys.b_norm,
        vtime: r.vtime,
        vtime_recovery: r.vtime_recovery,
        cluster_wall_s: r.wall.as_secs_f64(),
        recoveries: r.recoveries,
        ranks_recovered: r.ranks_recovered,
        msgs: r.stats.total_msgs(),
        elems: r.stats.total_elems(),
        allreduces: r.stats.allreduces(),
        redundancy_elems: r.stats.elems(CommPhase::Redundancy),
        extra_latency_msgs: r.stats.extra_latency_msgs(),
        substeps: r
            .recovery_timelines
            .iter()
            .flat_map(|t| t.segments.iter().map(|s| (s.label, s.vtime)))
            .collect(),
        x: r.x,
    }
}

/// ‖x − y‖ / ‖y‖.
pub fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    let dist_sq: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
    dist_sq.sqrt() / norm2(y)
}

// ---------------------------------------------------------------------
// Layer replays: each layer's public functions, at the counts a solve
// reported. A solve is one opaque call from outside, so this is how the
// traced run attributes its wall time without spans inside the program.
// ---------------------------------------------------------------------

fn partition(sys: &System, nodes: usize) -> BlockPartition {
    BlockPartition::new(sys.rows(), nodes)
}

/// `sparsemat::analysis::ghost_needs` for every rank; returns Σ ghosts.
pub fn analysis(sys: &System, nodes: usize) -> usize {
    let part = partition(sys, nodes);
    (0..nodes)
        .map(|r| ghost_needs(&sys.problem.a, &part, r).len())
        .sum()
}

/// Every rank's block rows, split as the solvers split them.
pub struct LocalBlocks {
    blocks: Arc<Vec<LocalMatrix>>,
    rows: usize,
}

/// `LocalMatrix::build` × N.
pub fn local_blocks(sys: &System, nodes: usize) -> LocalBlocks {
    let part = partition(sys, nodes);
    let blocks = (0..nodes)
        .map(|r| LocalMatrix::build(&sys.problem.a, &part, r))
        .collect();
    LocalBlocks {
        blocks: Arc::new(blocks),
        rows: sys.rows(),
    }
}

/// Work done by a kernel replay: flops performed and bytes computed from
/// array sizes (not measured traffic).
pub struct KernelWork {
    pub flops: f64,
    pub bytes_computed: f64,
}

fn wave(len: usize, phase: f64) -> Vec<f64> {
    (0..len).map(|i| (i as f64 * 0.37 + phase).sin()).collect()
}

/// `Csr::spmv_fused` over every rank's diag/offdiag blocks, `iterations`
/// times, rank-interleaved as the one-node-at-a-time scheduler runs them.
pub fn spmv_replay(lb: &LocalBlocks, iterations: usize) -> KernelWork {
    let mut bufs: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = lb
        .blocks
        .iter()
        .map(|lm| {
            (
                wave(lm.n_local(), 0.1),
                wave(lm.ghost_cols.len(), 0.2),
                vec![0.0; lm.n_local()],
            )
        })
        .collect();
    for _ in 0..iterations {
        for (lm, (x, g, y)) in lb.blocks.iter().zip(bufs.iter_mut()) {
            lm.diag.spmv_fused(&lm.offdiag, x, g, y);
            black_box(&*y);
        }
    }
    let per_iter = lb.blocks.iter().fold((0.0, 0.0), |(f, b), lm| {
        let nnz = lm.diag.nnz() + lm.offdiag.nnz();
        (
            f + lm.spmv_flops() as f64,
            // 8 B value + 4 B u32 column per nonzero, plus x, ghosts and y.
            b + (12 * nnz + 8 * (2 * lm.n_local() + lm.ghost_cols.len())) as f64,
        )
    });
    KernelWork {
        flops: per_iter.0 * iterations as f64,
        bytes_computed: per_iter.1 * iterations as f64,
    }
}

/// The per-iteration dots and axpys of PCG on every rank's local block.
pub fn vecops_replay(lb: &LocalBlocks, iterations: usize) {
    let mut bufs: Vec<[Vec<f64>; 5]> = lb
        .blocks
        .iter()
        .map(|lm| {
            let n = lm.n_local();
            [
                wave(n, 0.1),
                wave(n, 0.2),
                wave(n, 0.3),
                wave(n, 0.4),
                wave(n, 0.5),
            ]
        })
        .collect();
    for _ in 0..iterations {
        for [x, r, z, p, u] in bufs.iter_mut() {
            let alpha = 1e-3 * black_box(dot(p, u)).signum();
            axpy(alpha, p, x);
            axpy(-alpha, u, r);
            let beta = 1e-3 * black_box(dot(r, r) + dot(r, z)).signum();
            xpay(z, beta, p);
        }
    }
    black_box(&bufs);
}

/// Exact LDLᵀ factors of the N diagonal blocks.
pub struct Factors {
    factors: Vec<SparseLdl>,
    /// Σ strictly-lower nonzeros of L.
    pub l_nnz: usize,
    /// Σ L nonzeros / Σ strictly-lower nonzeros of the diagonal blocks.
    pub fill_ratio: f64,
}

/// `SparseLdl::new` over the N diagonal blocks.
pub fn factor(lb: &LocalBlocks) -> Factors {
    let factors: Vec<SparseLdl> = lb
        .blocks
        .iter()
        .map(|lm| SparseLdl::new(&lm.diag).expect("suite matrices have SPD diagonal blocks"))
        .collect();
    let l_nnz: usize = factors.iter().map(SparseLdl::l_nnz).sum();
    let lower: usize = lb
        .blocks
        .iter()
        .map(|lm| (lm.diag.nnz() - lm.n_local()) / 2)
        .sum();
    Factors {
        factors,
        l_nnz,
        fill_ratio: l_nnz as f64 / lower.max(1) as f64,
    }
}

/// `solve_in_place` on every rank, `applications` times; returns flops.
pub fn precond_solve_replay(f: &Factors, lb: &LocalBlocks, applications: usize) -> f64 {
    let mut bufs: Vec<(Vec<f64>, Vec<f64>)> = lb
        .blocks
        .iter()
        .map(|lm| (wave(lm.n_local(), 0.1), vec![0.0; lm.n_local()]))
        .collect();
    for _ in 0..applications {
        for (ldl, (r, z)) in f.factors.iter().zip(bufs.iter_mut()) {
            z.copy_from_slice(r);
            ldl.solve_in_place(z);
            black_box(&*z);
        }
    }
    let per_apply: usize = f.factors.iter().map(SparseLdl::solve_flops).sum();
    per_apply as f64 * applications as f64
}

/// `Cluster::run` of N nodes with an empty program.
pub fn spawn(nodes: usize) {
    black_box(Cluster::run(ClusterConfig::new(nodes), |ctx| ctx.rank()));
}

/// Who sends how many elements to whom in one SpMV ghost exchange.
pub struct CommPattern {
    /// Per rank: (destination, elements).
    sends: Vec<Vec<(usize, usize)>>,
    /// Per rank: sources, ascending (the solvers' receive order).
    recvs: Vec<Vec<usize>>,
}

/// Neighbour payload sizes from `sparsemat::analysis::ghost_needs`.
pub fn comm_pattern(sys: &System, nodes: usize) -> CommPattern {
    let part = partition(sys, nodes);
    let mut sends = vec![Vec::new(); nodes];
    let mut recvs = Vec::with_capacity(nodes);
    for r in 0..nodes {
        let mut per_owner = vec![0usize; nodes];
        for g in ghost_needs(&sys.problem.a, &part, r) {
            per_owner[part.owner_of(g)] += 1;
        }
        let owners = per_owner.iter().enumerate().filter(|(_, &len)| len > 0);
        recvs.push(owners.clone().map(|(owner, _)| owner).collect());
        for (owner, &len) in owners {
            sends[owner].push((r, len));
        }
    }
    CommPattern { sends, recvs }
}

const TAG_REPLAY: u32 = 77;

/// A communication-only node program: per iteration the SpMV neighbour
/// payloads, then PCG's two reductions (one scalar, one of length 2).
/// Returns the messages the replay sent.
pub fn comm_replay(pat: &CommPattern, iterations: usize) -> u64 {
    let nodes = pat.sends.len();
    let msgs = Cluster::run(ClusterConfig::new(nodes), |ctx| {
        let rank = ctx.rank();
        let bufs: Vec<Arc<Vec<f64>>> = pat.sends[rank]
            .iter()
            .map(|&(_, len)| Arc::new(vec![1.0; len]))
            .collect();
        for _ in 0..iterations {
            for (&(dest, _), buf) in pat.sends[rank].iter().zip(&bufs) {
                let payload = Payload::f64s_shared(buf.clone());
                ctx.send(dest, TAG_REPLAY, payload, CommPhase::Spmv);
            }
            for &src in &pat.recvs[rank] {
                black_box(ctx.recv_phase(src, TAG_REPLAY, CommPhase::Spmv));
            }
            black_box(ctx.allreduce_sum(1.0));
            black_box(ctx.allreduce_vec(ReduceOp::Sum, vec![1.0, 2.0]));
        }
        ctx.stats().total_msgs()
    });
    msgs.iter().sum()
}

/// `calls` length-2 all-reduces on N nodes: blocking, or request + `wait`.
pub fn allreduce_loop(nodes: usize, calls: usize, nonblocking: bool) {
    Cluster::run(ClusterConfig::new(nodes), |ctx| {
        for _ in 0..calls {
            let x = vec![1.0, 2.0];
            if nonblocking {
                let req = ctx.iallreduce_vec(ReduceOp::Sum, x);
                black_box(req.wait(ctx));
            } else {
                black_box(ctx.allreduce_vec(ReduceOp::Sum, x));
            }
        }
    });
}

/// Inside a cluster: `ScatterPlan::build` + `compute_extra_sends` (+ the
/// announcement), then `exchanges` × `ScatterPlan::exchange` with retention,
/// separated by the scalar all-reduce that separates them in PCG.
/// `exchanges == 0` is the plan build alone.
pub fn plan_and_exchange(lb: &LocalBlocks, phi: usize, exchanges: usize) {
    let nodes = lb.blocks.len();
    let part = BlockPartition::new(lb.rows, nodes);
    Cluster::run(ClusterConfig::new(nodes), |ctx| {
        let rank = ctx.rank();
        let lm = &lb.blocks[rank];
        let mut plan = ScatterPlan::build(ctx, lm, &part);
        plan.send_extra = compute_extra_sends(
            rank,
            nodes,
            phi,
            &BackupStrategy::Minimal,
            lm.n_local(),
            &plan.send_natural,
        );
        plan.announce_extras(ctx);
        let mut retention = Retention::build(&plan, &lm.ghost_cols);
        let p = wave(lm.n_local(), 0.1);
        let mut ghosts = vec![0.0; lm.ghost_cols.len()];
        for _ in 0..exchanges {
            retention.rotate();
            plan.exchange(ctx, &p, &mut ghosts, Some(&mut retention));
            retention.finish_generation();
            black_box(ctx.allreduce_sum(ghosts.first().copied().unwrap_or(0.0)));
        }
    });
}

/// Sequential `krylov::pcg` with the same block-Jacobi partition: the plain
/// single-threaded baseline. Returns (iterations, converged).
pub fn seq_pcg(sys: &System, nodes: usize) -> (usize, bool) {
    let a = &sys.problem.a;
    let bj = BlockJacobi::from_partition(a, &partition(sys, nodes), BlockSolver::ExactLdl)
        .expect("suite matrices have SPD diagonal blocks");
    let x0 = vec![0.0; sys.rows()];
    let rep = krylov::pcg(a, &sys.problem.b, &x0, &bj, REL_TOL, 100_000);
    (rep.iterations, rep.converged())
}
