//! The one SPMD node program every solver runs.
//!
//! Retain at the scatter, poll at one boundary, reconstruct, go on with
//! the interrupted iteration: the skeleton the paper states for PCG (Secs.
//! 2.2–4) and Levonyak et al. (arXiv:1912.09230) carry over unchanged to
//! pipelined PCG. [`solve_node`] is that skeleton, written once. It owns
//!
//! * setup — configuration guard, [`Layout::build_full`], the setup
//!   barrier and metric reset;
//! * the per-solve recovery bookkeeping ([`RecoveryBook`]) and the
//!   periodic checkpoint deposit at the loop top;
//! * the ULFM failure boundary (paper Sec. 1.1.1) with its once-per-
//!   iteration high-water mark, the call into [`engine::recover`], and the
//!   control flow after it: retire, roll back to the epoch's loop top, or
//!   [`Recurrence::resume`] and go on with the iteration;
//! * the `"iteration"` trace span and the [`NodeOutcome`].
//!
//! A solver is a [`Recurrence`]: its owned state (which is also its
//! [`ResilientKernel`]) and its iteration, split at its own failure
//! boundary. `vtime_recovery` is the window from the drained boundary to
//! the end of [`engine::recover`]; what [`Recurrence::resume`]
//! re-establishes (the repair of the last scatter, and pipelined PCG's
//! `m = M⁻¹w` on a replacement) is charged to the solve, not to the
//! recovery — the accounting every pinned `vtime_recovery` was measured
//! under.

use parcomm::{CommStats, FailAt, NodeCtx};

use crate::config::{SolverConfig, SolverKind};
use crate::driver::Problem;
use crate::engine::{
    self, EngineEnv, EngineOutcome, Layout, RecoveryBook, RecoveryTimeline, ResilientKernel,
};
use crate::retention::CheckpointStore;

/// Per-node result of a distributed solve.
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// This node's rank.
    pub rank: usize,
    /// The owned block of the solution.
    pub x_loc: Vec<f64>,
    /// Global range of `x_loc`.
    pub range_start: usize,
    /// Completed iterations.
    pub iterations: usize,
    /// Final solver residual norm ‖r‖₂ (global, replicated).
    pub residual_norm: f64,
    /// Initial residual norm ‖b - A x₀‖₂.
    pub(crate) initial_residual_norm: f64,
    /// Whether the residual target was reached.
    pub converged: bool,
    /// Virtual time at solve end (setup excluded).
    pub vtime_total: f64,
    /// Virtual time spent inside recovery.
    pub vtime_recovery: f64,
    /// Number of recovery events (not attempts).
    pub(crate) recoveries: usize,
    /// Total ranks reconstructed across all recoveries.
    pub(crate) ranks_recovered: usize,
    /// Communication statistics (setup excluded).
    pub stats: CommStats,
    /// Virtual time of the setup phase (plans, factorizations).
    pub vtime_setup: f64,
    /// True if this node failed with no replacement available and left the
    /// cluster (its subdomain was adopted by a survivor; `x_loc` is empty).
    /// Always `false` under [`crate::config::RecoveryPolicy::Replace`].
    pub retired: bool,
    /// Per-substep virtual-time timeline of every recovery event this node
    /// completed, in event order (empty on failure-free runs).
    pub recovery_timelines: Vec<RecoveryTimeline>,
    /// Inner-solver iterations of every recovery event this node completed,
    /// in event order (0 on a node that reconstructed nothing).
    pub inner_iterations: Vec<usize>,
}

/// A solver as the node loop sees it: owned state plus the iteration,
/// split where the solver polls for failures.
pub(crate) trait Recurrence: ResilientKernel + Sized {
    /// Which solver this is (configuration guard, error messages).
    const KIND: SolverKind;
    /// Retention channels the solver scatters into under ESR.
    const CHANNELS: usize;
    /// `true` where the convergence test follows the update, so the
    /// converging iteration counts as completed (PCG, BiCGSTAB); `false`
    /// where the test value comes from a reduction over `r(j)` issued
    /// *before* the update (pipelined PCG).
    const TEST_FOLLOWS_UPDATE: bool;

    /// Initial state for `x(0) = 0` on the freshly built layout, and
    /// `‖r(0)‖²`.
    fn init(ctx: &mut NodeCtx, layout: &mut Layout, b: &[f64]) -> (Self, f64);
    /// Whether previous-generation copies exist at iteration `j`'s
    /// boundary ([`EngineEnv::has_prev`]).
    fn has_prev(&self, j: u64) -> bool;
    /// Iteration `j` from the loop top through the last scatter before the
    /// failure boundary.
    fn begin_iteration(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, j: u64);
    /// Complete communication still in flight at the boundary before a
    /// recovery starts.
    fn drain(&mut self, ctx: &mut NodeCtx) {
        let _ = ctx;
    }
    /// After an ESR reconstruction (never after a rollback, which restarts
    /// from the agreed epoch's loop top): re-establish what the engine does
    /// not — at least the last scatter before the boundary, repaired with
    /// [`Layout::scatter`] to `to` — so that the rest of iteration `j`
    /// follows. `to` names the ranks replaced in place on an unchanged
    /// layout; `None` after a Shrink, whose layout is new on every link.
    fn resume(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, to: Option<&[usize]>);
    /// The rest of iteration `j`. Returns the new `‖r‖²`; on reaching
    /// `target_sq` the recurrence stops where its convergence test sits.
    fn finish_iteration(
        &mut self,
        ctx: &mut NodeCtx,
        layout: &mut Layout,
        j: u64,
        target_sq: f64,
    ) -> f64;
}

/// The SPMD node program: solve `A x = b` with the (optionally resilient)
/// `solver`. All nodes receive the same `problem` (static data on reliable
/// storage; clones share what is derived from it, see `crate::statics`)
/// and configuration; the failure script lives in the cluster's oracle.
/// Panics with the [`crate::config::ConfigError`] message on a
/// configuration `solver` cannot run on this cluster size — the guard for
/// direct [`parcomm::Cluster::run`] users; [`crate::driver::run`] returns
/// the same error as a value first.
pub fn node_program(
    solver: SolverKind,
    ctx: &mut NodeCtx,
    problem: &Problem,
    cfg: &SolverConfig,
) -> NodeOutcome {
    match solver {
        SolverKind::Pcg => solve_node::<crate::pcg::PcgState>(ctx, problem, cfg),
        SolverKind::PipeCg => solve_node::<crate::pipecg::PipeState>(ctx, problem, cfg),
        SolverKind::BiCgStab => solve_node::<crate::bicgstab::BicgstabState>(ctx, problem, cfg),
    }
}

fn solve_node<K: Recurrence>(
    ctx: &mut NodeCtx,
    problem: &Problem,
    cfg: &SolverConfig,
) -> NodeOutcome {
    let statics = problem.statics();
    let b = &problem.b;
    assert_eq!(b.len(), problem.n(), "rhs length");
    if let Err(e) = cfg.validate(K::KIND, ctx.size()) {
        panic!("rank {}: {e}", ctx.rank());
    }
    let mut layout = Layout::build_full(ctx, &statics, cfg, K::CHANNELS);
    ctx.barrier();
    let vtime_setup = ctx.vtime();
    ctx.reset_metrics();

    let (mut kernel, r0_sq) = K::init(ctx, &mut layout, b);
    let r0_norm = r0_sq.sqrt();
    let target_sq = cfg.rel_tol * cfg.rel_tol * r0_sq;
    // Checkpoint protection deposits loop-top packs on a ring instead of
    // retaining scattered vectors in the layout's channels.
    let cr = cfg.resilience.as_ref().and_then(|res| res.cr());
    let mut book = RecoveryBook::new(
        ctx.spare_pool(),
        cr.map(|c| CheckpointStore::new(c, &layout.plan.members, layout.my_slot)),
    );
    let mut iterations = 0usize;
    let mut residual_sq = r0_sq;
    let mut converged = r0_norm <= f64::MIN_POSITIVE;
    let mut retired = false;
    // Boundaries below this iteration were already polled. Iterations are
    // visited in order except for rollbacks, which only go back, so one
    // high-water mark is the whole "handled" set.
    let mut next_poll = 0u64;

    while !converged && iterations < cfg.max_iter {
        let j = iterations as u64;
        ctx.trace_open("iteration", j);

        // Periodic checkpoint deposit (loop top = the state a rollback
        // resumes from). Runs again right after a rollback — the agreed
        // epoch is itself a multiple of the interval — which refills
        // replicas lost with the failed ranks, on the current ring.
        if let Some(store) = book.ckpt.as_mut() {
            if j.is_multiple_of(store.interval() as u64) {
                let seq = book.recovery_seq;
                book.recovery_seq += 1;
                store.deposit(ctx, seq, j, engine::pack(&kernel));
            }
        }

        kernel.begin_iteration(ctx, &mut layout, j);

        // ULFM failure boundary (paper Sec. 1.1.1): consistent
        // notification. Events naming ranks that already retired in an
        // earlier shrink are inert — that hardware is gone.
        if let Some(res) = cfg.resilience.as_ref().filter(|_| j >= next_poll) {
            next_poll = j + 1;
            let failed = layout.poll_member_failures(ctx, FailAt::Iteration(j));
            if !failed.is_empty() {
                kernel.drain(ctx);
                let t0 = ctx.vtime();
                let env = EngineEnv {
                    statics: &statics,
                    b,
                    res,
                    precond: &cfg.precond,
                    // `Layout::build_full`'s partition.
                    setup: &statics.cluster(ctx.size()).0,
                    iteration: j,
                    has_prev: kernel.has_prev(j),
                };
                let report = match engine::recover(
                    ctx,
                    &env,
                    &mut layout,
                    &mut kernel,
                    &failed,
                    &mut book,
                ) {
                    EngineOutcome::Retired => {
                        retired = true;
                        ctx.trace_close(); // iteration
                        break;
                    }
                    EngineOutcome::Recovered(report) => report,
                };
                book.vtime_recovery += ctx.vtime() - t0;
                book.recoveries += 1;
                book.ranks_recovered += report.total_failed;
                book.timelines.push(report.timeline);
                book.inner_iterations.push(report.inner_iterations);
                // Rollback: every rank restarts the checkpointed epoch with
                // the unpacked loop-top state.
                if let Some(epoch) = report.rollback_to {
                    iterations = epoch as usize;
                    ctx.trace_close(); // iteration
                    continue;
                }
                kernel.resume(ctx, &mut layout, report.replaced.as_deref());
            }
        }

        residual_sq = kernel.finish_iteration(ctx, &mut layout, j, target_sq);
        converged = residual_sq <= target_sq;
        if K::TEST_FOLLOWS_UPDATE || !converged {
            iterations += 1;
        }
        ctx.trace_close(); // iteration
    }

    // A retired node owns no rows and its convergence state is stale (the
    // survivors finish the solve): its outcome is the empty/unconverged
    // shape.
    let x_slot = kernel.shape().x_slot;
    NodeOutcome {
        rank: ctx.rank(),
        x_loc: if retired {
            Vec::new()
        } else {
            std::mem::take(&mut kernel.vecs_mut()[x_slot])
        },
        range_start: if retired { 0 } else { layout.lm.range.start },
        iterations,
        residual_norm: residual_sq.sqrt(),
        initial_residual_norm: r0_norm,
        converged: converged && !retired,
        vtime_total: ctx.vtime(),
        vtime_recovery: book.vtime_recovery,
        recoveries: book.recoveries,
        ranks_recovered: book.ranks_recovered,
        stats: ctx.stats().clone(),
        vtime_setup,
        retired,
        recovery_timelines: book.timelines,
        inner_iterations: book.inner_iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::BicgstabState;
    use crate::config::{CrConfig, PrecondConfig, Protection, RecoveryPolicy, ResilienceConfig};
    use crate::driver::Problem;
    use crate::pcg::PcgState;
    use crate::pipecg::PipeState;
    use parcomm::{Cluster, ClusterConfig};
    use sparsemat::gen::poisson2d;
    use sparsemat::Csr;
    use std::sync::Arc;

    /// The kernel contract the engine-side `poison`/`pack`/`unpack` rely
    /// on, checked on every node of a 4-node Poisson layout. A wrong table
    /// entry fails here, not as a 1e-6 miss in a solve-level matrix cell.
    fn check_kernel_contract<K: Recurrence>() {
        let problem = Problem::with_ones_solution(poisson2d(12, 12));
        Cluster::run(ClusterConfig::new(4), move |ctx| {
            let cfg = SolverConfig::resilient(1);
            let mut layout = Layout::build_full(ctx, &problem.statics(), &cfg, K::CHANNELS);
            let (mut k, _) = K::init(ctx, &mut layout, &problem.b);
            let nloc = layout.lm.n_local();
            let shape = k.shape();
            let (n_vecs, n_scalars) = (k.vecs().len(), k.scalars().len());

            // The tables name real slots, each at most once.
            for (i, &slot) in shape.pack_slots.iter().enumerate() {
                assert!(slot < n_vecs, "pack slot {slot} out of range");
                assert!(
                    !shape.pack_slots[..i].contains(&slot),
                    "pack slot {slot} twice"
                );
            }
            for (i, &s) in shape.resent_scalars.iter().enumerate() {
                assert!(s < n_scalars, "re-sent scalar {s} out of range");
                assert!(!shape.resent_scalars[..i].contains(&s), "scalar {s} twice");
            }
            assert!(shape.n_block_vecs <= n_vecs);
            let beyond_blocks = shape.n_block_vecs..n_vecs;
            assert!(shape.static_slots.iter().all(|s| beyond_blocks.contains(s)));
            assert!(shape.r_slot < shape.n_block_vecs && shape.x_slot < shape.n_block_vecs);
            assert_ne!(shape.r_slot, shape.x_slot);

            // Distinct, finite, slot-identifying values everywhere.
            for (slot, v) in k.vecs_mut().iter_mut().enumerate() {
                assert_eq!(v.len(), nloc, "slot {slot} is not block-length");
                for (i, vi) in v.iter_mut().enumerate() {
                    *vi = (1000 * slot + i) as f64 + 0.5;
                }
            }
            for (i, s) in k.scalars_mut().iter_mut().enumerate() {
                *s = i as f64 + 0.25;
            }
            let before: Vec<Vec<f64>> = k.vecs().to_vec();
            let scalars_before = k.scalars().to_vec();

            let data = engine::pack(&k);
            assert!(shape.pack_scalars <= n_scalars);
            assert_eq!(
                data.len(),
                shape.pack_slots.len() * nloc + shape.pack_scalars
            );

            // A node failure destroys every vector, scratch included, and
            // every scalar; only the static slots survive.
            engine::poison(&mut k);
            for (slot, v) in k.vecs().iter().enumerate() {
                if shape.static_slots.contains(&slot) {
                    assert_eq!(v, &before[slot], "poison touched static slot {slot}");
                } else {
                    assert!(v.iter().all(|x| x.is_nan()), "slot {slot} survived poison");
                }
            }
            assert!(k.scalars().iter().all(|s| s.is_nan()));

            // Unpack restores the packed state bitwise and leaves every
            // other vector zeroed at the block length, whatever it was.
            for v in k.vecs_mut() {
                v.clear();
            }
            engine::unpack(&mut k, &data, nloc);
            for (slot, v) in k.vecs().iter().enumerate() {
                if shape.pack_slots.contains(&slot) {
                    let same = v
                        .iter()
                        .zip(&before[slot])
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same && v.len() == nloc, "slot {slot} not restored");
                } else {
                    assert_eq!(v, &vec![0.0; nloc], "slot {slot} not re-zeroed");
                }
            }
            let packed = ..shape.pack_scalars;
            assert_eq!(k.scalars()[packed], scalars_before[packed]);
        });
    }

    #[test]
    fn kernels_honour_the_engine_contract() {
        check_kernel_contract::<PcgState>();
        check_kernel_contract::<PipeState>();
        check_kernel_contract::<BicgstabState>();
    }

    #[test]
    fn per_node_values_stay_small() {
        // A value on a node stack is copied through the frames of each of
        // N threads: 4 KB of inline histograms in each once made the
        // stacks of N = 512 nodes hold 26 MB.
        for (name, size) in [
            ("NodeCtx", std::mem::size_of::<parcomm::NodeCtx>()),
            ("NodeOutcome", std::mem::size_of::<NodeOutcome>()),
        ] {
            assert!(size <= 512, "{name} is {size} B");
        }
    }

    /// A direct `Cluster::run` user (no driver in front) with a
    /// configuration `solver` cannot run.
    fn run_unvalidated(solver: SolverKind, nodes: usize, cfg: SolverConfig) {
        let problem = Problem::with_ones_solution(poisson2d(8, 8));
        Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            node_program(solver, ctx, &problem, &cfg).converged
        });
    }

    #[test]
    #[should_panic(expected = "RecoveryPolicy::Replace with ExplicitP")]
    fn pcg_node_rejects_shrink_with_explicit_p() {
        let mut cfg = SolverConfig::resilient_with_policy(1, RecoveryPolicy::Shrink);
        cfg.precond = PrecondConfig::ExplicitP(Arc::new(Csr::identity(64)));
        run_unvalidated(SolverKind::Pcg, 4, cfg);
    }

    #[test]
    #[should_panic(expected = "φ ≤ N−1 must leave at least one survivor")]
    fn pipecg_node_rejects_phi_without_a_survivor() {
        run_unvalidated(SolverKind::PipeCg, 4, SolverConfig::resilient(4));
    }

    #[test]
    #[should_panic(expected = "interval ≥ 1 is required")]
    fn bicgstab_node_rejects_a_zero_checkpoint_interval() {
        let mut cfg = SolverConfig::resilient(1);
        cfg.resilience = Some(
            ResilienceConfig::paper(1)
                .with_protection(Protection::Checkpoint(CrConfig::default().with_interval(0))),
        );
        run_unvalidated(SolverKind::BiCgStab, 4, cfg);
    }
}
