//! Checkpoint/rollback as an engine protection flavor.
//!
//! The class of techniques the paper positions ESR against (Sec. 1.2):
//! *"The currently in practice most commonly used class of fault-tolerance
//! techniques to cope with node failures is checkpoint/restart … These
//! techniques frequently save the current state of a running application
//! and roll back to the latest saved state"*, with the key drawback that
//! they *"impose a usually considerable runtime overhead due to
//! continuously saving the state of the solver"* (Sec. 2.2).
//!
//! The suite implements the strongest practical variant for a fair
//! comparison: **diskless neighbour checkpointing**, selected per run via
//! [`Protection::Checkpoint`](crate::config::Protection). Every
//! [`CrConfig::interval`] iterations each node packs its dynamic solver
//! state (`crate::engine::pack`) and deposits [`CrConfig::copies`]
//! replicas on ring partners — the same Eqn. (5) alternating-ring
//! placement ESR uses for redundant copies, so the two flavors are equally
//! failure-decorrelated (the deposit store lives in
//! `crate::retention::CheckpointStore`, next to ESR's
//! [`Retention`](crate::retention::Retention) channels). On a failure, `Rollback`
//! fetches the newest surviving replica of every failed block and **all**
//! ranks roll back to the checkpointed epoch, re-executing the lost
//! iterations.
//!
//! Rollback is a *peer* of the ESR reconstruction inside the one restart
//! protocol (`crate::engine::recover`): it runs the same attempt loop —
//! per-attempt tag windows, the same overlap substep boundaries (a failure
//! *during* rollback aborts the attempt and restarts with the enlarged
//! failed set — which the old standalone C/R baseline never handled), the
//! same policy grant/retire/adoption plan — and supplies only its stages,
//! so the full {Replace, Spares(k), Shrink} × {PCG, PipeCG, BiCGSTAB} grid
//! works under either protection flavor.
//!
//! Contrast with ESR (same solver, same cluster, same failures):
//!
//! * C/R pays `pack_slots.len()·(n/N)·copies` extra elements every `interval`
//!   iterations whether or not anything fails; ESR pays only the elements
//!   that do not already travel in SpMV (often zero — paper Sec. 5);
//! * after a failure, C/R repeats up to `interval` iterations of work on
//!   the *whole cluster*; ESR reconstructs locally and repeats one SpMV.

use std::ops::Range;
use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::{CommPhase, NodeCtx, Payload};

pub use crate::config::CrConfig;
use crate::engine::{
    cut, rebuild_layout_after_shrink, tag, unpack, Attempt, Flavor, Layout, ResilientKernel,
};
use crate::retention::{Checkpoint, CheckpointStore};

/// Tag offset of the rollback replica push inside an attempt's window.
const OFF_FETCH: u32 = 1;

/// One fetched pack at a holder after the event.
struct Fetched {
    /// The pack's global rows: a piece of a failed rank's or a survivor's
    /// old owned block.
    range: Range<usize>,
    /// The packed state of those rows at the rollback epoch.
    data: Vec<f64>,
}

/// The checkpoint-rollback flavor of the restart protocol: push each row
/// that changes holder — a failed block's from its newest surviving
/// replica, a survivor's from its own pack — to its holder after the event
/// (`fetch`), agree on the rollback epoch over the post-event members
/// (`epoch`), hold one more overlap boundary (`idle`), then commit —
/// everyone restores the epoch's pack over its new range from its own copy
/// and the fetched data — and the node program rewinds its
/// iteration counter to [`crate::engine::RecoveryReport::rollback_to`].
pub(crate) struct Rollback<'a> {
    /// The node's deposit store.
    store: &'a mut CheckpointStore,
    /// The packs this attempt fetched: every row of this node's new range
    /// outside its own old block, in ascending row order.
    fetched: Vec<Fetched>,
    /// The epoch this attempt agreed on.
    epoch: u64,
}

impl<'a> Rollback<'a> {
    /// The flavor over this node's deposit store.
    pub(crate) fn new(store: &'a mut CheckpointStore) -> Self {
        Rollback {
            store,
            fetched: Vec::new(),
            epoch: 0,
        }
    }

    /// Stage 1. Every row that changes holder travels, one slice of its
    /// epoch pack per piece, from where the pack is — a survivor's own
    /// copy, else the failed block's serving holder: the first *surviving*
    /// holder on its ring, deterministic on every node — to its holder
    /// after the event ([`crate::engine::EventPlan::holders`]). Sent and
    /// received in row order, so FIFO (src, tag) order tells the pieces of
    /// one sender apart. A holder that is itself a surviving holder of a
    /// replica reads it locally; nothing is rebuilt, so nothing is handed
    /// over at commit.
    fn fetch(&mut self, ctx: &mut NodeCtx, at: &Attempt<'_>, layout: &Layout, nv: usize) {
        let (plan, store) = (at.plan, &*self.store);
        let me = plan.me;
        let server_of = |f: usize| -> usize {
            let holders = store.holders_of(&layout.plan.members, f);
            holders
                .iter()
                .copied()
                .find(|h| plan.failed.binary_search(h).is_err())
                .unwrap_or_else(|| {
                    panic!(
                        "rank {me}: unrecoverable — all {} checkpoint holders of \
                         rank {f} failed too",
                        holders.len()
                    )
                })
        };
        let replica = |f: usize| {
            let ck = store.replica_of(f);
            ck.unwrap_or_else(|| panic!("rank {me}: no held replica of rank {f}"))
        };
        // Who sends old rank `r`'s rows: itself, or its serving holder.
        let lost_of = |r: usize| plan.failed.binary_search(&r).ok().map(|i| &plan.lost[i]);
        let from = |r: usize| lost_of(r).map_or(r, |l| server_of(l.rank));
        let senders = layout
            .plan
            .members
            .iter()
            .enumerate()
            .filter(|&(_, &r)| from(r) == me);
        for (slot, &r) in senders {
            let range = layout.part.range(slot);
            let ck = lost_of(r).map_or(&store.own, |_| replica(r));
            for (q, rows) in plan.holders(&range).filter(|&(q, _)| q != me) {
                let data = slice_pack(&ck.data, &range, &rows, nv);
                ctx.send(q, tag(at.seq, OFF_FETCH), data, CommPhase::Recovery);
            }
        }
        let new_range = plan.new_part.range(plan.new_slot());
        let mut fetched = Vec::new();
        for (r, rows) in cut(&layout.part, &layout.plan.members, &new_range) {
            let src = from(r);
            let data = match lost_of(r) {
                _ if src != me => ctx.recv_phase(src, tag(at.seq, OFF_FETCH), CommPhase::Recovery),
                Some(l) => slice_pack(&replica(r).data, &l.range, &rows, nv),
                // Its own rows: the commit reads its own pack.
                None => continue,
            };
            let data = data.into_f64s();
            assert!(
                !data.is_empty(),
                "rank {me}: holder {src} had no checkpoint of rank {r}'s block"
            );
            fetched.push(Fetched { range: rows, data });
        }
        self.fetched = fetched;
    }

    /// Stage 2. Survivors propose their own newest checkpoint's iteration;
    /// replaced ranks (whose store is poisoned) propose +∞. Deposits happen
    /// at the same SPMD boundaries, so the min is a guard more than an
    /// arbiter — and the fetched replicas carry the same epoch (deposit
    /// rounds and failure boundaries never interleave).
    fn agree_on_epoch(&mut self, ctx: &mut NodeCtx, at: &Attempt<'_>) {
        let proposal = if at.plan.am_failed {
            f64::INFINITY
        } else {
            self.store.own.iteration as f64
        };
        let mut g = ctx.group(&at.plan.new_members);
        let agreed = g.allreduce_vec(ctx, ReduceOp::Min, vec![proposal], CommPhase::Recovery);
        self.epoch = agreed[0] as u64;
    }
}

impl Flavor for Rollback<'_> {
    const SPAN: &'static str = "rollback";
    const NAME: &'static str = "cr";
    const STAGES: [&'static str; 3] = ["fetch", "epoch", "idle"];

    /// All checkpoint data of the rank is lost with its dynamic data.
    fn lose(&mut self, _layout: &mut Layout) {
        self.store.poison();
    }

    fn stage(
        &mut self,
        substep: u32,
        ctx: &mut NodeCtx,
        at: &Attempt<'_>,
        layout: &Layout,
        kernel: &mut dyn ResilientKernel,
    ) {
        match substep {
            1 => self.fetch(ctx, at, layout, kernel.shape().pack_slots.len()),
            2 => self.agree_on_epoch(ctx, at),
            // Nothing left to do but hold the last boundary before the
            // state is committed.
            _ => {}
        }
    }

    /// Merge this node's own pack with the fetched packs over its new
    /// range (its own old block when nobody retired) and restore it; on a
    /// shrink, rebuild the layout on the survivors and re-seed the deposit
    /// ring for the new member list — the re-deposit at the rolled-back
    /// iteration refills the replicas.
    fn commit(
        &mut self,
        ctx: &mut NodeCtx,
        at: &Attempt<'_>,
        layout: &mut Layout,
        kernel: &mut dyn ResilientKernel,
    ) -> (usize, Option<u64>) {
        let (plan, epoch) = (at.plan, self.epoch);
        let new_range = plan.new_part.range(plan.new_slot());
        let (nv, ns) = (kernel.shape().pack_slots.len(), kernel.shape().pack_scalars);
        let new_nloc = new_range.len();
        let mut merged = vec![f64::NAN; nv * new_nloc + ns];
        // Each pack gives the rows it shares with the new range.
        let mut put = |range: &Range<usize>, data: &[f64]| {
            let blen = range.len();
            debug_assert_eq!(data.len(), nv * blen + ns);
            let rows = range.start.max(new_range.start)..range.end.min(new_range.end);
            let (src, dst) = (rows.start - range.start, rows.start - new_range.start);
            // A survivor's new range may not meet its old block at all.
            if !rows.is_empty() {
                for v in 0..nv {
                    merged[v * new_nloc + dst..][..rows.len()]
                        .copy_from_slice(&data[v * blen + src..][..rows.len()]);
                }
            }
            // The scalar tail is replicated: identical in every pack of
            // the same epoch.
            merged[nv * new_nloc..].copy_from_slice(&data[nv * blen..]);
        };
        if !plan.am_failed {
            debug_assert_eq!(self.store.own.iteration, epoch);
            put(&plan.my_range, &self.store.own.data);
        }
        for blk in &self.fetched {
            put(&blk.range, &blk.data);
        }
        assert!(
            merged[..nv * new_nloc].iter().all(|v| !v.is_nan()),
            "merged rollback pack does not cover the new range"
        );
        unpack(kernel, &merged, new_nloc);
        if !plan.retired().is_empty() {
            rebuild_layout_after_shrink(ctx, at, layout, kernel);
            self.store.rebuild(&layout.plan.members, layout.my_slot);
        }
        self.store.own = Checkpoint {
            iteration: epoch,
            data: Arc::new(merged),
        };
        (0, Some(epoch))
    }
}

/// The slice over `rows` of a pack over `range`: `nv` vectors, then the
/// scalars.
fn slice_pack(
    pack: &Arc<Vec<f64>>,
    range: &Range<usize>,
    rows: &Range<usize>,
    nv: usize,
) -> Payload {
    if rows == range {
        return Payload::f64s_shared(pack.clone());
    }
    let (blen, off) = (range.len(), rows.start - range.start);
    let mut out = Vec::with_capacity(nv * rows.len() + pack.len() - nv * blen);
    for v in 0..nv {
        out.extend_from_slice(&pack[v * blen + off..][..rows.len()]);
    }
    out.extend_from_slice(&pack[nv * blen..]);
    Payload::f64s(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protection, RecoveryPolicy, SolverConfig};
    use crate::driver::{run_pcg, ExperimentResult, Problem};
    use parcomm::{CostModel, FailureScript};
    use sparsemat::gen::poisson2d;

    fn run_cr(
        problem: &Problem,
        nodes: usize,
        cfg: &SolverConfig,
        cr: &CrConfig,
        script: FailureScript,
    ) -> ExperimentResult {
        let mut cfg = cfg.clone();
        cfg.resilience = cfg
            .resilience
            .map(|res| res.with_protection(Protection::Checkpoint(cr.clone())));
        run_pcg(problem, nodes, &cfg, CostModel::default(), script)
            .expect("valid C/R configuration")
    }

    fn max_err(res: &ExperimentResult) -> f64 {
        res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn failure_free_matches_plain_pcg() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let res = run_cr(
            &problem,
            4,
            &SolverConfig::resilient(1),
            &CrConfig::default(),
            FailureScript::none(),
        );
        assert!(res.converged);
        assert!(max_err(&res) < 1e-6);
        // Steady-state checkpointing cost shows in the stats, on the same
        // phase ESR's redundant copies use.
        let ck = res.stats.elems(parcomm::CommPhase::Redundancy);
        assert!(ck > 0, "checkpoints must be recorded as redundancy traffic");
    }

    #[test]
    fn recovers_from_single_failure_by_rollback() {
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(13, 2, 1, 4);
        let cr = CrConfig::default().with_interval(5).with_copies(1);
        let res = run_cr(&problem, 4, &SolverConfig::resilient(1), &cr, script);
        assert!(res.converged);
        assert_eq!(res.recoveries, 1);
        assert!(max_err(&res) < 1e-6, "err {}", max_err(&res));
        // Rollback repeats work: the iteration counter rewinds, so the
        // repeated iterations show up as extra virtual time, not extra
        // counted iterations.
        let clean = run_cr(
            &problem,
            4,
            &SolverConfig::resilient(1),
            &cr,
            FailureScript::none(),
        );
        assert_eq!(res.iterations, clean.iterations);
        assert!(res.vtime > clean.vtime);
    }

    #[test]
    fn recovers_from_two_failures_with_two_copies() {
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(8, 1, 2, 6);
        let cr = CrConfig::default().with_interval(4).with_copies(2);
        let res = run_cr(&problem, 6, &SolverConfig::resilient(2), &cr, script);
        assert!(res.converged);
        assert_eq!(res.ranks_recovered, 2);
        assert!(max_err(&res) < 1e-6);
    }

    #[test]
    fn holder_loss_is_unrecoverable() {
        // Rank 1 fails together with its only checkpoint holder (d_11 = 2).
        let a = poisson2d(10, 10);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(6, 1, 2, 5); // ranks 1 and 2
        let cr = CrConfig::default().with_interval(3).with_copies(1);
        let result = std::panic::catch_unwind(|| {
            run_cr(&problem, 5, &SolverConfig::resilient(1), &cr, script)
        });
        assert!(result.is_err());
    }

    #[test]
    fn rollback_at_iteration_zero() {
        // The epoch-0 deposit lands before the first failure boundary, so
        // a failure in iteration 0 rolls back to the initial state instead
        // of dying with an empty store.
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let cr = CrConfig::default().with_interval(5).with_copies(1);
        let res = run_cr(
            &problem,
            4,
            &SolverConfig::resilient(1),
            &cr,
            FailureScript::simultaneous(0, 2, 1, 4),
        );
        assert!(res.converged);
        assert_eq!(res.recoveries, 1);
        assert!(max_err(&res) < 1e-6);
    }

    #[test]
    fn interval_longer_than_solve_rolls_back_to_start() {
        // interval ≫ total iterations: the epoch-0 checkpoint is the only
        // one ever taken, and a late failure replays the whole solve.
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let cr = CrConfig::default().with_interval(10_000).with_copies(1);
        let clean = run_cr(
            &problem,
            4,
            &SolverConfig::resilient(1),
            &cr,
            FailureScript::none(),
        );
        let res = run_cr(
            &problem,
            4,
            &SolverConfig::resilient(1),
            &cr,
            FailureScript::simultaneous(9, 1, 1, 4),
        );
        assert!(res.converged);
        assert_eq!(res.recoveries, 1);
        assert_eq!(res.iterations, clean.iterations);
        assert!(max_err(&res) < 1e-6);
        // Rolled all the way back: at least 9 repeated iterations of vtime.
        assert!(res.vtime > 1.5 * clean.vtime);
    }

    #[test]
    fn single_survivor_shrink_rollback() {
        // Four of five ranks fail at once under Shrink; with copies = 4
        // the lone survivor holds a replica of every failed block and
        // adopts the whole domain.
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let cr = CrConfig::default().with_interval(4).with_copies(4);
        let cfg = SolverConfig::resilient_with_policy(4, RecoveryPolicy::Shrink);
        let res = run_cr(
            &problem,
            5,
            &cfg,
            &cr,
            FailureScript::simultaneous(6, 1, 4, 5),
        );
        assert!(res.converged);
        assert_eq!(res.retired_nodes(), 4);
        assert_eq!(res.x.len(), problem.n());
        assert!(max_err(&res) < 1e-6, "err {}", max_err(&res));
    }

    #[test]
    fn spares_pool_runs_dry_then_shrinks() {
        // Spares(1): the first failure claims the only spare, the second
        // finds the pool empty and retires into a shrink — both on the
        // rollback path.
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let cr = CrConfig::default().with_interval(4).with_copies(2);
        let cfg = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Spares(1));
        let script = FailureScript::at_iterations(6, &[(3, 1), (9, 4)]);
        let res = run_cr(&problem, 6, &cfg, &cr, script);
        assert!(res.converged);
        assert_eq!(res.recoveries, 2);
        assert_eq!(res.retired_nodes(), 1);
        assert!(max_err(&res) < 1e-6, "err {}", max_err(&res));
    }

    #[test]
    fn survives_overlapping_failure_during_rollback() {
        // A second failure arriving at any substep boundary of the rollback
        // aborts the attempt and restarts with the enlarged set — the
        // protocol the old standalone C/R baseline never had.
        use parcomm::{FailAt, FailureEvent};
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let cr = CrConfig::default().with_interval(5).with_copies(2);
        for substep in 0..4 {
            let script = FailureScript::new(vec![
                FailureEvent {
                    when: FailAt::Iteration(6),
                    ranks: vec![2],
                },
                FailureEvent {
                    when: FailAt::RecoverySubstep {
                        after_iteration: 6,
                        substep,
                    },
                    ranks: vec![4],
                },
            ]);
            let res = run_cr(&problem, 7, &SolverConfig::resilient(2), &cr, script);
            assert!(res.converged, "substep={substep}");
            assert_eq!(res.ranks_recovered, 2, "substep={substep}");
            assert!(
                max_err(&res) < 1e-6,
                "substep={substep} err {}",
                max_err(&res)
            );
        }
    }
}
