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
//! state ([`crate::engine::pack`]) and deposits [`CrConfig::copies`]
//! replicas on ring partners — the same Eqn. (5) alternating-ring
//! placement ESR uses for redundant copies, so the two flavors are equally
//! failure-decorrelated (the deposit store lives in
//! [`crate::retention::CheckpointStore`], next to ESR's [`Retention`]
//! (crate::retention::Retention) channels). On a failure,
//! [`recover_rollback`] fetches the newest surviving replica of every
//! failed block and **all** ranks roll back to the checkpointed epoch,
//! re-executing the lost iterations.
//!
//! Rollback is a *peer* of the four-substep ESR restart protocol inside
//! the [`RecoveryEngine`](crate::engine::RecoveryEngine): it runs the same
//! attempt loop with per-attempt tag windows, the same overlap substep
//! boundaries (a failure *during* rollback aborts the attempt and restarts
//! with the enlarged failed set — which the old standalone C/R baseline
//! never handled), and the same policy grant/retire/adoption math, so the
//! full {Replace, Spares(k), Shrink} × {PCG, PipeCG, BiCGSTAB} grid works
//! under either protection flavor.
//!
//! Contrast with ESR (same solver, same cluster, same failures):
//!
//! * C/R pays `pack_slots.len()·(n/N)·copies` extra elements every `interval`
//!   iterations whether or not anything fails; ESR pays only the elements
//!   that do not already travel in SpMV (often zero — paper Sec. 5);
//! * after a failure, C/R repeats up to `interval` iterations of work on
//!   the *whole cluster*; ESR reconstructs locally and repeats one SpMV.

use std::ops::Range;

use parcomm::comm::ReduceOp;
use parcomm::{CommPhase, NodeCtx, Payload};
use sparsemat::BlockPartition;

pub use crate::config::CrConfig;
use crate::config::RecoveryPolicy;
use crate::engine::{
    poison, poll_overlap, rebuild_layout_after_shrink, tag, unpack, EngineEnv, EngineOutcome,
    Layout, RecoveryBook, RecoveryReport, RecoveryTimeline, ResilientKernel,
};
use crate::retention::Checkpoint;

/// Tag offset of the rollback replica push inside an attempt's window.
const OFF_FETCH: u32 = 1;

/// One fetched replica at its reconstructor.
struct Fetched {
    /// Global rows of the failed rank's old owned block.
    range: Range<usize>,
    /// The packed state of that block at the rollback epoch.
    data: Vec<f64>,
}

/// The checkpoint-rollback restart path — the engine's second protection
/// flavor, dispatched from [`crate::engine::recover`]. All *active*
/// members call this together at a failure boundary with the same failed
/// set.
///
/// Per attempt: grant/retire under the recovery policy, poison the failed
/// ranks' state and deposit store, push each failed block's newest
/// surviving replica to its reconstructor (substeps 0–1), agree on the
/// rollback epoch over the post-event members (substep 2), then commit
/// (substep 3): everyone restores the epoch's pack — survivors from their
/// own copy, replacements from the fetched data, adopters from their own
/// copy merged with the adopted blocks' replicas — and the node program
/// rewinds its iteration counter to [`RecoveryReport::rollback_to`].
/// Any overlapping failure at a substep boundary aborts the attempt and
/// restarts with the enlarged failed set.
pub(crate) fn recover_rollback(
    ctx: &mut NodeCtx,
    env: &EngineEnv<'_>,
    layout: &mut Layout,
    kernel: &mut dyn ResilientKernel,
    initial_failed: &[usize],
    book: &mut RecoveryBook,
) -> EngineOutcome {
    let RecoveryBook {
        handled_sub: handled,
        recovery_seq,
        pool,
        ckpt,
        ..
    } = book;
    let store = ckpt
        .as_mut()
        .expect("checkpoint protection requires a deposit store");
    let me = ctx.rank();
    ctx.trace_open("rollback", env.iteration);
    let mut timeline = RecoveryTimeline::new(env.iteration, "cr");
    let mut failed = initial_failed.to_vec();
    failed.sort_unstable();
    failed.dedup();
    // The replacement budget at event start — same monotone-retirement
    // snapshot as the ESR flavor (see `engine::recover`).
    let avail = match env.res.policy {
        RecoveryPolicy::Replace => usize::MAX,
        RecoveryPolicy::Spares(_) => pool.remaining(),
        RecoveryPolicy::Shrink => 0,
    };
    let mut attempts = 0usize;

    'attempt: loop {
        attempts += 1;
        let seq = *recovery_seq;
        *recovery_seq += 1;
        ctx.audit_enter_window(seq);
        ctx.trace_open("attempt", seq as u64);
        let mut seg_t = ctx.vtime();
        ctx.trace_open("setup", 0);
        assert!(
            failed.len() < layout.members.len(),
            "all {} active nodes failed — nothing left to roll back to",
            layout.members.len()
        );

        // ---- grant replacements to the lowest-ranked failed nodes ------
        let granted = avail.min(failed.len());
        let replaced: Vec<usize> = failed[..granted].to_vec();
        let retired: Vec<usize> = failed[granted..].to_vec();
        ctx.trace_instant("grant", granted as u64);
        if retired.binary_search(&me).is_ok() {
            ctx.trace_close(); // setup
            ctx.trace_close(); // attempt
            ctx.trace_close(); // rollback
            ctx.audit_exit_window();
            return EngineOutcome::Retired;
        }
        let am_failed = failed.binary_search(&me).is_ok();

        let old_slot = |r: usize| {
            layout
                .members
                .binary_search(&r)
                .expect("failed rank is an active member")
        };
        let new_members: Vec<usize> = layout
            .members
            .iter()
            .copied()
            .filter(|r| retired.binary_search(r).is_err())
            .collect();
        let mut new_starts = Vec::with_capacity(new_members.len() + 1);
        new_starts.push(0);
        for m in new_members.iter().skip(1) {
            new_starts.push(layout.part.range(old_slot(*m)).start);
        }
        new_starts.push(layout.part.n());
        let new_part = BlockPartition::from_starts(new_starts);
        let reconstructor = |f: usize| -> usize {
            if replaced.binary_search(&f).is_ok() {
                f // in-place replacement rolls back its own block
            } else {
                let start = layout.part.range(old_slot(f)).start;
                new_members[new_part.owner_of(start)] // adopter
            }
        };
        let my_range = layout.lm.range.clone();

        if am_failed {
            // The node failure: all dynamic data *and* all checkpoint data
            // of this rank is lost.
            poison(kernel);
            parcomm::fault::poison(&mut layout.ghosts);
            store.poison();
        }

        // ---- substep 0: before any recovery communication --------------
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "setup");
        if poll_overlap(ctx, env.iteration, 0, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("fetch", 0);

        // ---- replica fetch ----------------------------------------------
        // Push each failed block's newest surviving replica to its
        // reconstructor. Deterministic on every node: the serving holder
        // is the first *surviving* holder on the block's ring; FIFO
        // (src, tag) order over the sorted failed set disambiguates
        // multiple blocks pushed to one adopter. A reconstructor that is
        // itself a surviving holder reads its replica locally.
        let server_of = |f: usize, failed: &[usize]| -> usize {
            let holders = store.holders_of(&layout.members, f);
            holders
                .iter()
                .copied()
                .find(|h| failed.binary_search(h).is_err())
                .unwrap_or_else(|| {
                    panic!(
                        "rank {me}: unrecoverable — all {} checkpoint holders of \
                         rank {f} failed too",
                        holders.len()
                    )
                })
        };
        for &f in &failed {
            let rho = reconstructor(f);
            let server = server_of(f, &failed);
            if me == server && server != rho {
                let ck = store
                    .replica_of(f)
                    .unwrap_or_else(|| panic!("rank {me}: no held replica of rank {f}"));
                ctx.send(
                    rho,
                    tag(seq, OFF_FETCH),
                    Payload::f64s_shared(ck.data.clone()),
                    CommPhase::Recovery,
                );
            }
        }
        let mut blocks: Vec<Fetched> = Vec::new();
        for &f in &failed {
            if reconstructor(f) != me {
                continue;
            }
            let server = server_of(f, &failed);
            let data = if server == me {
                store
                    .replica_of(f)
                    .expect("surviving holder keeps the replica")
                    .data
                    .as_ref()
                    .clone()
            } else {
                ctx.recv_phase(server, tag(seq, OFF_FETCH), CommPhase::Recovery)
                    .into_f64s()
            };
            assert!(
                !data.is_empty(),
                "rank {me}: holder {server} had no checkpoint of rank {f}'s block"
            );
            blocks.push(Fetched {
                range: layout.part.range(old_slot(f)),
                data,
            });
        }

        // ---- substep 1: after the replica fetch -------------------------
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "fetch");
        if poll_overlap(ctx, env.iteration, 1, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("epoch", 0);

        // ---- epoch agreement over the post-event members ----------------
        // Survivors propose their own newest checkpoint's iteration;
        // replaced ranks (whose store is poisoned) propose +∞. Deposits
        // happen at the same SPMD boundaries, so the min is a guard more
        // than an arbiter — and the fetched replicas carry the same epoch
        // (deposit rounds and failure boundaries never interleave).
        let mut g = ctx.group(&new_members);
        let epoch = g.allreduce_vec_phase(
            ctx,
            ReduceOp::Min,
            vec![if am_failed {
                f64::INFINITY
            } else {
                store.own.iteration as f64
            }],
            CommPhase::Recovery,
        )[0] as u64;
        drop(g);

        // ---- substep 2: after epoch agreement ---------------------------
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "epoch");
        if poll_overlap(ctx, env.iteration, 2, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("idle", 0);
        // ---- substep 3: last boundary before the state is committed -----
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "idle");
        if poll_overlap(ctx, env.iteration, 3, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("commit", 0);

        // ---- success: commit the spare claim, install the rollback ------
        if matches!(env.res.policy, RecoveryPolicy::Spares(_)) {
            pool.claim(granted);
        }
        let mut report = RecoveryReport {
            total_failed: failed.len(),
            retired_ranks: retired.len(),
            attempts,
            inner_iterations: 0,
            rollback_to: Some(epoch),
            timeline: RecoveryTimeline::default(),
        };

        if retired.is_empty() {
            // Every failed rank got a replacement: the layout is unchanged
            // and every rank rolls back exactly its own block.
            if am_failed {
                debug_assert!(blocks.len() == 1 && blocks[0].range == my_range);
                unpack(kernel, &blocks[0].data, my_range.len());
                store.own = Checkpoint {
                    iteration: epoch,
                    data: std::sync::Arc::new(std::mem::take(&mut blocks[0].data)),
                };
            } else {
                debug_assert_eq!(store.own.iteration, epoch);
                unpack(kernel, &store.own.data, my_range.len());
            }
            ctx.trace_close(); // commit
            timeline.mark(ctx, &mut seg_t, attempts, "commit");
            ctx.trace_close(); // attempt
            ctx.trace_close(); // rollback
            report.timeline = timeline;
            ctx.audit_exit_window();
            return EngineOutcome::Recovered(report);
        }

        // Shrink: merge this node's own pack with the adopted blocks'
        // fetched packs over the widened range, then rebuild the layout on
        // the survivors (without ESR redundancy extras — checkpoint
        // protection deposits replicas instead) and re-seed the deposit
        // ring for the new member list.
        let my_new_slot = new_members
            .binary_search(&me)
            .expect("active non-retired rank is a new member");
        let new_range = new_part.range(my_new_slot);
        let nv = kernel.shape().pack_slots.len();
        let ns = kernel.scalars().len();
        let new_nloc = new_range.len();
        let mut merged = vec![f64::NAN; nv * new_nloc + ns];
        {
            let mut put = |range: &Range<usize>, data: &[f64]| {
                let blen = range.len();
                debug_assert_eq!(data.len(), nv * blen + ns);
                let off = range.start - new_range.start;
                for v in 0..nv {
                    merged[v * new_nloc + off..v * new_nloc + off + blen]
                        .copy_from_slice(&data[v * blen..(v + 1) * blen]);
                }
                // The scalar tail is replicated: identical in every pack
                // of the same epoch.
                merged[nv * new_nloc..].copy_from_slice(&data[nv * blen..]);
            };
            if !am_failed {
                debug_assert_eq!(store.own.iteration, epoch);
                put(&my_range, &store.own.data);
            }
            for blk in &blocks {
                put(&blk.range, &blk.data);
            }
        }
        debug_assert!(
            merged[..nv * new_nloc].iter().all(|v| !v.is_nan()),
            "merged rollback pack does not cover the adopted range"
        );
        unpack(kernel, &merged, new_nloc);
        rebuild_layout_after_shrink(
            ctx,
            env,
            layout,
            kernel,
            new_part,
            new_members,
            /* with_redundancy = */ false,
        );
        store.rebuild(&layout.members, layout.my_slot);
        store.own = Checkpoint {
            iteration: epoch,
            data: std::sync::Arc::new(merged),
        };
        ctx.trace_close(); // commit
        timeline.mark(ctx, &mut seg_t, attempts, "commit");
        ctx.trace_close(); // attempt
        ctx.trace_close(); // rollback
        report.timeline = timeline;
        ctx.audit_exit_window();
        return EngineOutcome::Recovered(report);
    }
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
