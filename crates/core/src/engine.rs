//! The solver-agnostic resilience engine.
//!
//! Before this module existed, the four-substep ESR restart protocol of
//! paper Sec. 4.1 was implemented three separate times — once for blocking
//! PCG (`recovery.rs`), once for pipelined PCG (`pipe_recovery.rs`), and
//! once for the spare-pool/shrink policies (`shrink.rs`) — and BiCGSTAB
//! carried a fourth, overlap-blind copy. One [`RecoveryEngine`] now owns
//! everything a recovery has in common, and a [`ResilientKernel`] describes
//! the one thing that differs per solver: *which vectors are retained and
//! how full iteration state follows from them*.
//!
//! ## Division of labour
//!
//! The **engine** owns:
//!
//! * the attempt loop with per-attempt tag windows, and the four overlap
//!   substep boundaries (any new failure aborts the attempt and restarts
//!   with the enlarged failed set — paper Sec. 4.1);
//! * the recovery **policy** ([`crate::config::RecoveryPolicy`]): in-place
//!   replacement (the paper's unbounded model), spare-pool grants to the
//!   lowest-ranked failed nodes, and survivor **adoption** of uncovered
//!   subdomains with the nearest-preceding-survivor rule, which keeps
//!   ownership contiguous and makes the post-shrink layout a generalized
//!   [`BlockPartition::from_starts`] partition;
//! * routing of replicated scalars and retained redundant copies from the
//!   survivors to each failed block's *reconstructor* (the replacement
//!   node, or the adopting survivor);
//! * the cooperative inner solve of `A_{If,If} x_If = w` over the
//!   reconstructor group (Alg. 2 lines 7–8), generalized to reconstructors
//!   owning several failed blocks at once;
//! * the post-shrink layout rebuild: [`LocalMatrix`], [`ScatterPlan`] and
//!   redundancy targets over the shrunken communicator, preconditioner,
//!   retention channels, and the splice of reconstructed blocks into the
//!   adopters' widened state.
//!
//! The **kernel** (one per solver — `pcg`, `pipecg`, `bicgstab`) *owns* the
//! solver state — vectors in a slot-indexed array shared with
//! [`ReconBlock::vecs`], scalars in a second one — and declares:
//!
//! * which `(channel, generation)` retained copies the reconstruction
//!   reads;
//! * its [`KernelShape`]: which slots are per-block vectors, which are
//!   checkpoint-packed and in which order, which scalars a replacement is
//!   re-sent;
//! * how the locally derivable part of a failed block follows from the
//!   copies (e.g. PCG's `z = p(j) − β p(j−1)`, `r = M z`);
//! * which auxiliary vectors need distributed `A`-products to rebuild
//!   (pipelined PCG's `w = Au, s = Ap, q = M⁻¹s, z = Aq`; BiCGSTAB's
//!   `v = A p̂`, `r = s + α v`), expressed through [`EngineComm`].
//!
//! Poisoning a failed node, packing/unpacking a checkpoint, installing a
//! rebuilt block and splicing/resizing state after a layout change are
//! engine-side functions over those two arrays and the shape
//! ([`poison`], [`pack`], [`unpack`]) — no solver spells them out.
//!
//! Retirement is monotone across restart attempts: the spare budget is
//! snapshotted at event start and always granted to the lowest-ranked
//! failed nodes, and the failed set only grows, so a rank that retired can
//! never be resurrected by a later attempt.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::request::AllreduceRequest;
use parcomm::{CommPhase, FailAt, Group, NodeCtx, Payload, SparePool};
use precond::{Ilu0, SparseLdl};
use sparsemat::vecops::{axpy, dot, xpay};
use sparsemat::{BlockPartition, Csr};

use crate::config::{
    PrecondConfig, Protection, RecoveryConfig, RecoveryPolicy, ResilienceConfig, SolverConfig,
};
use crate::localmat::LocalMatrix;
use crate::precsetup::NodePrecond;
use crate::redundancy;
use crate::retention::{CheckpointStore, Gen, Retention};
use crate::scatter::ScatterPlan;
use crate::statics::StaticData;

// Recovery tag bases; each attempt gets its own tag window so messages
// from an aborted attempt can never be confused with a later one. The
// same sequence counter numbers checkpoint-deposit rounds and rollback
// attempts (`checkpoint`/`retention`), so every window — ESR attempt,
// deposit, rollback attempt — is globally unique.
const TAG_STRIDE: u32 = 32;
const TAG_BASE: u32 = 1 << 16;
const OFF_SCALARS: u32 = 0;
const OFF_COPIES: u32 = 1; // one offset per channel read, up to OFF_DYNAMIC
const OFF_DYNAMIC: u32 = 10; // request/response pairs allocated per gather

pub(crate) fn tag(seq: u32, off: u32) -> u32 {
    debug_assert!(off < TAG_STRIDE);
    TAG_BASE + seq * TAG_STRIDE + off
}

/// The distributed layout a node program runs on. On the full cluster the
/// members are `0..N` and collectives go through the world communicator;
/// after a shrink they go through the surviving members' [`Group`].
pub(crate) struct Layout {
    /// One contiguous block per member, in member order.
    pub part: BlockPartition,
    /// This node's block rows of `A` (shared static data).
    pub lm: Arc<LocalMatrix>,
    /// Ghost-exchange + redundancy plan on the current layout.
    pub plan: ScatterPlan,
    /// Redundant-copy stores on the current layout — one per vector the
    /// solver scatters copies of (PCG: `p`; pipelined: `u`, `p`;
    /// BiCGSTAB: `p̂`, `ŝ`).
    pub channels: Vec<Retention>,
    /// Preconditioner state on the current layout.
    pub prec: NodePrecond,
    /// Ghost values of the most recently scattered vector (one per ghost
    /// column of `lm`).
    pub ghosts: Vec<f64>,
    /// Sorted global ranks of the active members.
    pub members: Vec<usize>,
    /// This node's slot (`members[my_slot] == rank`).
    pub my_slot: usize,
    /// The shrunken communicator (`None` while the full cluster is alive).
    pub group: Option<Group>,
}

impl Layout {
    /// Build the full-cluster layout: local rows, scatter plan,
    /// preconditioner and — under ESR protection only — the redundancy
    /// extras and the solver's `n_channels` retention stores
    /// (checkpoint protection pays its deposit traffic instead, and an
    /// unprotected solve retains nothing). Collective — all nodes call
    /// together at setup.
    pub fn build_full(
        ctx: &mut NodeCtx,
        statics: &StaticData,
        cfg: &SolverConfig,
        n_channels: usize,
    ) -> Self {
        let rank = ctx.rank();
        let part = BlockPartition::new(statics.matrix().n_rows(), ctx.size());
        let lm = statics.block(&part.range(rank));
        let mut plan = ScatterPlan::build(ctx, &lm, &part);
        let esr = cfg.resilience.as_ref().filter(|res| res.is_esr());
        if let Some(res) = esr {
            plan.send_extra = redundancy::compute_extra_sends(
                rank,
                ctx.size(),
                res.phi,
                &res.strategy,
                lm.n_local(),
                &plan.send_natural,
            );
            plan.announce_extras(ctx);
        }
        let channels = (0..if esr.is_some() { n_channels } else { 0 })
            .map(|_| Retention::build(&plan, &lm.ghost_cols))
            .collect();
        let prec = NodePrecond::setup(ctx, &cfg.precond, &part, statics, &lm)
            .unwrap_or_else(|e| panic!("rank {rank}: preconditioner setup failed: {e}"));
        Layout {
            part,
            ghosts: vec![0.0; lm.ghost_cols.len()],
            lm,
            plan,
            channels,
            prec,
            members: (0..ctx.size()).collect(),
            my_slot: rank,
            group: None,
        }
    }

    /// The SpMV scatter of `v_loc` into [`Layout::ghosts`]. Under ESR
    /// protection (the layout carries retention channels) the exchange
    /// also distributes the redundant copies and retains what it receives
    /// in `channel`, rotating that channel's generations — on every
    /// scatter of a new vector and identically on a post-recovery
    /// re-scatter, which thereby restores lost redundancy.
    pub fn scatter(&mut self, ctx: &mut NodeCtx, v_loc: &[f64], channel: usize) {
        match self.channels.get_mut(channel) {
            Some(ch) => {
                ch.rotate();
                self.plan
                    .exchange(ctx, v_loc, &mut self.ghosts, Some(&mut *ch));
                ch.finish_generation();
            }
            None => self.plan.exchange(ctx, v_loc, &mut self.ghosts, None),
        }
    }

    /// Element-wise all-reduce over the active members, charged to the
    /// Reduction phase. Bitwise-deterministic either way (same
    /// recursive-doubling schedule over member indices).
    pub fn allreduce_vec(&mut self, ctx: &mut NodeCtx, opr: ReduceOp, x: Vec<f64>) -> Vec<f64> {
        match &mut self.group {
            None => ctx.allreduce_vec(opr, x),
            Some(g) => g.allreduce_vec_phase(ctx, opr, x, CommPhase::Reduction),
        }
    }

    /// Scalar sum all-reduce over the active members.
    pub fn allreduce_sum(&mut self, ctx: &mut NodeCtx, x: f64) -> f64 {
        self.allreduce_vec(ctx, ReduceOp::Sum, vec![x])[0]
    }

    /// Non-blocking element-wise all-reduce over the active members: the
    /// communication-hiding solvers keep their overlap on a shrunken
    /// cluster (the group variant replays the identical schedule, so the
    /// result stays bitwise-deterministic).
    pub fn iallreduce_vec(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
    ) -> AllreduceRequest {
        match &mut self.group {
            None => ctx.iallreduce_vec(opr, x),
            Some(g) => g.iallreduce_vec_phase(ctx, opr, x, CommPhase::Reduction),
        }
    }

    /// Filter a world failure notification down to the active members:
    /// events naming ranks that already retired in an earlier shrink are
    /// inert — that hardware is gone and has nothing left to lose.
    pub fn poll_member_failures(&self, ctx: &NodeCtx, boundary: FailAt) -> Vec<usize> {
        ctx.poll_failures(boundary)
            .into_iter()
            .filter(|f| self.members.binary_search(f).is_ok())
            .collect()
    }
}

/// One timed segment of a recovery attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct SubstepTiming {
    /// Attempt number within the event (1-based; > 1 iff overlapping
    /// failures forced a restart).
    pub attempt: usize,
    /// Substep label — ESR: `setup`/`gather`/`rebuild`/`xsolve`/`commit`;
    /// checkpoint rollback: `setup`/`fetch`/`epoch`/`idle`/`commit`.
    pub label: &'static str,
    /// Virtual time this node spent in the segment.
    pub vtime: f64,
}

/// Per-substep virtual-time breakdown of one recovery event on this node,
/// across every attempt (aborted attempts included). Built from clock
/// *reads* at the substep boundaries — recording it never advances the
/// clock, so enabling it cannot perturb the experiments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryTimeline {
    /// The iteration whose boundary detected the failure.
    pub iteration: u64,
    /// `"esr"` (reconstruction) or `"cr"` (checkpoint rollback).
    pub flavor: &'static str,
    /// Timed segments in execution order.
    pub segments: Vec<SubstepTiming>,
}

impl RecoveryTimeline {
    pub(crate) fn new(iteration: u64, flavor: &'static str) -> Self {
        RecoveryTimeline {
            iteration,
            flavor,
            segments: Vec::new(),
        }
    }

    /// Close the segment running since `*seg_t` under `label` and restart
    /// the segment clock.
    pub(crate) fn mark(
        &mut self,
        ctx: &NodeCtx,
        seg_t: &mut f64,
        attempt: usize,
        label: &'static str,
    ) {
        let now = ctx.vtime();
        self.segments.push(SubstepTiming {
            attempt,
            label,
            vtime: now - *seg_t,
        });
        *seg_t = now;
    }

    /// Total virtual time across all segments.
    pub fn total_vtime(&self) -> f64 {
        self.segments.iter().map(|s| s.vtime).sum()
    }
}

/// Outcome of one recovery event.
#[derive(Clone, Debug)]
#[must_use = "a recovery report carries attempt/retirement counts the caller must fold into its own accounting"]
pub struct RecoveryReport {
    /// Total distinct ranks reconstructed (≥ the initial set if
    /// overlapping failures occurred).
    pub total_failed: usize,
    /// Ranks that left the cluster (no replacement; subdomains adopted).
    /// `> 0` means the layout shrank — including the preconditioner, whose
    /// blocks merged; solvers whose recurrences carry `M`-dependent
    /// auxiliary vectors must re-derive them (see `pipecg`).
    pub retired_ranks: usize,
    /// Reconstruction attempts (> 1 iff overlapping failures).
    pub attempts: usize,
    /// Inner-solver iterations of the final attempt's distributed systems.
    pub inner_iterations: usize,
    /// `Some(epoch)` when the recovery was a checkpoint rollback
    /// ([`crate::config::Protection::Checkpoint`]): *all* ranks restored
    /// the state saved at iteration `epoch` and the node program must
    /// rewind its iteration counter there. `None` for ESR — survivors
    /// keep their iterates and nothing is re-executed.
    pub rollback_to: Option<u64>,
    /// Per-substep virtual-time timeline of the event on this node.
    pub timeline: RecoveryTimeline,
}

/// How a recovery ended for this node.
pub(crate) enum EngineOutcome {
    /// Recovery complete; the layout may have shrunk.
    Recovered(RecoveryReport),
    /// This node failed with no replacement available: it leaves the
    /// cluster (its subdomain was adopted by a survivor).
    Retired,
}

/// Static context of one recovery event.
pub(crate) struct EngineEnv<'a> {
    /// The system matrix and what is derived from it (static data,
    /// reliable storage).
    pub statics: &'a StaticData,
    /// Full right-hand side (static data; adopters read adopted rows).
    pub b: &'a [f64],
    /// Resilience configuration (φ, strategy, inner solver, policy).
    pub res: &'a ResilienceConfig,
    /// Preconditioner configuration (per-block reconstruction + rebuild).
    pub precond: &'a PrecondConfig,
    /// The iteration whose boundary detected the failure.
    pub iteration: u64,
    /// `false` at iteration 0 (no previous search direction exists yet).
    pub has_prev: bool,
}

/// One `(channel, generation)` retained-copy read the engine routes from
/// the survivors to each failed block's reconstructor.
pub(crate) struct ChannelRead {
    /// Index into [`Layout::channels`].
    pub channel: usize,
    /// Which generation to read.
    pub generation: Gen,
    /// Panic on a coverage gap (`true`) or hand the kernel `None` (reads
    /// that legitimately may not exist yet, e.g. `p(j-1)` at iteration 0).
    pub required: bool,
    /// What the copies are, for diagnostics.
    pub what: &'static str,
}

/// One failed block at its reconstructor. The engine carries
/// [`KernelShape::n_block_vecs`] per-block vectors, indexed by the same
/// slot constants as the kernel's own [`ResilientKernel::vecs`]; the engine
/// itself only touches the declared `r` slot (read, for the x right-hand
/// side) and `x` slot (written by the solve).
pub(crate) struct ReconBlock {
    /// Global rows of the block (one failed rank's old owned range).
    pub range: Range<usize>,
    /// Kernel-defined per-block vectors.
    pub vecs: Vec<Vec<f64>>,
}

/// The tables that let the engine handle a kernel's state generically.
/// Indices are into [`ResilientKernel::vecs`] / [`ResilientKernel::scalars`].
pub(crate) struct KernelShape {
    /// Slots `0..n_block_vecs` are the per-block vectors: lost with a
    /// node, rebuilt per failed block, installed or spliced back. A later
    /// slot that is not packed either carries no state across a recovery —
    /// scratch, re-zeroed at the new block length.
    pub n_block_vecs: usize,
    /// Slot of the residual `r` (the engine reads the reconstructed one
    /// when forming `w = b_If − r_If − A_{If,I\If} x_{I\If}`).
    pub r_slot: usize,
    /// Slot of the iterate `x` (survivors serve it to the x gather; the
    /// engine writes the reconstructed one).
    pub x_slot: usize,
    /// The checkpoint pack's vector slots **in wire order** — deposit
    /// sizes feed virtual time and the redundancy-traffic counters. The
    /// pack is these vectors concatenated, then every scalar.
    pub pack_slots: &'static [usize],
    /// The replicated scalars a replacement node must be re-sent (the rest
    /// are recomputed by the restarted iteration).
    pub resent_scalars: &'static [usize],
}

/// What a solver must describe for the [`RecoveryEngine`] to reconstruct
/// it. The implementor owns the live solver state; the engine sees it as
/// two slot-indexed arrays plus the [`KernelShape`] tables, and calls back
/// only for the solver-specific reconstruction maps.
pub(crate) trait ResilientKernel {
    /// The state-layout tables.
    fn shape(&self) -> &'static KernelShape;
    /// Every owned-block-length vector of the solver, by slot.
    fn vecs(&self) -> &[Vec<f64>];
    /// Mutable view of [`ResilientKernel::vecs`].
    fn vecs_mut(&mut self) -> &mut [Vec<f64>];
    /// Every replicated scalar of the solver, in checkpoint-pack order.
    fn scalars(&self) -> &[f64];
    /// Mutable view of [`ResilientKernel::scalars`].
    fn scalars_mut(&mut self) -> &mut [f64];
    /// The copy reads recovery needs at this boundary.
    fn channel_reads(&self, has_prev: bool) -> Vec<ChannelRead>;
    /// Rebuild the locally derivable part of one failed block from the
    /// assembled copies (`copies[i]` answers `channel_reads()[i]`; reads
    /// marked `required` are always `Some`). Local math only.
    fn rebuild_local(
        &mut self,
        ctx: &mut NodeCtx,
        shared: &EngineShared<'_>,
        blk: &mut ReconBlock,
        copies: Vec<Option<Vec<f64>>>,
    );
    /// Rebuild the block vectors that need distributed `A`-products, via
    /// [`EngineComm`]. Called by **all** active nodes together (survivors
    /// serve value requests inside the comm helpers); `blocks` is empty on
    /// a node that reconstructs nothing. Default: nothing to rebuild.
    fn rebuild_distributed(
        &mut self,
        ctx: &mut NodeCtx,
        shared: &EngineShared<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        let _ = (ctx, shared, comm, blocks);
    }
    /// Splice surviving values and reconstructed blocks into the adopted
    /// (possibly widened) range after a shrink. `own` is this node's old
    /// owned range, `None` if the node was itself replaced in a mixed
    /// event (its old values are poisoned; its block is in `blocks`).
    /// Default: every block slot; a kernel overrides it to also re-cut
    /// static data it keeps over the owned range from `b`.
    fn splice(
        &mut self,
        new_range: &Range<usize>,
        own: Option<&Range<usize>>,
        blocks: &[ReconBlock],
        b: &[f64],
    ) {
        let _ = b;
        let n = self.shape().n_block_vecs;
        splice_slots(&mut self.vecs_mut()[..n], new_range, own, blocks);
    }
}

/// The node failure: every per-block vector and every scalar of this node
/// is destroyed (NaN poison; ghosts, retention channels and the deposit
/// store are poisoned by the caller). Scratch is overwritten before it is
/// read, and static data survives on reliable storage (paper Sec. 1.1.2).
pub(crate) fn poison(kernel: &mut dyn ResilientKernel) {
    let n = kernel.shape().n_block_vecs;
    for v in &mut kernel.vecs_mut()[..n] {
        parcomm::fault::poison(v);
    }
    kernel.scalars_mut().fill(f64::NAN);
}

/// Pack the loop-top state a rolled-back iteration resumes from: the
/// [`KernelShape::pack_slots`] vectors concatenated, then the scalars.
pub(crate) fn pack(kernel: &dyn ResilientKernel) -> Vec<f64> {
    let (vecs, slots, scalars) = (kernel.vecs(), kernel.shape().pack_slots, kernel.scalars());
    let mut data = Vec::with_capacity(slots.len() * vecs[slots[0]].len() + scalars.len());
    for &slot in slots {
        data.extend_from_slice(&vecs[slot]);
    }
    data.extend_from_slice(scalars);
    data
}

/// Restore the state over a block of `nloc` rows from a [`pack`] (after a
/// shrink: merged across the adopted blocks, so `nloc` may exceed the
/// packing block's length). Every vector that is not packed restarts
/// zeroed at the new length — the restarted iteration recomputes it.
pub(crate) fn unpack(kernel: &mut dyn ResilientKernel, data: &[f64], nloc: usize) {
    let slots = kernel.shape().pack_slots;
    for (slot, v) in kernel.vecs_mut().iter_mut().enumerate() {
        *v = match slots.iter().position(|&s| s == slot) {
            Some(i) => data[i * nloc..(i + 1) * nloc].to_vec(),
            None => vec![0.0; nloc],
        };
    }
    kernel
        .scalars_mut()
        .copy_from_slice(&data[slots.len() * nloc..]);
}

/// The per-solve recovery bookkeeping: what the engine threads through
/// every event (tag-window sequence, handled substep boundaries, spare
/// pool, deposit store) and what the node loop reports at the end.
pub(crate) struct RecoveryBook {
    /// Substep boundaries `(iteration, substep)` already polled.
    pub handled_sub: HashSet<(u64, u32)>,
    /// Next tag window: numbers ESR attempts, deposit rounds and rollback
    /// attempts alike.
    pub recovery_seq: u32,
    /// This node's view of the cluster's hot-spare pool.
    pub pool: SparePool,
    /// The deposit store under [`Protection::Checkpoint`].
    pub ckpt: Option<CheckpointStore>,
    /// Completed recovery events.
    pub recoveries: usize,
    /// Ranks reconstructed across all events.
    pub ranks_recovered: usize,
    /// Virtual time spent recovering.
    pub vtime_recovery: f64,
    /// Per-substep timeline of every completed event.
    pub timelines: Vec<RecoveryTimeline>,
}

impl RecoveryBook {
    /// Fresh bookkeeping at solve start.
    pub fn new(pool: SparePool, ckpt: Option<CheckpointStore>) -> Self {
        RecoveryBook {
            handled_sub: HashSet::new(),
            recovery_seq: 0,
            pool,
            ckpt,
            recoveries: 0,
            ranks_recovered: 0,
            vtime_recovery: 0.0,
            timelines: Vec::new(),
        }
    }
}

/// Static per-attempt context shared with kernel callbacks.
pub(crate) struct EngineShared<'a> {
    /// Full system matrix.
    pub a: &'a Csr,
    /// Its per-range blocks and factors.
    pub statics: &'a StaticData,
    /// Preconditioner configuration (block reconstruction operators).
    pub precond: &'a PrecondConfig,
    /// `false` at iteration 0.
    pub has_prev: bool,
}

/// The engine's namespace for the entry point (the protocol itself lives
/// in [`recover`]; kernels and the communication helpers around it).
pub struct RecoveryEngine;

/// Run the unified recovery protocol. All *active* members call this
/// together at a failure boundary with the same failed set (already
/// filtered to active members — ULFM-consistent notification).
///
/// Dispatches on the configured protection flavor: ESR reconstruction
/// (below) or checkpoint rollback ([`crate::checkpoint::recover_rollback`]
/// — `book.ckpt` then carries the node's deposit store). Both flavors
/// share the attempt loop with per-attempt tag windows, the overlap
/// substep boundaries, and the policy grant/retire/adoption math.
pub(crate) fn recover(
    ctx: &mut NodeCtx,
    env: &EngineEnv<'_>,
    layout: &mut Layout,
    kernel: &mut dyn ResilientKernel,
    initial_failed: &[usize],
    book: &mut RecoveryBook,
) -> EngineOutcome {
    if let Protection::Checkpoint(_) = &env.res.protection {
        return crate::checkpoint::recover_rollback(ctx, env, layout, kernel, initial_failed, book);
    }
    let RecoveryBook {
        handled_sub: handled,
        recovery_seq,
        pool,
        ..
    } = book;
    let me = ctx.rank();
    ctx.trace_open("recovery", env.iteration);
    let mut timeline = RecoveryTimeline::new(env.iteration, "esr");
    let mut failed = initial_failed.to_vec();
    failed.sort_unstable();
    failed.dedup();
    // The replacement budget at event start: Replace models ULFM's
    // unbounded replacement capacity, Spares grants from the finite pool
    // snapshot (every attempt of this event grants from the same budget,
    // so restarts with an enlarged failed set remain SPMD-consistent; the
    // definitive claim happens once, on success), Shrink grants nothing.
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
        // Declare this attempt's tag window to the protocol auditor: all
        // recovery traffic issued from here until the matching exit belongs
        // to attempt `seq`, and must never match a receive posted under a
        // different attempt (no-op without the `audit` feature).
        ctx.audit_enter_window(seq);
        ctx.trace_open("attempt", seq as u64);
        let mut seg_t = ctx.vtime();
        ctx.trace_open("setup", 0);
        assert!(
            failed.len() < layout.members.len(),
            "all {} active nodes failed — nothing left to recover from",
            layout.members.len()
        );

        // ---- grant replacements to the lowest-ranked failed nodes ------
        let granted = avail.min(failed.len());
        let replaced: Vec<usize> = failed[..granted].to_vec();
        let retired: Vec<usize> = failed[granted..].to_vec();
        ctx.trace_instant("grant", granted as u64);
        if retired.binary_search(&me).is_ok() {
            // No replacement for this node: it is gone. Its subdomain is
            // adopted by a survivor; the thread leaves the cluster.
            ctx.trace_close(); // setup
            ctx.trace_close(); // attempt
            ctx.trace_close(); // recovery
            ctx.audit_exit_window();
            return EngineOutcome::Retired;
        }
        let am_failed = failed.binary_search(&me).is_ok(); // ⇒ replaced
        let am_survivor = !am_failed;

        let old_slot = |r: usize| {
            layout
                .members
                .binary_search(&r)
                .expect("failed rank is an active member")
        };
        let survivors: Vec<usize> = layout
            .members
            .iter()
            .copied()
            .filter(|r| failed.binary_search(r).is_err())
            .collect();
        let new_members: Vec<usize> = layout
            .members
            .iter()
            .copied()
            .filter(|r| retired.binary_search(r).is_err())
            .collect();
        // The post-event partition: boundaries are the old block starts of
        // the remaining members (the first pulled to row 0), which *is*
        // the nearest-preceding-survivor adoption rule. With no
        // retirements this reproduces the old partition exactly.
        let mut new_starts = Vec::with_capacity(new_members.len() + 1);
        new_starts.push(0);
        for m in new_members.iter().skip(1) {
            new_starts.push(layout.part.range(old_slot(*m)).start);
        }
        new_starts.push(layout.part.n());
        let new_part = BlockPartition::from_starts(new_starts);
        let reconstructor = |f: usize| -> usize {
            if replaced.binary_search(&f).is_ok() {
                f // in-place replacement
            } else {
                let start = layout.part.range(old_slot(f)).start;
                new_members[new_part.owner_of(start)] // adopter
            }
        };
        let mut reconstructors: Vec<usize> = failed.iter().map(|&f| reconstructor(f)).collect();
        reconstructors.sort_unstable();
        reconstructors.dedup();
        let if_indices: Vec<usize> = failed
            .iter()
            .flat_map(|&f| layout.part.range(old_slot(f)))
            .collect();
        debug_assert!(if_indices.windows(2).all(|w| w[0] < w[1]));
        let my_range = layout.lm.range.clone();
        let a: &Csr = env.statics.matrix();
        let shared = EngineShared {
            a,
            statics: env.statics,
            precond: env.precond,
            has_prev: env.has_prev,
        };

        if am_failed {
            // The node failure: all dynamic data of this rank is lost.
            poison(kernel);
            parcomm::fault::poison(&mut layout.ghosts);
            for ch in &mut layout.channels {
                ch.poison();
            }
        }

        // ---- substep 0: before any recovery communication --------------
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "setup");
        if poll_overlap(ctx, env.iteration, 0, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("gather", 0);

        // ---- replicated scalars → the replaced ranks -------------------
        // Adopters are survivors and already hold them; replaced ranks
        // lost theirs to poisoning and receive them from the lowest
        // survivor.
        let lowest_surv = survivors[0];
        let resent = kernel.shape().resent_scalars;
        if me == lowest_surv {
            let sc: Vec<f64> = resent.iter().map(|&i| kernel.scalars()[i]).collect();
            for &f in &replaced {
                ctx.send(
                    f,
                    tag(seq, OFF_SCALARS),
                    Payload::f64s(sc.clone()),
                    CommPhase::Recovery,
                );
            }
        } else if am_failed {
            let sc = ctx
                .recv_phase(lowest_surv, tag(seq, OFF_SCALARS), CommPhase::Recovery)
                .into_f64s();
            for (&i, v) in resent.iter().zip(sc) {
                kernel.scalars_mut()[i] = v;
            }
        }

        // ---- retained copies → reconstructors --------------------------
        // Every survivor sends, per failed block in sorted order and per
        // channel read, its retained pairs in that block's range to the
        // block's reconstructor; FIFO (src, tag) ordering disambiguates
        // multiple blocks bound for the same reconstructor.
        let reads = kernel.channel_reads(env.has_prev);
        assert!(
            reads.len() as u32 <= OFF_DYNAMIC - OFF_COPIES,
            "kernel declares more channel reads than the tag window holds"
        );
        if am_survivor {
            for &f in &failed {
                let rho = reconstructor(f);
                if rho == me {
                    continue; // used locally during assembly below
                }
                let br = layout.part.range(old_slot(f));
                for (ri, rd) in reads.iter().enumerate() {
                    ctx.send(
                        rho,
                        tag(seq, OFF_COPIES + ri as u32),
                        Payload::pairs(layout.channels[rd.channel].collect_range(
                            rd.generation,
                            br.start,
                            br.end,
                        )),
                        CommPhase::Recovery,
                    );
                }
            }
        }
        let mut blocks: Vec<ReconBlock> = Vec::new();
        for &f in &failed {
            if reconstructor(f) != me {
                continue;
            }
            let br = layout.part.range(old_slot(f));
            let mut copies: Vec<Option<Vec<f64>>> = Vec::with_capacity(reads.len());
            for (ri, rd) in reads.iter().enumerate() {
                let own = if am_survivor {
                    layout.channels[rd.channel].collect_range(rd.generation, br.start, br.end)
                } else {
                    Vec::new()
                };
                copies.push(assemble_range(
                    ctx,
                    &survivors,
                    me,
                    own,
                    &br,
                    tag(seq, OFF_COPIES + ri as u32),
                    rd.what,
                    rd.required,
                ));
            }
            let mut blk = ReconBlock {
                range: br,
                vecs: vec![Vec::new(); kernel.shape().n_block_vecs],
            };
            kernel.rebuild_local(ctx, &shared, &mut blk, copies);
            blocks.push(blk);
        }

        // ---- substep 1: after copy gathering ---------------------------
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "gather");
        if poll_overlap(ctx, env.iteration, 1, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("rebuild", 0);

        // ---- kernel-specific distributed rebuilds ----------------------
        let mut comm = EngineComm {
            seq,
            next_off: OFF_DYNAMIC,
            part: &layout.part,
            members: &layout.members,
            my_range: my_range.clone(),
            failed: failed.clone(),
            survivors: &survivors,
            reconstructors: &reconstructors,
            if_indices: &if_indices,
            me,
            am_survivor,
            rcfg: &env.res.recovery,
            group: None,
            inner_iterations: 0,
        };
        kernel.rebuild_distributed(ctx, &shared, &mut comm, &mut blocks);

        // ---- substep 2: after the auxiliary rebuilds -------------------
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "rebuild");
        if poll_overlap(ctx, env.iteration, 2, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("xsolve", 0);

        // ---- x reconstruction (Alg. 2 lines 7–8) -----------------------
        // Reconstructors gather the surviving x values their failed rows
        // couple to, form `w = b_If − r_If − A_{If,I\If} x_{I\If}`, and
        // solve `A_{If,If} x_If = w` cooperatively over the group.
        let &KernelShape { r_slot, x_slot, .. } = kernel.shape();
        let lookup = comm.gather_outside(ctx, a, &blocks, &kernel.vecs()[x_slot]);
        if !blocks.is_empty() {
            let lookup = lookup.expect("reconstructors obtain the x lookup");
            let mut rows: Vec<usize> = Vec::new();
            let mut rhs: Vec<f64> = Vec::new();
            for blk in &blocks {
                let mut flops = 0usize;
                for (i, gr) in blk.range.clone().enumerate() {
                    let (cols, vals) = a.row(gr);
                    let mut s = 0.0;
                    for (c, v) in cols.iter().zip(vals) {
                        let c = *c as usize;
                        if if_indices.binary_search(&c).is_err() {
                            let pos = lookup
                                .binary_search_by_key(&c, |e| e.0)
                                .expect("gathered every surviving coupled x");
                            s += v * lookup[pos].1;
                        }
                    }
                    flops += 2 * cols.len();
                    rhs.push(env.b[gr] - blk.vecs[r_slot][i] - s);
                }
                ctx.clock_mut().advance_flops(flops + 2 * blk.range.len());
                rows.extend(blk.range.clone());
            }
            debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
            let x_new = comm.solve_if_system(ctx, a, Some(env.statics), &rows, rhs);
            let mut off = 0usize;
            for blk in &mut blocks {
                blk.vecs[x_slot] = x_new[off..off + blk.range.len()].to_vec();
                off += blk.range.len();
            }
        }
        let inner_iterations = comm.inner_iterations;
        drop(comm);

        // ---- substep 3: failures during the x solve --------------------
        ctx.trace_close();
        timeline.mark(ctx, &mut seg_t, attempts, "xsolve");
        if poll_overlap(ctx, env.iteration, 3, handled, &mut failed, &layout.members) {
            ctx.trace_instant("overlap_restart", failed.len() as u64);
            ctx.trace_close(); // attempt
            continue 'attempt;
        }
        ctx.trace_open("commit", 0);

        // ---- success: commit the spare claim, apply the new layout -----
        if matches!(env.res.policy, RecoveryPolicy::Spares(_)) {
            pool.claim(granted);
        }
        let mut report = RecoveryReport {
            total_failed: failed.len(),
            retired_ranks: retired.len(),
            attempts,
            inner_iterations,
            rollback_to: None,
            timeline: RecoveryTimeline::default(),
        };

        if retired.is_empty() {
            // Every failed rank got a replacement: pure in-place rebuild.
            if am_failed {
                debug_assert!(blocks.len() == 1 && blocks[0].range == my_range);
                for (v, rebuilt) in kernel.vecs_mut().iter_mut().zip(&blocks[0].vecs) {
                    v.copy_from_slice(rebuilt);
                }
                // ghosts/retention refill on the restarted iteration's
                // re-scatter.
            }
            ctx.trace_close(); // commit
            timeline.mark(ctx, &mut seg_t, attempts, "commit");
            ctx.trace_close(); // attempt
            ctx.trace_close(); // recovery
            report.timeline = timeline;
            ctx.audit_exit_window();
            return EngineOutcome::Recovered(report);
        }

        // Shrink: splice own surviving values and reconstructed blocks
        // into the adopted (wider) range, then rebuild every piece of
        // distributed state on the new layout.
        let my_new_slot = new_members
            .binary_search(&me)
            .expect("active non-retired rank is a new member");
        let new_range = new_part.range(my_new_slot);
        let own = if am_failed { None } else { Some(&my_range) };
        kernel.splice(&new_range, own, &blocks, env.b);
        rebuild_layout_after_shrink(ctx, env, layout, kernel, new_part, new_members, true);
        ctx.trace_close(); // commit
        timeline.mark(ctx, &mut seg_t, attempts, "commit");
        ctx.trace_close(); // attempt
        ctx.trace_close(); // recovery
        report.timeline = timeline;
        ctx.audit_exit_window();
        return EngineOutcome::Recovered(report);
    }
}

/// Rebuild every piece of distributed state on the shrunken layout:
/// [`LocalMatrix`], preconditioner, the survivors' [`Group`], the scatter
/// plan (with re-derived redundancy extras when `with_redundancy` — the
/// ESR flavor; checkpoint protection deposits replicas instead), retention
/// channels, the ghost buffer, and the kernel's scratch vectors. Collective
/// over `new_members`; the caller has already installed the solver state
/// over the new ranges (ESR: `splice`; rollback: `unpack`).
pub(crate) fn rebuild_layout_after_shrink(
    ctx: &mut NodeCtx,
    env: &EngineEnv<'_>,
    layout: &mut Layout,
    kernel: &mut dyn ResilientKernel,
    new_part: BlockPartition,
    new_members: Vec<usize>,
    with_redundancy: bool,
) {
    let me = ctx.rank();
    let my_new_slot = new_members
        .binary_search(&me)
        .expect("active non-retired rank is a new member");
    let lm = env.statics.block(&new_part.range(my_new_slot));
    // Coarse cost of re-extracting the adopted static rows.
    ctx.clock_mut()
        .advance_flops(lm.diag.nnz() + lm.offdiag.nnz());
    let prec = NodePrecond::setup(ctx, env.precond, &new_part, env.statics, &lm)
        .unwrap_or_else(|e| panic!("rank {me}: preconditioner rebuild after shrink: {e}"));
    let mut group = ctx.group(&new_members);
    let mut plan = ScatterPlan::build_on(ctx, &mut group, &lm, &new_part);
    let k = new_members.len();
    let phi_eff = env.res.phi.min(k.saturating_sub(1));
    if with_redundancy && phi_eff >= 1 {
        plan.send_extra = redundancy::compute_extra_sends(
            my_new_slot,
            k,
            phi_eff,
            &env.res.strategy,
            lm.n_local(),
            &plan.send_natural,
        );
        plan.announce_extras_on(ctx, &mut group);
    }
    let channels = (0..layout.channels.len())
        .map(|_| Retention::build(&plan, &lm.ghost_cols))
        .collect();
    let shape = kernel.shape();
    for (slot, v) in kernel.vecs_mut().iter_mut().enumerate() {
        if slot >= shape.n_block_vecs && !shape.pack_slots.contains(&slot) {
            *v = vec![0.0; lm.n_local()];
        }
    }

    layout.part = new_part;
    layout.ghosts = vec![0.0; lm.ghost_cols.len()];
    layout.lm = lm;
    layout.plan = plan;
    layout.channels = channels;
    layout.prec = prec;
    layout.members = new_members;
    layout.my_slot = my_new_slot;
    layout.group = Some(group);
}

/// Check the overlap boundary `(iteration, substep)`; merge any newly
/// failed *active* ranks into `failed` and report whether a restart is
/// needed. Failures naming ranks outside `members` are inert — retired
/// hardware is gone and has nothing left to lose.
pub(crate) fn poll_overlap(
    ctx: &NodeCtx,
    iteration: u64,
    substep: u32,
    handled: &mut HashSet<(u64, u32)>,
    failed: &mut Vec<usize>,
    members: &[usize],
) -> bool {
    let key = (iteration, substep);
    if !handled.insert(key) {
        return false; // already processed in an earlier attempt
    }
    let new: Vec<usize> = ctx
        .poll_failures(FailAt::RecoverySubstep {
            after_iteration: iteration,
            substep,
        })
        .into_iter()
        .filter(|r| members.binary_search(r).is_ok())
        .collect();
    if new.is_empty() {
        return false;
    }
    failed.extend(new);
    failed.sort_unstable();
    failed.dedup();
    true
}

/// Assemble one failed block over `range` from the `(global index, value)`
/// pair lists sent by every survivor except the receiver itself, seeded
/// with the receiver's own retained pairs (`own`, empty on a replacement
/// node whose retention is lost). Panics on a coverage gap when `required`
/// (more simultaneous failures than φ); returns `None` on a gap otherwise
/// (e.g. no `p(j-1)` exists yet at iteration 0).
#[allow(clippy::too_many_arguments)]
fn assemble_range(
    ctx: &mut NodeCtx,
    survivors: &[usize],
    me: usize,
    own: Vec<(u64, f64)>,
    range: &Range<usize>,
    tag: u32,
    what: &str,
    required: bool,
) -> Option<Vec<f64>> {
    let blen = range.len();
    let mut vals = vec![0.0; blen];
    let mut got = vec![false; blen];
    let put = |pairs: Vec<(u64, f64)>, vals: &mut [f64], got: &mut [bool]| {
        for (g, v) in pairs {
            let o = g as usize - range.start;
            vals[o] = v;
            got[o] = true;
        }
    };
    put(own, &mut vals, &mut got);
    for &s in survivors {
        if s == me {
            continue;
        }
        let pairs = ctx.recv_phase(s, tag, CommPhase::Recovery).into_pairs();
        put(pairs, &mut vals, &mut got);
    }
    if let Some(o) = got.iter().position(|&g| !g) {
        if required {
            panic!(
                "rank {me}: unrecoverable — no surviving copy of {what}[{}]; \
                 more simultaneous failures than φ?",
                range.start + o
            );
        }
        return None;
    }
    Some(vals)
}

/// The engine's distributed-rebuild toolkit, handed to
/// [`ResilientKernel::rebuild_distributed`]. Every helper is collective
/// over the active members (survivors serve, reconstructors compute), so
/// kernels must call them unconditionally — not gated on whether this node
/// reconstructs anything.
pub(crate) struct EngineComm<'a> {
    seq: u32,
    next_off: u32,
    part: &'a BlockPartition,
    members: &'a [usize],
    my_range: Range<usize>,
    /// Snapshot of the attempt's failed set (owned: the engine may enlarge
    /// its own copy at the next substep boundary while this one is alive).
    failed: Vec<usize>,
    survivors: &'a [usize],
    reconstructors: &'a [usize],
    /// Sorted global rows of all failed blocks.
    pub if_indices: &'a [usize],
    me: usize,
    am_survivor: bool,
    rcfg: &'a RecoveryConfig,
    /// The reconstructor sub-communicator, created lazily on first use and
    /// shared by every group operation of the attempt.
    group: Option<Group>,
    /// Inner-solver iterations accumulated by [`EngineComm::solve_if_system`].
    inner_iterations: usize,
}

impl EngineComm<'_> {
    fn next_tag_pair(&mut self) -> (u32, u32) {
        let req = self.next_off;
        self.next_off += 2;
        assert!(self.next_off <= TAG_STRIDE, "tag window exhausted");
        (tag(self.seq, req), tag(self.seq, req + 1))
    }

    fn group(&mut self, ctx: &mut NodeCtx) -> &mut Group {
        let recon = self.reconstructors;
        self.group.get_or_insert_with(|| ctx.group(recon))
    }

    /// Survivor-served value lookup: every reconstructor obtains the value
    /// of the distributed vector (whose owned block is `v_loc` on every
    /// active node) at each column of `m`'s rows within its blocks that
    /// falls outside `If`. Returns the sorted `(column, value)` lookup on
    /// reconstructors, `None` on pure survivors. Collective.
    pub fn gather_outside(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        blocks: &[ReconBlock],
        v_loc: &[f64],
    ) -> Option<Vec<(usize, f64)>> {
        let (tag_req, tag_resp) = self.next_tag_pair();
        let am_reconstructor = !blocks.is_empty();
        let mut needed: Vec<usize> = Vec::new();
        if am_reconstructor {
            for blk in blocks {
                for gr in blk.range.clone() {
                    let (cols, _) = m.row(gr);
                    needed.extend(
                        cols.iter()
                            .map(|&c| c as usize)
                            .filter(|c| self.if_indices.binary_search(c).is_err()),
                    );
                }
            }
            needed.sort_unstable();
            needed.dedup();
            let mut per_slot: Vec<Vec<u64>> = vec![Vec::new(); self.members.len()];
            for &c in &needed {
                per_slot[self.part.owner_of(c)].push(c as u64);
            }
            for (slot, req) in per_slot.into_iter().enumerate() {
                let owner = self.members[slot];
                if owner == self.me {
                    continue;
                }
                // c ∉ If ⇒ its owner is a survivor.
                debug_assert!(req.is_empty() || self.failed.binary_search(&owner).is_err());
                if self.failed.binary_search(&owner).is_err() {
                    ctx.send(owner, tag_req, Payload::u64s(req), CommPhase::Recovery);
                }
            }
        }
        if self.am_survivor {
            for &rho in self.reconstructors {
                if rho == self.me {
                    continue;
                }
                let req = ctx
                    .recv_phase(rho, tag_req, CommPhase::Recovery)
                    .into_u64s();
                let resp: Vec<(u64, f64)> = req
                    .into_iter()
                    .map(|g| (g, v_loc[g as usize - self.my_range.start]))
                    .collect();
                ctx.send(rho, tag_resp, Payload::pairs(resp), CommPhase::Recovery);
            }
        }
        if !am_reconstructor {
            return None;
        }
        // Sorted (col, value) lookup of every surviving value needed —
        // seeded with this node's own block where it is a survivor
        // (an adopter reads its own values locally).
        let mut lookup: Vec<(usize, f64)> = if self.am_survivor {
            needed
                .iter()
                .copied()
                .filter(|&c| self.my_range.contains(&c))
                .map(|c| (c, v_loc[c - self.my_range.start]))
                .collect()
        } else {
            Vec::new()
        };
        for &s in self.survivors {
            if s == self.me {
                continue;
            }
            for (g, v) in ctx
                .recv_phase(s, tag_resp, CommPhase::Recovery)
                .into_pairs()
            {
                lookup.push((g as usize, v));
            }
        }
        lookup.sort_unstable_by_key(|e| e.0);
        Some(lookup)
    }

    /// `blocks[*].vecs[out_slot] = (m · v)` restricted to each block's
    /// rows, for a distributed vector `v` whose reconstructed `If`-part
    /// lives in `vecs[v_slot]` of the reconstructors' blocks (group
    /// all-gather, concatenating to the sorted `If` layout) and whose
    /// surviving part is `v_loc` (survivor ghost gather). Collective.
    pub fn apply_matrix(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        blocks: &mut [ReconBlock],
        v_slot: usize,
        out_slot: usize,
        v_loc: &[f64],
    ) {
        let lookup = self.gather_outside(ctx, m, blocks, v_loc);
        if blocks.is_empty() {
            return;
        }
        let lookup = lookup.expect("reconstructors obtain the lookup");
        let concat: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.vecs[v_slot].iter().copied())
            .collect();
        let parts = self.group(ctx).allgatherv_f64(ctx, concat);
        let v_if: Vec<f64> = parts.into_iter().flatten().collect();
        debug_assert_eq!(v_if.len(), self.if_indices.len());
        for blk in blocks.iter_mut() {
            let blen = blk.range.len();
            let mut out = vec![0.0; blen];
            let mut flops = 0usize;
            for (i, gr) in blk.range.clone().enumerate() {
                let (cols, vals) = m.row(gr);
                // Two partial sums — If-coupled and outside — added once at
                // the end: the same floating-point association as the
                // former sub-matrix SpMV + masked off-diagonal product, so
                // the replacement path stays bitwise faithful to it.
                let mut s_if = 0.0;
                let mut s_out = 0.0;
                for (c, v) in cols.iter().zip(vals) {
                    let c = *c as usize;
                    match self.if_indices.binary_search(&c) {
                        Ok(pos) => s_if += v * v_if[pos],
                        Err(_) => {
                            let pos = lookup
                                .binary_search_by_key(&c, |e| e.0)
                                .expect("gathered every outside value");
                            s_out += v * lookup[pos].1;
                        }
                    }
                }
                flops += 2 * cols.len();
                out[i] = s_if + s_out;
            }
            ctx.clock_mut().advance_flops(flops + blen);
            blk.vecs[out_slot] = out;
        }
    }

    /// Cooperatively solve `M_{If,If} y = rhs` over the reconstructor
    /// group with an inner distributed PCG (paper Sec. 6: "a PCG solver
    /// assembled with global operations", block-Jacobi preconditioner with
    /// blocks matching each member's reconstructed rows). `rows` is this
    /// member's sorted row set; the concatenation of the members' rows in
    /// ascending rank order equals `If` — guaranteed by the
    /// nearest-preceding-survivor adoption rule. `statics` is the store
    /// when `m` is the system matrix (`None` for `P`). Reconstructors only.
    pub fn solve_if_system(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        statics: Option<&StaticData>,
        rows: &[usize],
        rhs: Vec<f64>,
    ) -> Vec<f64> {
        let rcfg = self.rcfg;
        let if_indices = self.if_indices;
        // Split the lazy-group borrow from the fields the solver reads.
        let group = {
            let recon = self.reconstructors;
            self.group.get_or_insert_with(|| ctx.group(recon))
        };
        let (y, iters) = solve_failed_rows(ctx, group, rcfg, rows, if_indices, m, statics, rhs);
        self.inner_iterations += iters;
        y
    }
}

/// The cooperative inner solve behind [`EngineComm::solve_if_system`].
#[allow(clippy::too_many_arguments)]
fn solve_failed_rows(
    ctx: &mut NodeCtx,
    group: &mut Group,
    rcfg: &RecoveryConfig,
    rows: &[usize],
    if_indices: &[usize],
    m: &Csr,
    statics: Option<&StaticData>,
    rhs: Vec<f64>,
) -> (Vec<f64>, usize) {
    let rank = ctx.rank();
    // This member's rows of M_{If,If} (columns renumbered into If).
    let sub = m.extract(rows, if_indices);
    // Own diagonal block of M_{If,If} for preconditioning, and its exact
    // factor: shared static data when the rows are one contiguous range of
    // `A` (Replace and Spares always; a Shrink adopter of adjacent blocks),
    // extracted and factored for this solve otherwise (`P`-given systems;
    // an adopter of blocks on both sides of its own).
    let own;
    let (statics, range) = match statics {
        Some(st) if rows[rows.len() - 1] + 1 - rows[0] == rows.len() => {
            (st, rows[0]..rows[0] + rows.len())
        }
        _ => {
            own = StaticData::new(Arc::new(m.extract(rows, rows)));
            (&own, 0..rows.len())
        }
    };
    let block = &statics.block(&range).diag;
    enum BlockPrec {
        Exact(Arc<SparseLdl>),
        Ilu(Ilu0),
    }
    let prec = if rcfg.exact_block_precond {
        BlockPrec::Exact(
            statics
                .factor(&range)
                .unwrap_or_else(|e| panic!("rank {rank}: reconstruction block not SPD: {e}")),
        )
    } else {
        BlockPrec::Ilu(
            Ilu0::new(block)
                .unwrap_or_else(|e| panic!("rank {rank}: reconstruction block ILU breakdown: {e}")),
        )
    };
    let apply_prec = |p: &BlockPrec, r: &[f64], z: &mut [f64]| {
        z.copy_from_slice(r);
        match p {
            BlockPrec::Exact(f) => f.solve_in_place(z),
            BlockPrec::Ilu(f) => f.solve_in_place(z),
        }
    };
    // Coarse factorization cost.
    ctx.clock_mut().advance_flops(20 * block.nnz().max(1));

    let nloc = rhs.len();
    let mut x = vec![0.0; nloc];
    let mut r = rhs;
    let mut z = vec![0.0; nloc];
    apply_prec(&prec, &r, &mut z);
    let mut p = z.clone();
    // Fused: ‖r‖² and rᵀz in one group all-reduce (same 2-reductions-per-
    // iteration scheme as the outer PCG).
    let init = group.allreduce_vec(ctx, ReduceOp::Sum, vec![dot(&r, &r), dot(&r, &z)]);
    let rn0_sq = init[0];
    let mut rz = init[1];
    if rn0_sq <= f64::MIN_POSITIVE {
        return (x, 0);
    }
    let target_sq = rcfg.inner_rel_tol * rcfg.inner_rel_tol * rn0_sq;
    let mut u = vec![0.0; nloc];
    let mut p_full = Vec::with_capacity(if_indices.len());
    let mut iters = 0usize;
    for _ in 0..rcfg.inner_max_iter {
        iters += 1;
        // Assemble the full If-vector (group index order == ascending
        // reconstructor ranks == the layout of `if_indices`).
        p_full.clear();
        for part in group.allgatherv_f64(ctx, p.clone()) {
            p_full.extend_from_slice(&part);
        }
        debug_assert_eq!(p_full.len(), if_indices.len());
        sub.spmv(&p_full, &mut u);
        ctx.clock_mut().advance_flops(sub.spmv_flops());
        let pap = group.allreduce_sum(ctx, dot(&p, &u));
        if pap <= 0.0 || !pap.is_finite() {
            panic!("rank {rank}: inner reconstruction solver broke down (pᵀAp = {pap})");
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &u, &mut r);
        ctx.clock_mut().advance_flops(4 * nloc);
        apply_prec(&prec, &r, &mut z);
        let rr_rz = group.allreduce_vec(ctx, ReduceOp::Sum, vec![dot(&r, &r), dot(&r, &z)]);
        if rr_rz[0] <= target_sq {
            break;
        }
        let rz_next = rr_rz[1];
        let beta = rz_next / rz;
        rz = rz_next;
        xpay(&z, beta, &mut p);
        ctx.clock_mut().advance_flops(2 * nloc);
    }
    (x, iters)
}

/// `r_b = M_{b,b} z_b` for one failed block from static data alone — the
/// M-given reconstruction step (companion paper Alg. 3), local because the
/// block-diagonal preconditioners align with the block boundaries. What
/// lets an *adopter* reconstruct a block it never owned.
pub(crate) fn m_block_forward(
    ctx: &mut NodeCtx,
    shared: &EngineShared<'_>,
    range: &Range<usize>,
    z: &[f64],
) -> Vec<f64> {
    let blen = range.len();
    let statics = shared.statics;
    match shared.precond {
        PrecondConfig::None => z.to_vec(),
        PrecondConfig::Jacobi => {
            let d = statics.block(range).diag.diag();
            ctx.clock_mut().advance_flops(blen);
            z.iter().zip(&d).map(|(z, d)| z * d).collect()
        }
        PrecondConfig::BlockJacobiExact => {
            let block = statics.block(range);
            let mut r = vec![0.0; blen];
            block.diag.spmv(z, &mut r);
            ctx.clock_mut().advance_flops(block.diag.spmv_flops());
            r
        }
        PrecondConfig::ExplicitP(_) => {
            // Guarded by config validation; the P-given path reconstructs r
            // through the kernel's distributed stage instead.
            unreachable!("ExplicitP has no local M-forward block operator")
        }
    }
}

/// `q_b = M_{b,b}⁻¹ s_b` for one failed block from static data alone — the
/// inverse companion of [`m_block_forward`] (pipelined PCG rebuilds
/// `q = M⁻¹ s` per block).
pub(crate) fn m_block_inverse(
    ctx: &mut NodeCtx,
    shared: &EngineShared<'_>,
    range: &Range<usize>,
    s: &[f64],
) -> Vec<f64> {
    let blen = range.len();
    let statics = shared.statics;
    match shared.precond {
        PrecondConfig::None => s.to_vec(),
        PrecondConfig::Jacobi => {
            let d = statics.block(range).diag.diag();
            ctx.clock_mut().advance_flops(blen);
            s.iter().zip(&d).map(|(s, d)| s / d).collect()
        }
        PrecondConfig::BlockJacobiExact => {
            let factor = statics.factor(range).unwrap_or_else(|e| {
                panic!(
                    "reconstruction block [{}, {}) not SPD: {e}",
                    range.start, range.end
                )
            });
            ctx.clock_mut().advance_flops(20 * factor.l_nnz().max(1));
            let mut q = s.to_vec();
            factor.solve_in_place(&mut q);
            ctx.clock_mut().advance_flops(factor.solve_flops());
            q
        }
        PrecondConfig::ExplicitP(_) => {
            unreachable!("ExplicitP has no local M-inverse block operator")
        }
    }
}

/// Rebuild every vector of `vecs` (slot = index) over `new_range` from the
/// node's old owned values (`own_range` is `None` for a replaced rank,
/// whose old values are poisoned and whose block is in `blocks`) and its
/// reconstructed blocks' vectors of the same slot. Every row of
/// `new_range` is covered exactly once by construction.
pub(crate) fn splice_slots(
    vecs: &mut [Vec<f64>],
    new_range: &Range<usize>,
    own_range: Option<&Range<usize>>,
    blocks: &[ReconBlock],
) {
    for (slot, v) in vecs.iter_mut().enumerate() {
        let mut out = vec![f64::NAN; new_range.len()];
        if let Some(own) = own_range {
            out[own.start - new_range.start..own.end - new_range.start].copy_from_slice(v);
        }
        for blk in blocks {
            out[blk.range.start - new_range.start..blk.range.end - new_range.start]
                .copy_from_slice(&blk.vecs[slot]);
        }
        debug_assert!(out.iter().all(|x| !x.is_nan()), "shrink splice left a gap");
        *v = out;
    }
}
