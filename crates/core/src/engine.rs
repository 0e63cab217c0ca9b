//! The solver-agnostic resilience engine.
//!
//! The paper's multi-failure protocol is one sentence of Sec. 4.1: if
//! further nodes fail during a reconstruction, abort it and restart with
//! the enlarged failed set. [`recover`] is that sentence, written once —
//! one attempt loop for every solver, recovery policy and state
//! protection. A [`ResilientKernel`] describes what differs per solver
//! (*which vectors are retained and how full iteration state follows from
//! them*), a [`Flavor`] what differs per protection (*what a recovery does
//! between the loop's boundaries*).
//!
//! ## Division of labour
//!
//! The **attempt loop** owns:
//!
//! * the event span, the per-attempt tag window and the
//!   [`RECOVERY_SUBSTEPS`] overlap boundaries (any new failure aborts the
//!   attempt and restarts with the enlarged failed set);
//! * the recovery **policy** ([`crate::config::RecoveryPolicy`]) as one
//!   [`EventPlan`] per attempt: in-place replacement (the paper's
//!   unbounded model), spare-pool grants to the lowest-ranked failed
//!   nodes, and survivor **adoption** of uncovered subdomains: the
//!   members left hold contiguous runs of the setup blocks, as few per
//!   member as the count allows (`EventPlan::new_part`), so the
//!   post-shrink layout is a generalized [`BlockPartition::from_starts`]
//!   partition;
//! * the retire exit, the node failure itself ([`poison`], ghosts,
//!   [`Flavor::lose`]), the spare claim, the [`RecoveryReport`] and its
//!   [`RecoveryTimeline`].
//!
//! A **flavor** supplies its labels, three stage bodies and a commit. The
//! ESR flavor ([`Reconstruction`], below) owns:
//!
//! * routing of replicated scalars and retained redundant copies from the
//!   survivors to each failed block's *reconstructor* (the replacement
//!   node, or the adopting survivor);
//! * the cooperative inner solve of `A_{If,If} x_If = w` over the
//!   reconstructor group (Alg. 2 lines 7–8), generalized to reconstructors
//!   owning several failed blocks at once;
//! * the hand-over of rows that change holder, and the splice of the
//!   reconstructed blocks into the (possibly moved) state.
//!
//! The rollback flavor is [`crate::checkpoint::Rollback`]. Both end a
//! shrinking event in [`rebuild_layout_after_shrink`]: [`LocalMatrix`],
//! [`ScatterPlan`] and redundancy targets for the shrunken layout (derived
//! from static data), preconditioner and retention channels.
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

use std::ops::Range;
use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::request::AllreduceRequest;
use parcomm::{CommPhase, FailAt, Group, NodeCtx, Payload, SparePool, RECOVERY_SUBSTEPS};
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
const OFF_DYNAMIC: u32 = 10; // one offset per gather, up to TAG_STRIDE

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

    /// The SpMV scatter of `v` into [`Layout::ghosts`], to the sorted
    /// ranks `to` only (`None`: every member). Under ESR protection (the
    /// layout carries retention channels) the exchange also distributes
    /// the redundant copies, and a receiver retains them in `channel`,
    /// rotating that channel's generations. After a reconstruction in
    /// place, scattering the last vector again to the replaced ranks is
    /// the repair: it refills what a replacement lost with its memory (its
    /// ghosts and `channel`'s current generation) as a full scatter would;
    /// every survivor still holds its own.
    pub fn scatter(&mut self, ctx: &mut NodeCtx, v: &[f64], channel: usize, to: Option<&[usize]>) {
        let receives = to.is_none_or(|to| to.binary_search(&ctx.rank()).is_ok());
        let ghosts = &mut self.ghosts;
        match self.channels.get_mut(channel).filter(|_| receives) {
            Some(ch) => {
                ch.rotate();
                self.plan.exchange_to(ctx, v, ghosts, Some(&mut *ch), to);
                ch.finish_generation();
            }
            None => self.plan.exchange_to(ctx, v, ghosts, None, to),
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
    /// `> 0` means the layout shrank; the preconditioner did not change.
    pub retired_ranks: usize,
    /// The ranks replaced in place, ascending — new nodes that lost the
    /// ghosts and retained copies of the last scatter — when the layout
    /// is unchanged; `None` when ranks retired and it was rebuilt.
    pub replaced: Option<Vec<usize>>,
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
    /// The partition the cluster set up on. Its blocks are the blocks of
    /// `M` for the whole solve, whatever the layout now is.
    pub setup: &'a BlockPartition,
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

/// What a solver must describe for the engine to reconstruct it. The
/// implementor owns the live solver state; the engine sees it as two
/// slot-indexed arrays plus the [`KernelShape`] tables, and calls back only
/// for the solver-specific reconstruction maps.
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
        env: &EngineEnv<'_>,
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
        env: &EngineEnv<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        let _ = (ctx, env, comm, blocks);
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
/// every event (tag-window sequence, spare pool, deposit store) and what
/// the node loop reports at the end.
pub(crate) struct RecoveryBook {
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
    /// [`RecoveryReport::inner_iterations`] of every completed event.
    pub inner_iterations: Vec<usize>,
}

impl RecoveryBook {
    /// Fresh bookkeeping at solve start.
    pub fn new(pool: SparePool, ckpt: Option<CheckpointStore>) -> Self {
        RecoveryBook {
            recovery_seq: 0,
            pool,
            ckpt,
            recoveries: 0,
            ranks_recovered: 0,
            vtime_recovery: 0.0,
            timelines: Vec::new(),
            inner_iterations: Vec::new(),
        }
    }
}

/// What one attempt derives from the layout, the failed set and the
/// replacement budget before it communicates: who is replaced in place,
/// who retires, who rebuilds which rows, and the layout after the event.
/// A restart with an enlarged failed set derives a new one.
pub(crate) struct EventPlan {
    /// This node's rank.
    pub me: usize,
    /// Whether this node is among the failed (past the retire exit: a
    /// replacement node).
    pub am_failed: bool,
    /// This node's owned rows on the layout the event started on.
    pub my_range: Range<usize>,
    /// The attempt's failed ranks, ascending (a snapshot: the loop's own
    /// set may grow at the next boundary).
    pub failed: Vec<usize>,
    /// The `granted` lowest failed ranks are replaced in place; the rest
    /// retire and their subdomains are adopted.
    pub granted: usize,
    /// Active members that did not fail, ascending.
    pub survivors: Vec<usize>,
    /// The members after the event: everyone but the retired.
    pub new_members: Vec<usize>,
    /// Their partition, cut at setup block starts. With no retirements it
    /// is the old partition; otherwise [`place`] picks it: no member holds
    /// more setup blocks than it must, then as few surviving blocks as
    /// possible change holder, then as few rebuilt blocks as possible
    /// leave their reconstructor. A survivor hands each old row it no
    /// longer holds to the row's new holder; see [`EventPlan::holders`].
    pub new_part: BlockPartition,
    /// Per failed rank, in `failed` order: its old rows and who rebuilds
    /// them. The reconstructors' row sets concatenate to sorted `If`.
    pub lost: Vec<LostBlock>,
    /// The distinct reconstructors, ascending.
    pub reconstructors: Vec<usize>,
    /// Per reconstructor, in the same order: the offsets of its rows in
    /// `If`. The slices tile `0..|If|` in ascending order.
    pub if_slices: Vec<Range<usize>>,
    /// Sorted global rows of all failed blocks (`If`).
    pub if_indices: Vec<usize>,
}

/// One failed rank's subdomain in an [`EventPlan`].
pub(crate) struct LostBlock {
    /// The failed rank.
    pub rank: usize,
    /// Its owned rows before the event.
    pub range: Range<usize>,
    /// Who rebuilds them: the rank itself when replaced in place, else the
    /// nearest preceding new member (the first one for a leading run), so
    /// one member rebuilds a whole run with one exact solve. It hands the
    /// rows it does not hold after the event to their holders at commit.
    pub reconstructor: usize,
}

impl EventPlan {
    /// Plan the event for sorted `failed` ranks (all active members, whose
    /// blocks `part` holds in `members` order; its boundaries are `setup`
    /// block starts) under a budget of `avail` replacements.
    fn new(
        members: &[usize],
        part: &BlockPartition,
        setup: &BlockPartition,
        me: usize,
        failed: &[usize],
        avail: usize,
    ) -> Self {
        let granted = avail.min(failed.len());
        let old_range = |r: usize| {
            let slot = members.binary_search(&r).expect("an active member");
            part.range(slot)
        };
        let without = |gone: &[usize]| -> Vec<usize> {
            let stays = |r: &usize| gone.binary_search(r).is_err();
            members.iter().copied().filter(stays).collect()
        };
        let new_members = without(&failed[granted..]);
        let lost: Vec<LostBlock> = failed
            .iter()
            .enumerate()
            .map(|(i, &rank)| LostBlock {
                rank,
                range: old_range(rank),
                reconstructor: if i < granted {
                    rank
                } else {
                    new_members[new_members.partition_point(|&m| m < rank).saturating_sub(1)]
                },
            })
            .collect();
        let new_part = if granted == failed.len() {
            part.clone()
        } else {
            // Per setup block: the new member that holds it if nothing
            // moves (its survivor or its reconstructor), and the cost of
            // moving it — a surviving block outweighs every rebuilt one.
            let slot_of = |r: usize| new_members.binary_search(&r).expect("a new member");
            let mut stay = vec![(0, 0); setup.nodes()];
            for (slot, &m) in members.iter().enumerate() {
                let held = match failed.binary_search(&m) {
                    Ok(i) => (slot_of(lost[i].reconstructor), 1),
                    Err(_) => (slot_of(m), setup.nodes() + 1),
                };
                stay[setup.blocks_of(&part.range(slot))].fill(held);
            }
            let starts = place(&stay, new_members.len());
            BlockPartition::from_starts(starts.iter().map(|&k| setup.starts()[k]).collect())
        };
        let mut reconstructors: Vec<usize> = lost.iter().map(|l| l.reconstructor).collect();
        reconstructors.sort_unstable();
        reconstructors.dedup();
        // `lost` is in row order, so each reconstructor's blocks are one run.
        let mut end = 0;
        let runs = lost.chunk_by(|a, b| a.reconstructor == b.reconstructor);
        let if_slices = runs
            .map(|run| {
                let start = end;
                end += run.iter().map(|l| l.range.len()).sum::<usize>();
                start..end
            })
            .collect();
        let if_indices: Vec<usize> = lost.iter().flat_map(|l| l.range.clone()).collect();
        debug_assert!(if_indices.windows(2).all(|w| w[0] < w[1]));
        EventPlan {
            me,
            am_failed: failed.binary_search(&me).is_ok(),
            my_range: old_range(me),
            failed: failed.to_vec(),
            granted,
            survivors: without(failed),
            new_members,
            new_part,
            lost,
            reconstructors,
            if_slices,
            if_indices,
        }
    }

    /// The failed ranks that get a replacement node.
    pub fn replaced(&self) -> &[usize] {
        &self.failed[..self.granted]
    }

    /// The failed ranks that leave the cluster.
    pub fn retired(&self) -> &[usize] {
        &self.failed[self.granted..]
    }

    /// The failed blocks this node rebuilds, in ascending row order.
    pub fn mine(&self) -> impl Iterator<Item = &LostBlock> {
        self.lost.iter().filter(|l| l.reconstructor == self.me)
    }

    /// The rows reconstructor `rho` rebuilds, ascending.
    fn rows_of(&self, rho: usize) -> impl Iterator<Item = usize> + '_ {
        let blocks = self.lost.iter().filter(move |l| l.reconstructor == rho);
        blocks.flat_map(|l| l.range.clone())
    }

    /// What this reconstructor exchanges of an `If` vector for its rows of
    /// `m` to read every coupled entry, derived from static data alone.
    /// What it sends a member comes from *that member's* rows, so both ends
    /// of every message derive the same list.
    fn if_exchange(&self, m: &Csr, tag: u32) -> IfExchange {
        // The sorted positions inside `slice` that `rho`'s rows read.
        let reads = |rho: usize, slice: &Range<usize>| {
            let cols = self.rows_of(rho).flat_map(|gr| m.row(gr).0);
            let pos = cols.filter_map(|&c| self.if_indices.binary_search(&(c as usize)).ok());
            let mut pos: Vec<usize> = pos.filter(|p| slice.contains(p)).collect();
            pos.sort_unstable();
            pos.dedup();
            pos
        };
        let slices = self.reconstructors.iter().zip(&self.if_slices);
        let mut mine = slices.clone().filter(|&(&rho, _)| rho == self.me);
        let own = mine.next().expect("a reconstructor").1.clone();
        let peers = slices.filter(|&(&q, _)| q != self.me);
        let peers = peers.map(|(&q, slice)| (q, reads(q, &own), reads(self.me, slice)));
        let peers = peers.collect();
        IfExchange { tag, own, peers }
    }

    /// The inner solve's coupling graph over the reconstructors (indices
    /// into `reconstructors`): two are adjacent when either one's rows of
    /// `m` read the other's `If` slice — the non-empty [`IfExchange`] pairs,
    /// derived from static data, so the same graph on every member.
    fn coupling(&self, m: &Csr) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.reconstructors.len()];
        for (i, slice) in self.if_slices.iter().enumerate() {
            let cols = self.if_indices[slice.clone()]
                .iter()
                .flat_map(|&gr| m.row(gr).0);
            let pos = cols.filter_map(|&c| self.if_indices.binary_search(&(c as usize)).ok());
            for j in pos.map(|p| self.if_slices.partition_point(|s| s.end <= p)) {
                if j != i {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }

    /// `rows` cut at the partition after the event, each piece with its
    /// holder, in row order.
    pub fn holders(&self, rows: &Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        cut(&self.new_part, &self.new_members, rows)
    }

    /// Send each piece of `range` (the rows of `vecs`) that another member
    /// holds after the event to it: one message, every block vector back
    /// to back.
    fn hand_over(&self, ctx: &mut NodeCtx, tag: u32, vecs: &[Vec<f64>], range: &Range<usize>) {
        for (q, rows) in self.holders(range).filter(|&(q, _)| q != self.me) {
            let at = rows.start - range.start..rows.end - range.start;
            let data = vecs.iter().flat_map(|v| &v[at.clone()]).copied().collect();
            ctx.send(q, tag, Payload::f64s(data), CommPhase::Recovery);
        }
    }

    /// This node's slot among [`EventPlan::new_members`] (it did not
    /// retire).
    pub fn new_slot(&self) -> usize {
        self.new_members
            .binary_search(&self.me)
            .expect("active non-retired rank is a new member")
    }
}

/// `rows` cut at the blocks of `part`, each piece with its holder in
/// `members` (`part`'s order), in row order.
pub(crate) fn cut<'a>(
    part: &'a BlockPartition,
    members: &'a [usize],
    rows: &Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + 'a {
    let Range { start, end } = rows.clone();
    (part.owner_of(start)..part.nodes()).map_while(move |slot| {
        let r = part.range(slot);
        (r.start < end).then(|| (members[slot], r.start.max(start)..r.end.min(end)))
    })
}

/// The adoption rule: each new member's first setup block, followed by
/// the number of blocks. `stay[k]` is the member that holds setup block
/// `k` if nothing moves and what moving it costs. Minimises the most
/// blocks any of the `m` members holds, ⌈blocks/m⌉, then the cost: a DP
/// over (member, start), member `j` starting on one of blocks
/// `j..=j + blocks − m`, in O(m·(blocks − m)·cap²).
fn place(stay: &[(usize, usize)], m: usize) -> Vec<usize> {
    let (n, cap) = (stay.len(), stay.len().div_ceil(m));
    // best[j][s − j]: the least cost of members 0..j holding blocks 0..s,
    // and where member j − 1 starts on it.
    let mut best: Vec<Vec<Option<(usize, usize)>>> = vec![vec![None; n - m + 1]; m + 1];
    best[0][0] = Some((0, 0));
    for j in 0..m {
        for s in j..=j + n - m {
            let Some((c, _)) = best[j][s - j] else {
                continue;
            };
            for t in s + 1..=(s + cap).min(j + 1 + n - m) {
                let away = stay[s..t].iter().filter(|&&(h, _)| h != j);
                let c = c + away.map(|&(_, w)| w).sum::<usize>();
                let slot = &mut best[j + 1][t - j - 1];
                if slot.is_none_or(|(old, _)| c < old) {
                    *slot = Some((c, s));
                }
            }
        }
    }
    let mut starts = vec![n; m + 1];
    for j in (1..=m).rev() {
        starts[j - 1] = best[j][starts[j] - j].expect("⌈blocks/members⌉ fits").1;
    }
    starts
}

/// One attempt as a [`Flavor`] sees it.
pub(crate) struct Attempt<'a> {
    /// The event's static context.
    pub env: &'a EngineEnv<'a>,
    /// The attempt's tag window (see [`tag`]).
    pub seq: u32,
    /// Who failed, who rebuilds what, the layout afterwards.
    pub plan: &'a EventPlan,
}

/// What a state protection contributes to the restart protocol. The attempt
/// loop ([`recover`]) owns everything a recovery has in common; a flavor is
/// the three stages between the loop's substep boundaries and the commit
/// past the last one. State a flavor carries from stage to stage belongs
/// to one attempt: a restarted attempt must not see the aborted one's.
pub(crate) trait Flavor {
    /// Trace span of the whole event.
    const SPAN: &'static str;
    /// [`RecoveryTimeline::flavor`].
    const NAME: &'static str;
    /// Span and timeline labels of stages `1..RECOVERY_SUBSTEPS`.
    const STAGES: [&'static str; 3];

    /// This node failed: destroy what the protection keeps beside the
    /// kernel's state and the ghosts.
    fn lose(&mut self, layout: &mut Layout);

    /// Stage `substep` (`1..RECOVERY_SUBSTEPS`): what the attempt does
    /// between overlap boundaries `substep − 1` and `substep`. Collective
    /// over the active members that did not retire.
    fn stage(
        &mut self,
        substep: u32,
        ctx: &mut NodeCtx,
        at: &Attempt<'_>,
        layout: &Layout,
        kernel: &mut dyn ResilientKernel,
    );

    /// Past the last boundary: install the recovered state and, when ranks
    /// retired, the shrunken layout ([`rebuild_layout_after_shrink`]).
    /// Returns [`RecoveryReport::inner_iterations`] and
    /// [`RecoveryReport::rollback_to`].
    fn commit(
        &mut self,
        ctx: &mut NodeCtx,
        at: &Attempt<'_>,
        layout: &mut Layout,
        kernel: &mut dyn ResilientKernel,
    ) -> (usize, Option<u64>);
}

/// Run the restart protocol. All *active* members call this together at a
/// failure boundary with the same failed set (already filtered to active
/// members — ULFM-consistent notification). The configured protection
/// selects the flavor: ESR reconstruction ([`Reconstruction`]) or checkpoint
/// rollback ([`crate::checkpoint::Rollback`], over the deposit store in
/// `book.ckpt`).
pub(crate) fn recover(
    ctx: &mut NodeCtx,
    env: &EngineEnv<'_>,
    layout: &mut Layout,
    kernel: &mut dyn ResilientKernel,
    initial_failed: &[usize],
    book: &mut RecoveryBook,
) -> EngineOutcome {
    let RecoveryBook {
        recovery_seq: seq,
        pool,
        ckpt,
        ..
    } = book;
    match &env.res.protection {
        Protection::Esr => {
            let mut flavor = Reconstruction::default();
            restart_protocol(
                ctx,
                env,
                layout,
                kernel,
                initial_failed,
                seq,
                pool,
                &mut flavor,
            )
        }
        Protection::Checkpoint(_) => {
            let store = ckpt
                .as_mut()
                .expect("checkpoint protection requires a deposit store");
            let mut flavor = crate::checkpoint::Rollback::new(store);
            restart_protocol(
                ctx,
                env,
                layout,
                kernel,
                initial_failed,
                seq,
                pool,
                &mut flavor,
            )
        }
    }
}

/// The attempt loop of [`recover`], for one flavor.
#[allow(clippy::too_many_arguments)]
fn restart_protocol<F: Flavor>(
    ctx: &mut NodeCtx,
    env: &EngineEnv<'_>,
    layout: &mut Layout,
    kernel: &mut dyn ResilientKernel,
    initial_failed: &[usize],
    recovery_seq: &mut u32,
    pool: &mut SparePool,
    flavor: &mut F,
) -> EngineOutcome {
    let me = ctx.rank();
    ctx.trace_open(F::SPAN, env.iteration);
    let mut timeline = RecoveryTimeline::new(env.iteration, F::NAME);
    let [s1, s2, s3] = F::STAGES;
    let labels = ["setup", s1, s2, s3, "commit"];
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
    // Overlap boundaries below this substep were polled by an earlier
    // attempt. Per event is enough: the node loop starts at most one
    // recovery per iteration, so no boundary is ever seen by two events.
    let mut next_substep = 0u32;

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
        ctx.trace_open(labels[0], 0);
        assert!(
            failed.len() < layout.members.len(),
            "all {} active nodes failed — nothing left to recover from",
            layout.members.len()
        );
        let plan = EventPlan::new(&layout.members, &layout.part, env.setup, me, &failed, avail);
        ctx.trace_instant("grant", plan.granted as u64);
        if plan.retired().binary_search(&me).is_ok() {
            // No replacement for this node: it is gone. Its subdomain is
            // adopted by a survivor; the thread leaves the cluster, closing
            // setup, attempt and event (no timeline: it reports none).
            for _ in 0..3 {
                ctx.trace_close();
            }
            ctx.audit_exit_window();
            return EngineOutcome::Retired;
        }
        let at = Attempt {
            env,
            seq,
            plan: &plan,
        };

        for substep in 0..RECOVERY_SUBSTEPS {
            if substep > 0 {
                flavor.stage(substep, ctx, &at, layout, kernel);
            } else if plan.am_failed {
                // The node failure: all dynamic data of this rank is lost.
                poison(kernel);
                parcomm::fault::poison(&mut layout.ghosts);
                flavor.lose(layout);
            }
            // ---- overlap boundary `substep` ----------------------------
            ctx.trace_close();
            timeline.mark(ctx, &mut seg_t, attempts, labels[substep as usize]);
            if substep >= next_substep {
                next_substep = substep + 1;
                let boundary = FailAt::RecoverySubstep {
                    after_iteration: env.iteration,
                    substep,
                };
                let new = layout.poll_member_failures(ctx, boundary);
                if !new.is_empty() {
                    failed.extend(new);
                    failed.sort_unstable();
                    failed.dedup();
                    ctx.trace_instant("overlap_restart", failed.len() as u64);
                    ctx.trace_close(); // attempt
                    continue 'attempt;
                }
            }
            ctx.trace_open(labels[substep as usize + 1], 0);
        }

        // ---- success: commit the spare claim, apply the new state ------
        if matches!(env.res.policy, RecoveryPolicy::Spares(_)) {
            pool.claim(plan.granted);
        }
        let (inner_iterations, rollback_to) = flavor.commit(ctx, &at, layout, kernel);
        ctx.trace_close(); // commit
        timeline.mark(
            ctx,
            &mut seg_t,
            attempts,
            labels[RECOVERY_SUBSTEPS as usize],
        );
        ctx.trace_close(); // attempt
        ctx.trace_close(); // event
        ctx.audit_exit_window();
        return EngineOutcome::Recovered(RecoveryReport {
            total_failed: failed.len(),
            retired_ranks: plan.retired().len(),
            replaced: plan.retired().is_empty().then(|| plan.replaced().to_vec()),
            attempts,
            inner_iterations,
            rollback_to,
            timeline,
        });
    }
}

/// Rebuild every piece of distributed state on the shrunken layout of
/// `at.plan`: [`LocalMatrix`], this node's cut of the (unchanged)
/// preconditioner, the survivors' [`Group`], the scatter plan (with
/// re-derived redundancy extras under ESR protection; checkpoint
/// protection deposits replicas instead), retention channels, the ghost
/// buffer, and the kernel's scratch vectors. Sends no message and cannot
/// fail: the plan is derived from static data, and the preconditioner's
/// blocks are the ones setup factored. The caller has already
/// installed the solver state over the new ranges (ESR: `splice`;
/// rollback: `unpack`).
pub(crate) fn rebuild_layout_after_shrink(
    ctx: &mut NodeCtx,
    at: &Attempt<'_>,
    layout: &mut Layout,
    kernel: &mut dyn ResilientKernel,
) {
    let (env, plan) = (at.env, at.plan);
    let my_new_slot = plan.new_slot();
    let new_range = plan.new_part.range(my_new_slot);
    // A survivor whose block did not change keeps its rows and
    // preconditioner; a replacement node lost them with its memory.
    if plan.am_failed || new_range != layout.lm.range {
        let lm = env.statics.block(&new_range);
        // Coarse cost of re-extracting the adopted static rows.
        ctx.clock_mut()
            .advance_flops(lm.diag.nnz() + lm.offdiag.nnz());
        layout.prec.widen(ctx, env.setup, &lm, plan.am_failed);
        layout.lm = lm;
    }
    let lm = layout.lm.clone();
    let members = plan.new_members.clone();
    let mut scatter = ScatterPlan::derive(env.statics, &lm, &plan.new_part, members, my_new_slot);
    // φ′ = min(φ, N′ − 1): the shrunken ring may be too small for φ copies.
    let phi_eff = env.res.phi.min(plan.new_members.len() - 1);
    if env.res.is_esr() && phi_eff >= 1 {
        scatter.derive_extras(env.statics, &plan.new_part, phi_eff, &env.res.strategy);
    }
    let channels = (0..layout.channels.len())
        .map(|_| Retention::build(&scatter, &lm.ghost_cols))
        .collect();
    let shape = kernel.shape();
    for (slot, v) in kernel.vecs_mut().iter_mut().enumerate() {
        if slot >= shape.n_block_vecs && !shape.pack_slots.contains(&slot) {
            *v = vec![0.0; lm.n_local()];
        }
    }

    layout.part = plan.new_part.clone();
    layout.ghosts = vec![0.0; lm.ghost_cols.len()];
    layout.plan = scatter;
    layout.channels = channels;
    layout.members = plan.new_members.clone();
    layout.my_slot = my_new_slot;
    layout.group = Some(ctx.group(&plan.new_members));
}

/// The ESR flavor — exact state reconstruction (paper Alg. 2) — and what
/// one attempt of it accumulates: `gather` starts from a fresh one.
#[derive(Default)]
struct Reconstruction {
    /// The failed blocks this node rebuilds, in ascending row order.
    blocks: Vec<ReconBlock>,
    /// The rows survivors handed this node at stage 1, in row order.
    handed: Vec<ReconBlock>,
    /// What [`EngineComm`] carries from `rebuild` into `xsolve`.
    wire: Wire,
}

/// The per-attempt state behind [`EngineComm`].
#[derive(Default)]
struct Wire {
    /// Gather tags handed out so far, upwards from `OFF_DYNAMIC`.
    gathers: u32,
    /// [`IfExchange`] tags handed out so far, downwards from the top of the
    /// window. Only reconstructors take them, so they must not come from
    /// the gather counter, which survivors advance in step.
    pushes: u32,
    /// The sub-communicators the inner solves reduce over (all
    /// reconstructors, or the blacks of a red-black solve), each created on
    /// first use and shared by every solve of the attempt — a P-given PCG
    /// solves in `rebuild` too: a group's id derives from a per-member-set
    /// creation counter, so creating one per solve would move every group
    /// tag.
    groups: Vec<Group>,
    /// Inner-solver iterations accumulated by [`EngineComm::solve_if_system`].
    inner_iterations: usize,
}

impl Flavor for Reconstruction {
    const SPAN: &'static str = "recovery";
    const NAME: &'static str = "esr";
    const STAGES: [&'static str; 3] = ["gather", "rebuild", "xsolve"];

    fn lose(&mut self, layout: &mut Layout) {
        for ch in &mut layout.channels {
            ch.poison();
        }
    }

    fn stage(
        &mut self,
        substep: u32,
        ctx: &mut NodeCtx,
        at: &Attempt<'_>,
        layout: &Layout,
        kernel: &mut dyn ResilientKernel,
    ) {
        if substep == 1 {
            *self = Reconstruction::default();
            return self.gather(ctx, at, layout, kernel);
        }
        let mut comm = EngineComm {
            at,
            layout,
            wire: &mut self.wire,
        };
        match substep {
            2 => kernel.rebuild_distributed(ctx, at.env, &mut comm, &mut self.blocks),
            _ => comm.solve_x(ctx, kernel, &mut self.blocks),
        }
    }

    fn commit(
        &mut self,
        ctx: &mut NodeCtx,
        at: &Attempt<'_>,
        layout: &mut Layout,
        kernel: &mut dyn ResilientKernel,
    ) -> (usize, Option<u64>) {
        let (plan, me) = (at.plan, at.plan.me);
        let shrunk = !plan.retired().is_empty();
        // Install the rebuilt blocks: a replacement node over its own old
        // range, and on a shrink every member over its new range, from its
        // surviving values, the blocks it rebuilt and what was handed to
        // it. Ghosts and retention refill after the event: by the
        // solver's repair of its last scatter into the replaced ranks, or
        // on a shrunken layout by a full scatter (`Recurrence::resume`).
        if shrunk || plan.am_failed {
            let new_range = plan.new_part.range(plan.new_slot());
            let handover = tag(at.seq, OFF_SCALARS);
            // Hand each rebuilt row this node does not hold to its holder;
            // take the ones rebuilt for it beside those survivors handed it.
            for blk in &self.blocks {
                plan.hand_over(ctx, handover, &blk.vecs, &blk.range);
            }
            let mut blocks = std::mem::take(&mut self.handed);
            for lost in plan.lost.iter().filter(|l| l.reconstructor != me) {
                let rows = lost.range.start.max(new_range.start)..lost.range.end.min(new_range.end);
                if !rows.is_empty() {
                    blocks.push(take_over(ctx, lost.reconstructor, handover, rows));
                }
            }
            blocks.append(&mut self.blocks);
            let own = (!plan.am_failed).then_some(&plan.my_range);
            kernel.splice(&new_range, own, &blocks, at.env.b);
        }
        if shrunk {
            rebuild_layout_after_shrink(ctx, at, layout, kernel);
        }
        (self.wire.inner_iterations, None)
    }
}

impl Reconstruction {
    /// Stage 1: route the replicated scalars to the replaced ranks and the
    /// retained copies to the reconstructors, which rebuild the locally
    /// derivable part of their blocks.
    fn gather(
        &mut self,
        ctx: &mut NodeCtx,
        at: &Attempt<'_>,
        layout: &Layout,
        kernel: &mut dyn ResilientKernel,
    ) {
        let (plan, seq) = (at.plan, at.seq);
        let me = plan.me;
        // ---- replicated scalars → the replaced ranks -------------------
        // Adopters are survivors and already hold them; replaced ranks
        // lost theirs to poisoning and receive them from the lowest
        // survivor.
        let lowest_surv = plan.survivors[0];
        let resent = kernel.shape().resent_scalars;
        if me == lowest_surv {
            let sc: Vec<f64> = resent.iter().map(|&i| kernel.scalars()[i]).collect();
            for &f in plan.replaced() {
                ctx.send(
                    f,
                    tag(seq, OFF_SCALARS),
                    Payload::f64s(sc.clone()),
                    CommPhase::Recovery,
                );
            }
        } else if plan.am_failed {
            let sc = ctx
                .recv_phase(lowest_surv, tag(seq, OFF_SCALARS), CommPhase::Recovery)
                .into_f64s();
            for (&i, v) in resent.iter().zip(sc) {
                kernel.scalars_mut()[i] = v;
            }
        }

        // ---- surviving rows → their new holders ------------------------
        // Known at the boundary, so a survivor hands each of its old rows
        // it does not hold after the event to the holder now, under the
        // scalars' tag (sent before these). The holder receives them at
        // the end of this stage, which an aborted attempt also completes.
        if !plan.am_failed {
            let vecs = &kernel.vecs()[..kernel.shape().n_block_vecs];
            plan.hand_over(ctx, tag(seq, OFF_SCALARS), vecs, &plan.my_range);
        }

        // ---- retained copies → reconstructors --------------------------
        // Every survivor sends, per failed block in sorted order and per
        // channel read, its retained pairs in that block's range to the
        // block's reconstructor; FIFO (src, tag) ordering disambiguates
        // multiple blocks bound for the same reconstructor.
        let reads = kernel.channel_reads(at.env.has_prev);
        assert!(
            reads.len() as u32 <= OFF_DYNAMIC - OFF_COPIES,
            "kernel declares more channel reads than the tag window holds"
        );
        let retained = |rd: &ChannelRead, range: &Range<usize>| {
            layout.channels[rd.channel].collect_range(rd.generation, range.start, range.end)
        };
        if !plan.am_failed {
            // Blocks this survivor adopts itself are read locally below.
            for lost in plan.lost.iter().filter(|l| l.reconstructor != me) {
                for (ri, rd) in reads.iter().enumerate() {
                    ctx.send(
                        lost.reconstructor,
                        tag(seq, OFF_COPIES + ri as u32),
                        Payload::pairs(retained(rd, &lost.range)),
                        CommPhase::Recovery,
                    );
                }
            }
        }
        for lost in plan.mine() {
            let mut copies: Vec<Option<Vec<f64>>> = Vec::with_capacity(reads.len());
            for (ri, rd) in reads.iter().enumerate() {
                // A replacement node's own retention is lost.
                let own = if plan.am_failed {
                    Vec::new()
                } else {
                    retained(rd, &lost.range)
                };
                let tag = tag(seq, OFF_COPIES + ri as u32);
                copies.push(assemble_range(ctx, plan, own, &lost.range, tag, rd));
            }
            let mut blk = ReconBlock {
                range: lost.range.clone(),
                vecs: vec![Vec::new(); kernel.shape().n_block_vecs],
            };
            kernel.rebuild_local(ctx, at.env, &mut blk, copies);
            self.blocks.push(blk);
        }
        let new_range = plan.new_part.range(plan.new_slot());
        for (src, rows) in cut(&layout.part, &layout.members, &new_range) {
            if src != me && plan.failed.binary_search(&src).is_err() {
                self.handed
                    .push(take_over(ctx, src, tag(seq, OFF_SCALARS), rows));
            }
        }
    }
}

/// Receive the piece `rows` that `from` hands over
/// ([`EventPlan::hand_over`]).
fn take_over(ctx: &mut NodeCtx, from: usize, tag: u32, rows: Range<usize>) -> ReconBlock {
    let data = ctx.recv_phase(from, tag, CommPhase::Recovery).into_f64s();
    let vecs = data.chunks(rows.len()).map(<[f64]>::to_vec).collect();
    ReconBlock { range: rows, vecs }
}

/// Assemble one failed block over `range` from the `(global index, value)`
/// pair lists sent by every survivor except the receiver itself, seeded
/// with the receiver's own retained pairs (`own`, empty on a replacement
/// node whose retention is lost). Panics on a coverage gap when the read is
/// required (more simultaneous failures than φ); returns `None` on a gap
/// otherwise (e.g. no `p(j-1)` exists yet at iteration 0).
fn assemble_range(
    ctx: &mut NodeCtx,
    plan: &EventPlan,
    own: Vec<(u64, f64)>,
    range: &Range<usize>,
    tag: u32,
    read: &ChannelRead,
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
    for &s in plan.survivors.iter().filter(|&&s| s != plan.me) {
        let pairs = ctx.recv_phase(s, tag, CommPhase::Recovery).into_pairs();
        put(pairs, &mut vals, &mut got);
    }
    if let Some(o) = got.iter().position(|&g| !g) {
        if read.required {
            panic!(
                "rank {}: unrecoverable — no surviving copy of {}[{}]; \
                 more simultaneous failures than φ?",
                plan.me,
                read.what,
                range.start + o
            );
        }
        return None;
    }
    Some(vals)
}

/// The columns of `m`'s `rows` that fall in `own` — what the owner of `own`
/// serves their reconstructor — sorted and unique. A row's columns are
/// sorted, so its slice is two binary searches.
fn served_cols(m: &Csr, rows: impl Iterator<Item = usize>, own: &Range<usize>) -> Vec<usize> {
    let mut cols = Vec::new();
    for gr in rows {
        let (row, _) = m.row(gr);
        let lo = row.partition_point(|&c| (c as usize) < own.start);
        let hi = row.partition_point(|&c| (c as usize) < own.end);
        cols.extend(row[lo..hi].iter().map(|&c| c as usize));
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The columns of `m`'s `rows` outside `If` — what their reconstructor
/// needs from the survivors — sorted and unique.
fn needed_cols(m: &Csr, rows: impl Iterator<Item = usize>, if_indices: &[usize]) -> Vec<usize> {
    let mut cols = Vec::new();
    for gr in rows {
        let outside = m.row(gr).0.iter().map(|&c| c as usize);
        cols.extend(outside.filter(|c| if_indices.binary_search(c).is_err()));
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// One reconstructor's exchange of an `If` vector with the others
/// ([`EventPlan::if_exchange`]): in place of a group all-gather, only the
/// entries some member's rows read travel, each pair at most once.
struct IfExchange {
    /// The tag every exchange of this vector travels under; FIFO
    /// `(src, tag)` order keeps successive exchanges apart.
    tag: u32,
    /// This node's `If` slice.
    own: Range<usize>,
    /// Per other member, ascending: `(member, sends, receives)` — the
    /// sorted positions of `own` that the member's rows read, and the
    /// sorted positions of the member's slice that this node's rows read.
    peers: Vec<(usize, Vec<usize>, Vec<usize>)>,
}

impl IfExchange {
    /// Send each coupled member its entries of `mine` (this node's slice),
    /// copy `mine` into `full` and receive every coupled member's run in
    /// ascending order: `full` (indexed by `If` position) then holds the
    /// all-gathered value at every position this node's rows read.
    fn run(&self, ctx: &mut NodeCtx, mine: &[f64], full: &mut [f64]) {
        for (q, sends, _) in self.peers.iter().filter(|p| !p.1.is_empty()) {
            let vals = sends.iter().map(|&p| mine[p - self.own.start]).collect();
            ctx.send(*q, self.tag, Payload::f64s(vals), CommPhase::Recovery);
        }
        full[self.own.clone()].copy_from_slice(mine);
        for (q, _, recvs) in self.peers.iter().filter(|p| !p.2.is_empty()) {
            let vals = ctx.recv_phase(*q, self.tag, CommPhase::Recovery);
            let vals = vals.into_f64s();
            assert_eq!(vals.len(), recvs.len(), "run from rank {q}");
            for (&p, v) in recvs.iter().zip(vals) {
                full[p] = v;
            }
        }
    }

    /// The members this node is coupled to, either way round.
    fn coupled(&self) -> impl Iterator<Item = &(usize, Vec<usize>, Vec<usize>)> {
        self.peers
            .iter()
            .filter(|p| !p.1.is_empty() || !p.2.is_empty())
    }

    /// Send every coupled member `head`, then its entries of `mine`; an
    /// empty `mine` sends the head alone.
    fn push(&self, ctx: &mut NodeCtx, head: &[f64], mine: &[f64]) {
        for (q, sends, _) in self.coupled() {
            let mut vals = head.to_vec();
            if !mine.is_empty() {
                vals.extend(sends.iter().map(|&p| mine[p - self.own.start]));
            }
            ctx.send(*q, self.tag, Payload::f64s(vals), CommPhase::Recovery);
        }
    }

    /// Receive every coupled member's [`IfExchange::push`] with a head of
    /// `h` values and write its run, if it sent one, into `full`. Returns
    /// the head, the same from every member; `None` with no coupled member.
    fn pull(&self, ctx: &mut NodeCtx, h: usize, full: &mut [f64]) -> Option<Vec<f64>> {
        let mut head = None;
        for (q, _, recvs) in self.coupled() {
            let vals = ctx
                .recv_phase(*q, self.tag, CommPhase::Recovery)
                .into_f64s();
            let ok = vals.len() == h || vals.len() == h + recvs.len();
            assert!(ok, "run of {} from rank {q}", vals.len());
            for (&p, &v) in recvs.iter().zip(&vals[h..]) {
                full[p] = v;
            }
            head = Some(vals[..h].to_vec());
        }
        head
    }
}

/// The engine's distributed-rebuild toolkit, handed to
/// [`ResilientKernel::rebuild_distributed`]. Every helper is collective
/// over the active members (survivors serve, reconstructors compute), so
/// kernels must call them unconditionally — not gated on whether this node
/// reconstructs anything.
pub(crate) struct EngineComm<'a> {
    /// The attempt: its tag window and plan (`at.plan.if_indices` is `If`).
    pub at: &'a Attempt<'a>,
    /// The layout the event started on.
    layout: &'a Layout,
    wire: &'a mut Wire,
}

impl EngineComm<'_> {
    fn next_tag(&mut self) -> u32 {
        let off = OFF_DYNAMIC + self.wire.gathers;
        self.wire.gathers += 1;
        assert!(off < TAG_STRIDE - self.wire.pushes, "tag window full");
        tag(self.at.seq, off)
    }

    /// The exchange of an `If` vector over `m`'s pattern, under a fresh tag
    /// from the top of the window. Reconstructors only.
    fn if_exchange(&mut self, m: &Csr) -> IfExchange {
        self.wire.pushes += 1;
        let off = TAG_STRIDE - self.wire.pushes;
        assert!(off >= OFF_DYNAMIC + self.wire.gathers, "tag window full");
        self.at.plan.if_exchange(m, tag(self.at.seq, off))
    }

    /// Survivor-served value lookup: every reconstructor obtains the value
    /// of the distributed vector (whose owned block is `v_loc` on every
    /// active node) at each column of `m`'s rows within its blocks that
    /// falls outside `If`. Returns the sorted `(column, value)` lookup on
    /// reconstructors, `None` on pure survivors. Collective.
    ///
    /// Pushed over the static pattern: `m`, the plan and the partition are
    /// the same on every node, so each survivor derives what each other
    /// reconstructor needs from its block and sends exactly that, and each
    /// reconstructor receives from exactly the owners of its needed
    /// columns, ascending. No request, no empty message.
    pub fn gather_outside(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        blocks: &[ReconBlock],
        v_loc: &[f64],
    ) -> Option<Vec<(usize, f64)>> {
        let tag = self.next_tag();
        let (plan, part) = (self.at.plan, &self.layout.part);
        let (me, my_range) = (plan.me, &plan.my_range);
        if !plan.am_failed {
            for &rho in plan.reconstructors.iter().filter(|&&rho| rho != me) {
                let cols = served_cols(m, plan.rows_of(rho), my_range);
                if !cols.is_empty() {
                    let value = |c: usize| (c as u64, v_loc[c - my_range.start]);
                    let pairs = cols.into_iter().map(value).collect();
                    ctx.send(rho, tag, Payload::pairs(pairs), CommPhase::Recovery);
                }
            }
        }
        if blocks.is_empty() {
            return None;
        }
        let needed = needed_cols(m, plan.rows_of(me), &plan.if_indices);
        // Ascending columns on a contiguous partition: one run per owner,
        // owners ascending — so the lookup comes out sorted. An adopter
        // reads its own block locally.
        let mut lookup = Vec::with_capacity(needed.len());
        for run in needed.chunk_by(|&a, &b| part.owner_of(a) == part.owner_of(b)) {
            let owner = self.layout.members[part.owner_of(run[0])];
            if owner == me {
                lookup.extend(run.iter().map(|&c| (c, v_loc[c - my_range.start])));
            } else {
                let pairs = ctx.recv_phase(owner, tag, CommPhase::Recovery).into_pairs();
                debug_assert!(pairs.iter().map(|e| e.0 as usize).eq(run.iter().copied()));
                lookup.extend(pairs.into_iter().map(|(g, v)| (g as usize, v)));
            }
        }
        Some(lookup)
    }

    /// `blocks[*].vecs[out_slot] = (m · v)` restricted to each block's
    /// rows, for a distributed vector `v` whose reconstructed `If`-part
    /// lives in `vecs[v_slot]` of the reconstructors' blocks (pushed among
    /// them over the static pattern, [`IfExchange`]) and whose surviving
    /// part is `v_loc` (survivor ghost gather). Collective.
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
        let mine: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.vecs[v_slot].iter().copied())
            .collect();
        let if_indices = &self.at.plan.if_indices;
        let mut v_if = vec![0.0; if_indices.len()];
        self.if_exchange(m).run(ctx, &mine, &mut v_if);
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
                    match if_indices.binary_search(&c) {
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
    /// blocks matching each member's reconstructed rows). Its operator is a
    /// sub-matrix SpMV over `z` pushed over the static pattern
    /// ([`IfExchange`]); its recurrence is single-reduction PCG. On a
    /// bipartite coupling of the members and with exact block factors it
    /// eliminates half of them ([`eliminate_reds`]); otherwise it runs over
    /// the whole group, one group all-reduce per iteration. `rhs` and the
    /// result run over this member's rows ([`EventPlan::if_slices`]).
    /// `statics` is the store when `m` is the system matrix (`None` for
    /// `P`). Reconstructors only.
    pub fn solve_if_system(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        statics: Option<&StaticData>,
        rhs: Vec<f64>,
    ) -> Vec<f64> {
        let (rcfg, plan) = (&self.at.env.res.recovery, self.at.plan);
        let ex = self.if_exchange(m);
        let groups = &mut self.wire.groups;
        let (y, iters) = solve_failed_rows(ctx, groups, &ex, rcfg, plan, m, statics, rhs);
        self.wire.inner_iterations += iters;
        y
    }

    /// Stage 3, the x reconstruction (Alg. 2 lines 7–8): reconstructors
    /// gather the surviving x values their failed rows couple to, form
    /// `w = b_If − r_If − A_{If,I\If} x_{I\If}`, and solve
    /// `A_{If,If} x_If = w` cooperatively over the group.
    fn solve_x(
        &mut self,
        ctx: &mut NodeCtx,
        kernel: &dyn ResilientKernel,
        blocks: &mut [ReconBlock],
    ) {
        let env = self.at.env;
        let if_indices = &self.at.plan.if_indices;
        let a: &Csr = env.statics.matrix();
        let &KernelShape { r_slot, x_slot, .. } = kernel.shape();
        let lookup = self.gather_outside(ctx, a, blocks, &kernel.vecs()[x_slot]);
        if blocks.is_empty() {
            return;
        }
        let lookup = lookup.expect("reconstructors obtain the x lookup");
        let mut rhs: Vec<f64> = Vec::new();
        for blk in blocks.iter() {
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
        }
        let x_new = self.solve_if_system(ctx, a, Some(env.statics), rhs);
        let mut off = 0usize;
        for blk in blocks {
            blk.vecs[x_slot] = x_new[off..off + blk.range.len()].to_vec();
            off += blk.range.len();
        }
    }
}

/// The cooperative inner solve behind [`EngineComm::solve_if_system`].
#[allow(clippy::too_many_arguments)]
fn solve_failed_rows(
    ctx: &mut NodeCtx,
    groups: &mut Vec<Group>,
    ex: &IfExchange,
    rcfg: &RecoveryConfig,
    plan: &EventPlan,
    m: &Csr,
    statics: Option<&StaticData>,
    rhs: Vec<f64>,
) -> (Vec<f64>, usize) {
    let rank = ctx.rank();
    // This member's rows of M_{If,If} (columns renumbered into If).
    let rows: Vec<usize> = plan.rows_of(plan.me).collect();
    let sub = m.extract(&rows, &plan.if_indices);
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
            own = StaticData::new(Arc::new(m.extract(&rows, &rows)));
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

    if let BlockPrec::Exact(f) = &prec {
        if let Some(red) = red_members(&plan.coupling(m)) {
            return eliminate_reds(ctx, groups, ex, rcfg, plan, &sub, f, &red, rhs);
        }
    }
    // The If-vector `sub` multiplies: exact at every position it reads.
    let mut z_full = vec![0.0; plan.if_indices.len()];
    let group = group_over(ctx, groups, &plan.reconstructors);
    inner_cg(ctx, rcfg, rhs, |ctx, r, z, w, _, _| {
        apply_prec(&prec, r, z);
        ex.run(ctx, z, &mut z_full);
        sub.spmv(&z_full, w);
        ctx.clock_mut().advance_flops(sub.spmv_flops());
        group.allreduce_vec(ctx, ReduceOp::Sum, vec![dot(r, r), dot(r, z), dot(z, w)])
    })
}

/// The sub-communicator over `ranks`, created on first use.
fn group_over<'g>(ctx: &mut NodeCtx, gs: &'g mut Vec<Group>, ranks: &[usize]) -> &'g mut Group {
    if !gs.iter().any(|g| g.members() == ranks) {
        gs.push(ctx.group(ranks));
    }
    gs.iter_mut()
        .find(|g| g.members() == ranks)
        .expect("created")
}

/// Which reconstructors a red-black inner solve eliminates ("reds"), per
/// vertex of the coupling graph `adj`: in each connected component the
/// larger colour class, ties to the class of its lowest member, so an
/// uncoupled member is red. `None` when a component has an odd cycle.
fn red_members(adj: &[Vec<usize>]) -> Option<Vec<bool>> {
    // Breadth-first 2-colouring: `side[v]` is whether v is on its
    // component root's side.
    let mut side: Vec<Option<bool>> = vec![None; adj.len()];
    let mut red = vec![false; adj.len()];
    for root in 0..adj.len() {
        if side[root].is_some() {
            continue;
        }
        side[root] = Some(true);
        let mut comp = vec![root];
        let mut k = 0;
        while let Some(&v) = comp.get(k) {
            k += 1;
            for &u in &adj[v] {
                if side[u].is_none() {
                    side[u] = side[v].map(|c| !c);
                    comp.push(u);
                } else if side[u] == side[v] {
                    return None;
                }
            }
        }
        let rooted = comp.iter().filter(|&&v| side[v] == Some(true)).count();
        let reds = Some(2 * rooted >= comp.len());
        for &v in &comp {
            red[v] = side[v] == reds;
        }
    }
    Some(red)
}

/// The inner solve on a bipartite coupling graph (`red` per reconstructor,
/// [`red_members`]): red-black elimination. No two reds are coupled, so
/// `A_RR` is block diagonal: the reds are eliminated exactly with their
/// block factors (`solve`), and the blacks run [`inner_cg`] on the Schur
/// complement `S = A_BB − A_BR A_RR⁻¹ A_RB`, preconditioned by their own
/// exact factors. Messages travel along the coupling graph only:
///
/// * a red sends `u = A_RR⁻¹ w_R`; the blacks start from `r = w_B − A_BR u`;
/// * per step a black sends its `z` headed by `[β, α, 1]`, the recurrence's
///   last coefficients; a red serves `y = −A_RR⁻¹ A_RB z` back and carries
///   `q = y + βq` (that is `−A_RR⁻¹ A_RB p`) and `x_R += αq`, so `x_R` ends
///   as `u − A_RR⁻¹ A_RB x_B = A_RR⁻¹ (w_R − A_RB x_B)` with no further solve;
/// * the blacks' dot products are local with one black, which tests
///   convergence before a step, and one black-group all-reduce otherwise;
/// * converged, a black sends the head `[β, α, 0]` alone.
///
/// An uncoupled member is red and solves directly. Every member returns the
/// blacks' iteration count.
#[allow(clippy::too_many_arguments)]
fn eliminate_reds(
    ctx: &mut NodeCtx,
    groups: &mut Vec<Group>,
    ex: &IfExchange,
    rcfg: &RecoveryConfig,
    plan: &EventPlan,
    sub: &Csr,
    factor: &SparseLdl,
    red: &[bool],
    rhs: Vec<f64>,
) -> (Vec<f64>, usize) {
    let solve = |v: &[f64]| {
        let mut z = v.to_vec();
        factor.solve_in_place(&mut z);
        z
    };
    let nloc = rhs.len();
    let rhos = plan.reconstructors.iter().copied();
    let blacks: Vec<usize> = rhos
        .zip(red)
        .filter_map(|(q, &r)| (!r).then_some(q))
        .collect();
    let mut full = vec![0.0; plan.if_indices.len()];
    // `−sub` on the other members' slices (`−A_RB` on a red, `−A_BR` on a
    // a black), and the values of `full` there.
    let own = ex.own.clone();
    let outside: Vec<usize> = (0..own.start).chain(own.end..full.len()).collect();
    let mut off = sub.extract(&(0..nloc).collect::<Vec<_>>(), &outside);
    off.vals_mut().iter_mut().for_each(|v| *v = -*v);
    let others = |full: &[f64]| [&full[..own.start], &full[own.end..]].concat();
    if blacks.binary_search(&plan.me).is_err() {
        let mut x = solve(&rhs);
        ex.push(ctx, &[], &x);
        let (mut y, mut q, mut iters) = (vec![0.0; nloc], vec![0.0; nloc], 0);
        while let Some(head) = ex.pull(ctx, 3, &mut full) {
            // Serve first: carrying `q` and `x` is off the blacks' path.
            let served = (head[2] != 0.0).then(|| {
                let mut t = vec![0.0; nloc];
                off.spmv(&others(&full), &mut t);
                ctx.clock_mut().advance_flops(off.spmv_flops());
                let next = solve(&t);
                ex.push(ctx, &[], &next);
                next
            });
            xpay(&y, head[0], &mut q);
            axpy(head[1], &q, &mut x);
            iters += usize::from(head[1] != 0.0);
            ctx.clock_mut().advance_flops(4 * nloc);
            match served {
                Some(next) => y = next,
                None => break,
            }
        }
        return (x, iters);
    }
    let mut group = (blacks.len() > 1).then(|| group_over(ctx, groups, &blacks));
    ex.pull(ctx, 0, &mut full);
    let mut r = rhs;
    off.spmv_add(&others(&full), &mut r);
    ctx.clock_mut().advance_flops(off.spmv_flops() + nloc);
    // The coefficients a red has not been sent when the solve ends.
    let mut unsent = [0.0; 2];
    let out = inner_cg(ctx, rcfg, r, |ctx, r, z, w, [beta, alpha], target_sq| {
        let rr = dot(r, r);
        if group.is_none() && rr <= target_sq {
            unsent = [beta, alpha];
            return vec![rr, 0.0, 0.0];
        }
        z.copy_from_slice(&solve(r));
        ex.push(ctx, &[beta, alpha, 1.0], z);
        ex.pull(ctx, 0, &mut full);
        full[own.clone()].copy_from_slice(z);
        sub.spmv(&full, w);
        ctx.clock_mut().advance_flops(sub.spmv_flops());
        let dots = vec![rr, dot(r, z), dot(z, w)];
        match group.as_mut() {
            Some(g) => g.allreduce_vec(ctx, ReduceOp::Sum, dots),
            None => dots,
        }
    });
    ex.push(ctx, &[unsent[0], unsent[1], 0.0], &[]);
    out
}

/// Single-reduction (Chronopoulos–Gear) PCG from `x = 0` on residual `r`:
/// `w = A z` every iteration, `s = A p` carried as `s = w + βs`, and
/// `[‖r‖², rᵀz, zᵀw]` in one reduction; `pᵀAp` follows as `zᵀw − β·rᵀz/α`.
/// `step(ctx, r, z, w, [β, α], target)` sets `z = M⁻¹ r` and `w = A z` and
/// returns the three sums over the solve's members. It is passed the last
/// `β` and `α` (zero before the first) and the exit threshold on `‖r‖²`
/// (zero before it is known), which it may test before stepping. Stops at
/// `‖r‖² ≤ tol²·‖r₀‖²`; returns `x` and the iterations.
fn inner_cg(
    ctx: &mut NodeCtx,
    rcfg: &RecoveryConfig,
    mut r: Vec<f64>,
    mut step: impl FnMut(&mut NodeCtx, &[f64], &mut [f64], &mut [f64], [f64; 2], f64) -> Vec<f64>,
) -> (Vec<f64>, usize) {
    let nloc = r.len();
    let mut x = vec![0.0; nloc];
    let mut z = vec![0.0; nloc];
    let mut w = vec![0.0; nloc];
    let mut red = step(ctx, &r, &mut z, &mut w, [0.0; 2], 0.0);
    if red[0] <= f64::MIN_POSITIVE {
        return (x, 0);
    }
    let target_sq = rcfg.inner_rel_tol * rcfg.inner_rel_tol * red[0];
    let (mut p, mut s) = (z.clone(), w.clone());
    let (mut gamma, mut pap, mut beta) = (red[1], red[2], 0.0);
    let mut iters = 0usize;
    loop {
        if !(pap > 0.0 && pap.is_finite()) || iters == rcfg.inner_max_iter {
            let cause = if iters == rcfg.inner_max_iter {
                format!("inner_max_iter = {iters} reached")
            } else {
                format!("breakdown, pᵀAp = {pap}")
            };
            let rank = ctx.rank();
            panic!("rank {rank}: inner reconstruction solver stopped unconverged: {cause}");
        }
        let alpha = gamma / pap;
        iters += 1;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &s, &mut r);
        ctx.clock_mut().advance_flops(4 * nloc);
        red = step(ctx, &r, &mut z, &mut w, [beta, alpha], target_sq);
        if red[0] <= target_sq {
            return (x, iters);
        }
        beta = red[1] / gamma;
        gamma = red[1];
        pap = red[2] - beta * gamma / alpha;
        xpay(&z, beta, &mut p);
        xpay(&w, beta, &mut s);
        ctx.clock_mut().advance_flops(4 * nloc);
    }
}

/// `M_{b,b} v_b`, or with `inverse` `M_{b,b}⁻¹ v_b`, for one failed block
/// from static data alone — the M-given reconstruction step (companion
/// paper Alg. 3) and its inverse (pipelined PCG rebuilds `q = M⁻¹ s` per
/// block), local because the block-diagonal preconditioners align with the
/// block boundaries. What lets an *adopter* reconstruct a block it never
/// owned. A block that was itself an adopter's widened range covers
/// several setup blocks, and the `M` applied to it was theirs.
pub(crate) fn m_block(
    ctx: &mut NodeCtx,
    env: &EngineEnv<'_>,
    range: &Range<usize>,
    v: &[f64],
    inverse: bool,
) -> Vec<f64> {
    let statics = env.statics;
    let mut out = v.to_vec();
    match env.precond {
        PrecondConfig::None => {}
        PrecondConfig::Jacobi => {
            let d = statics.block(range).diag.diag();
            ctx.clock_mut().advance_flops(range.len());
            for (o, d) in out.iter_mut().zip(&d) {
                *o = if inverse { *o / d } else { *o * d };
            }
        }
        PrecondConfig::BlockJacobiExact => {
            for piece in env.setup.blocks_of(range).map(|k| env.setup.range(k)) {
                let rows = piece.start - range.start..piece.end - range.start;
                if inverse {
                    let factor = statics
                        .factor(&piece)
                        .unwrap_or_else(|e| panic!("reconstruction block {piece:?} not SPD: {e}"));
                    ctx.clock_mut().advance_flops(20 * factor.l_nnz().max(1));
                    factor.solve_in_place(&mut out[rows]);
                    ctx.clock_mut().advance_flops(factor.solve_flops());
                } else {
                    let block = statics.block(&piece);
                    block.diag.spmv(&v[rows.clone()], &mut out[rows]);
                    ctx.clock_mut().advance_flops(block.diag.spmv_flops());
                }
            }
        }
        // Guarded by config validation; the P-given path reconstructs r
        // through the kernel's distributed stage instead.
        PrecondConfig::ExplicitP(_) => unreachable!("ExplicitP has no local block operator"),
    }
    out
}

/// Rebuild every vector of `vecs` (slot = index) over `new_range` from the
/// node's old owned values (`own_range` is `None` for a replaced rank,
/// whose old values are poisoned) and the blocks' vectors of the same
/// slot: rebuilt, or handed over. Each source gives the rows it shares
/// with `new_range`; together they must cover every row.
pub(crate) fn splice_slots(
    vecs: &mut [Vec<f64>],
    new_range: &Range<usize>,
    own_range: Option<&Range<usize>>,
    blocks: &[ReconBlock],
) {
    for (slot, v) in vecs.iter_mut().enumerate() {
        let mut out = vec![f64::NAN; new_range.len()];
        let blocks = blocks.iter().map(|b| (&b.range, &b.vecs[slot][..]));
        for (range, src) in own_range.map(|own| (own, &v[..])).into_iter().chain(blocks) {
            let rows = range.start.max(new_range.start)..range.end.min(new_range.end);
            if !rows.is_empty() {
                out[rows.start - new_range.start..rows.end - new_range.start]
                    .copy_from_slice(&src[rows.start - range.start..rows.end - range.start]);
            }
        }
        assert!(out.iter().all(|x| !x.is_nan()), "shrink splice left a gap");
        *v = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CrConfig, SolverKind};
    use crate::driver::{run, Problem};
    use parcomm::{CostModel, FailureEvent, FailureScript};
    use sparsemat::gen::poisson2d;

    /// The last overlap boundary (the one `FailureScript::validate` still
    /// admits) aborts an attempt that has run all three stages: the first
    /// attempt ends in the flavor's third stage label, uncommitted, and the
    /// second one covers the enlarged failed set.
    #[test]
    fn failure_at_the_last_overlap_boundary_restarts_the_attempt() {
        let problem = Problem::with_ones_solution(poisson2d(14, 14));
        let last = RECOVERY_SUBSTEPS - 1;
        let script = || {
            FailureScript::new(vec![
                FailureEvent {
                    when: FailAt::Iteration(6),
                    ranks: vec![2],
                },
                FailureEvent {
                    when: FailAt::RecoverySubstep {
                        after_iteration: 6,
                        substep: last,
                    },
                    ranks: vec![4],
                },
            ])
        };
        let cr = CrConfig::default().with_interval(5).with_copies(2);
        for (protection, third_stage) in [
            (Protection::Esr, "xsolve"),
            (Protection::Checkpoint(cr), "idle"),
        ] {
            let mut cfg = SolverConfig::resilient(2);
            cfg.resilience = cfg.resilience.map(|res| res.with_protection(protection));
            let res = run(
                SolverKind::Pcg,
                &problem,
                7,
                &cfg,
                CostModel::default(),
                script(),
            )
            .expect("supported configuration");
            assert!(res.converged, "{third_stage}");
            assert_eq!(res.ranks_recovered, 2, "{third_stage}");
            let segments = &res.recovery_timelines[0].segments;
            let first: Vec<&str> = segments
                .iter()
                .filter(|s| s.attempt == 1)
                .map(|s| s.label)
                .collect();
            assert_eq!(first.last(), Some(&third_stage));
            assert_eq!(first.len(), RECOVERY_SUBSTEPS as usize);
            assert!(segments
                .iter()
                .any(|s| s.attempt == 2 && s.label == "commit"));
            assert!(segments.iter().all(|s| s.attempt <= 2));
        }
    }

    /// The new partition in setup blocks: each new member's first one.
    fn block_starts(plan: &EventPlan, setup: &BlockPartition) -> Vec<usize> {
        let starts = &plan.new_part.starts()[..plan.new_members.len()];
        starts.iter().map(|&r| setup.owner_of(r)).collect()
    }

    /// The reconstructor rule: the replaced rank itself, else the nearest
    /// preceding new member, or the first for a leading run.
    fn assert_reconstructors(plan: &EventPlan) {
        for l in &plan.lost {
            let before = plan.new_members.iter().rev().find(|&&m| m < l.rank);
            let rule = match plan.replaced().contains(&l.rank) {
                true => l.rank,
                false => *before.unwrap_or(&plan.new_members[0]),
            };
            assert_eq!(l.reconstructor, rule, "{:?}, rank {}", plan.failed, l.rank);
        }
    }

    /// A Shrink balances the setup blocks over the members left: an
    /// interior run of one or two goes to its neighbours, the preceding
    /// one rebuilding it all; a longer run, or one at either end, also
    /// moves a neighbouring survivor block along. Checked on the setup
    /// partition of eight nodes: the new partition, the reconstructors,
    /// and that no member holds more than ⌈N/N′⌉ setup blocks.
    #[test]
    fn a_shrink_splits_each_interior_run_between_its_neighbours() {
        let members: Vec<usize> = (0..8).collect();
        let part = BlockPartition::new(61, members.len());
        // (failed, replacement budget, each new member's first setup block).
        type Event = (&'static [usize], usize, &'static [usize]);
        let events: [Event; 9] = [
            (&[3], 0, &[0, 1, 2, 4, 5, 6, 7]),
            (&[3, 4], 0, &[0, 1, 2, 4, 6, 7]),
            // Rank 1 rebuilds blocks 2–4 and holds 2–3; rank 0 takes block 1.
            (&[2, 3, 4], 0, &[0, 2, 4, 6, 7]),
            (&[0], 0, &[0, 2, 3, 4, 5, 6, 7]),
            (&[0, 1, 7], 0, &[0, 2, 4, 5, 6]),
            (&[5, 6, 7], 0, &[0, 1, 2, 4, 6]),
            (&[1, 2, 5], 0, &[0, 2, 4, 6, 7]),
            (&[3, 4, 5], 1, &[0, 1, 2, 3, 5, 7]),
            (&[3, 4], usize::MAX, &[0, 1, 2, 3, 4, 5, 6, 7]),
        ];
        for (failed, avail, want) in events {
            let plan = EventPlan::new(&members, &part, &part, 0, failed, avail);
            assert_eq!(
                block_starts(&plan, &part),
                want,
                "{failed:?}, budget {avail}"
            );
            assert_reconstructors(&plan);
            let cap = members.len().div_ceil(plan.new_members.len());
            for slot in 0..plan.new_members.len() {
                let held = part.blocks_of(&plan.new_part.range(slot));
                assert!(
                    held.len() <= cap,
                    "{failed:?}: member {slot} holds {held:?}"
                );
            }
        }
    }

    /// Plan `failed` on `members` holding `part` (cut at `setup` block
    /// starts) and hold it to brute force: its partition of the setup
    /// blocks reaches the least (largest holding, surviving blocks moved,
    /// rebuilt blocks handed over) of all contiguous partitions, the
    /// largest is ⌈blocks/N′⌉, its reconstructors follow the rule, and with
    /// nothing retired the partition is the old one.
    fn assert_optimal(
        members: &[usize],
        part: &BlockPartition,
        setup: &BlockPartition,
        failed: &[usize],
        avail: usize,
    ) -> EventPlan {
        let plan = EventPlan::new(members, part, setup, members[0], failed, avail);
        assert_reconstructors(&plan);
        if plan.retired().is_empty() {
            assert_eq!(plan.new_part, *part, "{failed:?}");
            return plan;
        }
        let n = setup.nodes();
        // Who holds block k if nothing moves, and whether it was rebuilt.
        let stay = |k: usize| {
            let held = members[part.owner_of(setup.starts()[k])];
            match plan.lost.iter().find(|l| l.rank == held) {
                Some(l) => (l.reconstructor, true),
                None => (held, false),
            }
        };
        let cost = |starts: &[usize]| {
            let (mut widest, mut moved, mut handed) = (0, 0, 0);
            for (j, &m) in plan.new_members.iter().enumerate() {
                let end = starts.get(j + 1).copied().unwrap_or(n);
                widest = widest.max(end - starts[j]);
                for (_, lost) in (starts[j]..end).map(stay).filter(|&(h, _)| h != m) {
                    *(if lost { &mut handed } else { &mut moved }) += 1;
                }
            }
            (widest, moved, handed)
        };
        let m = plan.new_members.len();
        let best = (0u32..1 << (n - 1))
            .filter(|cuts| cuts.count_ones() as usize == m - 1)
            .map(|cuts| {
                let inner = (1..n).filter(|&k| cuts >> (k - 1) & 1 == 1);
                cost(&std::iter::once(0).chain(inner).collect::<Vec<_>>())
            })
            .min()
            .unwrap();
        let got = cost(&block_starts(&plan, setup));
        assert_eq!(got, best, "{members:?} of {n}, {failed:?}, budget {avail}");
        assert_eq!(got.0, n.div_ceil(m), "{members:?} of {n}, {failed:?}");
        plan
    }

    /// Every nonempty proper subset of `members` of at most `most`.
    fn failed_sets(members: &[usize], most: usize) -> impl Iterator<Item = Vec<usize>> + '_ {
        let sets = (1u32..(1 << members.len()) - 1).map(move |set| {
            let picked = members
                .iter()
                .enumerate()
                .filter(move |&(k, _)| set >> k & 1 == 1);
            picked.map(|(_, &r)| r).collect::<Vec<usize>>()
        });
        sets.filter(move |f| f.len() <= most)
    }

    /// [`place`] against brute force: every failed set of at most four of
    /// N ≤ 9 nodes (wrapped runs included) under every replacement budget,
    /// and after each event that retires a rank a second Shrink of at most
    /// two of the members left, on the first event's partition (nine
    /// blocks, {0, 1, 2, 3} then {4, 5}: three blocks each).
    #[test]
    fn the_adoption_rule_is_the_lexicographic_optimum() {
        for n in 2..=9usize {
            let members: Vec<usize> = (0..n).collect();
            let setup = BlockPartition::new(5 * n + 3, n);
            for failed in failed_sets(&members, 4) {
                for avail in 0..=failed.len() {
                    let plan = assert_optimal(&members, &setup, &setup, &failed, avail);
                    if plan.retired().is_empty() || plan.new_members.len() < 2 {
                        continue;
                    }
                    let (members, part) = (&plan.new_members, &plan.new_part);
                    for again in failed_sets(members, 2) {
                        assert_optimal(members, part, &setup, &again, 0);
                    }
                }
            }
        }
    }

    /// A splice whose sources leave a row of the new range uncovered
    /// panics instead of installing NaN.
    #[test]
    #[should_panic(expected = "shrink splice left a gap")]
    fn a_splice_with_an_uncovered_row_panics() {
        let mut vecs = vec![vec![1.0; 4]];
        let blk = ReconBlock {
            range: 6..8,
            vecs: vec![vec![2.0; 2]],
        };
        splice_slots(&mut vecs, &(2..9), Some(&(2..6)), &[blk]);
    }

    /// The push gather is correct only if what a survivor serves a
    /// reconstructor (`served_cols` over the survivor's block) and what the
    /// reconstructor expects from it (`needed_cols`, restricted to that
    /// block) agree owner by owner. Returns how many values the survivors
    /// push for one event: reconstructors rebuilding `[1]`, `[3, 4]`, `[7]`
    /// of eight blocks.
    fn pushed_values(m: &Csr, part: &BlockPartition) -> usize {
        let groups: [&[usize]; 3] = [&[1], &[3, 4], &[7]];
        let rows = |g: &[usize]| g.iter().flat_map(|&f| part.range(f)).collect::<Vec<_>>();
        let if_indices: Vec<usize> = groups.iter().flat_map(|g| rows(g)).collect();
        let survivors: Vec<usize> = (0..part.nodes())
            .filter(|s| !groups.iter().any(|g| g.contains(s)))
            .collect();
        let mut pushed = 0;
        for g in groups {
            let needed = needed_cols(m, rows(g).into_iter(), &if_indices);
            let mut served_all = Vec::new();
            for &s in &survivors {
                let served = served_cols(m, rows(g).into_iter(), &part.range(s));
                let expected: Vec<usize> = needed
                    .iter()
                    .copied()
                    .filter(|&c| part.owner_of(c) == s)
                    .collect();
                assert_eq!(served, expected, "reconstructor of {g:?}, owner {s}");
                served_all.extend(served);
            }
            assert_eq!(
                served_all, needed,
                "every needed column has a survivor owner"
            );
            pushed += needed.len();
        }
        pushed
    }

    #[test]
    fn survivor_and_reconstructor_derive_the_same_gather() {
        use precond::{BlockJacobi, BlockSolver};
        use sparsemat::gen::{mesh_laplacian_2d, MeshOrdering};
        let a = mesh_laplacian_2d(12, 12, MeshOrdering::Random, 3);
        let part = BlockPartition::new(a.n_rows(), 8);
        let explicit_p = |blocks: &BlockPartition| {
            BlockJacobi::from_partition(&a, blocks, BlockSolver::ExactLdl)
                .expect("SPD blocks")
                .to_explicit_inverse(&a)
        };
        // A scattered pattern couples a lost block to far-away owners.
        assert!(pushed_values(&a, &part) > 0);
        // P over three blocks: dense, misaligned with the eight-block
        // partition, a pattern unlike A's.
        let misaligned = explicit_p(&BlockPartition::new(a.n_rows(), 3));
        assert_ne!(misaligned.nnz(), a.nnz());
        assert!(pushed_values(&misaligned, &part) > 0);
        // P block-diagonal on the partition: every coupled column is in
        // If, so nobody sends anything.
        assert_eq!(pushed_values(&explicit_p(&part), &part), 0);
    }

    /// The pushed `If` exchange replaces a group all-gather, so every
    /// reconstructor must end up with the all-gathered value at every
    /// position its rows of `m` read, each member sending at most one
    /// message per coupled peer. Runs the exchange on a cluster of eight
    /// nodes, for each pattern and failure event below.
    #[test]
    fn pushed_if_exchange_matches_the_all_gather() {
        use parcomm::{Cluster, ClusterConfig};
        use sparsemat::gen::{banded_spd, circuit_like, mesh_laplacian_2d, MeshOrdering};
        use sparsemat::Coo;
        // Structurally nonsymmetric: what q needs from this node follows
        // from q's rows, not from this node's.
        let circuit = circuit_like(160, 6, 0.1, 5);
        let mut lower = Coo::new(160, 160);
        for r in 0..160 {
            let (cols, vals) = circuit.row(r);
            for (&c, &v) in cols.iter().zip(vals).filter(|(&c, _)| c as usize <= r) {
                lower.push(r, c as usize, v);
            }
        }
        let patterns = [
            poisson2d(12, 12),
            mesh_laplacian_2d(12, 12, MeshOrdering::Random, 3),
            banded_spd(160, 30, 0.3, 9),
            lower.to_csr(),
        ];
        // (failed, replacement budget): ψ = 2–4 replaced in place —
        // adjacent, non-adjacent, wrapped; one replaced and two adopted;
        // Shrink with two separated runs (two adopters), with a block
        // before and after its adopter, and with three adopters.
        let events: [(&[usize], usize); 8] = [
            (&[3, 4], usize::MAX),
            (&[1, 4, 6], usize::MAX),
            (&[0, 6, 7], usize::MAX),
            (&[0, 2, 3, 5], usize::MAX),
            (&[2, 3, 6], 1),
            (&[2, 3, 6], 0),
            (&[0, 2, 5], 0),
            (&[0, 3, 7], 0),
        ];
        let members: Vec<usize> = (0..8).collect();
        let value = |row: usize| 0.5 + row as f64;
        for (k, m) in patterns.iter().enumerate() {
            let part = BlockPartition::new(m.n_rows(), members.len());
            let mut pushed = 0;
            for &(failed, avail) in &events {
                let plan_of = |me| EventPlan::new(&members, &part, &part, me, failed, avail);
                let out = Cluster::run(ClusterConfig::new(members.len()), |ctx| {
                    let plan = plan_of(ctx.rank());
                    if plan.reconstructors.binary_search(&plan.me).is_err() {
                        return None;
                    }
                    let ex = plan.if_exchange(m, tag(0, TAG_STRIDE - 1));
                    let mine: Vec<f64> = plan.rows_of(plan.me).map(value).collect();
                    let mut full = vec![f64::NAN; plan.if_indices.len()];
                    ex.run(ctx, &mine, &mut full);
                    let peers = ex.peers.iter().filter(|p| !p.1.is_empty()).count();
                    Some((full, peers, ctx.stats().msgs(CommPhase::Recovery)))
                });
                let (mut sent, mut coupled) = (0, 0);
                for (rho, got) in out.into_iter().enumerate() {
                    let Some((full, peers, msgs)) = got else {
                        continue;
                    };
                    let plan = plan_of(rho);
                    assert_eq!(msgs, peers as u64, "pattern {k}, {failed:?}: one per peer");
                    sent += peers;
                    for gr in plan.rows_of(rho) {
                        for &c in m.row(gr).0 {
                            let Ok(p) = plan.if_indices.binary_search(&(c as usize)) else {
                                continue;
                            };
                            let (got, want) = (full[p].to_bits(), value(c as usize).to_bits());
                            assert_eq!(got, want, "pattern {k}, {failed:?}, rank {rho}, col {c}");
                        }
                    }
                    let slices = plan.reconstructors.iter().zip(&plan.if_slices);
                    let (_, own) = slices.clone().find(|&(&q, _)| q == rho).unwrap();
                    assert!(plan.if_indices[own.clone()]
                        .iter()
                        .copied()
                        .eq(plan.rows_of(rho)));
                    coupled += (slices.filter(|&(&q, _)| q != rho))
                        .filter(|&(_, slice)| reads_any(m, &plan, rho, slice))
                        .count();
                }
                assert_eq!(
                    sent, coupled,
                    "pattern {k}, {failed:?}: messages = coupled pairs"
                );
                pushed += sent;
            }
            assert!(pushed > 0, "pattern {k} couples some reconstructors");
        }
    }

    /// The x solve's contract on each coupling shape. A bipartite coupling
    /// (chains at ψ = 2, 3, 5; uncoupled ψ = 3; a lone replacement; a lone
    /// adopter of two blocks) eliminates its reds: they book no all-reduce,
    /// the blacks book none with one black and one before the loop plus one
    /// per iteration with more, and the count is at most ⌈k/2⌉ + 1, k being
    /// sequential PCG's on `A_{If,If}` with the same exact block Jacobi —
    /// zero with no edge. A triangle, and ILU(0), run the loop over the
    /// whole group: one all-reduce before it and one per iteration on every
    /// member. Every member reports the same count, and every solve returns
    /// the solution of `A_{If,If} y = rhs`. Runs the solve alone on a
    /// cluster of eight nodes.
    #[test]
    fn inner_solve_reduces_only_over_the_blacks() {
        use parcomm::{Cluster, ClusterConfig};
        use precond::{BlockJacobi, BlockSolver};
        use sparsemat::gen::banded_spd;
        // Eight blocks of poisson2d(12, 12) couple only their neighbours;
        // a band of 30 over blocks of 20 rows couples k to k + 2 as well.
        let (chain, band) = (poisson2d(12, 12), banded_spd(160, 30, 0.3, 9));
        let members: Vec<usize> = (0..8).collect();
        let rhs_at = |row: usize| 1.0 + (row % 7) as f64;
        // (matrix, failed, replacement budget, exact block factor, blacks;
        // `None` for the loop over the whole group).
        type Event<'a> = (&'a Csr, &'a [usize], usize, bool, Option<usize>);
        let events: [Event; 10] = [
            (&chain, &[3, 4], usize::MAX, true, Some(1)),
            (&chain, &[2, 3, 4], usize::MAX, true, Some(1)),
            (&chain, &[1, 2, 3, 4, 5], usize::MAX, true, Some(2)),
            (&chain, &[1, 4, 6], usize::MAX, true, Some(0)),
            (&chain, &[5], usize::MAX, true, Some(0)),
            (&chain, &[3, 4], 0, true, Some(0)),
            (&band, &[2, 3, 4], usize::MAX, true, None),
            (&band, &[2, 3], usize::MAX, true, Some(1)),
            (&chain, &[5], usize::MAX, false, None),
            (&chain, &[2, 3, 4], usize::MAX, false, None),
        ];
        for (m, failed, avail, exact, blacks) in events {
            let part = BlockPartition::new(m.n_rows(), members.len());
            let rcfg = RecoveryConfig {
                exact_block_precond: exact,
                ..RecoveryConfig::default()
            };
            let plan_of = |me| EventPlan::new(&members, &part, &part, me, failed, avail);
            let out = Cluster::run(ClusterConfig::new(members.len()), |ctx| {
                let plan = plan_of(ctx.rank());
                if plan.reconstructors.binary_search(&plan.me).is_err() {
                    return None;
                }
                let ex = plan.if_exchange(m, tag(0, TAG_STRIDE - 1));
                let rhs = plan.rows_of(plan.me).map(rhs_at).collect();
                let before = ctx.stats().allreduces();
                let (y, iters) =
                    solve_failed_rows(ctx, &mut Vec::new(), &ex, &rcfg, &plan, m, None, rhs);
                Some((y, iters, ctx.stats().allreduces() - before))
            });
            let plan = plan_of(0);
            let case = format!("{failed:?}, budget {avail}, exact {exact}");
            let red = red_members(&plan.coupling(m)).filter(|_| exact);
            let black_count = red.as_ref().map(|r| r.iter().filter(|&&red| !red).count());
            assert_eq!(black_count, blacks, "{case}: blacks");
            let sub = m.extract(&plan.if_indices, &plan.if_indices);
            let rhs: Vec<f64> = plan.if_indices.iter().map(|&gr| rhs_at(gr)).collect();
            let mut starts: Vec<usize> = plan.if_slices.iter().map(|s| s.start).collect();
            starts.push(plan.if_indices.len());
            let slices = BlockPartition::from_starts(starts);
            let bj = BlockJacobi::from_partition(&sub, &slices, BlockSolver::ExactLdl).unwrap();
            let zero = vec![0.0; rhs.len()];
            let k = krylov::pcg(&sub, &rhs, &zero, &bj, rcfg.inner_rel_tol, 1000).iterations;
            let (mut y, mut counts) = (Vec::new(), Vec::new());
            for (i, (y_rho, iters, booked)) in out.into_iter().flatten().enumerate() {
                counts.push(iters);
                let expected = match (&red, blacks) {
                    (Some(red), Some(b)) if red[i] || b == 1 => 0,
                    _ => iters as u64 + 1,
                };
                assert_eq!(booked, expected, "{case}, member {i}: all-reduces");
                y.extend(y_rho);
            }
            let iters = counts[0];
            assert!(counts.iter().all(|&c| c == iters), "{case}: {counts:?}");
            match blacks {
                Some(0) => assert_eq!(iters, 0, "{case}"),
                Some(_) => assert!(
                    iters > 0 && iters <= k.div_ceil(2) + 1,
                    "{case}: {iters}, k {k}"
                ),
                None => assert!(iters > 0, "{case}"),
            }
            let mut ay = vec![0.0; y.len()];
            sub.spmv(&y, &mut ay);
            for (&gr, ay) in plan.if_indices.iter().zip(ay) {
                assert!((ay - rhs_at(gr)).abs() < 1e-10, "{case}, row {gr}");
            }
        }
    }

    /// An inner solve that exhausts `inner_max_iter` stops the run instead
    /// of handing back an `x_If` that is not the solution.
    #[test]
    #[should_panic(expected = "inner_max_iter = 1 reached")]
    fn inner_solve_out_of_iterations_panics() {
        let problem = Problem::with_ones_solution(poisson2d(14, 14));
        let mut cfg = SolverConfig::resilient(2);
        cfg.resilience.as_mut().unwrap().recovery.inner_max_iter = 1;
        let script = FailureScript::simultaneous(6, 2, 2, 7);
        let _ = run(
            SolverKind::Pcg,
            &problem,
            7,
            &cfg,
            CostModel::default(),
            script,
        );
    }

    /// Whether `rho`'s rows of `m` read any `If` position in `slice`.
    fn reads_any(m: &Csr, plan: &EventPlan, rho: usize, slice: &Range<usize>) -> bool {
        plan.rows_of(rho).any(|gr| {
            let pos = m.row(gr).0.iter();
            let mut pos = pos.filter_map(|&c| plan.if_indices.binary_search(&(c as usize)).ok());
            pos.any(|p| slice.contains(&p))
        })
    }
}
