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
//! ## Files
//!
//! * `mod.rs` (this file): the `Layout` a node program runs on; the
//!   report, timeline and bookkeeping types; the kernel contract
//!   (`ResilientKernel`, `KernelShape`, `poison`, `pack`, `unpack`,
//!   `m_block`); the `Flavor` trait, the attempt loop (`recover`) and the
//!   layout rebuild after a shrink (`rebuild_layout_after_shrink`).
//! * `plan.rs`: what an attempt derives before it communicates — the
//!   `EventPlan` (who is replaced, who retires, who rebuilds which rows,
//!   the partition afterwards, chosen by the placement DP `place`) — and
//!   the splice of rows into a moved range (`splice_slots`).
//! * `esr.rs`: the ESR flavor (`Reconstruction`) — scalars and retained
//!   copies routed to the reconstructors, rows handed to their new
//!   holders — and `EngineComm`, the collective toolkit kernels rebuild
//!   through: the one survivor-served product outside `If`, `A`-products
//!   over the failed rows, and the x reconstruction.
//! * `xsolve.rs`: the cooperative inner solve of `M_{If,If} y = w` over the
//!   reconstructors — the pushed `If` exchange, red-black elimination on a
//!   bipartite coupling, single-reduction PCG otherwise.
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
//! A **flavor** supplies its labels, three stage bodies and a commit: ESR
//! reconstruction (paper Alg. 2) or [`crate::checkpoint::Rollback`]. Both
//! end a shrinking event in [`rebuild_layout_after_shrink`]:
//! [`LocalMatrix`], [`ScatterPlan`] and redundancy targets for the
//! shrunken layout (derived from static data), preconditioner and
//! retention channels.
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
use parcomm::{CommPhase, FailAt, Group, NodeCtx, SparePool, RECOVERY_SUBSTEPS};
use sparsemat::BlockPartition;

use crate::config::{PrecondConfig, Protection, RecoveryPolicy, ResilienceConfig, SolverConfig};
use crate::localmat::LocalMatrix;
use crate::precsetup::NodePrecond;
use crate::redundancy;
use crate::retention::{CheckpointStore, Gen, Retention};
use crate::scatter::ScatterPlan;
use crate::statics::StaticData;

mod esr;
mod plan;
mod xsolve;

pub(crate) use esr::EngineComm;
use esr::Reconstruction;
pub(crate) use plan::{cut, splice_slots, EventPlan};

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
    /// One contiguous block per member, in member order (on the full
    /// cluster the copy [`StaticData`] shares for the cluster size).
    pub(crate) part: Arc<BlockPartition>,
    /// This node's block rows of `A` (shared static data).
    pub(crate) lm: Arc<LocalMatrix>,
    /// Ghost-exchange + redundancy plan on the current layout.
    pub(crate) plan: ScatterPlan,
    /// Redundant-copy stores on the current layout — one per vector the
    /// solver scatters copies of (PCG: `p`; pipelined: `u`, `p`;
    /// BiCGSTAB: `p̂`, `ŝ`).
    pub(crate) channels: Vec<Retention>,
    /// Preconditioner state on the current layout.
    pub(crate) prec: NodePrecond,
    /// Ghost values of the most recently scattered vector (one per ghost
    /// column of `lm`).
    pub(crate) ghosts: Vec<f64>,
    /// This node's slot (`plan.members[my_slot] == rank`).
    pub(crate) my_slot: usize,
    /// The shrunken communicator (`None` while the full cluster is alive).
    pub(crate) group: Option<Group>,
}

impl Layout {
    /// Build the full-cluster layout: local rows, scatter plan,
    /// preconditioner and — under ESR protection only — the redundancy
    /// extras and the solver's `n_channels` retention stores
    /// (checkpoint protection pays its deposit traffic instead, and an
    /// unprotected solve retains nothing). Collective — all nodes call
    /// together at setup.
    pub(crate) fn build_full(
        ctx: &mut NodeCtx,
        statics: &StaticData,
        cfg: &SolverConfig,
        n_channels: usize,
    ) -> Self {
        let rank = ctx.rank();
        let (part, members) = statics.cluster(ctx.size());
        let lm = statics.block(&part.range(rank));
        let mut plan = ScatterPlan::build(ctx, &lm, &part);
        plan.members = members; // the shared list, not a copy per node
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
            my_slot: rank,
            group: None,
        }
    }

    /// The SpMV scatter of `v` into [`Layout::ghosts`], to the sorted
    /// ranks `to` only (`None`: every member). Under ESR protection (the
    /// layout carries retention channels) the messages also carry the
    /// `(channel, copy)` pairs of `copies` — `None` is `v` itself — and a
    /// receiver retains each in its channel, rotating that channel's
    /// generations ([`ScatterPlan::exchange_to`] has the wire rule).
    ///
    /// This is also how a recovery is repaired: every solver scatters its
    /// last vector again and goes on with the interrupted iteration. In
    /// place the repair goes to the replaced ranks only and refills what a
    /// replacement lost with its memory (its ghosts and, for each copy
    /// passed, the channel's current generation) as a full scatter would;
    /// every survivor still holds its own. After a Shrink the layout is
    /// new, and the repair is the full scatter (`to = None`).
    pub(crate) fn scatter(
        &mut self,
        ctx: &mut NodeCtx,
        v: &[f64],
        copies: &[(usize, Option<&[f64]>)],
        to: Option<&[usize]>,
    ) {
        // Without ESR protection the layout has no channels: no copies.
        let copies = if self.channels.is_empty() {
            &[]
        } else {
            copies
        };
        // A node outside `to` receives nothing: its channels keep their
        // generations.
        let receives = to.is_none_or(|to| to.binary_search(&ctx.rank()).is_ok());
        let retained = copies.iter().map(|&(c, _)| c).filter(|_| receives);
        retained.clone().for_each(|c| self.channels[c].rotate());
        let (ghosts, channels) = (&mut self.ghosts, Some(&mut self.channels[..]));
        self.plan.exchange_to(ctx, v, ghosts, copies, channels, to);
        retained.for_each(|c| self.channels[c].finish_generation());
    }

    /// Element-wise all-reduce over the active members, charged to the
    /// Reduction phase. Bitwise-deterministic either way (same
    /// recursive-doubling schedule over member indices).
    pub(crate) fn allreduce_vec(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
    ) -> Vec<f64> {
        match &mut self.group {
            None => ctx.allreduce_vec(opr, x),
            Some(g) => g.allreduce_vec(ctx, opr, x, CommPhase::Reduction),
        }
    }

    /// Scalar sum all-reduce over the active members.
    pub(crate) fn allreduce_sum(&mut self, ctx: &mut NodeCtx, x: f64) -> f64 {
        self.allreduce_vec(ctx, ReduceOp::Sum, vec![x])[0]
    }

    /// Non-blocking element-wise all-reduce over the active members: the
    /// communication-hiding solvers keep their overlap on a shrunken
    /// cluster (the group variant replays the identical schedule, so the
    /// result stays bitwise-deterministic).
    pub(crate) fn iallreduce_vec(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
    ) -> AllreduceRequest {
        match &mut self.group {
            None => ctx.iallreduce_vec(opr, x),
            Some(g) => g.iallreduce_vec(ctx, opr, x, CommPhase::Reduction),
        }
    }

    /// Filter a world failure notification down to the active members:
    /// events naming ranks that already retired in an earlier shrink are
    /// inert — that hardware is gone and has nothing left to lose.
    pub(crate) fn poll_member_failures(&self, ctx: &NodeCtx, boundary: FailAt) -> Vec<usize> {
        ctx.poll_failures(boundary)
            .into_iter()
            .filter(|f| self.plan.members.binary_search(f).is_ok())
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
    pub(crate) statics: &'a StaticData,
    /// Full right-hand side (static data; adopters read adopted rows).
    pub(crate) b: &'a [f64],
    /// Resilience configuration (φ, strategy, inner solver, policy).
    pub(crate) res: &'a ResilienceConfig,
    /// Preconditioner configuration (per-block reconstruction + rebuild).
    pub(crate) precond: &'a PrecondConfig,
    /// The partition the cluster set up on. Its blocks are the blocks of
    /// `M` for the whole solve, whatever the layout now is.
    pub(crate) setup: &'a BlockPartition,
    /// The iteration whose boundary detected the failure.
    pub(crate) iteration: u64,
    /// `false` at iteration 0 (no previous search direction exists yet).
    pub(crate) has_prev: bool,
}

/// One `(channel, generation)` retained-copy read the engine routes from
/// the survivors to each failed block's reconstructor.
pub(crate) struct ChannelRead {
    /// Index into [`Layout::channels`].
    pub(crate) channel: usize,
    /// Which generation to read.
    pub(crate) generation: Gen,
    /// Panic on a coverage gap (`true`) or hand the kernel `None` (reads
    /// that legitimately may not exist yet, e.g. `p(j-1)` at iteration 0).
    pub(crate) required: bool,
    /// What the copies are, for diagnostics.
    pub(crate) what: &'static str,
}

/// One failed block at its reconstructor. The engine carries
/// [`KernelShape::n_block_vecs`] per-block vectors, indexed by the same
/// slot constants as the kernel's own [`ResilientKernel::vecs`]; the engine
/// itself only touches the declared `r` slot (read, for the x right-hand
/// side) and `x` slot (written by the solve).
pub(crate) struct ReconBlock {
    /// Global rows of the block (one failed rank's old owned range).
    pub(crate) range: Range<usize>,
    /// Kernel-defined per-block vectors.
    pub(crate) vecs: Vec<Vec<f64>>,
}

/// The tables that let the engine handle a kernel's state generically.
/// Indices are into [`ResilientKernel::vecs`] / [`ResilientKernel::scalars`].
pub(crate) struct KernelShape {
    /// Slots `0..n_block_vecs` are the per-block vectors: lost with a
    /// node, rebuilt per failed block, installed or spliced back. A later
    /// slot that is not packed either carries no state across a recovery —
    /// scratch, re-zeroed at the new block length — or is static.
    pub(crate) n_block_vecs: usize,
    /// Slots holding static data (on reliable storage, paper Sec. 1.1.2):
    /// the only vectors a node failure leaves intact.
    pub(crate) static_slots: &'static [usize],
    /// Slot of the residual `r` (the engine reads the reconstructed one
    /// when forming `w = b_If − r_If − A_{If,I\If} x_{I\If}`).
    pub(crate) r_slot: usize,
    /// Slot of the iterate `x` (survivors serve it to the x gather; the
    /// engine writes the reconstructed one).
    pub(crate) x_slot: usize,
    /// The checkpoint pack's vector slots **in wire order** — deposit
    /// sizes feed virtual time and the redundancy-traffic counters. The
    /// pack is these vectors concatenated, then the packed scalars.
    pub(crate) pack_slots: &'static [usize],
    /// Scalars `0..pack_scalars` are loop-top state and go into the pack;
    /// a later one is a value of the interrupted iteration (pipelined
    /// PCG's drained reduction), which a rollback recomputes.
    pub(crate) pack_scalars: usize,
    /// The replicated scalars a replacement node must be re-sent (the rest
    /// are written by the continued iteration before they are read).
    pub(crate) resent_scalars: &'static [usize],
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

/// The node failure: every vector and every scalar of this node is
/// destroyed (NaN poison; ghosts, retention channels and the deposit store
/// are poisoned by the caller), scratch included, so a kernel that read
/// scratch from before the failure would show it. Only the
/// [`KernelShape::static_slots`] survive, on reliable storage (paper
/// Sec. 1.1.2).
pub(crate) fn poison(kernel: &mut dyn ResilientKernel) {
    let keep = kernel.shape().static_slots;
    for (slot, v) in kernel.vecs_mut().iter_mut().enumerate() {
        if !keep.contains(&slot) {
            parcomm::fault::poison(v);
        }
    }
    kernel.scalars_mut().fill(f64::NAN);
}

/// Pack the loop-top state a rolled-back iteration resumes from: the
/// [`KernelShape::pack_slots`] vectors concatenated, then the
/// [`KernelShape::pack_scalars`].
pub(crate) fn pack(kernel: &dyn ResilientKernel) -> Vec<f64> {
    let (vecs, shape) = (kernel.vecs(), kernel.shape());
    let (slots, scalars) = (shape.pack_slots, &kernel.scalars()[..shape.pack_scalars]);
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
/// zeroed at the new length — the restarted iteration recomputes it — and
/// a scalar past [`KernelShape::pack_scalars`] is left as it is.
pub(crate) fn unpack(kernel: &mut dyn ResilientKernel, data: &[f64], nloc: usize) {
    let (slots, n_scalars) = (kernel.shape().pack_slots, kernel.shape().pack_scalars);
    for (slot, v) in kernel.vecs_mut().iter_mut().enumerate() {
        *v = match slots.iter().position(|&s| s == slot) {
            Some(i) => data[i * nloc..(i + 1) * nloc].to_vec(),
            None => vec![0.0; nloc],
        };
    }
    kernel.scalars_mut()[..n_scalars].copy_from_slice(&data[slots.len() * nloc..]);
}

/// The per-solve recovery bookkeeping: what the engine threads through
/// every event (tag-window sequence, spare pool, deposit store) and what
/// the node loop reports at the end.
pub(crate) struct RecoveryBook {
    /// Next tag window: numbers ESR attempts, deposit rounds and rollback
    /// attempts alike.
    pub(crate) recovery_seq: u32,
    /// This node's view of the cluster's hot-spare pool.
    pub(crate) pool: SparePool,
    /// The deposit store under [`Protection::Checkpoint`].
    pub(crate) ckpt: Option<CheckpointStore>,
    /// Completed recovery events.
    pub(crate) recoveries: usize,
    /// Ranks reconstructed across all events.
    pub(crate) ranks_recovered: usize,
    /// Virtual time spent recovering.
    pub(crate) vtime_recovery: f64,
    /// Per-substep timeline of every completed event.
    pub(crate) timelines: Vec<RecoveryTimeline>,
    /// [`RecoveryReport::inner_iterations`] of every completed event.
    pub(crate) inner_iterations: Vec<usize>,
}

impl RecoveryBook {
    /// Fresh bookkeeping at solve start.
    pub(crate) fn new(pool: SparePool, ckpt: Option<CheckpointStore>) -> Self {
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

/// One attempt as a [`Flavor`] sees it.
pub(crate) struct Attempt<'a> {
    /// The event's static context.
    pub(crate) env: &'a EngineEnv<'a>,
    /// The attempt's tag window (see [`tag`]).
    pub(crate) seq: u32,
    /// Who failed, who rebuilds what, the layout afterwards.
    pub(crate) plan: &'a EventPlan,
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
        // different attempt (a no-op where the auditor is off).
        ctx.audit_enter_window(seq);
        ctx.trace_open("attempt", seq as u64);
        let mut seg_t = ctx.vtime();
        ctx.trace_open(labels[0], 0);
        let members = &layout.plan.members;
        assert!(
            failed.len() < members.len(),
            "all {} active nodes failed — nothing left to recover from",
            members.len()
        );
        let plan = EventPlan::new(members, &layout.part, env.setup, me, &failed, avail);
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
    let members = plan.new_members.clone().into();
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

    layout.part = Arc::new(plan.new_part.clone());
    layout.ghosts = vec![0.0; lm.ghost_cols.len()];
    layout.plan = scatter;
    layout.channels = channels;
    layout.my_slot = my_new_slot;
    layout.group = Some(ctx.group(&plan.new_members));
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
}
