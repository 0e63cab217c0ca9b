//! The ESR flavor — exact state reconstruction (paper Alg. 2) — and
//! [`EngineComm`], the collective toolkit through which kernels rebuild
//! what needs distributed products. Stage 1 routes the replicated scalars
//! to the replaced ranks, the retained copies to the reconstructors and
//! surviving rows to their new holders; stage 2 is the kernel's
//! distributed rebuild; stage 3 reconstructs `x`; the commit hands rebuilt
//! rows over and splices them in.

use std::ops::Range;

use parcomm::{CommPhase, Group, NodeCtx, Payload};
use sparsemat::Csr;

use super::plan::cut;
use super::xsolve::{solve_failed_rows, IfExchange};
use super::{
    rebuild_layout_after_shrink, tag, Attempt, ChannelRead, EventPlan, Flavor, KernelShape, Layout,
    ReconBlock, ResilientKernel, OFF_COPIES, OFF_DYNAMIC, OFF_SCALARS, TAG_STRIDE,
};
use crate::statics::StaticData;

/// The ESR flavor — exact state reconstruction (paper Alg. 2) — and what
/// one attempt of it accumulates: `gather` starts from a fresh one.
#[derive(Default)]
pub(super) struct Reconstruction {
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
        for (src, rows) in cut(&layout.part, &layout.plan.members, &new_range) {
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

/// The engine's distributed-rebuild toolkit, handed to
/// [`ResilientKernel::rebuild_distributed`]. Every helper is collective
/// over the active members (survivors serve, reconstructors compute), so
/// kernels must call them unconditionally — not gated on whether this node
/// reconstructs anything.
pub(crate) struct EngineComm<'a> {
    /// The attempt: its tag window and plan.
    at: &'a Attempt<'a>,
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

    /// The product outside `If` (paper Alg. 2 lines 5 and 7): per block of
    /// `blocks`, in order, `Σ_{c∉If} m_rc v_c` at each of its rows, and the
    /// `2·nnz` flops of those rows of `m`, which the caller charges in one
    /// advance per block together with its own per-row work. `v` is the
    /// distributed vector whose owned block is `v_loc` on every active node.
    /// Empty on a node that reconstructs nothing. Collective.
    ///
    /// The values are pushed over the static pattern: `m`, the plan and the
    /// partition are the same on every node, so each survivor derives what
    /// each other reconstructor needs from its block and sends exactly
    /// that, and each reconstructor receives from exactly the owners of its
    /// needed columns, ascending. No request, no empty message.
    pub(crate) fn outside_product(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        blocks: &[ReconBlock],
        v_loc: &[f64],
    ) -> Vec<(Vec<f64>, usize)> {
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
            return Vec::new();
        }
        let needed = needed_cols(m, plan.rows_of(me), &plan.if_indices);
        // Ascending columns on a contiguous partition: one run per owner,
        // owners ascending — so the values come out in `needed` order. An
        // adopter reads its own block locally.
        let mut v_out = Vec::with_capacity(needed.len());
        for run in needed.chunk_by(|&a, &b| part.owner_of(a) == part.owner_of(b)) {
            let owner = self.layout.plan.members[part.owner_of(run[0])];
            if owner == me {
                v_out.extend(run.iter().map(|&c| v_loc[c - my_range.start]));
            } else {
                let pairs = ctx.recv_phase(owner, tag, CommPhase::Recovery).into_pairs();
                let cols = pairs.iter().map(|e| e.0 as usize);
                assert!(cols.eq(run.iter().copied()), "values from rank {owner}");
                v_out.extend(pairs.into_iter().map(|(_, v)| v));
            }
        }
        // `needed` is every column of these rows outside `If`.
        let product = |blk: &ReconBlock| {
            let rows = blk.range.clone().map(|gr| m.row(gr));
            let sums = rows.clone().map(|(cols, vals)| {
                let mut s = 0.0;
                for (c, v) in cols.iter().zip(vals) {
                    if let Ok(pos) = needed.binary_search(&(*c as usize)) {
                        s += v * v_out[pos];
                    }
                }
                s
            });
            (sums.collect(), rows.map(|(cols, _)| 2 * cols.len()).sum())
        };
        blocks.iter().map(product).collect()
    }

    /// `blocks[*].vecs[out_slot] = (m · v)` restricted to each block's
    /// rows, for a distributed vector `v` whose reconstructed `If`-part
    /// lives in `vecs[v_slot]` of the reconstructors' blocks (pushed among
    /// them over the static pattern, [`IfExchange`]) and whose surviving
    /// part is `v_loc` ([`EngineComm::outside_product`]). Collective.
    pub(crate) fn apply_matrix(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        blocks: &mut [ReconBlock],
        v_slot: usize,
        out_slot: usize,
        v_loc: &[f64],
    ) {
        let outside = self.outside_product(ctx, m, blocks, v_loc);
        if blocks.is_empty() {
            return;
        }
        let mine: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.vecs[v_slot].iter().copied())
            .collect();
        let if_indices = &self.at.plan.if_indices;
        let mut v_if = vec![0.0; if_indices.len()];
        self.if_exchange(m).run(ctx, &mine, &mut v_if);
        for (blk, (s_out, flops)) in blocks.iter_mut().zip(outside) {
            // Two partial sums — If-coupled and outside — added once at the
            // end: the same floating-point association as the former
            // sub-matrix SpMV + masked off-diagonal product, so the
            // replacement path stays bitwise faithful to it.
            let out = blk.range.clone().zip(s_out).map(|(gr, s_out)| {
                let (cols, vals) = m.row(gr);
                let mut s_if = 0.0;
                for (c, v) in cols.iter().zip(vals) {
                    if let Ok(pos) = if_indices.binary_search(&(*c as usize)) {
                        s_if += v * v_if[pos];
                    }
                }
                s_if + s_out
            });
            blk.vecs[out_slot] = out.collect();
            ctx.clock_mut().advance_flops(flops + blk.range.len());
        }
    }

    /// Cooperatively solve `M_{If,If} y = rhs` over the reconstructor
    /// group and write `y` into `blocks[*].vecs[out_slot]`; `rhs` runs over
    /// the blocks' rows in order. The inner solve is a distributed PCG
    /// (paper Sec. 6: "a PCG solver assembled with global operations",
    /// block-Jacobi preconditioner with blocks matching each member's
    /// reconstructed rows), see [`solve_failed_rows`]. `statics` is the
    /// store when `m` is the system matrix (`None` for `P`). Reconstructors
    /// only.
    pub(crate) fn solve_if_system(
        &mut self,
        ctx: &mut NodeCtx,
        m: &Csr,
        statics: Option<&StaticData>,
        rhs: Vec<f64>,
        blocks: &mut [ReconBlock],
        out_slot: usize,
    ) {
        let (rcfg, plan) = (&self.at.env.res.recovery, self.at.plan);
        let ex = self.if_exchange(m);
        let groups = &mut self.wire.groups;
        let (y, iters) = solve_failed_rows(ctx, groups, &ex, rcfg, plan, m, statics, rhs);
        self.wire.inner_iterations += iters;
        let mut y = &y[..];
        for blk in blocks {
            let (head, rest) = y.split_at(blk.range.len());
            blk.vecs[out_slot] = head.to_vec();
            y = rest;
        }
    }

    /// Stage 3, the x reconstruction (Alg. 2 lines 7–8): reconstructors
    /// form `w = b_If − r_If − A_{If,I\If} x_{I\If}` from the surviving x
    /// values their failed rows couple to, and solve `A_{If,If} x_If = w`
    /// cooperatively over the group.
    fn solve_x(
        &mut self,
        ctx: &mut NodeCtx,
        kernel: &dyn ResilientKernel,
        blocks: &mut [ReconBlock],
    ) {
        let env = self.at.env;
        let a: &Csr = env.statics.matrix();
        let &KernelShape { r_slot, x_slot, .. } = kernel.shape();
        let outside = self.outside_product(ctx, a, blocks, &kernel.vecs()[x_slot]);
        if blocks.is_empty() {
            return;
        }
        let mut rhs: Vec<f64> = Vec::new();
        for (blk, (s, flops)) in blocks.iter().zip(outside) {
            let rows = blk.range.clone().zip(&blk.vecs[r_slot]).zip(s);
            rhs.extend(rows.map(|((gr, r), s)| env.b[gr] - r - s));
            ctx.clock_mut().advance_flops(flops + 2 * blk.range.len());
        }
        self.solve_if_system(ctx, a, Some(env.statics), rhs, blocks, x_slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::BlockPartition;

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
}
