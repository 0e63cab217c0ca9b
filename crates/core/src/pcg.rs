//! Blocking PCG — paper Alg. 1 as a [`Recurrence`] of the shared node loop
//! ([`crate::node`]), with the ESR hooks of Secs. 2.2–4 woven into the SpMV.
//!
//! Differences from non-resilient PCG are exactly the ones the paper
//! describes:
//!
//! * the SpMV ghost exchange additionally carries the extra sets `Rᶜᵢₖ`
//!   appended to existing messages (one λ per link, Sec. 4.2);
//! * received search-direction elements are *retained* for two generations
//!   instead of dropped (Sec. 2.2);
//! * at every post-SpMV-scatter boundary the node loop polls the ULFM-style
//!   oracle; on failure, all nodes enter the shared [`crate::engine`]
//!   recovery, and the interrupted iteration goes on after repairing
//!   `p(j)`'s scatter into the replaced ranks (a Shrink restarts it).
//!
//! The solver's side of the recovery contract: one retention channel
//! (`p(j)`, `p(j-1)` as its two generations), two re-sent scalars
//! (`β(j-1)`, `r(j)ᵀz(j)`), and the reconstruction maps of paper Alg. 2
//! (`z = p(j) − β p(j-1)`;
//! `r = M z` locally for the M-given preconditioners, or the P-given
//! gather + distributed solve for `ExplicitP`).
//!
//! With `resilience: None` the solver is the reference non-resilient PCG
//! used for the paper's `t₀` baselines.

use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::NodeCtx;
use sparsemat::vecops::{axpy, dot, xpay};
use sparsemat::Csr;

use crate::config::SolverKind;
use crate::engine::{
    self, ChannelRead, EngineComm, EngineEnv, KernelShape, Layout, ReconBlock, ResilientKernel,
};
use crate::node::{Recurrence, Resume};
use crate::retention::Gen;

// Vector slots: the four block vectors; slot 4 is the SpMV result
// (scratch).
const P: usize = 0;
const Z: usize = 1;
const R: usize = 2;
const X: usize = 3;

// Scalar slots.
const BETA: usize = 0;
const RZ: usize = 1;

static SHAPE: KernelShape = KernelShape {
    n_block_vecs: 4,
    r_slot: R,
    x_slot: X,
    // [x | r | z | p | β(j-1), r(j)ᵀz(j)] — the loop-top state a restarted
    // iteration resumes from.
    pack_slots: &[X, R, Z, P],
    // Both ride the recovery gather to the replaced ranks, so the
    // iteration goes on with the pre-failure r(j)ᵀz(j) on every node.
    resent_scalars: &[BETA, RZ],
};

/// Blocking PCG's state over the owned rows.
pub(crate) struct PcgState {
    /// `[p(j), z(j), r(j), x(j), u = A p(j)]`.
    v: [Vec<f64>; 5],
    /// `[β(j-1), r(j)ᵀz(j)]`.
    s: [f64; 2],
    /// `P = M⁻¹` when configured: selects the P-given reconstruction
    /// (Alg. 2 lines 5–6) in the distributed stage.
    explicit_p: Option<Arc<Csr>>,
}

impl ResilientKernel for PcgState {
    fn shape(&self) -> &'static KernelShape {
        &SHAPE
    }

    fn vecs(&self) -> &[Vec<f64>] {
        &self.v
    }

    fn vecs_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.v
    }

    fn scalars(&self) -> &[f64] {
        &self.s
    }

    fn scalars_mut(&mut self) -> &mut [f64] {
        &mut self.s
    }

    fn channel_reads(&self, has_prev: bool) -> Vec<ChannelRead> {
        vec![
            ChannelRead {
                channel: 0,
                generation: Gen::Cur,
                required: true,
                what: "p(j)",
            },
            ChannelRead {
                channel: 0,
                generation: Gen::Prev,
                required: has_prev,
                what: "p(j-1)",
            },
        ]
    }

    fn rebuild_local(
        &mut self,
        ctx: &mut NodeCtx,
        env: &EngineEnv<'_>,
        blk: &mut ReconBlock,
        mut copies: Vec<Option<Vec<f64>>>,
    ) {
        let p_cur = copies[0].take().expect("p(j) copies are mandatory");
        let blen = blk.range.len();
        // z(j) = p(j) − β(j-1) p(j-1)  [Alg. 2 line 4].
        let mut z = vec![0.0; blen];
        if env.has_prev {
            let p_prev = copies[1]
                .take()
                .expect("complete when has_prev (the engine panics on a gap)");
            let beta = self.s[BETA];
            for i in 0..blen {
                z[i] = p_cur[i] - beta * p_prev[i];
            }
        } else {
            z.copy_from_slice(&p_cur);
        }
        ctx.clock_mut().advance_flops(2 * blen);
        // M-given: r_b = M_{b,b} z_b from static data alone (what lets an
        // adopter rebuild a block it never owned). P-given defers r to the
        // distributed stage.
        if self.explicit_p.is_none() {
            blk.vecs[R] = engine::m_block(ctx, env, &blk.range, &z, false);
        }
        blk.vecs[P] = p_cur;
        blk.vecs[Z] = z;
    }

    fn rebuild_distributed(
        &mut self,
        ctx: &mut NodeCtx,
        _env: &EngineEnv<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        // P-given (Alg. 2 lines 5–6): survivors serve their r values over
        // P's pattern, reconstructors form v = z_If − P_{If,I\If} r_{I\If}
        // and solve P_{If,If} r_If = v over the group.
        let Some(p_full) = self.explicit_p.clone() else {
            return;
        };
        let outside = comm.outside_product(ctx, &p_full, blocks, &self.v[R]);
        if blocks.is_empty() {
            return;
        }
        let mut rhs: Vec<f64> = Vec::new();
        for (blk, (s, flops)) in blocks.iter().zip(outside) {
            rhs.extend(blk.vecs[Z].iter().zip(s).map(|(z, s)| z - s));
            ctx.clock_mut().advance_flops(flops + blk.range.len());
        }
        comm.solve_if_system(ctx, &p_full, None, rhs, blocks, R);
    }
}

impl Recurrence for PcgState {
    const KIND: SolverKind = SolverKind::Pcg;
    const CHANNELS: usize = 1;
    const TEST_FOLLOWS_UPDATE: bool = true;

    fn init(ctx: &mut NodeCtx, layout: &mut Layout, b: &[f64]) -> (Self, f64) {
        let nloc = layout.lm.n_local();
        let r = b[layout.lm.range.clone()].to_vec(); // r(0) = b − A·0
        let mut z = vec![0.0; nloc];
        layout.prec.apply(ctx, &r, &mut z);
        let p = z.clone(); // p(0) = z(0)
        ctx.clock_mut().advance_flops(4 * nloc);
        // ‖r(0)‖² and r(0)ᵀz(0) travel in one fused length-2 all-reduce.
        let init = ctx.allreduce_vec(ReduceOp::Sum, vec![dot(&r, &r), dot(&r, &z)]);
        let state = PcgState {
            v: [p, z, r, vec![0.0; nloc], vec![0.0; nloc]],
            s: [0.0, init[1]],
            explicit_p: layout.prec.p_matrix().cloned(),
        };
        (state, init[0])
    }

    fn has_prev(&self, j: u64) -> bool {
        j > 0
    }

    fn begin_iteration(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, _j: u64) {
        // SpMV scatter: ghost exchange + redundancy distribution.
        layout.scatter(ctx, &self.v[P], 0, None);
    }

    fn resume(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, to: Option<&[usize]>) -> Resume {
        // In place, p(j)'s scatter is repaired and the iteration goes on;
        // a shrunken layout restarts it with a full scatter.
        if to.is_none() {
            return Resume::Restart;
        }
        layout.scatter(ctx, &self.v[P], 0, to);
        Resume::Proceed
    }

    fn finish_iteration(
        &mut self,
        ctx: &mut NodeCtx,
        layout: &mut Layout,
        j: u64,
        target_sq: f64,
    ) -> f64 {
        let [p, z, r, x, u] = &mut self.v;
        let [beta_prev, rz] = &mut self.s;
        let nloc = p.len();

        // u = A p(j)  (local part; ghosts already exchanged)
        layout.lm.spmv(p, &layout.ghosts, u);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());

        // α(j) = r(j)ᵀz(j) / p(j)ᵀAp(j)   [Alg. 1 line 3]
        ctx.clock_mut().advance_flops(2 * nloc);
        let pap = layout.allreduce_sum(ctx, dot(p, u));
        if pap <= 0.0 || !pap.is_finite() {
            let rank = ctx.rank();
            panic!("rank {rank}: PCG breakdown at iteration {j} (pᵀAp = {pap})");
        }
        let alpha = *rz / pap;
        axpy(alpha, p, x); // line 4
        axpy(-alpha, u, r); // line 5
        ctx.clock_mut().advance_flops(4 * nloc);

        // Apply the preconditioner *before* the convergence test so the
        // test value ‖r(j+1)‖² and the β numerator r(j+1)ᵀz(j+1) travel in
        // ONE length-2 all-reduce — two global reductions per iteration
        // instead of three. The preconditioner apply on the final
        // (converging) iteration is discarded work, but a full reduction
        // round is saved on every other iteration, and per Sec. 4.2 the
        // rounds dominate: λ ≫ µ at the reduction's message sizes.
        layout.prec.apply(ctx, r, z); // line 6
        ctx.clock_mut().advance_flops(4 * nloc);
        let rr_rz = layout.allreduce_vec(ctx, ReduceOp::Sum, vec![dot(r, r), dot(r, z)]);
        if rr_rz[0] <= target_sq {
            return rr_rz[0];
        }
        *beta_prev = rr_rz[1] / *rz; // line 7
        *rz = rr_rz[1];
        xpay(z, *beta_prev, p); // line 8
        ctx.clock_mut().advance_flops(2 * nloc);
        rr_rz[0]
    }
}
