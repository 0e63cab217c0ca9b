//! **Pipelined** PCG as a [`Recurrence`] of the shared node loop
//! ([`crate::node`]) — communication-hiding PCG (Ghysels–Vanroose
//! recurrences) with the ESR resilience of Levonyak, Pacher & Gansterer
//! (arXiv:1912.09230) woven in.
//!
//! Differences from the blocking [`crate::pcg`] solver:
//!
//! * the two dependent reductions per iteration are fused into **one**
//!   length-3 all-reduce (`γ = rᵀu`, `δ = wᵀu`, `‖r‖²`), issued with
//!   [`parcomm::NodeCtx::iallreduce_vec`] (or its group twin on a shrunken
//!   cluster) *before* the preconditioner application, ghost exchange, and
//!   SpMV — all of which are independent of the reduction result, so their
//!   cost hides the reduction's flight time on the overlap-aware virtual
//!   clock;
//! * the ghost exchange scatters `m(j) = M⁻¹ w(j)` and piggybacks
//!   redundant copies of `u(j)` and `p(j-1)` — the two vectors from which
//!   the whole pipelined state is reconstructible through the invariants
//!   `r = Mu, w = Au, s = Ap, q = M⁻¹s, z = Aq` (see [`PipeState`]);
//! * the ULFM boundary is polled at the same post-exchange point; a
//!   failure first drains the in-flight reduction and holds its values
//!   (reduced over the pre-failure state, they are the failure-free
//!   twin's), then reconstructs through the shared [`crate::engine`] and
//!   goes on with the interrupted iteration: a replacement (after a Shrink
//!   every member) recomputes `m(j)`, the ghost exchange of `m(j)` is
//!   repaired, and the held values stand in for the wait.
//!
//! Requires a block-diagonal (M-given) preconditioner — `None`, `Jacobi`,
//! or `BlockJacobiExact`. The P-given `ExplicitP` variant applies `P` with
//! its own ghost exchange, which would serialize against the overlapped
//! reduction and reintroduce the latency the method exists to hide; it is
//! rejected by configuration validation.

use parcomm::comm::ReduceOp;
use parcomm::request::AllreduceRequest;
use parcomm::NodeCtx;
use sparsemat::vecops::{axpy, dot, xpay};

use crate::config::SolverKind;
use crate::engine::{
    self, ChannelRead, EngineComm, EngineEnv, KernelShape, Layout, ReconBlock, ResilientKernel,
};
use crate::node::Recurrence;
use crate::retention::Gen;

// Vector slots: the eight block vectors, then the scratch pair
// `m(j) = M⁻¹ w(j)`, `n(j) = A m(j)`.
const U: usize = 0;
const P: usize = 1;
const R: usize = 2;
const X: usize = 3;
const W: usize = 4;
const S: usize = 5;
const Q: usize = 6;
const Z: usize = 7;

// Scalar slots; `RED..RED + 3` hold the drained reduction.
const GAMMA: usize = 0;
const ALPHA: usize = 1;
const HAS_DIR: usize = 2;
const RED: usize = 3;

static SHAPE: KernelShape = KernelShape {
    n_block_vecs: 8,
    static_slots: &[],
    r_slot: R,
    x_slot: X,
    // The full 8-vector recurrence state plus the loop-top scalars;
    // `has_dir` travels so a rolled-back loop top takes the same β branch
    // it originally did. The held reduction is re-issued there instead.
    pack_slots: &[X, R, U, W, P, S, Q, Z],
    pack_scalars: RED,
    resent_scalars: &[GAMMA, ALPHA, RED, RED + 1, RED + 2],
};

/// Pipelined PCG's state over the owned rows.
///
/// The pipelined solver carries four auxiliary vectors beyond PCG's
/// `(x, r, z, p)`, but they are all tied to `u` and `p` by the invariants
///
/// ```text
/// r = M u,   w = A u,   s = A p,   q = M⁻¹ s,   z = A q,
/// ```
///
/// so redundant copies of **u(j)** and **p(j-1)** (two retention channels,
/// carried as copies by the `m`-ghost exchange, [`Layout::scatter`]) are
/// enough to reconstruct everything:
/// `r = M u` per block from static data, `x` through the engine's shared
/// inner solve, and the tail `w, s, q, z` through three distributed
/// `A`-products in the kernel's distributed stage.
pub(crate) struct PipeState {
    /// `[u(j) = M⁻¹r(j), p(j-1), r(j), x(j), w(j) = A u(j), s(j-1) = A p,
    /// q(j-1) = M⁻¹ s, z(j-1) = A q, m(j), n(j)]`.
    v: [Vec<f64>; 10],
    /// `[γ(j-1) = r(j-1)ᵀu(j-1), α(j-1), has_dir, γ(j), δ(j), ‖r(j)‖²]`.
    /// `has_dir` (0.0/1.0) is true once a search direction `p(j-1)` exists;
    /// while it is false the recurrences take the β = 0 branch of
    /// iteration 0. The last three are the fused reduction's values, held
    /// from `drain` across a recovery.
    s: [f64; 6],
    /// The iteration's single fused reduction, in flight from
    /// `begin_iteration` to the wait in `finish_iteration`; `None` there
    /// after a recovery drained it.
    red: Option<AllreduceRequest>,
}

impl PipeState {
    /// `u = M⁻¹ r`, `w = A u` from the current `r` (one plain ghost
    /// exchange of `u`): the pipeline's entry point.
    async fn bootstrap(&mut self, ctx: &mut NodeCtx, layout: &mut Layout) {
        let [u, _, r, _, w, ..] = &mut self.v;
        layout.prec.apply(ctx, r, u).await;
        let (ghosts, copies) = (&mut layout.ghosts, &[(0, None)]);
        layout
            .plan
            .exchange_to(ctx, u, ghosts, copies, None, None)
            .await;
        layout.lm.spmv(u, &layout.ghosts, w);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());
    }
}

impl ResilientKernel for PipeState {
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
                what: "u(j)",
            },
            ChannelRead {
                channel: 1,
                generation: Gen::Cur,
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
        // A replacement lost the flag with everything else; whether a
        // direction exists is part of the failure notification.
        self.s[HAS_DIR] = f64::from(env.has_prev);
        let u_new = copies[0].take().expect("u(j) copies are mandatory");
        // r_If = M_{If,If} u_If — local because M is block-diagonal.
        blk.vecs[R] = engine::m_block(ctx, env, &blk.range, &u_new, false);
        if let Some(p_new) = copies[1].take() {
            blk.vecs[P] = p_new;
        } else {
            // Iteration 0: no search direction exists yet; the solver's
            // β = 0 branch re-initializes p, s, q, z from u and w.
            let blen = blk.range.len();
            blk.vecs[P] = vec![0.0; blen];
            blk.vecs[S] = vec![0.0; blen];
            blk.vecs[Q] = vec![0.0; blen];
            blk.vecs[Z] = vec![0.0; blen];
        }
        blk.vecs[U] = u_new;
    }

    async fn rebuild_distributed(
        &mut self,
        ctx: &mut NodeCtx,
        env: &EngineEnv<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        // w_If = (A u)_If: survivor ghost values + the reconstructed u
        // entries the reconstructors push each other.
        comm.apply_matrix(ctx, env.statics.matrix(), blocks, U, W, &self.v[U])
            .await;
        if env.has_prev {
            // s_If = (A p)_If, then q_If = M⁻¹_{b,b} s_If per block (local,
            // static data), then z_If = (A q)_If.
            comm.apply_matrix(ctx, env.statics.matrix(), blocks, P, S, &self.v[P])
                .await;
            for blk in blocks.iter_mut() {
                blk.vecs[Q] = engine::m_block(ctx, env, &blk.range, &blk.vecs[S], true);
            }
            comm.apply_matrix(ctx, env.statics.matrix(), blocks, Q, Z, &self.v[Q])
                .await;
        }
    }
}

impl Recurrence for PipeState {
    const KIND: SolverKind = SolverKind::PipeCg;
    const CHANNELS: usize = 2;
    const TEST_FOLLOWS_UPDATE: bool = false;

    async fn init(ctx: &mut NodeCtx, layout: &mut Layout, b: &[f64]) -> (Self, f64) {
        // x(0) = 0, r(0) = b − A·0, u(0) = M⁻¹r(0), w(0) = A u(0).
        let nloc = layout.lm.n_local();
        let mut state = PipeState {
            v: std::array::from_fn(|_| vec![0.0; nloc]),
            s: [0.0; 6],
            red: None,
        };
        state.v[R].copy_from_slice(&b[layout.lm.range.clone()]);
        state.bootstrap(ctx, layout).await;
        let r0_sq = ctx.allreduce_sum(dot(&state.v[R], &state.v[R])).await;
        ctx.clock_mut().advance_flops(2 * nloc);
        (state, r0_sq)
    }

    fn has_prev(&self, _j: u64) -> bool {
        self.s[HAS_DIR] != 0.0
    }

    async fn begin_iteration(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, _j: u64) {
        let [u, p, r, _, w, _, _, _, m, _] = &mut self.v;
        let has_dir = self.s[HAS_DIR] != 0.0;

        // The single fused reduction of the iteration, overlapped with
        // everything up to the wait (group-backed after a shrink).
        ctx.clock_mut().advance_flops(6 * r.len());
        self.red = Some(
            layout
                .iallreduce_vec(ctx, ReduceOp::Sum, vec![dot(r, u), dot(w, u), dot(r, r)])
                .await,
        );

        // m(j) = M⁻¹ w(j) — independent of the reduction result.
        layout.prec.apply(ctx, w, m).await;

        // Ghost exchange of m(j), under ESR with redundant copies of u(j)
        // and — once a direction exists — p(j-1) on the same messages.
        let copies = [(0, Some(u.as_slice())), (1, Some(p.as_slice()))];
        let copies = &copies[..if has_dir { 2 } else { 1 }];
        layout.scatter(ctx, m, copies, None).await;
    }

    async fn drain(&mut self, ctx: &mut NodeCtx) {
        // Reduced over the pre-failure state, (γ, δ, ‖r‖²) are the
        // failure-free twin's values: held, the iteration goes on with them
        // (a replacement is re-sent them).
        let red = self.red.take().expect("reduction issued this iteration");
        self.s[RED..].copy_from_slice(&red.wait(ctx));
    }

    async fn resume(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, to: Option<&[usize]>) {
        // m(j) = M⁻¹ w(j) is not reconstructed: a replacement recomputes
        // it, and after a Shrink every member on its new layout.
        let [.., w, _, _, _, m, _] = &mut self.v;
        if to.is_none_or(|to| to.binary_search(&ctx.rank()).is_ok()) {
            layout.prec.apply(ctx, w, m).await;
        }
        // Repair m(j)'s ghosts, without the copies: recovery reads only the
        // current generation, and the next scatter refills it before the
        // next boundary.
        layout.scatter(ctx, m, &[], to).await;
    }

    async fn finish_iteration(
        &mut self,
        ctx: &mut NodeCtx,
        layout: &mut Layout,
        j: u64,
        target_sq: f64,
    ) -> f64 {
        let [u, p, r, x, w, s, q, z, m, n] = &mut self.v;
        let [gamma_prev, alpha_prev, has_dir, held @ ..] = &mut self.s;
        let nloc = r.len();

        // n(j) = A m(j) — the SpMV the reduction hides behind.
        layout.lm.spmv(m, &layout.ghosts, n);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());

        // After a recovery the drained values stand in for the wait.
        let red = match self.red.take() {
            Some(red) => red.wait(ctx),
            None => held.to_vec(),
        };
        let (gamma, delta) = (red[0], red[1]);
        if red[2] <= target_sq {
            return red[2];
        }

        let rank = ctx.rank();
        let alpha;
        if *has_dir == 0.0 {
            if delta <= 0.0 || !delta.is_finite() {
                panic!("rank {rank}: pipelined PCG breakdown at iteration {j} (δ = {delta})");
            }
            alpha = gamma / delta;
            z.copy_from_slice(n);
            q.copy_from_slice(m);
            s.copy_from_slice(w);
            p.copy_from_slice(u);
        } else {
            let beta = gamma / *gamma_prev;
            // In exact arithmetic δ − β γ / α(j-1) = pᵀA p.
            let denom = delta - beta * gamma / *alpha_prev;
            if denom <= 0.0 || !denom.is_finite() {
                panic!("rank {rank}: pipelined PCG breakdown at iteration {j} (pᵀAp = {denom})");
            }
            alpha = gamma / denom;
            xpay(n, beta, z); // z = n + β z
            xpay(m, beta, q); // q = m + β q
            xpay(w, beta, s); // s = w + β s
            xpay(u, beta, p); // p = u + β p
        }
        axpy(alpha, p, x);
        axpy(-alpha, s, r);
        axpy(-alpha, q, u);
        axpy(-alpha, z, w);
        // Four axpy updates always; the four xpay recurrences only once a
        // direction exists (the β = 0 branch initializes by copy, zero
        // flops).
        ctx.clock_mut()
            .advance_flops(if *has_dir == 0.0 { 8 } else { 16 } * nloc);
        *has_dir = 1.0;
        *gamma_prev = gamma;
        *alpha_prev = alpha;
        red[2]
    }
}
