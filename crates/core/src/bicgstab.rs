//! ESR-protected distributed BiCGSTAB, as a [`Recurrence`] of the shared
//! node loop ([`crate::node`]).
//!
//! The paper (Sec. 1): "our proposed algorithmic modifications can also be
//! applied to the ESR approach for the … preconditioned bi-conjugate
//! gradient stabilized (BiCGSTAB) algorithms", without giving details "due
//! to space restrictions". This module works them out on top of the shared
//! [`crate::engine`] — which also buys BiCGSTAB the four-substep
//! overlapping-failure restart protocol and the full recovery-policy
//! matrix (replacement nodes, finite spare pool, shrink-with-adoption)
//! that used to be PCG-only.
//!
//! Preconditioned BiCGSTAB performs **two** SpMVs per iteration —
//! `v = A p̂` with `p̂ = M⁻¹p` and `t = A ŝ` with `ŝ = M⁻¹s` — so two
//! vectors are naturally scattered per iteration and both are retained
//! (two retention channels). At the failure boundary (after the second
//! scatter) the full state is exactly reconstructible per failed block
//! (see [`BicgstabState`]):
//!
//! * `p̂_If`, `ŝ_If` — from the retained redundant copies;
//! * `p_If = M p̂_If`, `s_If = M ŝ_If` — per block from static data
//!   (block-diagonal `M`), which is what lets an *adopter* rebuild a
//!   block it never owned;
//! * `v_If = A_{If,·} p̂` — survivors serve `p̂` outside `If`; the
//!   reconstructors push each other the `If`-columns their rows read;
//! * `r_If = s_If + α v_If` — from the recurrence `s = r − α v`
//!   (`α` is a replicated scalar, re-sent by a survivor);
//! * `x_If` — from `r = b − A x`, via the engine's shared cooperative
//!   inner solve;
//! * `r̂0 = b` is static (the solver fixes `x(0) = 0`), so after a shrink
//!   the adopter's widened `r̂0` block is just `b` over the new range.
//!
//! Unlike PCG, no previous-iteration data is needed: the recurrences close
//! within the iteration, so only the *current* generation of each channel
//! is read during recovery.

use std::ops::Range;

use parcomm::comm::ReduceOp;
use parcomm::NodeCtx;
use sparsemat::vecops::{axpy, dot};

use crate::config::SolverKind;
use crate::engine::{
    self, splice_slots, ChannelRead, EngineComm, EngineEnv, KernelShape, Layout, ReconBlock,
    ResilientKernel,
};
use crate::node::Recurrence;
use crate::retention::Gen;

// Vector slots: the seven block vectors, then the static shadow residual
// and the `t = A ŝ` scratch.
const PHAT: usize = 0;
const SHAT: usize = 1;
const P: usize = 2;
const S: usize = 3;
const V: usize = 4;
const R: usize = 5;
const X: usize = 6;
const RHAT0: usize = 7;

// Scalar slots.
const ALPHA: usize = 0;
const RHO: usize = 2;

static SHAPE: KernelShape = KernelShape {
    n_block_vecs: 7,
    static_slots: &[RHAT0],
    r_slot: R,
    x_slot: X,
    // Loop-top recurrence state: [x | r | r̂0 | p | v | α, ω, ρ, ρ(j+1)].
    // Everything else (s, p̂, ŝ, t) is recomputed within a rolled-back
    // iteration.
    pack_slots: &[X, R, RHAT0, P, V],
    pack_scalars: 4,
    // ρ(j) is needed by the *next* iteration's β and would be lost with
    // the node. ω and ρ(j+1) are not re-sent: they stay NaN on a
    // replacement until `finish_iteration(j)` writes them, before the
    // next iteration reads them.
    resent_scalars: &[ALPHA, RHO],
};

/// BiCGSTAB's state over the owned rows: two retention channels (`p̂(j)`,
/// `ŝ(j)`) and the reconstruction identities listed in the module docs.
pub(crate) struct BicgstabState {
    /// `[p̂ = M⁻¹p, ŝ = M⁻¹s, p, s = r − α v, v = A p̂, r, x, r̂0, t = A ŝ]`.
    /// The shadow residual `r̂0 = b` is static (the solver fixes
    /// `x(0) = 0`): never poisoned, re-cut from `b` after a shrink.
    v: [Vec<f64>; 9],
    /// `[α(j), ω(j), ρ(j) = r̂0ᵀr(j), ρ(j+1)]` — `ρ(j+1)` is carried by the
    /// fused end-of-iteration reduction into the next p-update.
    s: [f64; 4],
}

impl ResilientKernel for BicgstabState {
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

    fn channel_reads(&self, _has_prev: bool) -> Vec<ChannelRead> {
        // Both channels scattered earlier in the same iteration: always
        // present, no previous-generation reads.
        vec![
            ChannelRead {
                channel: 0,
                generation: Gen::Cur,
                required: true,
                what: "p̂(j)",
            },
            ChannelRead {
                channel: 1,
                generation: Gen::Cur,
                required: true,
                what: "ŝ(j)",
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
        let phat = copies[0].take().expect("p̂(j) copies are mandatory");
        let shat = copies[1].take().expect("ŝ(j) copies are mandatory");
        // p_b = M_{b,b} p̂_b ; s_b = M_{b,b} ŝ_b (block-diagonal M).
        blk.vecs[P] = engine::m_block(ctx, env, &blk.range, &phat, false);
        blk.vecs[S] = engine::m_block(ctx, env, &blk.range, &shat, false);
        blk.vecs[PHAT] = phat;
        blk.vecs[SHAT] = shat;
    }

    async fn rebuild_distributed(
        &mut self,
        ctx: &mut NodeCtx,
        env: &EngineEnv<'_>,
        comm: &mut EngineComm<'_>,
        blocks: &mut [ReconBlock],
    ) {
        // v_If = A_{If,·} p̂: survivors serve the outside-If values, the
        // If-columns come from the reconstructors' rebuilt p̂ blocks.
        comm.apply_matrix(ctx, env.statics.matrix(), blocks, PHAT, V, &self.v[PHAT])
            .await;
        // r_If = s_If + α v_If  (from s = r − α v).
        let alpha = self.s[ALPHA];
        for blk in blocks.iter_mut() {
            let blen = blk.range.len();
            let mut r = vec![0.0; blen];
            for i in 0..blen {
                r[i] = blk.vecs[S][i] + alpha * blk.vecs[V][i];
            }
            ctx.clock_mut().advance_flops(2 * blen);
            blk.vecs[R] = r;
        }
    }

    fn splice(
        &mut self,
        new_range: &Range<usize>,
        own: Option<&Range<usize>>,
        blocks: &[ReconBlock],
        b: &[f64],
    ) {
        splice_slots(&mut self.v[..SHAPE.n_block_vecs], new_range, own, blocks);
        // x(0) = 0 makes r̂0 = b static: the widened block is just b.
        self.v[RHAT0] = b[new_range.clone()].to_vec();
    }
}

impl Recurrence for BicgstabState {
    const KIND: SolverKind = SolverKind::BiCgStab;
    const CHANNELS: usize = 2;
    const TEST_FOLLOWS_UPDATE: bool = true;

    async fn init(ctx: &mut NodeCtx, layout: &mut Layout, b: &[f64]) -> (Self, f64) {
        // x(0) = 0 so that r̂0 = r(0) = p(0) = b is static data.
        let nloc = layout.lm.n_local();
        let b_loc = &b[layout.lm.range.clone()];
        let mut v: [Vec<f64>; 9] = std::array::from_fn(|_| vec![0.0; nloc]);
        for slot in [P, R, RHAT0] {
            v[slot].copy_from_slice(b_loc);
        }
        // ‖r(0)‖² and ρ(0) = r̂0ᵀr(0) travel in one fused length-2
        // all-reduce.
        let init = ctx
            .allreduce_vec(
                ReduceOp::Sum,
                vec![dot(&v[R], &v[R]), dot(&v[RHAT0], &v[R])],
            )
            .await;
        // ρ for the *next* iteration's p-update is fused with the
        // convergence reduction at the end of each iteration (both are
        // dots against the just-updated r) — three global reductions per
        // iteration, not four.
        let s = [0.0, 0.0, init[1], init[1]];
        (BicgstabState { v, s }, init[0])
    }

    fn has_prev(&self, _j: u64) -> bool {
        // Both channels are from *this* iteration; recovery never reads
        // previous-generation data.
        false
    }

    async fn begin_iteration(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, j: u64) {
        let [phat, shat, p, s, v, r, _, rhat0, _] = &mut self.v;
        let [alpha, omega, rho, rho_next] = &mut self.s;
        let (rank, nloc) = (ctx.rank(), r.len());
        // p update (j > 0): p = r + β (p − ω v); ρ(j) was carried from the
        // previous iteration's fused reduction.
        if j > 0 {
            if rho_next.abs() < f64::MIN_POSITIVE {
                panic!("rank {rank}: BiCGSTAB breakdown (ρ = 0) at iteration {j}");
            }
            let beta = (*rho_next / *rho) * (*alpha / *omega);
            *rho = *rho_next;
            for ((pi, ri), vi) in p.iter_mut().zip(r.iter()).zip(v.iter()) {
                *pi = ri + beta * (*pi - *omega * vi);
            }
            ctx.clock_mut().advance_flops(6 * nloc);
        }
        // p̂ = M⁻¹ p ; first scatter (channel 0).
        layout.prec.apply(ctx, p, phat).await;
        layout.scatter(ctx, phat, &[(0, None)], None).await;
        layout.lm.spmv(phat, &layout.ghosts, v);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());
        let rhat0_v = layout.allreduce_sum(ctx, dot(rhat0, v)).await;
        if rhat0_v.abs() < f64::MIN_POSITIVE {
            panic!("rank {rank}: BiCGSTAB breakdown ((r̂0,v) = 0) at iteration {j}");
        }
        *alpha = *rho / rhat0_v;
        // s = r − α v
        s.copy_from_slice(r);
        axpy(-*alpha, v, s);
        ctx.clock_mut().advance_flops(2 * nloc);
        // ŝ = M⁻¹ s ; second scatter (channel 1) — the failure boundary
        // follows with both channels scattered.
        layout.prec.apply(ctx, s, shat).await;
        layout.scatter(ctx, shat, &[(1, None)], None).await;
    }

    async fn resume(&mut self, ctx: &mut NodeCtx, layout: &mut Layout, to: Option<&[usize]>) {
        // Repair the ŝ scatter into the replaced ranks (a shrunken layout
        // re-exchanges it in full): their ghosts and ŝ copies; the p̂
        // channel heals at the next iteration's scatter. Then fall through
        // to t = A ŝ.
        layout.scatter(ctx, &self.v[SHAT], &[(1, None)], to).await;
    }

    async fn finish_iteration(
        &mut self,
        ctx: &mut NodeCtx,
        layout: &mut Layout,
        j: u64,
        _target_sq: f64,
    ) -> f64 {
        let [phat, shat, _, s, _, r, x, rhat0, t] = &mut self.v;
        let [alpha, omega, _, rho_next] = &mut self.s;
        let nloc = r.len();
        // t = A ŝ
        layout.lm.spmv(shat, &layout.ghosts, t);
        ctx.clock_mut().advance_flops(layout.lm.spmv_flops());
        let tt_ts = layout
            .allreduce_vec(ctx, ReduceOp::Sum, vec![dot(t, t), dot(t, s)])
            .await;
        ctx.clock_mut().advance_flops(4 * nloc);
        let (tt, ts) = (tt_ts[0], tt_ts[1]);
        if tt <= 0.0 || !tt.is_finite() {
            let rank = ctx.rank();
            panic!("rank {rank}: BiCGSTAB breakdown ((t,t) = {tt}) at iteration {j}");
        }
        *omega = ts / tt;
        // x += α p̂ + ω ŝ ; r = s − ω t
        axpy(*alpha, phat, x);
        axpy(*omega, shat, x);
        r.copy_from_slice(s);
        axpy(-*omega, t, r);
        ctx.clock_mut().advance_flops(6 * nloc);
        // Fused: convergence test ‖r‖² + the next iteration's ρ = r̂0ᵀr.
        let rr_rho = layout
            .allreduce_vec(ctx, ReduceOp::Sum, vec![dot(r, r), dot(rhat0, r)])
            .await;
        ctx.clock_mut().advance_flops(4 * nloc);
        *rho_next = rr_rho[1];
        rr_rho[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::driver::Problem;
    use crate::node::{node_program, NodeOutcome};
    use parcomm::{Cluster, ClusterConfig, FailureScript};
    use sparsemat::gen::poisson2d;

    fn run(
        problem: &Problem,
        nodes: usize,
        cfg: &SolverConfig,
        script: FailureScript,
    ) -> Vec<NodeOutcome> {
        let problem = problem.clone();
        let cfg = cfg.clone();
        let config = ClusterConfig::new(nodes).with_script(script);
        let run = Cluster::run_async(config, async move |ctx| {
            node_program(SolverKind::BiCgStab, ctx, &problem, &cfg).await
        });
        run.values
    }

    fn max_err_to_ones(outs: &[NodeOutcome]) -> f64 {
        outs.iter()
            .flat_map(|o| o.x_loc.iter())
            .map(|xi| (xi - 1.0).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn failure_free_solves() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let outs = run(
            &problem,
            4,
            &SolverConfig::reference(),
            FailureScript::none(),
        );
        assert!(outs[0].converged);
        assert!(
            max_err_to_ones(&outs) < 1e-6,
            "err {}",
            max_err_to_ones(&outs)
        );
    }

    #[test]
    fn survives_single_failure() {
        let a = poisson2d(12, 12);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(4, 1, 1, 4);
        let outs = run(&problem, 4, &SolverConfig::resilient(1), script);
        assert!(outs[0].converged);
        assert_eq!(outs[0].recoveries, 1);
        assert!(
            max_err_to_ones(&outs) < 1e-6,
            "err {}",
            max_err_to_ones(&outs)
        );
    }

    #[test]
    fn survives_two_simultaneous_failures() {
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(6, 2, 2, 7);
        let outs = run(&problem, 7, &SolverConfig::resilient(2), script);
        assert!(outs[0].converged);
        assert_eq!(outs[0].ranks_recovered, 2);
        assert!(
            max_err_to_ones(&outs) < 1e-6,
            "err {}",
            max_err_to_ones(&outs)
        );
    }

    #[test]
    fn jacobi_preconditioned_with_failure() {
        let a = poisson2d(10, 10);
        let problem = Problem::with_ones_solution(a);
        let cfg = SolverConfig {
            precond: crate::config::PrecondConfig::Jacobi,
            ..SolverConfig::resilient(1)
        };
        let script = FailureScript::simultaneous(3, 0, 1, 5);
        let outs = run(&problem, 5, &cfg, script);
        assert!(outs[0].converged);
        assert!(max_err_to_ones(&outs) < 1e-6);
    }

    #[test]
    fn survives_overlapping_failure_during_recovery() {
        // New with the engine port: the four-substep restart protocol now
        // covers BiCGSTAB too (the old solver-private recovery was blind
        // to failures arriving mid-reconstruction).
        use parcomm::{FailAt, FailureEvent};
        let a = poisson2d(14, 14);
        let problem = Problem::with_ones_solution(a);
        for substep in 0..4 {
            let script = FailureScript::new(vec![
                FailureEvent {
                    when: FailAt::Iteration(4),
                    ranks: vec![2],
                },
                FailureEvent {
                    when: FailAt::RecoverySubstep {
                        after_iteration: 4,
                        substep,
                    },
                    ranks: vec![4],
                },
            ]);
            let outs = run(&problem, 7, &SolverConfig::resilient(2), script);
            assert!(outs[0].converged, "substep={substep}");
            assert_eq!(outs[0].ranks_recovered, 2, "substep={substep}");
            assert!(
                max_err_to_ones(&outs) < 1e-6,
                "substep={substep} err {}",
                max_err_to_ones(&outs)
            );
        }
    }
}
