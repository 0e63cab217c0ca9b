//! ESR-protected distributed Jacobi iteration.
//!
//! Chen's original ESR paper covers stationary methods (Jacobi,
//! Gauss–Seidel, SOR, SSOR), and this paper's Sec. 1 states the
//! multi-failure extension applies to them as well. For these methods the
//! naturally scattered vector is the **iterate `x(j)` itself**, which makes
//! ESR particularly simple: the retained copies of the current `x(j)` *are*
//! the full solver state — reconstruction is a pure copy, no linear solve.
//!
//! The distributed method implemented here is the Jacobi iteration (the
//! only classical stationary method whose sweep is embarrassingly parallel
//! under a block-row distribution; Gauss–Seidel/SOR become block-hybrid
//! methods in distributed memory). Its sequential reference is
//! `krylov::stationary::jacobi_iter`: the iterate after `k` sweeps is the
//! reference's, and the residual this loop tests is the one its sweep
//! computed — that of the iterate *before* the update — so it stops exactly
//! one sweep after the reference does (`tests/distributed.rs`).

use std::collections::HashSet;

use parcomm::fault::poison;
use parcomm::{CommPhase, FailAt, NodeCtx, Payload};
use sparsemat::vecops::dot;
use sparsemat::BlockPartition;

use crate::config::SolverConfig;
use crate::driver::Problem;
use crate::node::NodeOutcome;
use crate::redundancy;
use crate::retention::{Gen, Retention};
use crate::scatter::ScatterPlan;

const TAG_XCOPY: u32 = (1 << 25) + 1;

/// The SPMD node program: solve `A x = b` with the (optionally resilient)
/// distributed Jacobi iteration `x ← x + D⁻¹(b − A x)`. Requires `A` to
/// be such that Jacobi converges (e.g. strictly diagonally dominant).
pub fn esr_jacobi_node(ctx: &mut NodeCtx, problem: &Problem, cfg: &SolverConfig) -> NodeOutcome {
    let b = &problem.b;
    let rank = ctx.rank();
    let part = BlockPartition::new(problem.n(), ctx.size());
    let lm = problem.statics().block(&part.range(rank));
    let mut plan = ScatterPlan::build(ctx, &lm, &part);
    if let Some(res) = &cfg.resilience {
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
    let mut retention = Retention::build(&plan, &lm.ghost_cols);
    ctx.barrier();
    let vtime_setup = ctx.vtime();
    ctx.reset_metrics();

    let nloc = lm.n_local();
    let range = lm.range.clone();
    let b_loc: Vec<f64> = b[range.clone()].to_vec();
    let inv_diag: Vec<f64> = lm
        .diag
        .diag()
        .iter()
        .map(|&d| {
            assert!(d > 0.0, "rank {rank}: Jacobi needs positive diagonal");
            1.0 / d
        })
        .collect();
    let mut x = vec![0.0; nloc];
    let mut ax = vec![0.0; nloc];
    let mut ghosts = vec![0.0; lm.ghost_cols.len()];

    let r0_sq = ctx.allreduce_sum(dot(&b_loc, &b_loc));
    let r0_norm = r0_sq.sqrt();
    let target_sq = cfg.rel_tol * cfg.rel_tol * r0_sq;

    let mut iterations = 0usize;
    let mut residual_sq = r0_sq;
    let mut converged = r0_norm <= f64::MIN_POSITIVE;
    let mut recoveries = 0usize;
    let mut ranks_recovered = 0usize;
    let mut vtime_recovery = 0.0f64;
    let mut handled: HashSet<u64> = HashSet::new();
    let resilient = cfg.resilience.is_some();

    while !converged && iterations < cfg.max_iter {
        let j = iterations as u64;
        // Scatter x(j) (the stationary methods' communicated vector).
        if resilient {
            retention.rotate();
            plan.exchange(ctx, &x, &mut ghosts, Some(&mut retention));
            retention.finish_generation();
        } else {
            plan.exchange(ctx, &x, &mut ghosts, None);
        }

        // Failure boundary.
        if resilient && !handled.contains(&j) {
            handled.insert(j);
            let failed = ctx.poll_failures(FailAt::Iteration(j));
            if !failed.is_empty() {
                let t0 = ctx.vtime();
                let mut failed = failed;
                failed.sort_unstable();
                let am_failed = failed.binary_search(&rank).is_ok();
                if am_failed {
                    poison(&mut x);
                    poison(&mut ghosts);
                    retention.poison();
                }
                // Reconstruction = copy: x(j)_If from the retained copies.
                if !am_failed {
                    for &f in &failed {
                        let fr = part.range(f);
                        ctx.send(
                            f,
                            TAG_XCOPY,
                            Payload::pairs(retention.collect_range(Gen::Cur, fr.start, fr.end)),
                            CommPhase::Recovery,
                        );
                    }
                } else {
                    let mut got = vec![false; nloc];
                    for src in 0..ctx.size() {
                        if failed.binary_search(&src).is_ok() {
                            continue;
                        }
                        for (g, val) in ctx
                            .recv_phase(src, TAG_XCOPY, CommPhase::Recovery)
                            .into_pairs()
                        {
                            let o = g as usize - range.start;
                            x[o] = val;
                            got[o] = true;
                        }
                    }
                    assert!(
                        got.iter().all(|&g| g),
                        "rank {rank}: unrecoverable — missing x copies (more than φ failures?)"
                    );
                }
                recoveries += 1;
                ranks_recovered += failed.len();
                vtime_recovery += ctx.vtime() - t0;
                // Restart the iteration: re-scatter x(j) (restores the
                // replacement ghosts and the lost redundancy duties).
                continue;
            }
        }

        // Jacobi sweep: x ← x + D⁻¹ (b − A x).
        lm.spmv(&x, &ghosts, &mut ax);
        ctx.clock_mut().advance_flops(lm.spmv_flops());
        let mut rn_sq_loc = 0.0;
        for i in 0..nloc {
            let res = b_loc[i] - ax[i];
            rn_sq_loc += res * res;
            x[i] += inv_diag[i] * res;
        }
        ctx.clock_mut().advance_flops(5 * nloc);
        iterations += 1;
        residual_sq = ctx.allreduce_sum(rn_sq_loc);
        if residual_sq <= target_sq {
            converged = true;
        }
    }

    NodeOutcome {
        rank,
        x_loc: x,
        range_start: range.start,
        iterations,
        residual_norm: residual_sq.sqrt(),
        initial_residual_norm: r0_norm,
        converged,
        vtime_total: ctx.vtime(),
        vtime_recovery,
        recoveries,
        ranks_recovered,
        stats: ctx.stats().clone(),
        vtime_setup,
        retired: false,
        recovery_timelines: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::driver::Problem;
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
        Cluster::run(ClusterConfig::new(nodes).with_script(script), move |ctx| {
            esr_jacobi_node(ctx, &problem, &cfg)
        })
    }

    fn max_err_to_ones(outs: &[NodeOutcome]) -> f64 {
        outs.iter()
            .flat_map(|o| o.x_loc.iter())
            .map(|xi| (xi - 1.0).abs())
            .fold(0.0, f64::max)
    }

    fn jacobi_cfg(phi: Option<usize>) -> SolverConfig {
        let mut cfg = match phi {
            Some(p) => SolverConfig::resilient(p),
            None => SolverConfig::reference(),
        };
        cfg.rel_tol = 1e-7;
        cfg.max_iter = 50_000;
        cfg
    }

    #[test]
    fn failure_free_converges() {
        let a = poisson2d(8, 8);
        let problem = Problem::with_ones_solution(a);
        let outs = run(&problem, 4, &jacobi_cfg(None), FailureScript::none());
        assert!(outs[0].converged, "iters {}", outs[0].iterations);
        assert!(max_err_to_ones(&outs) < 1e-4);
    }

    #[test]
    fn survives_two_failures() {
        let a = poisson2d(8, 8);
        let problem = Problem::with_ones_solution(a);
        let script = FailureScript::simultaneous(20, 1, 2, 4);
        let outs = run(&problem, 4, &jacobi_cfg(Some(2)), script);
        assert!(outs[0].converged);
        assert_eq!(outs[0].recoveries, 1);
        assert_eq!(outs[0].ranks_recovered, 2);
        assert!(max_err_to_ones(&outs) < 1e-4);
    }

    #[test]
    fn failure_does_not_change_trajectory() {
        // ESR for stationary methods is exact: the iteration count with a
        // mid-run failure equals the failure-free count.
        let a = poisson2d(8, 8);
        let problem = Problem::with_ones_solution(a);
        let clean = run(&problem, 4, &jacobi_cfg(Some(1)), FailureScript::none());
        let script = FailureScript::simultaneous(15, 2, 1, 4);
        let failed = run(&problem, 4, &jacobi_cfg(Some(1)), script);
        assert_eq!(clean[0].iterations, failed[0].iterations);
        assert_eq!(clean[0].residual_norm, failed[0].residual_norm);
    }
}
