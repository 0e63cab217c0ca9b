//! Tests for the non-blocking all-reduce: determinism of `iallreduce_vec`
//! against the blocking collective, overlap-aware clock accounting,
//! out-of-order completion, and the linear-request drop guard.

use proptest::prelude::*;

use parcomm::comm::ReduceOp;
use parcomm::{Cluster, ClusterConfig, CommPhase, CostModel};

/// A cost model with round numbers so the overlap arithmetic is exact.
fn unit_cost() -> CostModel {
    CostModel {
        lambda: 1.0,
        mu: 0.1,
        gamma: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn iallreduce_bitwise_matches_blocking_allreduce(
        nodes in 1usize..14,
        values in proptest::collection::vec(-1e12f64..1e12, 14),
    ) {
        // The contract that lets pipelined PCG swap reduction styles
        // without changing numerics: the non-blocking all-reduce runs the
        // identical schedule and returns the *bitwise* same buffer on every
        // rank as the blocking collective — for any size, including the
        // fold-in/out shapes.
        let vals = values.clone();
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let x = vals[ctx.rank()] * 1e-3 + 1.0 / (ctx.rank() as f64 + 0.7);
            let buf = vec![x, x * 0.3, -x];
            let blocking = ctx.allreduce_vec(ReduceOp::Sum, buf.clone());
            let req = ctx.iallreduce_vec(ReduceOp::Sum, buf);
            let nonblocking = req.wait(ctx);
            (blocking, nonblocking)
        });
        for (blocking, nonblocking) in &out {
            for (a, b) in blocking.iter().zip(nonblocking) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "schedules diverged");
            }
        }
        // And every rank agrees with rank 0.
        for (_, nb) in &out {
            for (a, b) in nb.iter().zip(&out[0].1) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "ranks disagree");
            }
        }
    }
}

#[test]
fn group_iallreduce_bitwise_matches_group_allreduce() {
    // The group twin of the world-level determinism contract: a solver
    // that continues on a shrunken communicator swaps its blocking group
    // reduction for the non-blocking one without changing numerics. Odd
    // ranks of a 9-node cluster form the group (non-power-of-two size 5,
    // so the fold-in/out schedule runs too).
    let out = Cluster::run(ClusterConfig::new(9), move |ctx| {
        if ctx.rank() % 2 == 0 {
            return None;
        }
        let members = [1usize, 3, 5, 7];
        let x = 1.0 / (ctx.rank() as f64 + 0.3) * 1e8 + 1e-8;
        let buf = vec![x, -x * 0.7, x * x];
        let mut g = ctx.group(&members[..]);
        let blocking = g.allreduce_vec(ctx, ReduceOp::Sum, buf.clone(), CommPhase::Reduction);
        let req = g.iallreduce_vec(ctx, ReduceOp::Sum, buf, CommPhase::Reduction);
        let nonblocking = req.wait(ctx);
        Some((blocking, nonblocking))
    });
    let results: Vec<_> = out.into_iter().flatten().collect();
    assert_eq!(results.len(), 4);
    for (blocking, nonblocking) in &results {
        for (a, b) in blocking.iter().zip(nonblocking) {
            assert_eq!(a.to_bits(), b.to_bits(), "group schedules diverged");
        }
    }
    for (_, nb) in &results {
        for (a, b) in nb.iter().zip(&results[0].1) {
            assert_eq!(a.to_bits(), b.to_bits(), "group members disagree");
        }
    }
}

#[test]
fn group_iallreduce_overlap_charges_only_exposed_time() {
    // The overlap accounting carries over to group reductions: compute
    // issued between start and wait hides the flight time.
    let out = Cluster::run(ClusterConfig::new(4).with_cost(unit_cost()), move |ctx| {
        if ctx.rank() == 3 {
            return None;
        }
        let mut g = ctx.group(&[0, 1, 2]);
        let t0 = ctx.vtime();
        let req = g.iallreduce_vec(
            ctx,
            ReduceOp::Sum,
            vec![ctx.rank() as f64],
            CommPhase::Reduction,
        );
        // Local compute long enough to hide the whole reduction.
        ctx.clock_mut().advance(100.0);
        let res = req.wait(ctx);
        Some((
            res[0],
            ctx.vtime() - t0,
            ctx.stats().hidden_vtime(CommPhase::Reduction),
        ))
    });
    for o in out.into_iter().flatten() {
        let (sum, elapsed, hidden) = o;
        assert_eq!(sum, 3.0);
        // Fully hidden: elapsed is the compute time alone.
        assert_eq!(elapsed, 100.0);
        assert!(hidden > 0.0, "no reduction time was hidden");
    }
}

#[test]
fn iallreduce_at_nonpow2_sizes() {
    // N = 3, 5, 13 exercise fold-in/fold-out on the engine timeline.
    for n in [3usize, 5, 13] {
        let out = Cluster::run(ClusterConfig::new(n), move |ctx| {
            let req = ctx.iallreduce_vec(ReduceOp::Sum, vec![(ctx.rank() + 1) as f64, 1.0]);
            req.wait(ctx)
        });
        let expect = (n * (n + 1) / 2) as f64;
        for v in out {
            assert_eq!(v, vec![expect, n as f64], "n={n}");
        }
    }
}

#[test]
fn compute_between_start_and_wait_hides_flight_time() {
    // Two nodes exchange through a reduction; each computes 10s of local
    // work while the reduction is in flight. Blocking order would charge
    // compute + full reduction; overlapped, the reduction (1.2s: one
    // round, λ + 2µ = 1.2) is completely hidden behind the compute.
    let out = Cluster::run(ClusterConfig::new(2).with_cost(unit_cost()), |ctx| {
        let req = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0, 2.0]);
        ctx.clock_mut().advance(10.0); // overlapped compute
        let sum = req.wait(ctx);
        (sum, ctx.vtime(), ctx.stats().clone())
    });
    for (sum, vtime, stats) in out {
        assert_eq!(sum, vec![2.0, 4.0]);
        // Fully hidden: the clock shows only the compute.
        assert_eq!(vtime, 10.0);
        assert_eq!(stats.wait_vtime(CommPhase::Reduction), 0.0);
        assert_eq!(stats.hidden_vtime(CommPhase::Reduction), 1.2);
        // Nothing was charged as blocking-send time on the node clock.
        assert_eq!(stats.send_vtime(CommPhase::Reduction), 0.0);
    }
}

#[test]
fn wait_charges_only_the_remaining_latency() {
    // Same exchange, but only 0.5s of compute fits before the wait: the
    // wait must charge exactly the remaining 0.7s (1.2 − 0.5), no more.
    let out = Cluster::run(ClusterConfig::new(2).with_cost(unit_cost()), |ctx| {
        let req = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0, 2.0]);
        ctx.clock_mut().advance(0.5);
        let _ = req.wait(ctx);
        (ctx.vtime(), ctx.stats().clone())
    });
    for (vtime, stats) in out {
        assert_eq!(vtime, 1.2);
        assert!((stats.wait_vtime(CommPhase::Reduction) - 0.7).abs() < 1e-12);
        assert!((stats.hidden_vtime(CommPhase::Reduction) - 0.5).abs() < 1e-12);
    }
}

#[test]
fn several_in_flight_iallreduces_complete_in_any_order() {
    // Two overlapped reductions issued back to back; the *second* is
    // waited first. Sequence-numbered tags keep them separate.
    let out = Cluster::run(ClusterConfig::new(4), |ctx| {
        let a = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]);
        let b = ctx.iallreduce_vec(ReduceOp::Max, vec![ctx.rank() as f64]);
        let vb = b.wait(ctx);
        let va = a.wait(ctx);
        (va[0], vb[0])
    });
    assert!(out.iter().all(|&(s, m)| s == 4.0 && m == 3.0));
}

#[test]
fn test_polls_completion_without_charging() {
    let out = Cluster::run(ClusterConfig::new(2).with_cost(unit_cost()), |ctx| {
        let req = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]);
        // Not enough compute yet: the reduction (1.1s) is still in flight.
        ctx.clock_mut().advance(0.25);
        let early = req.test(ctx);
        ctx.clock_mut().advance(5.0);
        let late = req.test(ctx);
        let t_before_wait = ctx.vtime();
        let _ = req.wait(ctx);
        (early, late, ctx.vtime() - t_before_wait)
    });
    for (early, late, wait_charge) in out {
        assert!(!early, "reduction cannot be complete after 0.25s");
        assert!(late, "reduction must be complete after 5.25s");
        assert_eq!(wait_charge, 0.0, "wait after completion charges nothing");
    }
}

#[test]
#[should_panic(expected = "dropped without wait")]
fn dropping_a_request_without_wait_panics() {
    Cluster::run(ClusterConfig::new(2), |ctx| {
        let req = ctx.iallreduce_vec(ReduceOp::Sum, vec![1.0]);
        drop(req); // protocol bug: the request is never completed
    });
}
