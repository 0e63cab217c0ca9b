//! Property-based tests: every collective must agree with its sequential
//! reference for arbitrary inputs and cluster sizes.

use proptest::prelude::*;

use parcomm::comm::ReduceOp;
use parcomm::{Cluster, ClusterConfig, CommPhase, Payload};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_sum_matches_sequential(
        nodes in 1usize..9,
        values in proptest::collection::vec(-1e6f64..1e6, 9),
    ) {
        let vals = values.clone();
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            ctx.allreduce_sum(vals[ctx.rank()])
        });
        // All nodes agree bitwise.
        prop_assert!(out.windows(2).all(|w| w[0] == w[1]));
        // And the value equals a sum of the inputs up to fp reassociation.
        let expect: f64 = values[..nodes].iter().sum();
        prop_assert!((out[0] - expect).abs() <= 1e-6 * (1.0 + expect.abs()));
    }

    #[test]
    fn allreduce_minmax_exact(
        nodes in 1usize..9,
        values in proptest::collection::vec(-1e6f64..1e6, 9),
    ) {
        let vals = values.clone();
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let x = vec![vals[ctx.rank()]];
            (
                ctx.allreduce_vec(ReduceOp::Max, x.clone())[0],
                ctx.allreduce_vec(ReduceOp::Min, x)[0],
            )
        });
        let mx = values[..nodes].iter().copied().fold(f64::MIN, f64::max);
        let mn = values[..nodes].iter().copied().fold(f64::MAX, f64::min);
        prop_assert!(out.iter().all(|&(a, b)| a == mx && b == mn));
    }

    #[test]
    fn alltoallv_is_a_transpose(nodes in 2usize..7, seed in any::<u64>()) {
        // sends[i][k] = f(i, k); after the exchange node k holds f(i, k)
        // from every i: the matrix of messages is transposed.
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let me = ctx.rank() as u64;
            let sends = (0..ctx.size()).map(|k| (k, vec![seed % 97, me * 100 + k as u64]));
            ctx.alltoallv_sparse_u64(sends.collect())
        });
        for (k, received) in out.iter().enumerate() {
            prop_assert_eq!(received.len(), nodes);
            for (i, (src, msg)) in received.iter().enumerate() {
                prop_assert_eq!((*src, msg[1]), (i, (i * 100 + k) as u64));
            }
        }
    }

    #[test]
    fn vclock_monotone_under_communication(nodes in 2usize..7) {
        let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let t0 = ctx.vtime();
            ctx.barrier();
            let t1 = ctx.vtime();
            ctx.allreduce_sum(1.0);
            let t2 = ctx.vtime();
            (t0, t1, t2)
        });
        for (t0, t1, t2) in out {
            prop_assert!(t0 <= t1 && t1 <= t2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_bitwise_identical_across_ranks_and_runs(
        nodes in 1usize..14,
        values in proptest::collection::vec(-1e12f64..1e12, 14),
    ) {
        // The determinism contract the recursive-doubling algorithm must
        // keep: every rank returns the *bitwise* same buffer, and two
        // independent cluster runs agree bitwise too. The inputs are large
        // enough that any timing-dependent reassociation would show.
        let run = || {
            let vals = values.clone();
            Cluster::run(ClusterConfig::new(nodes), move |ctx| {
                let x = vals[ctx.rank()] * 1e-3 + 1.0 / (ctx.rank() as f64 + 0.7);
                ctx.allreduce_vec(ReduceOp::Sum, vec![x, x * 0.3, -x])
            })
        };
        let a = run();
        let b = run();
        for v in &a {
            prop_assert_eq!(v.len(), 3);
            for (x, y) in v.iter().zip(&a[0]) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "ranks disagree");
            }
        }
        for (va, vb) in a.iter().zip(&b) {
            for (x, y) in va.iter().zip(vb) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "runs disagree");
            }
        }
    }
}

#[test]
fn collectives_at_nonpow2_sizes() {
    // N = 3, 5, 13 exercise the fold-in/fold-out pre/post phases of the
    // recursive-doubling all-reduce (13 also has a multi-level doubling
    // phase).
    for n in [3usize, 5, 13] {
        let out = Cluster::run(ClusterConfig::new(n), move |ctx| {
            let sum = ctx.allreduce_sum((ctx.rank() + 1) as f64);
            let mx = ctx.allreduce_vec(ReduceOp::Max, vec![ctx.rank() as f64]);
            let mn = ctx.allreduce_vec(ReduceOp::Min, vec![ctx.rank() as f64 - 1.0]);
            (sum, mx[0], mn[0])
        });
        let expect_sum = (n * (n + 1) / 2) as f64;
        for (sum, mx, mn) in out {
            assert_eq!(sum, expect_sum, "n={n}");
            assert_eq!(mx, (n - 1) as f64, "n={n}");
            assert_eq!(mn, -1.0, "n={n}");
        }
    }
}

#[test]
fn allreduce_rounds_match_recursive_doubling_depth() {
    // ⌈log₂N⌉ rounds on powers of two, +2 (fold-in + fold-out) otherwise —
    // the critical-path depth the ISSUE's cost accounting relies on.
    for (n, expect_rounds) in [
        (2usize, 1u64),
        (4, 2),
        (8, 3),
        (16, 4),
        (3, 3),
        (5, 4),
        (13, 5),
    ] {
        let out = Cluster::run(ClusterConfig::new(n), |ctx| {
            ctx.allreduce_sum(1.0);
            (ctx.stats().allreduces(), ctx.stats().allreduce_rounds())
        });
        assert!(out.iter().all(|&(calls, _)| calls == 1), "n={n}");
        let max_rounds = out.iter().map(|&(_, r)| r).max().unwrap();
        assert_eq!(max_rounds, expect_rounds, "n={n}");
    }
}

#[test]
fn group_allreduce_on_nonpow2_group_is_bitwise_uniform() {
    // A 5-member group inside a 7-node cluster: the recovery-path
    // sub-communicator shape (non-power-of-two, non-contiguous ranks).
    let out = Cluster::run(ClusterConfig::new(7), |ctx| {
        let members = [0usize, 2, 3, 5, 6];
        if members.contains(&ctx.rank()) {
            let mut g = ctx.group(&members);
            let x = 1.0 / (ctx.rank() as f64 + 3.0) * 1e10 + 1e-10;
            Some(g.allreduce_vec(ctx, ReduceOp::Sum, vec![x, -x], CommPhase::Recovery))
        } else {
            None
        }
    });
    let results: Vec<_> = out.into_iter().flatten().collect();
    assert_eq!(results.len(), 5);
    for v in &results {
        assert_eq!(v[0].to_bits(), results[0][0].to_bits());
        assert_eq!(v[1].to_bits(), results[0][1].to_bits());
    }
}

// Collective agreement is checked at the rendezvous in every build (the
// `audit` feature re-checks it at teardown; see tests/audit.rs for the same
// two seeded cases under the auditor).

#[test]
#[should_panic(
    expected = "[collective-mismatch] tag coll(allreduce, seq 0): rank 0 issued Sum len 1 \
                on 2 members but rank 1 issued Max len 1 on 2 members"
)]
fn mismatched_reduce_operators_panic_at_the_rendezvous() {
    Cluster::run(ClusterConfig::new(2), |ctx| {
        let opr = [ReduceOp::Sum, ReduceOp::Max][ctx.rank()];
        ctx.allreduce_vec(opr, vec![1.0])
    });
}

#[test]
#[should_panic(
    expected = "[collective-mismatch] tag coll(allreduce, seq 0): rank 0 issued Sum len 1 \
                on 2 members but rank 1 issued Sum len 2 on 2 members"
)]
fn length_mismatched_collective_panics_at_the_rendezvous() {
    Cluster::run(ClusterConfig::new(2), |ctx| {
        let n = 1 + ctx.rank(); // rank 0 contributes len 1, rank 1 len 2
        ctx.allreduce_vec(ReduceOp::Sum, vec![1.0; n])
    });
}

#[test]
fn reduce_vec_ops_cover_all_variants() {
    for op in [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min] {
        let out = Cluster::run(ClusterConfig::new(4), move |ctx| {
            ctx.allreduce_vec(op, vec![ctx.rank() as f64, -(ctx.rank() as f64)])
        });
        let expect = match op {
            ReduceOp::Sum => vec![6.0, -6.0],
            ReduceOp::Max => vec![3.0, 0.0],
            ReduceOp::Min => vec![0.0, -3.0],
        };
        assert!(out.iter().all(|v| v == &expect), "{op:?}");
    }
}

#[test]
fn split_phase_send_accounting() {
    // One physical message, elements split across two accounting phases.
    let out = Cluster::run(ClusterConfig::new(2), |ctx| {
        if ctx.rank() == 0 {
            ctx.send_with_phases(
                1,
                7,
                Payload::f64s(vec![0.0; 10]),
                &[(CommPhase::Spmv, 6), (CommPhase::Redundancy, 4)],
            );
        } else {
            ctx.recv(0, 7);
        }
        (
            ctx.stats().msgs(CommPhase::Spmv),
            ctx.stats().elems(CommPhase::Spmv),
            ctx.stats().msgs(CommPhase::Redundancy),
            ctx.stats().elems(CommPhase::Redundancy),
        )
    });
    assert_eq!(out[0], (1, 6, 0, 4), "one message, split elements");
}
