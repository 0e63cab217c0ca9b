//! Seeded-violation self-tests for the protocol auditor.
//!
//! Each test plants one historical (or representative) protocol bug behind a
//! test double and asserts that the auditor detects it **and names it** —
//! rank, tag, and violated invariant. A checker that cannot re-find the
//! bugs it was built for is worse than no checker, so this suite is the
//! auditor's own acceptance test. The auditor runs wherever debug
//! assertions do, and so does this suite.

#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use parcomm::{Cluster, ClusterConfig, CommPhase, Payload, ReduceOp};

/// Run a cluster program that must panic; return the panic message.
fn expect_panic<T, F>(f: F) -> String
where
    T: Send,
    F: Fn(&mut parcomm::NodeCtx) -> T + Sync,
    F: std::panic::RefUnwindSafe,
{
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _ = Cluster::run(ClusterConfig::new(2), f);
    }))
    .expect_err("the auditor must have flagged this run");
    err.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
        .to_string()
}

// ---- (1) message drain ----------------------------------------------------

#[test]
fn orphaned_message_is_named_with_provenance() {
    let msg = expect_panic(|ctx| {
        if ctx.rank() == 0 {
            // Send that no receive will ever match.
            ctx.send(1, 3, Payload::F64(1.0), CommPhase::Other);
        }
    });
    assert!(msg.contains("parcomm audit"), "{msg}");
    assert!(msg.contains("[message-drain]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("from rank 0"), "{msg}");
    assert!(msg.contains("user(3)"), "{msg}");
}

// ---- (2) non-overtaking ---------------------------------------------------

// Re-seeding the historical `swap_remove` reorder needs the scheduler's
// test double, so that check is a unit test in `parcomm`'s `comm` module
// (`resurrected_swap_remove_fifo_bug_is_caught`).

// ---- (3) collective agreement --------------------------------------------

#[test]
fn mismatched_reduce_operators_are_caught() {
    // Exchanged as messages, both ranks completed and the results silently
    // disagreed — the class of corruption that manifests as a wrong
    // residual thousands of iterations later. The rendezvous now refuses
    // the second arriver in every build; the teardown check still names
    // both operators from the logs.
    let msg = expect_panic(|ctx| {
        let opr = [ReduceOp::Sum, ReduceOp::Max][ctx.rank()];
        ctx.allreduce_vec(opr, vec![1.0])
    });
    assert!(msg.contains("[collective-mismatch]"), "{msg}");
    assert!(msg.contains("seq 0"), "{msg}");
    assert!(msg.contains("Sum"), "{msg}");
    assert!(msg.contains("Max"), "{msg}");
}

#[test]
fn length_mismatched_collective_is_caught() {
    let msg = expect_panic(|ctx| {
        let n = 1 + ctx.rank(); // rank 0 contributes len 1, rank 1 len 2
        ctx.allreduce_vec(ReduceOp::Sum, vec![1.0; n])
    });
    assert!(msg.contains("[collective-mismatch]"), "{msg}");
    assert!(msg.contains("len 1"), "{msg}");
    assert!(msg.contains("len 2"), "{msg}");
}

// ---- (4) tag-window disjointness ------------------------------------------

#[test]
fn cross_attempt_tag_reuse_is_caught() {
    // Rank 0 sends inside recovery attempt 0; rank 1 matches it from
    // attempt 1 — the cross-attempt match the engine's restart protocol
    // must never allow.
    let msg = expect_panic(|ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(0);
            ctx.send(1, 5, Payload::F64(1.0), CommPhase::Recovery);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(1);
            let _ = ctx.recv(0, 5);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("[tag-window]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("user(5)"), "{msg}");
    assert!(msg.contains("recovery window 0"), "{msg}");
    assert!(msg.contains("recovery window 1"), "{msg}");
}

#[test]
fn window_close_with_unconsumed_recovery_message_panics() {
    // A recovery-window message still queued when its window closes is
    // flagged *at the boundary* (not only at teardown): the next attempt
    // must start with a clean slate.
    let msg = expect_panic(|ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(2);
            ctx.send(1, 4, Payload::F64(1.0), CommPhase::Recovery);
            ctx.send(1, 8, Payload::F64(2.0), CommPhase::Recovery);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(2);
            // Receiving the marker (tag 8) first parks the tag-4 message in
            // the pending queue, so it is provably queued at window close.
            let _ = ctx.recv(0, 8);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("recovery window 2 closed"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("user(4)"), "{msg}");
}

// The engine's checkpoint traffic uses tags from the recovery range
// ((1 << 16) + seq * 32 + offset) with offset 0 for periodic deposits and
// offset 1 for rollback fetches; both flow inside audit windows numbered by
// the shared recovery sequence. These two tests seed the checkpoint-specific
// leak shapes and prove the window invariants cover them.

#[test]
fn leaked_checkpoint_deposit_is_flagged_at_window_close() {
    // A deposit replica pushed to a partner that never receives it — the
    // bug a mis-rebuilt ring placement after a shrink would produce. The
    // deposit travels in the Redundancy phase, but window residue is
    // phase-blind: the window stamp alone must flag it at the boundary.
    const DEPOSIT_TAG: u32 = (1 << 16) + 6 * 32; // tag(seq 6, OFF_CKPT)
    let msg = expect_panic(|ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(6);
            ctx.send(1, DEPOSIT_TAG, Payload::F64(1.0), CommPhase::Redundancy);
            // Marker so the deposit is provably queued before rank 1 exits.
            ctx.send(1, 8, Payload::F64(2.0), CommPhase::Redundancy);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(6);
            let _ = ctx.recv(0, 8);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("[message-drain]"), "{msg}");
    assert!(msg.contains("recovery window 6 closed"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains("from rank 0"), "{msg}");
    assert!(msg.contains(&format!("user({DEPOSIT_TAG})")), "{msg}");
}

#[test]
fn checkpoint_fetch_across_windows_is_flagged() {
    // A rollback fetch deposited in one recovery attempt must never satisfy
    // a receive posted in a later attempt — a desynchronized recovery
    // sequence (one rank skipping a deposit round) would produce exactly
    // this cross-window match.
    const FETCH_TAG: u32 = (1 << 16) + 3 * 32 + 1; // tag(seq 3, OFF_FETCH)
    let msg = expect_panic(|ctx| {
        if ctx.rank() == 0 {
            ctx.audit_enter_window(3);
            ctx.send(1, FETCH_TAG, Payload::F64(1.0), CommPhase::Recovery);
            ctx.audit_exit_window();
        } else {
            ctx.audit_enter_window(4);
            let _ = ctx.recv(0, FETCH_TAG);
            ctx.audit_exit_window();
        }
    });
    assert!(msg.contains("[tag-window]"), "{msg}");
    assert!(msg.contains("rank 1"), "{msg}");
    assert!(msg.contains(&format!("user({FETCH_TAG})")), "{msg}");
    assert!(msg.contains("recovery window 3"), "{msg}");
    assert!(msg.contains("recovery window 4"), "{msg}");
}

#[test]
fn collective_across_attempt_windows_is_caught() {
    // All-reduce rounds are scheduler-resident: no message is delivered,
    // so no receive can compare stamps. The call itself carries the
    // caller's window, and one instance joined from two attempts — on the
    // world or on a group — is the same cross-attempt match.
    let msg = expect_panic(|ctx| {
        ctx.audit_enter_window(1 + ctx.rank() as u32);
        let sum = ctx.allreduce_sum(1.0);
        ctx.audit_exit_window();
        sum
    });
    assert!(msg.contains("[tag-window]"), "{msg}");
    assert!(
        msg.contains("world collective seq 0 (allreduce(Sum)"),
        "{msg}"
    );
    assert!(
        msg.contains("rank 0 joined from recovery window 1"),
        "{msg}"
    );
    assert!(
        msg.contains("rank 1 joined from recovery window 2"),
        "{msg}"
    );

    let msg = expect_panic(|ctx| {
        let mut g = ctx.group(&[0, 1]);
        ctx.audit_enter_window(1 + ctx.rank() as u32);
        let sum = g.allreduce_vec(ctx, ReduceOp::Sum, vec![1.0], CommPhase::Recovery);
        ctx.audit_exit_window();
        sum
    });
    assert!(msg.contains("[tag-window] group"), "{msg}");
    assert!(msg.contains("recovery window 1"), "{msg}");
    assert!(msg.contains("recovery window 2"), "{msg}");
}

#[test]
fn alltoall_across_attempt_windows_is_caught() {
    // The all-to-all is scheduler-resident too: its N − 1 messages per rank
    // are booked, never delivered, so there is no stamp for a receive to
    // compare — the `Coll` record's window is the only guard a plan built
    // from two recovery attempts would have.
    let msg = expect_panic(|ctx| {
        ctx.audit_enter_window(1 + ctx.rank() as u32);
        let got = ctx.alltoallv_sparse_u64(vec![(0, vec![7]), (1, vec![8])]);
        ctx.audit_exit_window();
        got
    });
    assert!(msg.contains("[tag-window]"), "{msg}");
    assert!(msg.contains("world collective seq 0 (alltoall"), "{msg}");
    assert!(
        msg.contains("rank 0 joined from recovery window 1"),
        "{msg}"
    );
    assert!(
        msg.contains("rank 1 joined from recovery window 2"),
        "{msg}"
    );
}

// ---- (5) deadlock detection -----------------------------------------------

#[test]
fn wait_for_cycle_is_reported_not_hung() {
    // Classic two-rank cycle: each blocks receiving from the other with no
    // message in flight. The scheduler reports the cycle with per-rank
    // blocked-on state the moment no node can run, in every profile.
    let msg = expect_panic(|ctx| {
        let peer = 1 - ctx.rank();
        let _ = ctx.recv(peer, 1);
    });
    assert!(msg.contains("[deadlock]"), "{msg}");
    assert!(msg.contains("blocked in recv"), "{msg}");
    assert!(msg.contains("user(1)"), "{msg}");
}

// ---- clean runs stay clean ------------------------------------------------

#[test]
fn full_protocol_workout_is_audit_clean() {
    // Point-to-point, world + group collectives, non-blocking all-reduce,
    // and a recovery window, all properly drained: the auditor must stay
    // silent (a checker that cries wolf gets turned off).
    let out = Cluster::run(ClusterConfig::new(4), |ctx| {
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, 11, Payload::F64(ctx.rank() as f64), CommPhase::Other);
        let from_prev = ctx.recv(prev, 11).into_f64();

        let total = ctx.allreduce_sum(1.0);
        let req = ctx.iallreduce_vec(ReduceOp::Max, vec![ctx.rank() as f64]);
        let mx = req.wait(ctx)[0];

        ctx.audit_enter_window(0);
        let gsum = if ctx.rank() < 2 {
            let mut g = ctx.group(&[0, 1]);
            g.allreduce_vec(ctx, ReduceOp::Sum, vec![1.0], CommPhase::Recovery)[0]
        } else {
            0.0
        };
        ctx.audit_exit_window();
        ctx.barrier();
        (from_prev, total, mx, gsum)
    });
    for (rank, &(from_prev, total, mx, gsum)) in out.iter().enumerate() {
        let prev = (rank + 3) % 4;
        assert_eq!(from_prev, prev as f64);
        assert_eq!(total, 4.0);
        assert_eq!(mx, 3.0);
        assert_eq!(gsum, if rank < 2 { 2.0 } else { 0.0 });
    }
}
