//! Sub-communicators.
//!
//! Two kinds of code reduce over a subset of the cluster: the replacement
//! nodes' cooperative inner solve of `A_{If,If} x_If = w` during recovery
//! (paper Sec. 4.1: "additional communication between the ψ replacement
//! nodes is necessary"), and a solver that continues on the members left
//! after a Shrink. A [`Group`] gives them a private collective context, like
//! an MPI sub-communicator obtained from `MPI_Comm_split`.
//!
//! A group all-reduce is the world's code: both methods here hand their
//! [`Scope`] (members, own index, group id, next sequence number) to the one
//! all-reduce body in [`crate::comm`], with their own span name and the
//! caller's phase. They run the same scheduler-resident recursive-doubling
//! rounds, over group indices instead of global ranks, so an inner solve
//! over ψ reconstructors pays ⌈log₂ψ⌉ rounds.

use crate::comm::{NodeCtx, ReduceOp, Scope, Timeline};
use crate::request::AllreduceRequest;
use crate::stats::CommPhase;

/// A sub-communicator over a subset of cluster ranks.
///
/// All members must create the group with the same member set at the same
/// SPMD point, and must issue group collectives in the same order.
pub struct Group {
    members: Vec<usize>,
    my_index: usize,
    gid: u32,
    seq: u32,
}

impl Group {
    pub(crate) fn create(ctx: &mut NodeCtx, ranks: &[usize]) -> Group {
        let mut members = ranks.to_vec();
        members.sort_unstable();
        members.dedup();
        let my_index = members
            .iter()
            .position(|&r| r == ctx.rank())
            .expect("creating a group that does not contain this rank");
        // All members derive the same id from the member set and a local
        // per-set creation counter (consistent because creations are SPMD).
        let counter = ctx.group_creation_counter(&members);
        let gid = fnv1a(&members) ^ counter.wrapping_mul(0x9E37_79B9);
        Group {
            members,
            my_index,
            gid,
            seq: 0,
        }
    }

    /// Global ranks of the members, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// This group as the scope of its next collective call (consumes a
    /// sequence number).
    fn scope(&mut self) -> Scope<'_> {
        self.seq += 1;
        Scope {
            members: Some(&self.members),
            my_index: self.my_index,
            n: self.members.len(),
            id: Some(self.gid),
            seq: u64::from(self.seq - 1),
        }
    }

    /// Group element-wise all-reduce (recursive doubling over group
    /// indices; bitwise identical on every member), with the traffic
    /// charged to `phase`: [`CommPhase::Recovery`] inside a reconstruction,
    /// [`CommPhase::Reduction`] for a solver's reductions on a shrunken
    /// cluster.
    pub async fn allreduce_vec(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> Vec<f64> {
        let tl = &mut Timeline::Node;
        ctx.allreduce_on(tl, &self.scope(), "group_allreduce", opr, x, phase)
            .await
    }

    /// Non-blocking group element-wise all-reduce: the same detached-engine
    /// semantics as [`NodeCtx::iallreduce_vec`], over the group's members.
    /// The result is bitwise identical to [`Group::allreduce_vec`] (the
    /// identical recursive-doubling schedule runs, only the time accounting
    /// differs), so a solver that continues on a shrunken communicator
    /// keeps both its overlap *and* its determinism.
    pub async fn iallreduce_vec(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> AllreduceRequest {
        ctx.iallreduce_on(&self.scope(), "group_iallreduce", opr, x, phase)
            .await
    }
}

/// FNV-1a over the member ranks: group ids and the auditor's member-set
/// hash both derive from it.
pub(crate) fn fnv1a(members: &[usize]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &m in members {
        for b in (m as u64).to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}
