//! Sub-communicators.
//!
//! During recovery from `ψ` simultaneous failures, the `ψ` replacement nodes
//! cooperate to solve the linear system `A_{If,If} x_If = w` (paper Sec. 4.1:
//! "additional communication between the ψ replacement nodes is necessary").
//! A [`Group`] gives them a private collective context, like an MPI
//! sub-communicator obtained from `MPI_Comm_split`.
//!
//! A group collective is the same code as the world's: every method here
//! hands its [`Scope`] (members, own index, group id, next sequence number)
//! to the one body of that collective in [`crate::comm`], with its own span
//! name and phase. Group all-reduces and barriers therefore run the same
//! scheduler-resident recursive-doubling rounds, over group indices instead
//! of global ranks — recovery's inner solves get the ⌈log₂ψ⌉-round cost too.

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

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This node's index within the group (`0..size`).
    pub fn index(&self) -> usize {
        self.my_index
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

    /// Group barrier (zero-length recursive-doubling all-reduce).
    pub fn barrier(&mut self, ctx: &mut NodeCtx) {
        ctx.barrier_on(&self.scope(), "group_barrier", CommPhase::Recovery);
    }

    /// Group all-reduce of a scalar sum.
    pub fn allreduce_sum(&mut self, ctx: &mut NodeCtx, x: f64) -> f64 {
        self.allreduce_vec(ctx, ReduceOp::Sum, vec![x])[0]
    }

    /// Group all-reduce max of a scalar.
    pub fn allreduce_max(&mut self, ctx: &mut NodeCtx, x: f64) -> f64 {
        self.allreduce_vec(ctx, ReduceOp::Max, vec![x])[0]
    }

    /// Group element-wise all-reduce (recursive doubling over group
    /// indices; bitwise identical on every member), charged to
    /// [`CommPhase::Recovery`] — the historical default, since groups were
    /// born for the replacement nodes' cooperative reconstruction.
    pub fn allreduce_vec(&mut self, ctx: &mut NodeCtx, opr: ReduceOp, x: Vec<f64>) -> Vec<f64> {
        self.allreduce_vec_phase(ctx, opr, x, CommPhase::Recovery)
    }

    /// Group element-wise all-reduce with the traffic charged to `phase`.
    /// A shrunken cluster runs its *solver* reductions through a group, so
    /// those must book under [`CommPhase::Reduction`], not `Recovery`.
    pub fn allreduce_vec_phase(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> Vec<f64> {
        let tl = &mut Timeline::Node;
        ctx.allreduce_on(tl, &self.scope(), "group_allreduce", opr, x, phase)
    }

    /// Non-blocking group element-wise all-reduce: the same detached-engine
    /// semantics as [`NodeCtx::iallreduce_vec`], over the group's members.
    /// The result is bitwise identical to [`Group::allreduce_vec_phase`]
    /// (the identical recursive-doubling schedule runs, only the time
    /// accounting differs), so a solver that continues on a shrunken
    /// communicator keeps both its overlap *and* its determinism.
    pub fn iallreduce_vec_phase(
        &mut self,
        ctx: &mut NodeCtx,
        opr: ReduceOp,
        x: Vec<f64>,
        phase: CommPhase,
    ) -> AllreduceRequest {
        ctx.iallreduce_on(&self.scope(), "group_iallreduce", opr, x, phase)
    }

    /// Personalized all-to-all of `u64` index lists among members:
    /// `(destination index, list)` ascending in, `(source index, list)`
    /// ascending out, empty lists left out. Used to (re)build scatter plans
    /// over a shrunken communicator.
    pub fn alltoallv_sparse_u64(
        &mut self,
        ctx: &mut NodeCtx,
        sends: Vec<(usize, Vec<u64>)>,
        phase: CommPhase,
    ) -> Vec<(usize, Vec<u64>)> {
        ctx.alltoallv_on(&self.scope(), "group_alltoall", sends, phase)
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
