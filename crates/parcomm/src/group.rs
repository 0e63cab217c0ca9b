//! Sub-communicators.
//!
//! During recovery from `ψ` simultaneous failures, the `ψ` replacement nodes
//! cooperate to solve the linear system `A_{If,If} x_If = w` (paper Sec. 4.1:
//! "additional communication between the ψ replacement nodes is necessary").
//! A [`Group`] gives them a private collective context, like an MPI
//! sub-communicator obtained from `MPI_Comm_split`.
//!
//! Group all-reduces and barriers run the same scheduler-resident
//! recursive-doubling rounds as the world communicator (see
//! [`crate::comm`]), over group indices instead of global ranks —
//! recovery's inner solves get the ⌈log₂ψ⌉-round cost too.

#[cfg(feature = "audit")]
use crate::audit;
use crate::comm::{
    alltoallv_generic, gatherv_generic, split_by_counts, tree_bcast_generic, NodeCtx, ReduceOp,
    Timeline,
};
use crate::payload::Payload;
use crate::request::AllreduceRequest;
use crate::stats::CommPhase;
use crate::tag::{op, Tag};

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

    fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Build the audit record for a group collective: scoped by `gid` so the
    /// checker compares schedules member-against-member, never across groups.
    #[cfg(feature = "audit")]
    fn coll_event(
        &self,
        seq: u32,
        kind: u8,
        rop: Option<ReduceOp>,
        len: Option<usize>,
    ) -> audit::CollEvent {
        audit::CollEvent {
            scope: Some(self.gid),
            seq: seq as u64,
            kind,
            rop,
            len,
            members_hash: fnv1a(&self.members) as u64,
            n_members: self.size(),
        }
    }

    /// Group barrier (zero-length recursive-doubling all-reduce).
    pub fn barrier(&mut self, ctx: &mut NodeCtx) {
        let seq = self.next_seq();
        let tag = Tag::group(self.gid, op::BARRIER, seq);
        #[cfg(feature = "audit")]
        ctx.audit_coll(self.coll_event(seq, op::BARRIER, None, Some(0)));
        ctx.trace_open("group_barrier", seq as u64);
        ctx.rd_rounds(
            &mut Timeline::Node,
            self.my_index,
            self.members.len(),
            Some(&self.members),
            tag,
            ReduceOp::Sum,
            Vec::new(),
            CommPhase::Recovery,
        );
        ctx.trace_close();
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
        let seq = self.next_seq();
        let tag = Tag::group(self.gid, op::ALLREDUCE, seq);
        #[cfg(feature = "audit")]
        ctx.audit_coll(self.coll_event(seq, op::ALLREDUCE, Some(opr), Some(x.len())));
        ctx.trace_open("group_allreduce", seq as u64);
        let (acc, rounds) = ctx.rd_rounds(
            &mut Timeline::Node,
            self.my_index,
            self.members.len(),
            Some(&self.members),
            tag,
            opr,
            x,
            phase,
        );
        ctx.trace_close();
        ctx.stats_mut().record_allreduce(rounds);
        acc
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
        let seq = self.next_seq();
        let tag = Tag::group(self.gid, op::ALLREDUCE, seq);
        #[cfg(feature = "audit")]
        ctx.audit_coll(self.coll_event(seq, op::ALLREDUCE, Some(opr), Some(x.len())));
        ctx.trace_open("group_iallreduce", seq as u64);
        let start = ctx.clock().now();
        let mut engine = Timeline::Engine(start);
        let (acc, rounds) = ctx.rd_rounds(
            &mut engine,
            self.my_index,
            self.members.len(),
            Some(&self.members),
            tag,
            opr,
            x,
            phase,
        );
        ctx.trace_close();
        ctx.stats_mut().record_allreduce(rounds);
        AllreduceRequest::new(acc, start, engine.now(ctx.clock()), phase)
    }

    /// Personalized all-to-all of `u64` index lists among members;
    /// `sends[i]` goes to group index `i`. Used to (re)build scatter plans
    /// over a shrunken communicator.
    pub fn alltoallv_u64(
        &mut self,
        ctx: &mut NodeCtx,
        sends: Vec<Vec<u64>>,
        phase: CommPhase,
    ) -> Vec<Vec<u64>> {
        assert_eq!(sends.len(), self.size());
        let seq = self.next_seq();
        let tag = Tag::group(self.gid, op::ALLTOALL, seq);
        #[cfg(feature = "audit")]
        ctx.audit_coll(self.coll_event(seq, op::ALLTOALL, None, None));
        ctx.trace_open("group_alltoall", seq as u64);
        let out = alltoallv_generic(ctx, self.my_index, Some(&self.members), tag, phase, sends);
        ctx.trace_close();
        out
    }

    /// All-gather variable-length `f64` buffers within the group.
    pub fn allgatherv_f64(&mut self, ctx: &mut NodeCtx, x: Vec<f64>) -> Vec<Vec<f64>> {
        let seq = self.next_seq();
        let tag = Tag::group(self.gid, op::GATHER, seq);
        #[cfg(feature = "audit")]
        ctx.audit_coll(self.coll_event(seq, op::GATHER, None, None));
        ctx.trace_open("group_gather", seq as u64);
        // Gather on group index 0.
        let (me, n, members) = (self.my_index, self.size(), Some(&self.members[..]));
        let gathered = gatherv_generic(ctx, me, n, members, 0, tag, CommPhase::Recovery, x);
        // Broadcast counts, then data.
        let seq_counts = self.next_seq();
        let counts = self.tree_bcast(
            ctx,
            match &gathered {
                Some(vs) => Payload::u64s(vs.iter().map(|v| v.len() as u64).collect()),
                None => Payload::Empty,
            },
            seq_counts,
        );
        let seq_flat = self.next_seq();
        let flat = self.tree_bcast(
            ctx,
            match gathered {
                Some(vs) => Payload::f64s(vs.into_iter().flatten().collect()),
                None => Payload::Empty,
            },
            seq_flat,
        );
        ctx.trace_close();
        split_by_counts(flat.into_f64s(), &counts.into_u64s())
    }

    /// Binomial-tree broadcast over group indices, from index 0.
    fn tree_bcast(&self, ctx: &mut NodeCtx, payload: Payload, seq: u32) -> Payload {
        #[cfg(feature = "audit")]
        ctx.audit_coll(self.coll_event(seq, op::BCAST, None, None));
        let n = self.size();
        if n == 1 {
            return payload;
        }
        let tag = Tag::group(self.gid, op::BCAST, seq);
        let (me, members, phase) = (self.my_index, Some(&self.members[..]), CommPhase::Recovery);
        ctx.trace_open("group_bcast", seq as u64);
        let data = tree_bcast_generic(ctx, me, n, members, 0, tag, phase, payload);
        ctx.trace_close();
        data
    }
}

fn fnv1a(members: &[usize]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &m in members {
        for b in (m as u64).to_le_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}
