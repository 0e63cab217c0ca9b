//! Communication plans for the distributed SpMV — the "generalized
//! scatter" of PETSc that the paper's implementation builds on (Sec. 6),
//! extended with the redundancy traffic of Sec. 4.
//!
//! The plan is computed collectively once (the matrix pattern is static):
//! every node derives its ghost needs from its own rows, requests them from
//! the owners, and the owners record the resulting send lists `S_ik`
//! (paper Eqn. 2). The redundancy extension later appends the extra sets
//! `Rᶜᵢₖ` (Eqn. 6) to the same messages, so that — whenever natural traffic
//! to the backup target exists — **no additional message latency** is paid
//! (paper Sec. 4.2).

use parcomm::{CommPhase, NodeCtx, Payload};
use sparsemat::BlockPartition;
use std::ops::Range;
use std::sync::Arc;

use crate::localmat::LocalMatrix;
use crate::retention::Retention;

/// User message tag for SpMV ghost exchange (with appended redundancy).
pub const TAG_SPMV: u32 = 10;

/// Redundant-copy payloads appended to a pipelined-PCG ghost exchange.
///
/// The pipelined solver scatters `m(j) = M⁻¹ w(j)` for its SpMV, but its
/// ESR reconstruction needs copies of **u(j)** and **p(j-1)** (every other
/// recurrence vector follows from those two via `s = Ap`, `q = M⁻¹s`,
/// `z = Aq` — see `crate::pipe_recovery`). So the backup traffic carries
/// values of `u` and `p` at the same covering index sets (natural ∪ extra)
/// the blocking solver uses for `p`, appended to the `m`-ghost messages:
/// still one message and one λ per link.
pub struct PipeBackups<'a> {
    /// The owned block of `u(j)`.
    pub u_loc: &'a [f64],
    /// The owned block of `p(j-1)` (`None` at iteration 0, where no search
    /// direction exists yet).
    pub p_loc: Option<&'a [f64]>,
    /// Retention store receiving the `u` copies.
    pub ret_u: &'a mut Retention,
    /// Retention store receiving the `p` copies.
    pub ret_p: &'a mut Retention,
}

/// The per-node communication plan.
///
/// Peers are addressed by **slot** — the index of their block in the
/// partition. On the full cluster slot `k` is global rank `k`; on a
/// shrunken cluster [`ScatterPlan::members`] maps slots to the surviving
/// global ranks.
#[derive(Clone, Debug)]
pub struct ScatterPlan {
    /// Number of participating nodes (slots).
    pub nodes: usize,
    /// Global ranks of the participants, ascending; `members[slot]` is the
    /// rank owning partition block `slot`. Identity on the full cluster.
    pub members: Vec<usize>,
    /// This node's slot (`members[my_slot] == rank`).
    pub my_slot: usize,
    /// Start of the owned range (local offset = global − start).
    pub my_start: usize,
    /// Owned range length.
    pub my_len: usize,
    /// Per peer slot `k`: local offsets sent naturally during SpMV (`S_ik`).
    pub send_natural: Vec<Vec<usize>>,
    /// Per peer slot `k`: local offsets sent only for redundancy (`Rᶜᵢₖ`);
    /// filled in by [`crate::redundancy`].
    pub send_extra: Vec<Vec<usize>>,
    /// Per peer slot `k`: the positions in the ghost buffer filled by `k`'s
    /// natural values (contiguous, because ghost columns are sorted and
    /// ownership ranges are contiguous).
    pub recv_ghost_range: Vec<Range<usize>>,
    /// Per peer slot `k`: global indices of redundancy extras received
    /// from `k`.
    pub recv_extra: Vec<Vec<usize>>,
    /// Per peer slot `k`: the precomputed pack list
    /// `send_natural[k] ++ send_extra[k]` as compact local offsets — the
    /// single gather walked by the exchange hot paths. Kept in sync by
    /// [`ScatterPlan::refresh_pack_lists`].
    pub(crate) gather: Vec<Vec<u32>>,
    /// Per peer slot `k`: the reusable send buffer. In steady state the
    /// receiver has dropped the previous message before our next exchange
    /// (iterations are separated by blocking collectives), so
    /// `Arc::get_mut` succeeds and packing reuses the allocation; a miss
    /// is counted via [`sparsemat::hotpath`] and falls back to a fresh
    /// buffer.
    pub(crate) bufs: Vec<Arc<Vec<f64>>>,
}

impl ScatterPlan {
    /// Build the natural-traffic plan collectively over the full cluster.
    /// Must be called by all nodes at the same SPMD point.
    pub fn build(ctx: &mut NodeCtx, lm: &LocalMatrix, part: &BlockPartition) -> Self {
        let nodes = ctx.size();
        let rank = ctx.rank();
        // Catch a mismatched LocalMatrix/partition pairing here, at the
        // misuse site, not as garbled ghost exchanges several calls later.
        debug_assert_eq!(lm.range, part.range(rank), "lm built for another rank");
        let requests = Self::ghost_requests(lm, part, nodes);
        let incoming = ctx.alltoallv_u64(requests.0);
        Self::assemble((0..nodes).collect(), rank, lm, requests.1, incoming)
    }

    /// Build the plan collectively over a shrunken communicator: only
    /// `group` members participate, and partition block `k` belongs to
    /// `group.members()[k]`. Traffic is charged to [`CommPhase::Recovery`]
    /// (plans are rebuilt inside the recovery window).
    pub fn build_on(
        ctx: &mut NodeCtx,
        group: &mut parcomm::Group,
        lm: &LocalMatrix,
        part: &BlockPartition,
    ) -> Self {
        let members = group.members().to_vec();
        debug_assert_eq!(members.len(), part.nodes());
        let my_slot = group.index();
        debug_assert_eq!(members[my_slot], ctx.rank());
        debug_assert_eq!(lm.range, part.range(my_slot), "lm built for another slot");
        let requests = Self::ghost_requests(lm, part, members.len());
        let incoming = group.alltoallv_u64(ctx, requests.0, CommPhase::Recovery);
        Self::assemble(members, my_slot, lm, requests.1, incoming)
    }

    /// Group own ghost needs by owning slot: contiguous segments of the
    /// sorted ghost column list. Returns (per-slot requests, ghost ranges).
    #[allow(clippy::type_complexity)]
    fn ghost_requests(
        lm: &LocalMatrix,
        part: &BlockPartition,
        nodes: usize,
    ) -> (Vec<Vec<u64>>, Vec<Range<usize>>) {
        let mut requests: Vec<Vec<u64>> = vec![Vec::new(); nodes];
        let mut recv_ghost_range: Vec<Range<usize>> = vec![0..0; nodes];
        let gc = &lm.ghost_cols;
        let mut pos = 0usize;
        while pos < gc.len() {
            let owner = part.owner_of(gc[pos]);
            let end_of_owner = part.range(owner).end;
            let mut end = pos;
            while end < gc.len() && gc[end] < end_of_owner {
                end += 1;
            }
            recv_ghost_range[owner] = pos..end;
            requests[owner].extend(gc[pos..end].iter().map(|&g| g as u64));
            pos = end;
        }
        (requests, recv_ghost_range)
    }

    /// Owners learn who needs what (the send lists `S_ik`) from the
    /// all-to-all result and finish the plan.
    fn assemble(
        members: Vec<usize>,
        my_slot: usize,
        lm: &LocalMatrix,
        recv_ghost_range: Vec<Range<usize>>,
        incoming: Vec<Vec<u64>>,
    ) -> Self {
        let nodes = members.len();
        let my_start = lm.range.start;
        let mut send_natural: Vec<Vec<usize>> = Vec::with_capacity(nodes);
        for (k, req) in incoming.into_iter().enumerate() {
            if k == my_slot {
                send_natural.push(Vec::new());
                continue;
            }
            send_natural.push(
                req.into_iter()
                    .map(|g| {
                        let g = g as usize;
                        debug_assert!(lm.range.contains(&g), "request outside owned range");
                        g - my_start
                    })
                    .collect(),
            );
        }

        let mut plan = ScatterPlan {
            nodes,
            members,
            my_slot,
            my_start,
            my_len: lm.range.len(),
            send_natural,
            send_extra: vec![Vec::new(); nodes],
            recv_ghost_range,
            recv_extra: vec![Vec::new(); nodes],
            gather: Vec::new(),
            bufs: Vec::new(),
        };
        plan.refresh_pack_lists();
        plan
    }

    /// Rebuild the per-peer pack lists and pre-size the reusable send
    /// buffers from `send_natural`/`send_extra`. Must be called after
    /// mutating `send_extra` directly (the redundancy setup does this via
    /// [`ScatterPlan::announce_extras`]).
    pub fn refresh_pack_lists(&mut self) {
        self.gather = self
            .send_natural
            .iter()
            .zip(&self.send_extra)
            .map(|(nat, ext)| {
                nat.iter()
                    .chain(ext)
                    .map(|&o| {
                        debug_assert!(o < self.my_len, "send offset outside owned range");
                        o as u32
                    })
                    .collect()
            })
            .collect();
        // Worst-case payload is the pipelined one: m[nat] ++ u[g] ++ p[g].
        self.bufs = self
            .gather
            .iter()
            .zip(&self.send_natural)
            .map(|(g, nat)| Arc::new(Vec::with_capacity(nat.len() + 2 * g.len())))
            .collect();
    }

    /// Clear-and-borrow a peer's send buffer for packing, falling back to
    /// a fresh allocation (and recording the reuse miss) if the previous
    /// message is still alive at the receiver.
    fn writable(arc: &mut Arc<Vec<f64>>) -> &mut Vec<f64> {
        if Arc::get_mut(arc).is_none() {
            sparsemat::hotpath::record_alloc_miss();
            *arc = Arc::new(Vec::new());
        }
        let buf = Arc::get_mut(arc).expect("fresh Arc is unique");
        buf.clear();
        buf
    }

    /// After `send_extra` is filled, announce the extras to their receivers
    /// so they can size and index their retention stores. Collective over
    /// the full cluster.
    pub fn announce_extras(&mut self, ctx: &mut NodeCtx) {
        let sends = self.extra_announcements();
        let incoming = ctx.alltoallv_u64(sends);
        self.record_extras(incoming);
    }

    /// [`ScatterPlan::announce_extras`] over a shrunken communicator.
    pub fn announce_extras_on(&mut self, ctx: &mut NodeCtx, group: &mut parcomm::Group) {
        let sends = self.extra_announcements();
        let incoming = group.alltoallv_u64(ctx, sends, CommPhase::Recovery);
        self.record_extras(incoming);
    }

    fn extra_announcements(&self) -> Vec<Vec<u64>> {
        self.send_extra
            .iter()
            .map(|offs| offs.iter().map(|&o| (self.my_start + o) as u64).collect())
            .collect()
    }

    fn record_extras(&mut self, incoming: Vec<Vec<u64>>) {
        self.recv_extra = incoming
            .into_iter()
            .map(|v| v.into_iter().map(|g| g as usize).collect())
            .collect();
        // `send_extra` was just filled by the caller: fold it into the
        // pack lists and re-size the send buffers.
        self.refresh_pack_lists();
    }

    /// Exchange ghost values of `v_loc` and deposit received copies into
    /// the retention store (if given): the fused SpMV-scatter +
    /// redundancy distribution of one PCG iteration.
    ///
    /// `ghosts` must have one slot per ghost column. When `retention` is
    /// `Some`, both natural ghosts and extras are recorded as redundant
    /// copies of the sender's block.
    pub fn exchange(
        &mut self,
        ctx: &mut NodeCtx,
        v_loc: &[f64],
        ghosts: &mut [f64],
        mut retention: Option<&mut Retention>,
    ) {
        debug_assert_eq!(v_loc.len(), self.my_len);
        // Post all sends first (asynchronous channels: no deadlock).
        for k in 0..self.nodes {
            if k == self.my_slot {
                continue;
            }
            let n_nat = self.send_natural[k].len();
            let gather = &self.gather[k];
            if gather.is_empty() {
                continue;
            }
            let buf = Self::writable(&mut self.bufs[k]);
            buf.extend(gather.iter().map(|&o| v_loc[o as usize]));
            if n_nat == 0 {
                // This link exists only for redundancy: the extra-latency
                // case of the paper's Sec. 4.2 analysis.
                ctx.stats_mut().record_extra_latency();
            }
            ctx.send_with_phases(
                self.members[k],
                TAG_SPMV,
                Payload::f64s_shared(self.bufs[k].clone()),
                &[
                    (CommPhase::Spmv, n_nat),
                    (CommPhase::Redundancy, gather.len() - n_nat),
                ],
            );
        }
        // Receive in deterministic peer order.
        for k in 0..self.nodes {
            if k == self.my_slot {
                continue;
            }
            let ghost_range = self.recv_ghost_range[k].clone();
            let n_ext = self.recv_extra[k].len();
            if ghost_range.is_empty() && n_ext == 0 {
                continue;
            }
            let msg = ctx.recv_phase(self.members[k], TAG_SPMV, CommPhase::Spmv);
            let data = msg.as_f64s();
            debug_assert_eq!(data.len(), ghost_range.len() + n_ext);
            let (nat_vals, ext_vals) = data.split_at(ghost_range.len());
            ghosts[ghost_range].copy_from_slice(nat_vals);
            if let Some(ret) = retention.as_deref_mut() {
                ret.store(k, nat_vals, ext_vals);
            }
        }
    }

    /// The pipelined-PCG variant of [`ScatterPlan::exchange`]: scatter the
    /// SpMV operand `m_loc` (natural ghosts only — `m` itself needs no
    /// backups) and piggyback redundant copies of `u(j)` and `p(j-1)` on
    /// the same messages. Per link the payload is
    /// `m[nat] ++ u[nat ∪ ext] ++ p[nat ∪ ext]`, so the per-iteration
    /// redundancy cost is `2·(|S_ik| + |Rᶜᵢₖ|)` elements but **zero extra
    /// messages** wherever natural traffic exists — the same
    /// latency-avoidance argument as the blocking solver's (Sec. 4.2),
    /// which is what keeps communication hiding worthwhile.
    pub fn exchange_pipelined(
        &mut self,
        ctx: &mut NodeCtx,
        m_loc: &[f64],
        ghosts: &mut [f64],
        mut backups: Option<PipeBackups<'_>>,
    ) {
        debug_assert_eq!(m_loc.len(), self.my_len);
        let has_p = backups.as_ref().is_some_and(|b| b.p_loc.is_some());
        // Post all sends first (asynchronous channels: no deadlock).
        for k in 0..self.nodes {
            if k == self.my_slot {
                continue;
            }
            let nat = &self.send_natural[k];
            let gather = &self.gather[k];
            if gather.is_empty() {
                continue;
            }
            let per_vec = gather.len();
            let buf = Self::writable(&mut self.bufs[k]);
            buf.extend(nat.iter().map(|&o| m_loc[o]));
            let mut backup_elems = 0;
            if let Some(b) = &backups {
                buf.extend(gather.iter().map(|&o| b.u_loc[o as usize]));
                backup_elems += per_vec;
                if let Some(p_loc) = b.p_loc {
                    buf.extend(gather.iter().map(|&o| p_loc[o as usize]));
                    backup_elems += per_vec;
                }
            }
            if nat.is_empty() {
                // This link exists only for redundancy: the extra-latency
                // case of the paper's Sec. 4.2 analysis.
                ctx.stats_mut().record_extra_latency();
            }
            ctx.send_with_phases(
                self.members[k],
                TAG_SPMV,
                Payload::f64s_shared(self.bufs[k].clone()),
                &[
                    (CommPhase::Spmv, nat.len()),
                    (CommPhase::Redundancy, backup_elems),
                ],
            );
        }
        // Receive in deterministic peer order.
        for k in 0..self.nodes {
            if k == self.my_slot {
                continue;
            }
            let ghost_range = self.recv_ghost_range[k].clone();
            let n_nat = ghost_range.len();
            let n_ext = self.recv_extra[k].len();
            if n_nat == 0 && n_ext == 0 {
                continue;
            }
            let per_vec = n_nat + n_ext;
            let msg = ctx.recv_phase(self.members[k], TAG_SPMV, CommPhase::Spmv);
            let data = msg.as_f64s();
            let expect = n_nat
                + if backups.is_some() {
                    per_vec * if has_p { 2 } else { 1 }
                } else {
                    0
                };
            debug_assert_eq!(data.len(), expect);
            ghosts[ghost_range].copy_from_slice(&data[..n_nat]);
            if let Some(b) = backups.as_mut() {
                let u_part = &data[n_nat..n_nat + per_vec];
                b.ret_u.store(k, &u_part[..n_nat], &u_part[n_nat..]);
                if has_p {
                    let p_part = &data[n_nat + per_vec..];
                    b.ret_p.store(k, &p_part[..n_nat], &p_part[n_nat..]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::{Cluster, ClusterConfig};
    use sparsemat::gen::poisson2d;
    use sparsemat::Csr;
    use std::sync::Arc;

    fn build_plans(a: Arc<Csr>, nodes: usize) -> Vec<(ScatterPlan, LocalMatrix)> {
        let n = a.n_rows();
        Cluster::run(ClusterConfig::new(nodes), move |ctx| {
            let part = BlockPartition::new(n, ctx.size());
            let lm = LocalMatrix::build(&a, &part, ctx.rank());
            let plan = ScatterPlan::build(ctx, &lm, &part);
            (plan, lm)
        })
    }

    #[test]
    fn send_and_recv_lists_are_symmetric() {
        let a = Arc::new(poisson2d(6, 6));
        let plans = build_plans(a, 4);
        for (i, (plan_i, _)) in plans.iter().enumerate() {
            for (k, (plan_k, _)) in plans.iter().enumerate() {
                if i == k {
                    continue;
                }
                // What i sends to k == what k expects from i.
                let sent: Vec<usize> = plan_i.send_natural[k]
                    .iter()
                    .map(|&o| o + plan_i.my_start)
                    .collect();
                let expected: Vec<usize> = {
                    let (_, lm_k) = &plans[k];
                    let r = plan_k.recv_ghost_range[i].clone();
                    lm_k.ghost_cols[r].to_vec()
                };
                assert_eq!(sent, expected, "i={i} k={k}");
            }
        }
    }

    #[test]
    fn exchange_delivers_ghosts() {
        let a = Arc::new(poisson2d(6, 6));
        let n = 36;
        let out = Cluster::run(ClusterConfig::new(3), move |ctx| {
            let part = BlockPartition::new(n, ctx.size());
            let lm = LocalMatrix::build(&a, &part, ctx.rank());
            let mut plan = ScatterPlan::build(ctx, &lm, &part);
            // Global vector x[i] = i².
            let v_loc: Vec<f64> = lm.range.clone().map(|i| (i * i) as f64).collect();
            let mut ghosts = vec![f64::NAN; lm.ghost_cols.len()];
            plan.exchange(ctx, &v_loc, &mut ghosts, None);
            (lm.ghost_cols.clone(), ghosts)
        });
        for (cols, ghosts) in out {
            for (g, v) in cols.iter().zip(&ghosts) {
                assert_eq!(*v, (g * g) as f64);
            }
        }
    }

    #[test]
    fn distributed_spmv_through_plan_matches_sequential() {
        let a = Arc::new(poisson2d(7, 5));
        let n = 35;
        let a2 = a.clone();
        let out = Cluster::run(ClusterConfig::new(5), move |ctx| {
            let part = BlockPartition::new(n, ctx.size());
            let lm = LocalMatrix::build(&a2, &part, ctx.rank());
            let mut plan = ScatterPlan::build(ctx, &lm, &part);
            let x_loc: Vec<f64> = lm.range.clone().map(|i| (i as f64 * 0.31).cos()).collect();
            let mut ghosts = vec![0.0; lm.ghost_cols.len()];
            plan.exchange(ctx, &x_loc, &mut ghosts, None);
            let mut y = vec![0.0; lm.n_local()];
            lm.spmv(&x_loc, &ghosts, &mut y);
            y
        });
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
        let y_seq = a.mul_vec(&x);
        let y_dist: Vec<f64> = out.into_iter().flatten().collect();
        for (d, s) in y_dist.iter().zip(&y_seq) {
            assert!((d - s).abs() < 1e-14);
        }
    }
}
