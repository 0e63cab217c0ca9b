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
//!
//! Every list that setup exchanges is a function of the static pattern and
//! the partition, so a node holding [`StaticData`] can also derive the
//! whole plan alone (`ScatterPlan::derive`,
//! `ScatterPlan::derive_extras`): recovery re-plans a shrunken cluster
//! that way, without a message.
//!
//! **The plan is per neighbour.** The paper's cost argument counts
//! neighbour links, and so does everything here: the per-peer lists are
//! sparse ([`PeerLists`] — only peers with traffic are stored) and the
//! exchange hot paths walk two link vectors (`SendLink`, `RecvLink`)
//! of length *degree*, never `0..nodes`. A node of a banded matrix holds
//! a handful of entries whatever the cluster size; only
//! `ScatterPlan::members` has one entry per node.

use parcomm::{CommPhase, NodeCtx, Payload};
use sparsemat::BlockPartition;
use std::ops::{Index, Range};
use std::sync::Arc;

use crate::config::BackupStrategy;
use crate::localmat::LocalMatrix;
use crate::redundancy::{compute_extra_sends, targets_for};
use crate::retention::Retention;
use crate::statics::StaticData;

/// User message tag for SpMV ghost exchange (with appended redundancy).
pub(crate) const TAG_SPMV: u32 = 10;

/// Index lists for the peers a node has traffic with: `(slot, list)`
/// entries ascending by slot, empty lists not stored. Reads like the dense
/// `Vec<Vec<usize>>` it replaces — `lists[k]` is peer `k`'s list, empty
/// when there is none — at O(degree) memory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerLists(Vec<(usize, Vec<usize>)>);

impl PeerLists {
    /// Peer `slot`'s list (empty when nothing is stored for it).
    pub(crate) fn get(&self, slot: usize) -> &[usize] {
        let found = self.0.binary_search_by_key(&slot, |&(k, _)| k);
        found.map_or(&[], |at| &self.0[at].1)
    }

    /// The peers with a non-empty list, ascending.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().map(|&(k, _)| k)
    }

    /// The stored `(slot, list)` entries, ascending by slot.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.0.iter().map(|(k, list)| (*k, list.as_slice()))
    }
}

impl Index<usize> for PeerLists {
    type Output = [usize];

    fn index(&self, slot: usize) -> &[usize] {
        self.get(slot)
    }
}

/// From `(slot, list)` pairs in any order (slots distinct); empty lists
/// are dropped.
impl FromIterator<(usize, Vec<usize>)> for PeerLists {
    fn from_iter<I: IntoIterator<Item = (usize, Vec<usize>)>>(lists: I) -> Self {
        let mut stored: Vec<_> = lists.into_iter().filter(|(_, l)| !l.is_empty()).collect();
        stored.sort_unstable_by_key(|&(k, _)| k);
        debug_assert!(stored.windows(2).all(|w| w[0].0 < w[1].0), "duplicate slot");
        PeerLists(stored)
    }
}

/// From the dense form: `dense[k]` is peer `k`'s list.
impl From<Vec<Vec<usize>>> for PeerLists {
    fn from(dense: Vec<Vec<usize>>) -> Self {
        dense.into_iter().enumerate().collect()
    }
}

/// What every other slot of `part` requests from `owner`'s block, derived
/// from static data: `(slot, global columns)` — the ghost columns of the
/// slot's block that `owner` owns, ascending by slot, empty ones left out.
fn requests_to<'a>(
    statics: &'a StaticData,
    part: &'a BlockPartition,
    owner: usize,
) -> impl Iterator<Item = (usize, Vec<usize>)> + 'a {
    let own = part.range(owner);
    (0..part.nodes())
        .filter(move |&q| q != owner)
        .filter_map(move |q| {
            let gc = &statics.block(&part.range(q)).ghost_cols;
            let lo = gc.partition_point(|&g| g < own.start);
            let hi = gc.partition_point(|&g| g < own.end);
            (lo < hi).then(|| (q, gc[lo..hi].to_vec()))
        })
}

/// The distinct slots among `peers`, ascending, `me` excluded.
fn linked_peers(peers: impl Iterator<Item = usize>, me: usize) -> Vec<usize> {
    let mut slots: Vec<usize> = peers.filter(|&k| k != me).collect();
    slots.sort_unstable();
    slots.dedup();
    slots
}

/// One outgoing neighbour link of the exchange: what is packed for `slot`
/// and the buffer it is packed into.
#[derive(Clone, Debug)]
pub(crate) struct SendLink {
    pub(crate) slot: usize,
    /// How many leading entries of `gather` are natural SpMV traffic.
    pub(crate) n_nat: usize,
    /// The pack list `send_natural[slot] ++ send_extra[slot]` as compact
    /// local offsets: the exchange packs the operand at its first `n_nat`
    /// entries and each copy at all of them.
    pub(crate) gather: Vec<u32>,
    /// The reusable send buffer. In steady state the receiver has dropped
    /// the previous message before our next exchange (iterations are
    /// separated by blocking collectives), so `Arc::get_mut` succeeds and
    /// packing reuses the allocation; a miss is counted via
    /// [`sparsemat::hotpath`] and falls back to a fresh buffer.
    pub(crate) buf: Arc<Vec<f64>>,
}

/// One incoming neighbour link: where `slot`'s natural values land in the
/// ghost buffer and how many redundancy extras follow them.
#[derive(Clone, Debug)]
pub(crate) struct RecvLink {
    pub(crate) slot: usize,
    pub(crate) ghost: Range<usize>,
    pub(crate) n_ext: usize,
}

/// The per-node communication plan.
///
/// Peers are addressed by **slot** — the index of their block in the
/// partition. On the full cluster slot `k` is global rank `k`; on a
/// shrunken cluster `ScatterPlan::members` maps slots to the surviving
/// global ranks.
#[derive(Clone, Debug)]
pub struct ScatterPlan {
    /// Global ranks of the participants, ascending; `members[slot]` is the
    /// rank owning partition block `slot`. Identity on the full cluster.
    pub(crate) members: Arc<[usize]>,
    /// This node's slot (`members[my_slot] == rank`).
    pub(crate) my_slot: usize,
    /// Start of the owned range (local offset = global − start).
    pub(crate) my_start: usize,
    /// Owned range length.
    pub(crate) my_len: usize,
    /// Per peer slot `k` with natural traffic: local offsets sent during
    /// SpMV (`S_ik`).
    pub send_natural: PeerLists,
    /// Per peer slot `k` with redundancy traffic: local offsets sent only
    /// for redundancy (`Rᶜᵢₖ`); filled in by [`crate::redundancy`].
    pub send_extra: PeerLists,
    /// `(slot, range)` ascending, per peer this node has ghosts of: the
    /// (non-empty) positions in the ghost buffer filled by that peer's
    /// natural values (contiguous, because ghost columns are sorted and
    /// ownership ranges are contiguous).
    pub(crate) recv_ghost_range: Vec<(usize, Range<usize>)>,
    /// Per peer slot `k` sending redundancy extras here: their global
    /// indices.
    pub(crate) recv_extra: PeerLists,
    /// The outgoing links, ascending by slot: one per peer in
    /// `send_natural ∪ send_extra`. Kept in sync by
    /// [`ScatterPlan::refresh_pack_lists`].
    pub(crate) send_links: Vec<SendLink>,
    /// The incoming links, ascending by slot: one per peer in
    /// `recv_ghost_range ∪ recv_extra`. Kept in sync likewise.
    pub(crate) recv_links: Vec<RecvLink>,
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
        let requests = Self::ghost_requests(lm, part);
        let incoming = ctx.alltoallv_sparse_u64(requests.0);
        Self::assemble((0..nodes).collect(), rank, lm, requests.1, incoming)
    }

    /// The natural-traffic plan [`ScatterPlan::build`] would agree on for
    /// `my_slot` of `part` (block `k` owned by `members[k]`), derived from
    /// static data without a message: slot `q`'s request is the part of
    /// `q`'s ghost columns inside this node's range. `lm` is this node's
    /// block of `statics`' matrix.
    pub(crate) fn derive(
        statics: &StaticData,
        lm: &LocalMatrix,
        part: &BlockPartition,
        members: Arc<[usize]>,
        my_slot: usize,
    ) -> Self {
        debug_assert_eq!(members.len(), part.nodes());
        debug_assert_eq!(lm.range, part.range(my_slot), "lm built for another slot");
        let (_, recv_ghost_range) = Self::ghost_requests(lm, part);
        let incoming = requests_to(statics, part, my_slot)
            .map(|(q, cols)| (q, cols.into_iter().map(|g| g as u64).collect()))
            .collect();
        Self::assemble(members, my_slot, lm, recv_ghost_range, incoming)
    }

    /// Group own ghost needs by owning slot: contiguous segments of the
    /// sorted ghost column list. Returns (requests, ghost ranges), both
    /// `(slot, …)` ascending.
    #[allow(clippy::type_complexity)]
    fn ghost_requests(
        lm: &LocalMatrix,
        part: &BlockPartition,
    ) -> (Vec<(usize, Vec<u64>)>, Vec<(usize, Range<usize>)>) {
        let mut requests = Vec::new();
        let mut recv_ghost_range = Vec::new();
        let gc = &lm.ghost_cols;
        let mut pos = 0usize;
        while pos < gc.len() {
            let owner = part.owner_of(gc[pos]);
            let end_of_owner = part.range(owner).end;
            let mut end = pos;
            while end < gc.len() && gc[end] < end_of_owner {
                end += 1;
            }
            recv_ghost_range.push((owner, pos..end));
            requests.push((owner, gc[pos..end].iter().map(|&g| g as u64).collect()));
            pos = end;
        }
        (requests, recv_ghost_range)
    }

    /// Owners learn who needs what (the send lists `S_ik`) from the
    /// all-to-all result and finish the plan.
    ///
    /// # Panics
    /// Panics when a peer requests an index this node does not own — in
    /// every build: a wrapped offset would send a wrong value silently.
    fn assemble(
        members: Arc<[usize]>,
        my_slot: usize,
        lm: &LocalMatrix,
        recv_ghost_range: Vec<(usize, Range<usize>)>,
        incoming: Vec<(usize, Vec<u64>)>,
    ) -> Self {
        let my_start = lm.range.start;
        let offset = |k: usize, g: u64| {
            let g = g as usize;
            assert!(
                lm.range.contains(&g),
                "slot {k} requested index {g} outside the owned range {:?}",
                lm.range
            );
            g - my_start
        };
        let requested = incoming.into_iter().filter(|&(k, _)| k != my_slot);
        let send_natural = requested
            .map(|(k, req)| (k, req.into_iter().map(|g| offset(k, g)).collect()))
            .collect();

        let mut plan = ScatterPlan {
            members,
            my_slot,
            my_start,
            my_len: lm.range.len(),
            send_natural,
            send_extra: PeerLists::default(),
            recv_ghost_range,
            recv_extra: PeerLists::default(),
            send_links: Vec::new(),
            recv_links: Vec::new(),
        };
        plan.refresh_pack_lists();
        plan
    }

    /// Rebuild the neighbour links — pack lists, pre-sized reusable send
    /// buffers, receive layout — as the merge of `send_natural`/`send_extra`
    /// and of `recv_ghost_range`/`recv_extra`. Must be called after
    /// mutating those directly (the redundancy setup does this via
    /// [`ScatterPlan::announce_extras`]).
    ///
    /// # Panics
    /// Panics when a send offset lies outside the owned block, in every
    /// build.
    pub(crate) fn refresh_pack_lists(&mut self) {
        let pack = |o: usize| {
            assert!(o < self.my_len, "send offset {o} outside the owned block");
            u32::try_from(o).expect("block offsets fit the pack lists' u32")
        };
        let send_peers = self.send_natural.slots().chain(self.send_extra.slots());
        let send_links = linked_peers(send_peers, self.my_slot)
            .into_iter()
            .map(|slot| {
                let (nat, ext) = (&self.send_natural[slot], &self.send_extra[slot]);
                let gather: Vec<u32> = nat.iter().chain(ext).map(|&o| pack(o)).collect();
                SendLink {
                    slot,
                    n_nat: nat.len(),
                    // Room for the operand's naturals and two copies of
                    // `gather`, the most any solver sends (pipelined PCG).
                    buf: Arc::new(Vec::with_capacity(nat.len() + 2 * gather.len())),
                    gather,
                }
            });
        self.send_links = send_links.collect();

        let ghost_peers = self.recv_ghost_range.iter().map(|(k, _)| *k);
        let recv_peers = ghost_peers.chain(self.recv_extra.slots());
        let recv_links = linked_peers(recv_peers, self.my_slot)
            .into_iter()
            .map(|slot| RecvLink {
                slot,
                ghost: self.ghost_range(slot),
                n_ext: self.recv_extra[slot].len(),
            });
        self.recv_links = recv_links.collect();
    }

    /// The positions in the ghost buffer filled by peer `slot`'s natural
    /// values (empty when this node has no ghosts of it).
    pub(crate) fn ghost_range(&self, slot: usize) -> Range<usize> {
        let ranges = &self.recv_ghost_range;
        let found = ranges.binary_search_by_key(&slot, |(k, _)| *k);
        found.map_or(0..0, |at| ranges[at].1.clone())
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
        let incoming = ctx.alltoallv_sparse_u64(sends);
        self.record_extras(incoming);
    }

    /// The redundancy extras of a [`ScatterPlan::derive`]d plan at
    /// `phi ≥ 1`, without a message: this node's `send_extra` (Eqn. 6 over
    /// its natural lists) and its `recv_extra` — for every slot `j` whose
    /// backup targets include this node, `j`'s natural lists are derived
    /// the same way and `j`'s Eqn. 6 list for this node is kept.
    pub(crate) fn derive_extras(
        &mut self,
        statics: &StaticData,
        part: &BlockPartition,
        phi: usize,
        strategy: &BackupStrategy,
    ) {
        let (me, k) = (self.my_slot, part.nodes());
        let extras_of = |j: usize, natural: &PeerLists| {
            compute_extra_sends(j, k, phi, strategy, part.len_of(j), natural)
        };
        self.send_extra = extras_of(me, &self.send_natural);
        let backed_up =
            (0..k).filter(|&j| j != me && targets_for(strategy, j, k, phi).contains(&me));
        let incoming = backed_up
            .map(|j| {
                let start = part.range(j).start;
                let offsets = |cols: Vec<usize>| cols.into_iter().map(|g| g - start).collect();
                let natural = requests_to(statics, part, j)
                    .map(|(q, cols)| (q, offsets(cols)))
                    .collect();
                let extras = extras_of(j, &natural);
                (j, extras[me].iter().map(|&o| (start + o) as u64).collect())
            })
            .collect();
        self.record_extras(incoming);
    }

    fn extra_announcements(&self) -> Vec<(usize, Vec<u64>)> {
        let global = |offs: &[usize]| offs.iter().map(|&o| (self.my_start + o) as u64).collect();
        self.send_extra
            .iter()
            .map(|(k, offs)| (k, global(offs)))
            .collect()
    }

    fn record_extras(&mut self, incoming: Vec<(usize, Vec<u64>)>) {
        self.recv_extra = incoming
            .into_iter()
            .map(|(k, v)| (k, v.into_iter().map(|g| g as usize).collect()))
            .collect();
        // `send_extra` was just filled by the caller: fold it into the
        // pack lists and re-size the send buffers.
        self.refresh_pack_lists();
    }

    /// `ScatterPlan::exchange_to` over every link with `v_loc` as its
    /// own copy: ghost values into `ghosts` (one slot per ghost column)
    /// and, with `retention`, naturals and extras recorded as redundant
    /// copies of the sender's block.
    pub fn exchange(
        &mut self,
        ctx: &mut NodeCtx,
        v_loc: &[f64],
        ghosts: &mut [f64],
        retention: Option<&mut Retention>,
    ) {
        let channels = retention.map(std::slice::from_mut);
        self.exchange_to(ctx, v_loc, ghosts, &[(0, None)], channels, None);
    }

    /// The SpMV scatter of `v_loc` into `ghosts`, carrying redundant
    /// copies on the same messages — one message and one λ per link
    /// (paper Sec. 4.2) — and exchanged over the links into the sorted
    /// global ranks `to` only (`None`: every link).
    ///
    /// The wire rule, per link: the operand's natural entries, then per
    /// `(channel, copy)` of `copies` in order the copy's natural ∪ extra
    /// entries. A copy of the operand itself (`None`) sends only its
    /// extras, its naturals being the head. A receiver stores copy `c`'s
    /// values in `channels[c]` when `channels` is given. So PCG and
    /// BiCGSTAB scatter their operand as its own copy, and pipelined PCG
    /// scatters `m(j)` with copies of `u(j)` and `p(j-1)`.
    ///
    /// A node sends on its links to a rank in `to`, and receives — every
    /// link — only if it is in `to` itself. What a receiver ends with is
    /// what the full exchange gives it; no message moves between two nodes
    /// outside `to`.
    ///
    /// # Panics
    /// Panics when a message's length is not the plan's, in every build: an
    /// unannounced entry would otherwise be dropped unseen or shift every
    /// copy behind it.
    pub(crate) fn exchange_to(
        &mut self,
        ctx: &mut NodeCtx,
        v_loc: &[f64],
        ghosts: &mut [f64],
        copies: &[(usize, Option<&[f64]>)],
        mut channels: Option<&mut [Retention]>,
        to: Option<&[usize]>,
    ) {
        debug_assert_eq!(v_loc.len(), self.my_len);
        let into = |rank: usize| to.is_none_or(|to| to.binary_search(&rank).is_ok());
        // Post all sends first (asynchronous channels: no deadlock).
        for link in self
            .send_links
            .iter_mut()
            .filter(|l| into(self.members[l.slot]))
        {
            let n_nat = link.n_nat;
            let buf = Self::writable(&mut link.buf);
            buf.extend(link.gather[..n_nat].iter().map(|&o| v_loc[o as usize]));
            for &(_, copy) in copies {
                let (v, from) = copy.map_or((v_loc, n_nat), |v| (v, 0));
                buf.extend(link.gather[from..].iter().map(|&o| v[o as usize]));
            }
            if n_nat == 0 {
                // This link exists only for redundancy: the extra-latency
                // case of the paper's Sec. 4.2 analysis.
                ctx.stats_mut().record_extra_latency();
            }
            let redundancy = buf.len() - n_nat;
            ctx.send_with_phases(
                self.members[link.slot],
                TAG_SPMV,
                Payload::f64s_shared(link.buf.clone()),
                &[
                    (CommPhase::Spmv, n_nat),
                    (CommPhase::Redundancy, redundancy),
                ],
            );
        }
        let receives = into(self.members[self.my_slot]);
        // Receive in deterministic peer order.
        for link in self.recv_links.iter().filter(|_| receives) {
            let from = self.members[link.slot];
            let msg = ctx.recv_phase(from, TAG_SPMV, CommPhase::Spmv);
            let data = msg.as_f64s();
            let n_nat = link.ghost.len();
            let copy_len = |copy: Option<&[f64]>| copy.map_or(0, |_| n_nat) + link.n_ext;
            let want = n_nat + copies.iter().map(|&(_, c)| copy_len(c)).sum::<usize>();
            assert!(
                data.len() == want,
                "scatter message from slot {} (rank {from}) holds {} values; the plan has {want}",
                link.slot,
                data.len()
            );
            let (nat_vals, mut rest) = data.split_at(n_nat);
            ghosts[link.ghost.clone()].copy_from_slice(nat_vals);
            for &(channel, copy) in copies {
                let (vals, tail) = rest.split_at(copy_len(copy));
                rest = tail;
                let (nat, ext) = match copy {
                    Some(_) => vals.split_at(n_nat),
                    None => (nat_vals, vals),
                };
                if let Some(channels) = channels.as_deref_mut() {
                    channels[channel].store(link.slot, nat, ext);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::Gen;
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
                    lm_k.ghost_cols[plan_k.ghost_range(i)].to_vec()
                };
                assert_eq!(sent, expected, "i={i} k={k}");
            }
        }
    }

    #[test]
    fn peer_lists_read_like_the_dense_form() {
        let lists: PeerLists = vec![vec![], vec![4, 2], vec![], vec![7]].into();
        assert_eq!(lists.slots().count(), 2, "empty lists are not stored");
        assert_eq!(lists[1], [4, 2]);
        assert!(lists[0].is_empty() && lists[2].is_empty() && lists[9].is_empty());
        assert_eq!(lists.slots().collect::<Vec<_>>(), vec![1, 3]);
        // Entries collect in any order and come out ascending.
        let same: PeerLists = [(3, vec![7]), (0, vec![]), (1, vec![4, 2])]
            .into_iter()
            .collect();
        assert_eq!(same, lists);
    }

    // The next two are the release-profile regression for the former
    // `debug_assert!` guards of plan assembly: `cargo test --release` runs
    // them with debug assertions off, where a bad request used to wrap
    // (`g - my_start`) or truncate (`as u32`) into a silently wrong send.
    #[test]
    #[should_panic(expected = "slot 0 requested index 3 outside the owned range 12..24")]
    fn request_outside_the_owned_range_is_rejected_in_every_profile() {
        let a = poisson2d(6, 6);
        let part = BlockPartition::new(36, 3);
        let lm = LocalMatrix::build(&a, &part, 1);
        let (_, ghost_ranges) = ScatterPlan::ghost_requests(&lm, &part);
        let incoming = vec![(0, vec![12, 3]), (2, vec![23])];
        ScatterPlan::assemble([0, 1, 2].into(), 1, &lm, ghost_ranges, incoming);
    }

    #[test]
    #[should_panic(expected = "send offset 12 outside the owned block")]
    fn send_offset_outside_the_block_is_rejected_in_every_profile() {
        let a = Arc::new(poisson2d(6, 6));
        let (mut plan, _) = build_plans(a, 3).swap_remove(1);
        plan.send_extra = [(0, vec![12])].into_iter().collect();
        plan.refresh_pack_lists();
    }

    // Without retention nothing else reads a message's tail, so only the
    // length check stands between an unannounced entry and a silently
    // accepted message in a release build.
    #[test]
    #[should_panic(
        expected = "scatter message from slot 1 (rank 1) holds 7 values; the plan has 6"
    )]
    fn a_message_longer_than_the_plan_is_rejected_in_every_profile() {
        let a = Arc::new(poisson2d(6, 6));
        Cluster::run(ClusterConfig::new(3), move |ctx| {
            let part = BlockPartition::new(36, ctx.size());
            let lm = LocalMatrix::build(&a, &part, ctx.rank());
            let mut plan = ScatterPlan::build(ctx, &lm, &part);
            if ctx.rank() == 1 {
                // An extra for slot 0 that was never announced to it.
                plan.send_extra = [(0, vec![0])].into_iter().collect();
                plan.refresh_pack_lists();
            }
            let mut ghosts = vec![0.0; lm.ghost_cols.len()];
            plan.exchange(ctx, &vec![1.0; lm.n_local()], &mut ghosts, None);
        });
    }

    /// The oracle of [`derived_plans_equal_the_collective_ones`]: per rank of
    /// a cluster cut by `part`, the world `build`, then per `(φ, strategy)`
    /// Eqn. 6 and `announce_extras` on a copy of it.
    fn collective_plans(
        a: Arc<Csr>,
        part: BlockPartition,
        settings: Vec<(usize, BackupStrategy)>,
    ) -> Vec<(ScatterPlan, Vec<ScatterPlan>)> {
        Cluster::run(ClusterConfig::new(part.nodes()), move |ctx| {
            let (rank, k) = (ctx.rank(), ctx.size());
            let lm = LocalMatrix::build(&a, &part, rank);
            let plan = ScatterPlan::build(ctx, &lm, &part);
            let with_extras = settings.iter().map(|(phi, strategy)| {
                let mut p = plan.clone();
                p.send_extra =
                    compute_extra_sends(rank, k, *phi, strategy, lm.n_local(), &p.send_natural);
                p.announce_extras(ctx);
                p
            });
            let with_extras = with_extras.collect();
            (plan, with_extras)
        })
    }

    /// Keep the entries on and below the diagonal: a structurally
    /// nonsymmetric pattern, where who requests from a block and whom it
    /// requests from differ.
    fn lower_part(a: &Csr) -> Csr {
        let mut lower = sparsemat::Coo::new(a.n_rows(), a.n_rows());
        for r in 0..a.n_rows() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize <= r {
                    lower.push(r, c as usize, v);
                }
            }
        }
        lower.to_csr()
    }

    /// The exchange tests' patterns: a grid, a randomly ordered mesh, a
    /// band and a structurally nonsymmetric circuit.
    fn patterns() -> [Csr; 4] {
        use sparsemat::gen::{banded_spd, circuit_like, mesh_laplacian_2d, MeshOrdering};
        [
            poisson2d(6, 9),
            mesh_laplacian_2d(8, 8, MeshOrdering::Random, 3),
            banded_spd(60, 5, 0.6, 4),
            lower_part(&circuit_like(64, 3, 0.2, 5)),
        ]
    }

    #[test]
    fn derived_plans_equal_the_collective_ones() {
        let strategies = [
            BackupStrategy::Minimal,
            BackupStrategy::MinimalConsecutive,
            BackupStrategy::FullBlock,
        ];
        for a in patterns() {
            let a = Arc::new(a);
            let n = a.n_rows();
            let statics = StaticData::new(a.clone());
            for k in 3..=9 {
                // As a shrink leaves it: k + 3 blocks, the second, a middle
                // and the last merged into their predecessors.
                let mut starts = BlockPartition::new(n, k + 3).starts().to_vec();
                for at in [k + 2, (k + 3) / 2, 1] {
                    starts.remove(at);
                }
                let settings: Vec<_> = (1..=3.min(k - 1))
                    .flat_map(|phi| strategies.iter().map(move |s| (phi, s.clone())))
                    .collect();
                for part in [
                    BlockPartition::new(n, k),
                    BlockPartition::from_starts(starts),
                ] {
                    let members: Arc<[usize]> = (0..k).map(|s| 2 * s + 1).collect();
                    let collective = collective_plans(a.clone(), part.clone(), settings.clone());
                    for (slot, (natural, extras)) in collective.iter().enumerate() {
                        let lm = statics.block(&part.range(slot));
                        let derived =
                            ScatterPlan::derive(&statics, &lm, &part, members.clone(), slot);
                        let at = format!("n = {n}, part {:?}, slot {slot}", part.starts());
                        assert_eq!(derived.members, members, "{at}");
                        assert_eq!(derived.send_natural, natural.send_natural, "{at}");
                        assert_eq!(derived.recv_ghost_range, natural.recv_ghost_range, "{at}");
                        for ((phi, strategy), want) in settings.iter().zip(extras) {
                            let mut got = derived.clone();
                            got.derive_extras(&statics, &part, *phi, strategy);
                            let at = format!("{at}, φ = {phi}, {strategy:?}");
                            assert_eq!(got.send_extra, want.send_extra, "{at}");
                            assert_eq!(got.recv_extra, want.recv_extra, "{at}");
                        }
                    }
                }
            }
        }
    }

    /// This rank's collective plan on `nodes` equal blocks of `a`, with the
    /// Eqn. 6 extras at `phi` announced, and its local rows.
    fn plan_with_extras(ctx: &mut NodeCtx, a: &Csr, phi: usize) -> (ScatterPlan, LocalMatrix) {
        let (rank, k) = (ctx.rank(), ctx.size());
        let part = BlockPartition::new(a.n_rows(), k);
        let lm = LocalMatrix::build(a, &part, rank);
        let mut plan = ScatterPlan::build(ctx, &lm, &part);
        let strategy = &BackupStrategy::Minimal;
        plan.send_extra =
            compute_extra_sends(rank, k, phi, strategy, lm.n_local(), &plan.send_natural);
        plan.announce_extras(ctx);
        (plan, lm)
    }

    /// A full scatter of `v` into `ghosts` and a new generation of `ret`.
    fn scatter_all(
        plan: &mut ScatterPlan,
        ctx: &mut NodeCtx,
        v: &[f64],
        ghosts: &mut [f64],
        ret: &mut Retention,
    ) {
        ret.rotate();
        plan.exchange(ctx, v, ghosts, Some(&mut *ret));
        ret.finish_generation();
    }

    /// The ghosts and `ret`'s current generation, as bits.
    fn bits(ghosts: &[f64], ret: &Retention) -> (Vec<u64>, Vec<(u64, u64)>) {
        let cur = ret.collect_range(Gen::Cur, 0, usize::MAX);
        let cur = cur.into_iter().map(|(i, v)| (i, v.to_bits()));
        (ghosts.iter().map(|v| v.to_bits()).collect(), cur.collect())
    }

    #[test]
    fn piggybacked_copies_equal_separate_scatters() {
        for a in patterns() {
            let (n, a) = (a.n_rows(), Arc::new(a));
            for phi in 1..=2 {
                let a = a.clone();
                let out = Cluster::run(ClusterConfig::new(5), move |ctx| {
                    let (mut plan, lm) = plan_with_extras(ctx, &a, phi);
                    let wave = |f: f64| -> Vec<f64> {
                        lm.range.clone().map(|i| (f * i as f64).sin()).collect()
                    };
                    let (m, u, p) = (wave(0.7), wave(0.3), wave(1.1));
                    let fresh = Retention::build(&plan, &lm.ghost_cols);
                    let (mut separate, mut together) =
                        ([fresh.clone(), fresh.clone()], [fresh.clone(), fresh]);
                    let mut ghosts = vec![0.0; lm.ghost_cols.len()];
                    // Separately: m plain, then u and p each with retention.
                    for (v, ret) in [&u, &p].into_iter().zip(&mut separate) {
                        scatter_all(&mut plan, ctx, v, &mut ghosts, ret);
                    }
                    plan.exchange(ctx, &m, &mut ghosts, None);
                    let want = separate.map(|ret| bits(&ghosts, &ret));
                    // Together: m carrying copies of u and p.
                    parcomm::fault::poison(&mut ghosts);
                    together.iter_mut().for_each(Retention::rotate);
                    let before = ctx.stats().total_msgs();
                    let copies = [(0, Some(u.as_slice())), (1, Some(p.as_slice()))];
                    plan.exchange_to(ctx, &m, &mut ghosts, &copies, Some(&mut together), None);
                    let sent = ctx.stats().total_msgs() - before;
                    together.iter_mut().for_each(Retention::finish_generation);
                    let got = together.map(|ret| bits(&ghosts, &ret));
                    (want == got, sent == plan.send_links.len() as u64)
                });
                for (rank, (same, one_each)) in out.into_iter().enumerate() {
                    let at = format!("n = {n}, φ = {phi}, rank {rank}");
                    assert!(same, "{at}: the copies differ from separate scatters");
                    assert!(one_each, "{at}: not one message per link");
                }
            }
        }
    }

    #[test]
    fn an_exchange_into_replaced_ranks_refills_them_alone() {
        let nodes = 5;
        for a in patterns() {
            let a = Arc::new(a);
            let n = a.n_rows();
            for phi in 1..=2 {
                for replaced in [vec![0], vec![2, 3], vec![1, 4]] {
                    let at = format!("n = {n}, φ = {phi}, replaced {replaced:?}");
                    let (a, to) = (a.clone(), replaced.clone());
                    let out = Cluster::run(ClusterConfig::new(nodes), move |ctx| {
                        let rank = ctx.rank();
                        let (mut plan, lm) = plan_with_extras(ctx, &a, phi);
                        let wave = |f: f64| -> Vec<f64> {
                            lm.range.clone().map(|i| (f * i as f64).sin()).collect()
                        };
                        let mut ret = Retention::build(&plan, &lm.ghost_cols);
                        let mut ghosts = vec![0.0; lm.ghost_cols.len()];
                        // Two full scatters, p(j−1) and p(j); then rank
                        // failures poison the replaced ranks' copies.
                        for f in [0.7, 0.3] {
                            scatter_all(&mut plan, ctx, &wave(f), &mut ghosts, &mut ret);
                        }
                        let want = bits(&ghosts, &ret);
                        let mine = to.contains(&rank);
                        if mine {
                            parcomm::fault::poison(&mut ghosts);
                            ret.poison();
                            ret.rotate();
                        }
                        let before = ctx.stats().total_msgs();
                        let receives = mine.then_some(std::slice::from_mut(&mut ret));
                        let copies = [(0, None)];
                        plan.exchange_to(
                            ctx,
                            &wave(0.3),
                            &mut ghosts,
                            &copies,
                            receives,
                            Some(&to),
                        );
                        if mine {
                            ret.finish_generation();
                        }
                        let sent = ctx.stats().total_msgs() - before;
                        let links_into = plan.send_links.iter().filter(|l| to.contains(&l.slot));
                        let links_into = links_into.count() as u64;
                        let got = bits(&ghosts, &ret);
                        // A repair message left in a survivor's mailbox
                        // would be taken by the next full exchange.
                        scatter_all(&mut plan, ctx, &wave(1.1), &mut ghosts, &mut ret);
                        let next_ok = lm
                            .ghost_cols
                            .iter()
                            .zip(&ghosts)
                            .all(|(&g, v)| v.to_bits() == (1.1 * g as f64).sin().to_bits());
                        (want == got, sent == links_into, next_ok)
                    });
                    for (rank, (same, sent, next_ok)) in out.into_iter().enumerate() {
                        assert!(same, "{at}: rank {rank} differs from the full exchange");
                        assert!(
                            sent,
                            "{at}: rank {rank} sent beyond its links into {replaced:?}"
                        );
                        assert!(next_ok, "{at}: rank {rank} received a stray repair message");
                    }
                }
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
