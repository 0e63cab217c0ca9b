//! The redundant-state stores — one per protection flavor.
//!
//! **[`Retention`]** (ESR): in non-resilient PCG, a node drops the
//! search-direction elements it received for SpMV once the product is
//! computed. ESR instead **retains** everything received for the two most
//! recent search directions (paper Sec. 2.2): "there is a redundant copy
//! of each element of p(j) after computing A·p(j)". The store holds two
//! generations — `cur` for `p(j)`, `prev` for `p(j-1)` — rotated at every
//! SpMV, and answers the recovery-time query *"give me every retained
//! element owned by the failed nodes"*. Its per-peer bookkeeping is one
//! entry per receive link of the [`ScatterPlan`] — O(degree), like the
//! plan itself.
//!
//! **`CheckpointStore`** (checkpoint/rollback): the periodic-checkpoint
//! counterpart. Every deposit round each node replicates its packed
//! dynamic state to `copies` ring partners — the same Eqn. (5)
//! alternating-ring placement ESR uses for redundant copies, so the two
//! flavors are equally failure-decorrelated — and holds the newest
//! replica deposited by each of its clients, answering the rollback-time
//! query *"give me the newest surviving checkpoint of this failed block"*.

use std::collections::HashMap;
use std::sync::Arc;

use parcomm::{CommPhase, NodeCtx, Payload};

use crate::config::CrConfig;
use crate::redundancy::backup_targets;
use crate::scatter::ScatterPlan;

/// Tag offset of deposit fan-out messages inside a deposit round's window
/// (each round gets its own window from the shared recovery sequence).
const OFF_CKPT: u32 = 0;

/// Which generation of retained copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gen {
    /// Copies of `p(j)` — the most recently scattered search direction.
    Cur,
    /// Copies of `p(j-1)`.
    Prev,
}

/// Where one peer's deposit lands: positions into `Retention::idx` of its
/// natural values and of its extras, each in message order.
#[derive(Clone, Debug)]
struct RetLink {
    slot: usize,
    nat_pos: Vec<usize>,
    ext_pos: Vec<usize>,
}

/// Two-generation store of received search-direction elements.
#[derive(Clone, Debug)]
pub struct Retention {
    /// Sorted global indices of every element this node receives per
    /// iteration (natural ghosts ∪ redundancy extras).
    idx: Vec<usize>,
    cur: Vec<f64>,
    prev: Vec<f64>,
    /// One entry per receive link of the plan, ascending by peer slot.
    links: Vec<RetLink>,
    cur_valid: bool,
    prev_valid: bool,
}

impl Retention {
    /// Build from a completed scatter plan (extras announced) and the ghost
    /// column list of the local matrix.
    pub fn build(plan: &ScatterPlan, ghost_cols: &[usize]) -> Self {
        let mut idx: Vec<usize> = ghost_cols.to_vec();
        for (_, ext) in plan.recv_extra.iter() {
            idx.extend_from_slice(ext);
        }
        idx.sort_unstable();
        idx.dedup();

        let lookup = |g: usize| -> usize { idx.binary_search(&g).expect("retained index") };
        let links = plan.recv_links.iter().map(|link| RetLink {
            slot: link.slot,
            nat_pos: ghost_cols[link.ghost.clone()]
                .iter()
                .map(|&g| lookup(g))
                .collect(),
            ext_pos: plan.recv_extra[link.slot]
                .iter()
                .map(|&g| lookup(g))
                .collect(),
        });
        let links = links.collect();
        let n = idx.len();
        Retention {
            idx,
            cur: vec![f64::NAN; n],
            prev: vec![f64::NAN; n],
            links,
            cur_valid: false,
            prev_valid: false,
        }
    }

    /// Rotate generations at the start of an SpMV: `prev ← cur`.
    pub fn rotate(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.prev);
        self.prev_valid = self.cur_valid;
        self.cur_valid = false;
    }

    /// Mark the current generation complete (all exchanges received).
    pub fn finish_generation(&mut self) {
        self.cur_valid = true;
    }

    /// Deposit values received from `peer` into the current generation.
    ///
    /// The deposit must cover the peer's slots exactly (a peer without a
    /// receive link owes nothing). A hard assert in *all* build profiles:
    /// with a `debug_assert` only, a short `naturals`/`extras` slice in a
    /// release build silently truncates via `zip`, leaving stale or NaN
    /// retained copies that corrupt a later reconstruction — the worst
    /// possible failure mode for a resilience library (the corruption only
    /// surfaces when a node actually dies).
    pub(crate) fn store(&mut self, peer: usize, naturals: &[f64], extras: &[f64]) {
        let found = self.links.binary_search_by_key(&peer, |l| l.slot);
        let (nat_pos, ext_pos): (&[usize], &[usize]) = match found {
            Ok(at) => (&self.links[at].nat_pos, &self.links[at].ext_pos),
            Err(_) => (&[], &[]),
        };
        assert_eq!(
            naturals.len(),
            nat_pos.len(),
            "retention deposit from peer {peer}: naturals length mismatch"
        );
        assert_eq!(
            extras.len(),
            ext_pos.len(),
            "retention deposit from peer {peer}: extras length mismatch"
        );
        for (&p, &v) in nat_pos.iter().zip(naturals) {
            self.cur[p] = v;
        }
        for (&p, &v) in ext_pos.iter().zip(extras) {
            self.cur[p] = v;
        }
    }

    /// Is the generation complete?
    pub(crate) fn is_valid(&self, generation: Gen) -> bool {
        match generation {
            Gen::Cur => self.cur_valid,
            Gen::Prev => self.prev_valid,
        }
    }

    /// All retained `(global index, value)` pairs of `generation` whose
    /// indices fall into `[lo, hi)` — the recovery query for a failed
    /// node's range.
    pub(crate) fn collect_range(&self, generation: Gen, lo: usize, hi: usize) -> Vec<(u64, f64)> {
        if !self.is_valid(generation) {
            return Vec::new();
        }
        let vals = match generation {
            Gen::Cur => &self.cur,
            Gen::Prev => &self.prev,
        };
        let start = self.idx.partition_point(|&g| g < lo);
        let end = self.idx.partition_point(|&g| g < hi);
        (start..end)
            .map(|p| (self.idx[p] as u64, vals[p]))
            .collect()
    }

    /// Destroy all retained data (this node failed): values become NaN and
    /// both generations invalid, so any illegal read is detectable.
    pub(crate) fn poison(&mut self) {
        parcomm::fault::poison(&mut self.cur);
        parcomm::fault::poison(&mut self.prev);
        self.cur_valid = false;
        self.prev_valid = false;
    }
}

/// One saved state: the iteration it was packed at and the packed block
/// (see [`crate::engine::pack`] for the layout).
#[derive(Clone, Debug)]
pub(crate) struct Checkpoint {
    /// The outer iteration the pack describes (a deposit-round boundary).
    pub(crate) iteration: u64,
    /// The packed dynamic state. `Arc`-backed so one deposit buffer serves
    /// as the own copy *and* every outgoing ring replica without a deep
    /// copy per destination.
    pub(crate) data: Arc<Vec<f64>>,
}

/// Periodic-checkpoint store for
/// [`crate::config::Protection::Checkpoint`]: this node's own newest
/// checkpoint plus the newest replica held for each ring client.
///
/// Placement is by **member slot**, not global rank, so the ring contracts
/// correctly after a shrink: `partners = members[backup_targets(my_slot)]`.
/// On the full cluster the two coincide.
#[derive(Clone, Debug)]
pub(crate) struct CheckpointStore {
    interval: usize,
    copies: usize,
    /// Global ranks this node deposits replicas on (current layout).
    partners: Vec<usize>,
    /// Global ranks that deposit replicas here (current layout).
    clients: Vec<usize>,
    /// Newest replica held per client, keyed by global rank.
    held: HashMap<usize, Checkpoint>,
    /// This node's own newest checkpoint.
    pub(crate) own: Checkpoint,
}

impl CheckpointStore {
    /// Build the store for the current layout. `copies` is clamped to the
    /// member count minus one (a shrink can leave fewer ring partners than
    /// configured replicas).
    pub(crate) fn new(cr: &CrConfig, members: &[usize], my_slot: usize) -> Self {
        let (partners, clients) = Self::placement(cr.copies, members, my_slot);
        CheckpointStore {
            interval: cr.interval,
            copies: cr.copies,
            partners,
            clients,
            held: HashMap::new(),
            own: Checkpoint {
                iteration: 0,
                data: Arc::new(Vec::new()),
            },
        }
    }

    fn placement(copies: usize, members: &[usize], my_slot: usize) -> (Vec<usize>, Vec<usize>) {
        let k = members.len();
        let copies_eff = copies.min(k.saturating_sub(1));
        if copies_eff == 0 {
            return (Vec::new(), Vec::new()); // single survivor: no ring
        }
        let partners: Vec<usize> = backup_targets(my_slot, k, copies_eff)
            .into_iter()
            .map(|s| members[s])
            .collect();
        let clients: Vec<usize> = (0..k)
            .filter(|&s| s != my_slot && backup_targets(s, k, copies_eff).contains(&my_slot))
            .map(|s| members[s])
            .collect();
        (partners, clients)
    }

    /// Checkpoint every `interval` outer iterations.
    pub(crate) fn interval(&self) -> usize {
        self.interval
    }

    /// Global ranks holding replicas of member `f`'s block (ring order —
    /// rollback serves from the first *surviving* one).
    pub(crate) fn holders_of(&self, members: &[usize], f: usize) -> Vec<usize> {
        let k = members.len();
        let copies_eff = self.copies.min(k.saturating_sub(1));
        if copies_eff == 0 {
            return Vec::new();
        }
        let slot = members
            .binary_search(&f)
            .expect("failed rank is an active member");
        backup_targets(slot, k, copies_eff)
            .into_iter()
            .map(|s| members[s])
            .collect()
    }

    /// The newest replica held for global rank `f`, if any.
    pub(crate) fn replica_of(&self, f: usize) -> Option<&Checkpoint> {
        self.held.get(&f)
    }

    /// One deposit round: save `data` as this node's own checkpoint for
    /// `iteration`, fan the replica out to the ring partners, and collect
    /// the clients' replicas. Collective over the active members;
    /// bracketed in its own audit tag window `seq` (drawn from the shared
    /// recovery sequence, so deposit rounds and recovery attempts can
    /// never alias). One shared buffer fans out to every partner (Arc
    /// bump per send, no per-destination deep copy; each message still
    /// pays the full λ + s·µ).
    pub(crate) async fn deposit(
        &mut self,
        ctx: &mut NodeCtx,
        seq: u32,
        iteration: u64,
        data: Vec<f64>,
    ) {
        ctx.audit_enter_window(seq);
        ctx.trace_open("deposit", iteration);
        self.own = Checkpoint {
            iteration,
            data: Arc::new(data),
        };
        for &d in &self.partners {
            ctx.send(
                d,
                crate::engine::tag(seq, OFF_CKPT),
                Payload::f64s_shared(self.own.data.clone()),
                CommPhase::Redundancy,
            );
        }
        for &c in &self.clients {
            let data = ctx
                .recv_phase(c, crate::engine::tag(seq, OFF_CKPT), CommPhase::Redundancy)
                .await
                .into_f64s_arc();
            self.held.insert(c, Checkpoint { iteration, data });
        }
        ctx.trace_close();
        ctx.audit_exit_window();
    }

    /// Destroy all checkpoint data (this node failed): both the own copy
    /// and every held replica are gone.
    pub(crate) fn poison(&mut self) {
        self.own.data = Arc::new(Vec::new());
        self.held.clear();
    }

    /// Recompute the ring for a new layout (post-shrink) and drop all
    /// state; the caller re-seeds `own`, and the re-deposit at the rolled
    /// -back iteration (always a deposit boundary) refills the replicas.
    pub(crate) fn rebuild(&mut self, members: &[usize], my_slot: usize) {
        let (partners, clients) = Self::placement(self.copies, members, my_slot);
        self.partners = partners;
        self.clients = clients;
        self.held.clear();
        self.own = Checkpoint {
            iteration: 0,
            data: Arc::new(Vec::new()),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_plan() -> (ScatterPlan, Vec<usize>) {
        // 2 peers; this node (rank 1 of 3) has ghosts {0, 1, 20} and
        // receives extras {2} from peer 0, {21} from peer 2.
        let mut plan = ScatterPlan {
            members: [0, 1, 2].into(),
            my_slot: 1,
            my_start: 10,
            my_len: 10,
            send_natural: vec![vec![], vec![], vec![]].into(),
            send_extra: vec![vec![], vec![], vec![]].into(),
            recv_ghost_range: vec![(0, 0..2), (2, 2..3)],
            recv_extra: vec![vec![2], vec![], vec![21]].into(),
            send_links: Vec::new(),
            recv_links: Vec::new(),
        };
        plan.refresh_pack_lists();
        (plan, vec![0, 1, 20])
    }

    #[test]
    fn build_merges_and_sorts_indices() {
        let (plan, ghosts) = mini_plan();
        let ret = Retention::build(&plan, &ghosts);
        assert_eq!(ret.idx.len(), 5); // {0,1,2,20,21}
        assert!(!ret.is_valid(Gen::Cur));
    }

    #[test]
    fn store_and_collect() {
        let (plan, ghosts) = mini_plan();
        let mut ret = Retention::build(&plan, &ghosts);
        ret.rotate();
        ret.store(0, &[100.0, 101.0], &[102.0]); // globals 0,1 + extra 2
        ret.store(2, &[120.0], &[121.0]); // global 20 + extra 21
        ret.finish_generation();
        let got = ret.collect_range(Gen::Cur, 0, 3);
        assert_eq!(got, vec![(0, 100.0), (1, 101.0), (2, 102.0)]);
        let got = ret.collect_range(Gen::Cur, 20, 22);
        assert_eq!(got, vec![(20, 120.0), (21, 121.0)]);
        assert!(ret.collect_range(Gen::Cur, 5, 9).is_empty());
    }

    #[test]
    fn rotation_moves_generations() {
        let (plan, ghosts) = mini_plan();
        let mut ret = Retention::build(&plan, &ghosts);
        ret.rotate();
        ret.store(0, &[1.0, 2.0], &[3.0]);
        ret.store(2, &[4.0], &[5.0]);
        ret.finish_generation();
        ret.rotate();
        ret.store(0, &[10.0, 20.0], &[30.0]);
        ret.store(2, &[40.0], &[50.0]);
        ret.finish_generation();
        assert_eq!(ret.collect_range(Gen::Prev, 0, 1), vec![(0, 1.0)]);
        assert_eq!(ret.collect_range(Gen::Cur, 0, 1), vec![(0, 10.0)]);
    }

    #[test]
    fn invalid_generation_yields_nothing() {
        let (plan, ghosts) = mini_plan();
        let mut ret = Retention::build(&plan, &ghosts);
        ret.rotate();
        ret.store(0, &[1.0, 2.0], &[3.0]);
        ret.store(2, &[4.0], &[5.0]);
        ret.finish_generation();
        // Prev was never filled.
        assert!(ret.collect_range(Gen::Prev, 0, 30).is_empty());
    }

    #[test]
    fn poison_invalidates() {
        let (plan, ghosts) = mini_plan();
        let mut ret = Retention::build(&plan, &ghosts);
        ret.rotate();
        ret.store(0, &[1.0, 2.0], &[3.0]);
        ret.store(2, &[4.0], &[5.0]);
        ret.finish_generation();
        ret.poison();
        assert!(ret.collect_range(Gen::Cur, 0, 30).is_empty());
    }

    #[test]
    fn plan_and_retention_are_o_degree() {
        // Block-tridiagonal pattern: 64 strips of two grid lines each, so
        // natural traffic goes to the two ring neighbours; φ = 3 adds the
        // backup target i + 2 (Eqn. 5: +1, −1, +2).
        use crate::config::SolverConfig;
        use crate::engine::Layout;
        use crate::statics::StaticData;
        use parcomm::{Cluster, ClusterConfig};

        let (nodes, phi) = (64, 3);
        let statics = StaticData::new(Arc::new(sparsemat::gen::poisson2d(8, 2 * nodes)));
        let cfg = SolverConfig::resilient(phi);
        let layouts = Cluster::run_async(ClusterConfig::new(nodes), async |ctx| {
            let layout = Layout::build_full(ctx, &statics, &cfg, 1).await;
            (layout.plan, layout.channels)
        });
        let layouts = layouts.values;
        for (i, (plan, channels)) in layouts.iter().enumerate() {
            let ret = &channels[0];
            if (2..nodes - 2).contains(&i) {
                let natural: Vec<usize> = plan.send_natural.slots().collect();
                assert_eq!(natural, vec![i - 1, i + 1], "rank {i}");
                let ghosts: Vec<usize> = plan.recv_ghost_range.iter().map(|(k, _)| *k).collect();
                assert_eq!(ghosts, vec![i - 1, i + 1], "rank {i}");
                let senders: Vec<usize> = plan.send_links.iter().map(|l| l.slot).collect();
                assert_eq!(senders, vec![i - 1, i + 1, i + 2], "rank {i}");
                let receivers: Vec<usize> = plan.recv_links.iter().map(|l| l.slot).collect();
                assert_eq!(receivers, vec![i - 2, i - 1, i + 1], "rank {i}");
            }
            // One stored entry per distinct peer with traffic — and so no
            // per-peer collection of the plan or the store has one entry per
            // node; `members` is the only thing that does.
            let send_peers = plan.send_natural.slots().chain(plan.send_extra.slots());
            let send_peers: std::collections::BTreeSet<usize> = send_peers.collect();
            assert_eq!(plan.send_links.len(), send_peers.len(), "rank {i}");
            let recv_peers = plan.recv_ghost_range.iter().map(|(k, _)| *k);
            let recv_peers: std::collections::BTreeSet<usize> =
                recv_peers.chain(plan.recv_extra.slots()).collect();
            assert_eq!(plan.recv_links.len(), recv_peers.len(), "rank {i}");
            assert_eq!(ret.links.len(), recv_peers.len(), "rank {i}");
            let per_peer = [
                plan.send_natural.slots().count(),
                plan.send_extra.slots().count(),
                plan.recv_ghost_range.len(),
                plan.recv_extra.slots().count(),
                plan.send_links.len(),
                plan.recv_links.len(),
                ret.links.len(),
            ];
            assert!(
                per_peer.iter().all(|&n| n <= 2 + phi),
                "rank {i}: {per_peer:?}"
            );
            assert_eq!(plan.members.len(), nodes);
        }
    }

    // These two are the release-profile regression for the former
    // `debug_assert_eq!` guards: `cargo test --release` runs them with
    // debug assertions off, so they only pass because the length checks
    // are hard asserts (a zip-truncation would otherwise pass silently).
    #[test]
    #[should_panic(expected = "naturals length mismatch")]
    fn short_naturals_slice_is_rejected_in_every_profile() {
        let (plan, ghosts) = mini_plan();
        let mut ret = Retention::build(&plan, &ghosts);
        ret.rotate();
        ret.store(0, &[100.0], &[102.0]); // peer 0 owes 2 naturals
    }

    #[test]
    #[should_panic(expected = "extras length mismatch")]
    fn short_extras_slice_is_rejected_in_every_profile() {
        let (plan, ghosts) = mini_plan();
        let mut ret = Retention::build(&plan, &ghosts);
        ret.rotate();
        ret.store(2, &[120.0], &[]); // peer 2 owes 1 extra
    }

    // ---- CheckpointStore ring placement --------------------------------

    fn store_on(members: &[usize], my_slot: usize, copies: usize) -> CheckpointStore {
        CheckpointStore::new(&CrConfig::default().with_copies(copies), members, my_slot)
    }

    #[test]
    fn checkpoint_placement_full_cluster_matches_ring() {
        let members: Vec<usize> = (0..5).collect();
        let st = store_on(&members, 1, 2);
        assert_eq!(st.partners, backup_targets(1, 5, 2));
        // Partner/client relations are mutually consistent across nodes.
        for slot in 0..5 {
            let s = store_on(&members, slot, 2);
            for &c in &s.clients {
                let cs = store_on(&members, c, 2);
                assert!(cs.partners.contains(&members[slot]));
            }
            for &d in &s.partners {
                let ds = store_on(&members, d, 2);
                assert!(ds.clients.contains(&members[slot]));
            }
        }
    }

    #[test]
    fn checkpoint_placement_is_by_slot_after_shrink() {
        // Members {0, 2, 3, 6}: the ring runs over slots, then maps back
        // to global ranks — slot 1 (rank 2) targets slot 2 (rank 3).
        let members = vec![0, 2, 3, 6];
        let st = store_on(&members, 1, 1);
        assert_eq!(st.partners, vec![3]);
        assert_eq!(st.holders_of(&members, 2), vec![3]);
    }

    #[test]
    fn checkpoint_copies_clamp_to_surviving_ring() {
        // Three members but five configured replicas: only two other
        // nodes exist to hold them.
        let members = vec![1, 4, 7];
        let st = store_on(&members, 0, 5);
        assert_eq!(st.partners.len(), 2);
        // A single survivor has no ring at all.
        let st = store_on(&[4], 0, 3);
        assert!(st.partners.is_empty() && st.clients.is_empty());
        assert!(st.holders_of(&[4], 4).is_empty());
    }

    #[test]
    fn checkpoint_poison_and_rebuild_drop_replicas() {
        let members: Vec<usize> = (0..4).collect();
        let mut st = store_on(&members, 2, 1);
        st.own = Checkpoint {
            iteration: 10,
            data: Arc::new(vec![1.0, 2.0]),
        };
        st.held.insert(
            1,
            Checkpoint {
                iteration: 10,
                data: Arc::new(vec![3.0]),
            },
        );
        st.poison();
        assert!(st.own.data.is_empty());
        assert!(st.replica_of(1).is_none());
        st.rebuild(&[0, 2], 1);
        assert_eq!(st.partners, vec![0]);
        assert_eq!(st.own.iteration, 0);
    }
}
