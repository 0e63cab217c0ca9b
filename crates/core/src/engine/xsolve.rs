//! The cooperative inner solve of `M_{If,If} y = w` over the
//! reconstructor group (Alg. 2 lines 5–8), generalized to reconstructors
//! owning several failed blocks at once. The reconstructors exchange only
//! the `If` entries each other's rows read ([`IfExchange`]). On a
//! bipartite coupling with exact block factors half of them eliminate
//! their rows ([`eliminate_reds`]); otherwise the whole group runs
//! single-reduction PCG ([`inner_cg`]).

use std::ops::Range;
use std::sync::Arc;

use parcomm::comm::ReduceOp;
use parcomm::{CommPhase, Group, NodeCtx, Payload};
use precond::{Ilu0, Preconditioner, SparseLdl};
use sparsemat::vecops::{axpy, dot, xpay};
use sparsemat::Csr;

use super::EventPlan;
use crate::config::RecoveryConfig;
use crate::statics::StaticData;

impl EventPlan {
    /// What this reconstructor exchanges of an `If` vector for its rows of
    /// `m` to read every coupled entry, derived from static data alone.
    /// What it sends a member comes from *that member's* rows, so both ends
    /// of every message derive the same list.
    pub(super) fn if_exchange(&self, m: &Csr, tag: u32) -> IfExchange {
        // The sorted positions inside `slice` that `rho`'s rows read.
        let reads = |rho: usize, slice: &Range<usize>| {
            let cols = self.rows_of(rho).flat_map(|gr| m.row(gr).0);
            let pos = cols.filter_map(|&c| self.if_indices.binary_search(&(c as usize)).ok());
            let mut pos: Vec<usize> = pos.filter(|p| slice.contains(p)).collect();
            pos.sort_unstable();
            pos.dedup();
            pos
        };
        let slices = self.reconstructors.iter().zip(&self.if_slices);
        let mut mine = slices.clone().filter(|&(&rho, _)| rho == self.me);
        let own = mine.next().expect("a reconstructor").1.clone();
        let peers = slices.filter(|&(&q, _)| q != self.me);
        let peers = peers.map(|(&q, slice)| (q, reads(q, &own), reads(self.me, slice)));
        let peers = peers.collect();
        IfExchange { tag, own, peers }
    }

    /// The inner solve's coupling graph over the reconstructors (indices
    /// into `reconstructors`): two are adjacent when either one's rows of
    /// `m` read the other's `If` slice — the non-empty [`IfExchange`] pairs,
    /// derived from static data, so the same graph on every member.
    fn coupling(&self, m: &Csr) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.reconstructors.len()];
        for (i, slice) in self.if_slices.iter().enumerate() {
            let cols = self.if_indices[slice.clone()]
                .iter()
                .flat_map(|&gr| m.row(gr).0);
            let pos = cols.filter_map(|&c| self.if_indices.binary_search(&(c as usize)).ok());
            for j in pos.map(|p| self.if_slices.partition_point(|s| s.end <= p)) {
                if j != i {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for a in &mut adj {
            a.sort_unstable();
            a.dedup();
        }
        adj
    }
}

/// One reconstructor's exchange of an `If` vector with the others
/// ([`EventPlan::if_exchange`]): in place of a group all-gather, only the
/// entries some member's rows read travel, each pair at most once.
pub(super) struct IfExchange {
    /// The tag every exchange of this vector travels under; FIFO
    /// `(src, tag)` order keeps successive exchanges apart.
    tag: u32,
    /// This node's `If` slice.
    own: Range<usize>,
    /// Per other member, ascending: `(member, sends, receives)` — the
    /// sorted positions of `own` that the member's rows read, and the
    /// sorted positions of the member's slice that this node's rows read.
    peers: Vec<(usize, Vec<usize>, Vec<usize>)>,
}

impl IfExchange {
    /// Send each coupled member its entries of `mine` (this node's slice),
    /// copy `mine` into `full` and receive every coupled member's run in
    /// ascending order: `full` (indexed by `If` position) then holds the
    /// all-gathered value at every position this node's rows read.
    pub(super) async fn run(&self, ctx: &mut NodeCtx, mine: &[f64], full: &mut [f64]) {
        for (q, sends, _) in self.peers.iter().filter(|p| !p.1.is_empty()) {
            let vals = sends.iter().map(|&p| mine[p - self.own.start]).collect();
            ctx.send(*q, self.tag, Payload::f64s(vals), CommPhase::Recovery);
        }
        full[self.own.clone()].copy_from_slice(mine);
        for (q, _, recvs) in self.peers.iter().filter(|p| !p.2.is_empty()) {
            let vals = ctx.recv_phase(*q, self.tag, CommPhase::Recovery).await;
            let vals = vals.into_f64s();
            assert_eq!(vals.len(), recvs.len(), "run from rank {q}");
            for (&p, v) in recvs.iter().zip(vals) {
                full[p] = v;
            }
        }
    }

    /// The members this node is coupled to, either way round.
    fn coupled(&self) -> impl Iterator<Item = &(usize, Vec<usize>, Vec<usize>)> {
        self.peers
            .iter()
            .filter(|p| !p.1.is_empty() || !p.2.is_empty())
    }

    /// Send every coupled member `head`, then its entries of `mine`; an
    /// empty `mine` sends the head alone.
    fn push(&self, ctx: &mut NodeCtx, head: &[f64], mine: &[f64]) {
        for (q, sends, _) in self.coupled() {
            let mut vals = head.to_vec();
            if !mine.is_empty() {
                vals.extend(sends.iter().map(|&p| mine[p - self.own.start]));
            }
            ctx.send(*q, self.tag, Payload::f64s(vals), CommPhase::Recovery);
        }
    }

    /// Receive every coupled member's [`IfExchange::push`] with a head of
    /// `h` values and write its run, if it sent one, into `full`. Returns
    /// the head, the same from every member; `None` with no coupled member.
    async fn pull(&self, ctx: &mut NodeCtx, h: usize, full: &mut [f64]) -> Option<Vec<f64>> {
        let mut head = None;
        for (q, _, recvs) in self.coupled() {
            let vals = ctx
                .recv_phase(*q, self.tag, CommPhase::Recovery)
                .await
                .into_f64s();
            let ok = vals.len() == h || vals.len() == h + recvs.len();
            assert!(ok, "run of {} from rank {q}", vals.len());
            for (&p, &v) in recvs.iter().zip(&vals[h..]) {
                full[p] = v;
            }
            head = Some(vals[..h].to_vec());
        }
        head
    }
}

/// The cooperative inner solve behind
/// [`EngineComm::solve_if_system`](super::esr::EngineComm::solve_if_system).
#[allow(clippy::too_many_arguments)]
pub(super) async fn solve_failed_rows(
    ctx: &mut NodeCtx,
    groups: &mut Vec<Group>,
    ex: &IfExchange,
    rcfg: &RecoveryConfig,
    plan: &EventPlan,
    m: &Csr,
    statics: Option<&StaticData>,
    rhs: Vec<f64>,
) -> (Vec<f64>, usize) {
    let rank = ctx.rank();
    // This member's rows of M_{If,If} (columns renumbered into If).
    let rows: Vec<usize> = plan.rows_of(plan.me).collect();
    let sub = m.extract(&rows, &plan.if_indices);
    // Own diagonal block of M_{If,If} for preconditioning, and its exact
    // factor: shared static data when the rows are one contiguous range of
    // `A` (Replace and Spares always; a Shrink adopter of adjacent blocks),
    // extracted and factored for this solve otherwise (`P`-given systems;
    // an adopter of blocks on both sides of its own).
    let own;
    let (statics, range) = match statics {
        Some(st) if rows[rows.len() - 1] + 1 - rows[0] == rows.len() => {
            (st, rows[0]..rows[0] + rows.len())
        }
        _ => {
            own = StaticData::new(Arc::new(m.extract(&rows, &rows)));
            (&own, 0..rows.len())
        }
    };
    let block = &statics.block(&range).diag;
    // Coarse factorization cost.
    ctx.clock_mut().advance_flops(20 * block.nnz().max(1));
    let prec: Arc<dyn Preconditioner> = if rcfg.exact_block_precond {
        let factor = statics
            .factor(&range)
            .unwrap_or_else(|e| panic!("rank {rank}: reconstruction block not SPD: {e}"));
        if let Some(red) = red_members(&plan.coupling(m)) {
            let reds = eliminate_reds(ctx, groups, ex, rcfg, plan, &sub, &factor, &red, rhs);
            return reds.await;
        }
        factor
    } else {
        Arc::new(
            Ilu0::new(block)
                .unwrap_or_else(|e| panic!("rank {rank}: reconstruction block ILU breakdown: {e}")),
        )
    };
    // The If-vector `sub` multiplies: exact at every position it reads.
    let mut z_full = vec![0.0; plan.if_indices.len()];
    let group = group_over(ctx, groups, &plan.reconstructors);
    inner_cg(ctx, rcfg, rhs, async |ctx, r, z, w, _, _| {
        prec.apply(r, z);
        ex.run(ctx, z, &mut z_full).await;
        sub.spmv(&z_full, w);
        ctx.clock_mut().advance_flops(sub.spmv_flops());
        let dots = vec![dot(r, r), dot(r, z), dot(z, w)];
        group
            .allreduce_vec(ctx, ReduceOp::Sum, dots, CommPhase::Recovery)
            .await
    })
    .await
}

/// The sub-communicator over `ranks`, created on first use.
fn group_over<'g>(ctx: &mut NodeCtx, gs: &'g mut Vec<Group>, ranks: &[usize]) -> &'g mut Group {
    if !gs.iter().any(|g| g.members() == ranks) {
        gs.push(ctx.group(ranks));
    }
    let i = gs.iter().position(|g| g.members() == ranks);
    &mut gs[i.expect("created")]
}

/// Which reconstructors a red-black inner solve eliminates ("reds"), per
/// vertex of the coupling graph `adj`: in each connected component the
/// larger colour class, ties to the class of its lowest member, so an
/// uncoupled member is red. `None` when a component has an odd cycle.
fn red_members(adj: &[Vec<usize>]) -> Option<Vec<bool>> {
    // Breadth-first 2-colouring: `side[v]` is whether v is on its
    // component root's side.
    let mut side: Vec<Option<bool>> = vec![None; adj.len()];
    let mut red = vec![false; adj.len()];
    for root in 0..adj.len() {
        if side[root].is_some() {
            continue;
        }
        side[root] = Some(true);
        let mut comp = vec![root];
        let mut k = 0;
        while let Some(&v) = comp.get(k) {
            k += 1;
            for &u in &adj[v] {
                if side[u].is_none() {
                    side[u] = side[v].map(|c| !c);
                    comp.push(u);
                } else if side[u] == side[v] {
                    return None;
                }
            }
        }
        let rooted = comp.iter().filter(|&&v| side[v] == Some(true)).count();
        let reds = Some(2 * rooted >= comp.len());
        for &v in &comp {
            red[v] = side[v] == reds;
        }
    }
    Some(red)
}

/// The inner solve on a bipartite coupling graph (`red` per reconstructor,
/// [`red_members`]): red-black elimination. No two reds are coupled, so
/// `A_RR` is block diagonal: the reds are eliminated exactly with their
/// block factors (`solve`), and the blacks run [`inner_cg`] on the Schur
/// complement `S = A_BB − A_BR A_RR⁻¹ A_RB`, preconditioned by their own
/// exact factors. Messages travel along the coupling graph only:
///
/// * a red sends `u = A_RR⁻¹ w_R`; the blacks start from `r = w_B − A_BR u`;
/// * per step a black sends its `z` headed by `[β, α, 1]`, the recurrence's
///   last coefficients; a red serves `y = −A_RR⁻¹ A_RB z` back and carries
///   `q = y + βq` (that is `−A_RR⁻¹ A_RB p`) and `x_R += αq`, so `x_R` ends
///   as `u − A_RR⁻¹ A_RB x_B = A_RR⁻¹ (w_R − A_RB x_B)` with no further solve;
/// * the blacks' dot products are local with one black, which tests
///   convergence before a step, and one black-group all-reduce otherwise;
/// * converged, a black sends the head `[β, α, 0]` alone.
///
/// An uncoupled member is red and solves directly. Every member returns the
/// blacks' iteration count.
#[allow(clippy::too_many_arguments)]
async fn eliminate_reds(
    ctx: &mut NodeCtx,
    groups: &mut Vec<Group>,
    ex: &IfExchange,
    rcfg: &RecoveryConfig,
    plan: &EventPlan,
    sub: &Csr,
    factor: &SparseLdl,
    red: &[bool],
    rhs: Vec<f64>,
) -> (Vec<f64>, usize) {
    let solve = |v: &[f64]| {
        let mut z = v.to_vec();
        factor.solve_in_place(&mut z);
        z
    };
    let nloc = rhs.len();
    let rhos = plan.reconstructors.iter().copied();
    let blacks: Vec<usize> = rhos
        .zip(red)
        .filter_map(|(q, &r)| (!r).then_some(q))
        .collect();
    let mut full = vec![0.0; plan.if_indices.len()];
    // `−sub` on the other members' slices (`−A_RB` on a red, `−A_BR` on a
    // a black), and the values of `full` there.
    let own = ex.own.clone();
    let outside: Vec<usize> = (0..own.start).chain(own.end..full.len()).collect();
    let mut off = sub.extract(&(0..nloc).collect::<Vec<_>>(), &outside);
    off.vals_mut().iter_mut().for_each(|v| *v = -*v);
    let others = |full: &[f64]| [&full[..own.start], &full[own.end..]].concat();
    if blacks.binary_search(&plan.me).is_err() {
        let mut x = solve(&rhs);
        ex.push(ctx, &[], &x);
        let (mut y, mut q, mut iters) = (vec![0.0; nloc], vec![0.0; nloc], 0);
        while let Some(head) = ex.pull(ctx, 3, &mut full).await {
            // Serve first: carrying `q` and `x` is off the blacks' path.
            let served = (head[2] != 0.0).then(|| {
                let mut t = vec![0.0; nloc];
                off.spmv(&others(&full), &mut t);
                ctx.clock_mut().advance_flops(off.spmv_flops());
                let next = solve(&t);
                ex.push(ctx, &[], &next);
                next
            });
            xpay(&y, head[0], &mut q);
            axpy(head[1], &q, &mut x);
            iters += usize::from(head[1] != 0.0);
            ctx.clock_mut().advance_flops(4 * nloc);
            match served {
                Some(next) => y = next,
                None => break,
            }
        }
        return (x, iters);
    }
    let mut group = (blacks.len() > 1).then(|| group_over(ctx, groups, &blacks));
    ex.pull(ctx, 0, &mut full).await;
    let mut r = rhs;
    off.spmv_add(&others(&full), &mut r);
    ctx.clock_mut().advance_flops(off.spmv_flops() + nloc);
    // The coefficients a red has not been sent when the solve ends.
    let mut unsent = [0.0; 2];
    let step = async |ctx: &mut NodeCtx,
                      r: &[f64],
                      z: &mut [f64],
                      w: &mut [f64],
                      [beta, alpha]: [f64; 2],
                      target_sq| {
        let rr = dot(r, r);
        if group.is_none() && rr <= target_sq {
            unsent = [beta, alpha];
            return vec![rr, 0.0, 0.0];
        }
        factor.apply(r, z);
        ex.push(ctx, &[beta, alpha, 1.0], z);
        ex.pull(ctx, 0, &mut full).await;
        full[own.clone()].copy_from_slice(z);
        sub.spmv(&full, w);
        ctx.clock_mut().advance_flops(sub.spmv_flops());
        let dots = vec![rr, dot(r, z), dot(z, w)];
        match group.as_mut() {
            Some(g) => {
                g.allreduce_vec(ctx, ReduceOp::Sum, dots, CommPhase::Recovery)
                    .await
            }
            None => dots,
        }
    };
    let out = inner_cg(ctx, rcfg, r, step).await;
    ex.push(ctx, &[unsent[0], unsent[1], 0.0], &[]);
    out
}

/// Single-reduction (Chronopoulos–Gear) PCG from `x = 0` on residual `r`:
/// `w = A z` every iteration, `s = A p` carried as `s = w + βs`, and
/// `[‖r‖², rᵀz, zᵀw]` in one reduction; `pᵀAp` follows as `zᵀw − β·rᵀz/α`.
/// `step(ctx, r, z, w, [β, α], target)` sets `z = M⁻¹ r` and `w = A z` and
/// returns the three sums over the solve's members. It is passed the last
/// `β` and `α` (zero before the first) and the exit threshold on `‖r‖²`
/// (zero before it is known), which it may test before stepping. Stops at
/// `‖r‖² ≤ tol²·‖r₀‖²`; returns `x` and the iterations.
async fn inner_cg(
    ctx: &mut NodeCtx,
    rcfg: &RecoveryConfig,
    mut r: Vec<f64>,
    mut step: impl AsyncFnMut(&mut NodeCtx, &[f64], &mut [f64], &mut [f64], [f64; 2], f64) -> Vec<f64>,
) -> (Vec<f64>, usize) {
    let nloc = r.len();
    let mut x = vec![0.0; nloc];
    let mut z = vec![0.0; nloc];
    let mut w = vec![0.0; nloc];
    let mut red = step(ctx, &r, &mut z, &mut w, [0.0; 2], 0.0).await;
    if red[0] <= f64::MIN_POSITIVE {
        return (x, 0);
    }
    let target_sq = rcfg.inner_rel_tol * rcfg.inner_rel_tol * red[0];
    let (mut p, mut s) = (z.clone(), w.clone());
    let (mut gamma, mut pap, mut beta) = (red[1], red[2], 0.0);
    let mut iters = 0usize;
    loop {
        if !(pap > 0.0 && pap.is_finite()) || iters == rcfg.inner_max_iter {
            let cause = if iters == rcfg.inner_max_iter {
                format!("inner_max_iter = {iters} reached")
            } else {
                format!("breakdown, pᵀAp = {pap}")
            };
            let rank = ctx.rank();
            panic!("rank {rank}: inner reconstruction solver stopped unconverged: {cause}");
        }
        let alpha = gamma / pap;
        iters += 1;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &s, &mut r);
        ctx.clock_mut().advance_flops(4 * nloc);
        red = step(ctx, &r, &mut z, &mut w, [beta, alpha], target_sq).await;
        if red[0] <= target_sq {
            return (x, iters);
        }
        beta = red[1] / gamma;
        gamma = red[1];
        pap = red[2] - beta * gamma / alpha;
        xpay(&z, beta, &mut p);
        xpay(&w, beta, &mut s);
        ctx.clock_mut().advance_flops(4 * nloc);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{tag, TAG_STRIDE};
    use super::*;
    use crate::config::{SolverConfig, SolverKind};
    use crate::driver::{run, Problem};
    use parcomm::{CostModel, FailureScript};
    use sparsemat::gen::poisson2d;
    use sparsemat::BlockPartition;

    /// The pushed `If` exchange replaces a group all-gather, so every
    /// reconstructor must end up with the all-gathered value at every
    /// position its rows of `m` read, each member sending at most one
    /// message per coupled peer. Runs the exchange on a cluster of eight
    /// nodes, for each pattern and failure event below.
    #[test]
    fn pushed_if_exchange_matches_the_all_gather() {
        use parcomm::{Cluster, ClusterConfig};
        use sparsemat::gen::{banded_spd, circuit_like, mesh_laplacian_2d, MeshOrdering};
        use sparsemat::Coo;
        // Structurally nonsymmetric: what q needs from this node follows
        // from q's rows, not from this node's.
        let circuit = circuit_like(160, 6, 0.1, 5);
        let mut lower = Coo::new(160, 160);
        for r in 0..160 {
            let (cols, vals) = circuit.row(r);
            for (&c, &v) in cols.iter().zip(vals).filter(|(&c, _)| c as usize <= r) {
                lower.push(r, c as usize, v);
            }
        }
        let patterns = [
            poisson2d(12, 12),
            mesh_laplacian_2d(12, 12, MeshOrdering::Random, 3),
            banded_spd(160, 30, 0.3, 9),
            lower.to_csr(),
        ];
        // (failed, replacement budget): ψ = 2–4 replaced in place —
        // adjacent, non-adjacent, wrapped; one replaced and two adopted;
        // Shrink with two separated runs (two adopters), with a block
        // before and after its adopter, and with three adopters.
        let events: [(&[usize], usize); 8] = [
            (&[3, 4], usize::MAX),
            (&[1, 4, 6], usize::MAX),
            (&[0, 6, 7], usize::MAX),
            (&[0, 2, 3, 5], usize::MAX),
            (&[2, 3, 6], 1),
            (&[2, 3, 6], 0),
            (&[0, 2, 5], 0),
            (&[0, 3, 7], 0),
        ];
        let members: Vec<usize> = (0..8).collect();
        let value = |row: usize| 0.5 + row as f64;
        for (k, m) in patterns.iter().enumerate() {
            let part = BlockPartition::new(m.n_rows(), members.len());
            let mut pushed = 0;
            for &(failed, avail) in &events {
                let plan_of = |me| EventPlan::new(&members, &part, &part, me, failed, avail);
                let out = Cluster::run_async(ClusterConfig::new(members.len()), async |ctx| {
                    let plan = plan_of(ctx.rank());
                    if plan.reconstructors.binary_search(&plan.me).is_err() {
                        return None;
                    }
                    let ex = plan.if_exchange(m, tag(0, TAG_STRIDE - 1));
                    let mine: Vec<f64> = plan.rows_of(plan.me).map(value).collect();
                    let mut full = vec![f64::NAN; plan.if_indices.len()];
                    ex.run(ctx, &mine, &mut full).await;
                    let peers = ex.peers.iter().filter(|p| !p.1.is_empty()).count();
                    Some((full, peers, ctx.stats().msgs(CommPhase::Recovery)))
                });
                let (mut sent, mut coupled) = (0, 0);
                for (rho, got) in out.values.into_iter().enumerate() {
                    let Some((full, peers, msgs)) = got else {
                        continue;
                    };
                    let plan = plan_of(rho);
                    assert_eq!(msgs, peers as u64, "pattern {k}, {failed:?}: one per peer");
                    sent += peers;
                    for gr in plan.rows_of(rho) {
                        for &c in m.row(gr).0 {
                            let Ok(p) = plan.if_indices.binary_search(&(c as usize)) else {
                                continue;
                            };
                            let (got, want) = (full[p].to_bits(), value(c as usize).to_bits());
                            assert_eq!(got, want, "pattern {k}, {failed:?}, rank {rho}, col {c}");
                        }
                    }
                    let slices = plan.reconstructors.iter().zip(&plan.if_slices);
                    let (_, own) = slices.clone().find(|&(&q, _)| q == rho).unwrap();
                    assert!(plan.if_indices[own.clone()]
                        .iter()
                        .copied()
                        .eq(plan.rows_of(rho)));
                    coupled += (slices.filter(|&(&q, _)| q != rho))
                        .filter(|&(_, slice)| reads_any(m, &plan, rho, slice))
                        .count();
                }
                assert_eq!(
                    sent, coupled,
                    "pattern {k}, {failed:?}: messages = coupled pairs"
                );
                pushed += sent;
            }
            assert!(pushed > 0, "pattern {k} couples some reconstructors");
        }
    }

    /// The x solve's contract on each coupling shape. A bipartite coupling
    /// (chains at ψ = 2, 3, 5; uncoupled ψ = 3; a lone replacement; a lone
    /// adopter of two blocks) eliminates its reds: they book no all-reduce,
    /// the blacks book none with one black and one before the loop plus one
    /// per iteration with more, and the count is at most ⌈k/2⌉ + 1, k being
    /// sequential PCG's on `A_{If,If}` with the same exact block Jacobi —
    /// zero with no edge. A triangle, and ILU(0), run the loop over the
    /// whole group: one all-reduce before it and one per iteration on every
    /// member. Every member reports the same count, and every solve returns
    /// the solution of `A_{If,If} y = rhs`. Runs the solve alone on a
    /// cluster of eight nodes.
    #[test]
    fn inner_solve_reduces_only_over_the_blacks() {
        use parcomm::{Cluster, ClusterConfig};
        use precond::{BlockJacobi, BlockSolver};
        use sparsemat::gen::banded_spd;
        // Eight blocks of poisson2d(12, 12) couple only their neighbours;
        // a band of 30 over blocks of 20 rows couples k to k + 2 as well.
        let (chain, band) = (poisson2d(12, 12), banded_spd(160, 30, 0.3, 9));
        let members: Vec<usize> = (0..8).collect();
        let rhs_at = |row: usize| 1.0 + (row % 7) as f64;
        // (matrix, failed, replacement budget, exact block factor, blacks;
        // `None` for the loop over the whole group).
        type Event<'a> = (&'a Csr, &'a [usize], usize, bool, Option<usize>);
        let events: [Event; 10] = [
            (&chain, &[3, 4], usize::MAX, true, Some(1)),
            (&chain, &[2, 3, 4], usize::MAX, true, Some(1)),
            (&chain, &[1, 2, 3, 4, 5], usize::MAX, true, Some(2)),
            (&chain, &[1, 4, 6], usize::MAX, true, Some(0)),
            (&chain, &[5], usize::MAX, true, Some(0)),
            (&chain, &[3, 4], 0, true, Some(0)),
            (&band, &[2, 3, 4], usize::MAX, true, None),
            (&band, &[2, 3], usize::MAX, true, Some(1)),
            (&chain, &[5], usize::MAX, false, None),
            (&chain, &[2, 3, 4], usize::MAX, false, None),
        ];
        for (m, failed, avail, exact, blacks) in events {
            let part = BlockPartition::new(m.n_rows(), members.len());
            let rcfg = RecoveryConfig {
                exact_block_precond: exact,
                ..RecoveryConfig::default()
            };
            let plan_of = |me| EventPlan::new(&members, &part, &part, me, failed, avail);
            let out = Cluster::run_async(ClusterConfig::new(members.len()), async |ctx| {
                let plan = plan_of(ctx.rank());
                if plan.reconstructors.binary_search(&plan.me).is_err() {
                    return None;
                }
                let ex = plan.if_exchange(m, tag(0, TAG_STRIDE - 1));
                let rhs = plan.rows_of(plan.me).map(rhs_at).collect();
                let before = ctx.stats().allreduces();
                let groups = &mut Vec::new();
                let solve = solve_failed_rows(ctx, groups, &ex, &rcfg, &plan, m, None, rhs);
                let (y, iters) = solve.await;
                Some((y, iters, ctx.stats().allreduces() - before))
            });
            let plan = plan_of(0);
            let case = format!("{failed:?}, budget {avail}, exact {exact}");
            let red = red_members(&plan.coupling(m)).filter(|_| exact);
            let black_count = red.as_ref().map(|r| r.iter().filter(|&&red| !red).count());
            assert_eq!(black_count, blacks, "{case}: blacks");
            let sub = m.extract(&plan.if_indices, &plan.if_indices);
            let rhs: Vec<f64> = plan.if_indices.iter().map(|&gr| rhs_at(gr)).collect();
            let mut starts: Vec<usize> = plan.if_slices.iter().map(|s| s.start).collect();
            starts.push(plan.if_indices.len());
            let slices = BlockPartition::from_starts(starts);
            let bj = BlockJacobi::from_partition(&sub, &slices, BlockSolver::ExactLdl).unwrap();
            let zero = vec![0.0; rhs.len()];
            let k = krylov::pcg(&sub, &rhs, &zero, &bj, rcfg.inner_rel_tol, 1000).iterations;
            let (mut y, mut counts) = (Vec::new(), Vec::new());
            for (i, (y_rho, iters, booked)) in out.values.into_iter().flatten().enumerate() {
                counts.push(iters);
                let expected = match (&red, blacks) {
                    (Some(red), Some(b)) if red[i] || b == 1 => 0,
                    _ => iters as u64 + 1,
                };
                assert_eq!(booked, expected, "{case}, member {i}: all-reduces");
                y.extend(y_rho);
            }
            let iters = counts[0];
            assert!(counts.iter().all(|&c| c == iters), "{case}: {counts:?}");
            match blacks {
                Some(0) => assert_eq!(iters, 0, "{case}"),
                Some(_) => assert!(
                    iters > 0 && iters <= k.div_ceil(2) + 1,
                    "{case}: {iters}, k {k}"
                ),
                None => assert!(iters > 0, "{case}"),
            }
            let mut ay = vec![0.0; y.len()];
            sub.spmv(&y, &mut ay);
            for (&gr, ay) in plan.if_indices.iter().zip(ay) {
                assert!((ay - rhs_at(gr)).abs() < 1e-10, "{case}, row {gr}");
            }
        }
    }

    /// An inner solve that exhausts `inner_max_iter` stops the run instead
    /// of handing back an `x_If` that is not the solution.
    #[test]
    #[should_panic(expected = "inner_max_iter = 1 reached")]
    fn inner_solve_out_of_iterations_panics() {
        let problem = Problem::with_ones_solution(poisson2d(14, 14));
        let mut cfg = SolverConfig::resilient(2);
        cfg.resilience.as_mut().unwrap().recovery.inner_max_iter = 1;
        let script = FailureScript::simultaneous(6, 2, 2, 7);
        let _ = run(
            SolverKind::Pcg,
            &problem,
            7,
            &cfg,
            CostModel::default(),
            script,
        );
    }

    /// Whether `rho`'s rows of `m` read any `If` position in `slice`.
    fn reads_any(m: &Csr, plan: &EventPlan, rho: usize, slice: &Range<usize>) -> bool {
        plan.rows_of(rho).any(|gr| {
            let pos = m.row(gr).0.iter();
            let mut pos = pos.filter_map(|&c| plan.if_indices.binary_search(&(c as usize)).ok());
            pos.any(|p| slice.contains(&p))
        })
    }
}
