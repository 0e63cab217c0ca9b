//! What one recovery attempt derives from the layout, the failed set and
//! the replacement budget before it communicates ([`EventPlan`]): who is
//! replaced in place, who retires, who rebuilds which rows, and the
//! partition after the event, which the placement DP ([`place`]) picks
//! under a Shrink. Also the splice that installs rows into a moved range
//! ([`splice_slots`]).

use std::ops::Range;

use parcomm::{CommPhase, NodeCtx, Payload};
use sparsemat::BlockPartition;

use super::ReconBlock;

/// What one attempt derives from the layout, the failed set and the
/// replacement budget before it communicates: who is replaced in place,
/// who retires, who rebuilds which rows, and the layout after the event.
/// A restart with an enlarged failed set derives a new one.
pub(crate) struct EventPlan {
    /// This node's rank.
    pub(crate) me: usize,
    /// Whether this node is among the failed (past the retire exit: a
    /// replacement node).
    pub(crate) am_failed: bool,
    /// This node's owned rows on the layout the event started on.
    pub(crate) my_range: Range<usize>,
    /// The attempt's failed ranks, ascending (a snapshot: the loop's own
    /// set may grow at the next boundary).
    pub(crate) failed: Vec<usize>,
    /// The `granted` lowest failed ranks are replaced in place; the rest
    /// retire and their subdomains are adopted.
    pub(crate) granted: usize,
    /// Active members that did not fail, ascending.
    pub(crate) survivors: Vec<usize>,
    /// The members after the event: everyone but the retired.
    pub(crate) new_members: Vec<usize>,
    /// Their partition, cut at setup block starts. With no retirements it
    /// is the old partition; otherwise [`place`] picks it: no member holds
    /// more setup blocks than it must, then as few surviving blocks as
    /// possible change holder, then as few rebuilt blocks as possible
    /// leave their reconstructor. A survivor hands each old row it no
    /// longer holds to the row's new holder; see [`EventPlan::holders`].
    pub(crate) new_part: BlockPartition,
    /// Per failed rank, in `failed` order: its old rows and who rebuilds
    /// them. The reconstructors' row sets concatenate to sorted `If`.
    pub(crate) lost: Vec<LostBlock>,
    /// The distinct reconstructors, ascending.
    pub(crate) reconstructors: Vec<usize>,
    /// Per reconstructor, in the same order: the offsets of its rows in
    /// `If`. The slices tile `0..|If|` in ascending order.
    pub(crate) if_slices: Vec<Range<usize>>,
    /// Sorted global rows of all failed blocks (`If`).
    pub(crate) if_indices: Vec<usize>,
}

/// One failed rank's subdomain in an [`EventPlan`].
pub(crate) struct LostBlock {
    /// The failed rank.
    pub(crate) rank: usize,
    /// Its owned rows before the event.
    pub(crate) range: Range<usize>,
    /// Who rebuilds them: the rank itself when replaced in place, else the
    /// nearest preceding new member (the first one for a leading run), so
    /// one member rebuilds a whole run with one exact solve. It hands the
    /// rows it does not hold after the event to their holders at commit.
    pub(crate) reconstructor: usize,
}

impl EventPlan {
    /// Plan the event for sorted `failed` ranks (all active members, whose
    /// blocks `part` holds in `members` order; its boundaries are `setup`
    /// block starts) under a budget of `avail` replacements.
    pub(super) fn new(
        members: &[usize],
        part: &BlockPartition,
        setup: &BlockPartition,
        me: usize,
        failed: &[usize],
        avail: usize,
    ) -> Self {
        let granted = avail.min(failed.len());
        let old_range = |r: usize| {
            let slot = members.binary_search(&r).expect("an active member");
            part.range(slot)
        };
        let without = |gone: &[usize]| -> Vec<usize> {
            let stays = |r: &usize| gone.binary_search(r).is_err();
            members.iter().copied().filter(stays).collect()
        };
        let new_members = without(&failed[granted..]);
        let lost: Vec<LostBlock> = failed
            .iter()
            .enumerate()
            .map(|(i, &rank)| LostBlock {
                rank,
                range: old_range(rank),
                reconstructor: if i < granted {
                    rank
                } else {
                    new_members[new_members.partition_point(|&m| m < rank).saturating_sub(1)]
                },
            })
            .collect();
        let new_part = if granted == failed.len() {
            part.clone()
        } else {
            // Per setup block: the new member that holds it if nothing
            // moves (its survivor or its reconstructor), and the cost of
            // moving it — a surviving block outweighs every rebuilt one.
            let slot_of = |r: usize| new_members.binary_search(&r).expect("a new member");
            let mut stay = vec![(0, 0); setup.nodes()];
            for (slot, &m) in members.iter().enumerate() {
                let held = match failed.binary_search(&m) {
                    Ok(i) => (slot_of(lost[i].reconstructor), 1),
                    Err(_) => (slot_of(m), setup.nodes() + 1),
                };
                stay[setup.blocks_of(&part.range(slot))].fill(held);
            }
            let starts = place(&stay, new_members.len());
            BlockPartition::from_starts(starts.iter().map(|&k| setup.starts()[k]).collect())
        };
        let mut reconstructors: Vec<usize> = lost.iter().map(|l| l.reconstructor).collect();
        reconstructors.sort_unstable();
        reconstructors.dedup();
        // `lost` is in row order, so each reconstructor's blocks are one run.
        let mut end = 0;
        let runs = lost.chunk_by(|a, b| a.reconstructor == b.reconstructor);
        let if_slices = runs
            .map(|run| {
                let start = end;
                end += run.iter().map(|l| l.range.len()).sum::<usize>();
                start..end
            })
            .collect();
        let if_indices: Vec<usize> = lost.iter().flat_map(|l| l.range.clone()).collect();
        debug_assert!(if_indices.windows(2).all(|w| w[0] < w[1]));
        EventPlan {
            me,
            am_failed: failed.binary_search(&me).is_ok(),
            my_range: old_range(me),
            failed: failed.to_vec(),
            granted,
            survivors: without(failed),
            new_members,
            new_part,
            lost,
            reconstructors,
            if_slices,
            if_indices,
        }
    }

    /// The failed ranks that get a replacement node.
    pub(crate) fn replaced(&self) -> &[usize] {
        &self.failed[..self.granted]
    }

    /// The failed ranks that leave the cluster.
    pub(crate) fn retired(&self) -> &[usize] {
        &self.failed[self.granted..]
    }

    /// The failed blocks this node rebuilds, in ascending row order.
    pub(crate) fn mine(&self) -> impl Iterator<Item = &LostBlock> {
        self.lost.iter().filter(|l| l.reconstructor == self.me)
    }

    /// The rows reconstructor `rho` rebuilds, ascending.
    pub(super) fn rows_of(&self, rho: usize) -> impl Iterator<Item = usize> + '_ {
        let blocks = self.lost.iter().filter(move |l| l.reconstructor == rho);
        blocks.flat_map(|l| l.range.clone())
    }

    /// `rows` cut at the partition after the event, each piece with its
    /// holder, in row order.
    pub(crate) fn holders(
        &self,
        rows: &Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        cut(&self.new_part, &self.new_members, rows)
    }

    /// Send each piece of `range` (the rows of `vecs`) that another member
    /// holds after the event to it: one message, every block vector back
    /// to back.
    pub(super) fn hand_over(
        &self,
        ctx: &mut NodeCtx,
        tag: u32,
        vecs: &[Vec<f64>],
        range: &Range<usize>,
    ) {
        for (q, rows) in self.holders(range).filter(|&(q, _)| q != self.me) {
            let at = rows.start - range.start..rows.end - range.start;
            let data = vecs.iter().flat_map(|v| &v[at.clone()]).copied().collect();
            ctx.send(q, tag, Payload::f64s(data), CommPhase::Recovery);
        }
    }

    /// This node's slot among [`EventPlan::new_members`] (it did not
    /// retire).
    pub(crate) fn new_slot(&self) -> usize {
        self.new_members
            .binary_search(&self.me)
            .expect("active non-retired rank is a new member")
    }
}

/// `rows` cut at the blocks of `part`, each piece with its holder in
/// `members` (`part`'s order), in row order.
pub(crate) fn cut<'a>(
    part: &'a BlockPartition,
    members: &'a [usize],
    rows: &Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + 'a {
    let Range { start, end } = rows.clone();
    (part.owner_of(start)..part.nodes()).map_while(move |slot| {
        let r = part.range(slot);
        (r.start < end).then(|| (members[slot], r.start.max(start)..r.end.min(end)))
    })
}

/// The adoption rule: each new member's first setup block, followed by
/// the number of blocks. `stay[k]` is the member that holds setup block
/// `k` if nothing moves and what moving it costs. Minimises the most
/// blocks any of the `m` members holds, ⌈blocks/m⌉, then the cost: a DP
/// over (member, start), member `j` starting on one of blocks
/// `j..=j + blocks − m`, in O(m·(blocks − m)·cap²).
fn place(stay: &[(usize, usize)], m: usize) -> Vec<usize> {
    let (n, cap) = (stay.len(), stay.len().div_ceil(m));
    // best[j][s − j]: the least cost of members 0..j holding blocks 0..s,
    // and where member j − 1 starts on it.
    let mut best: Vec<Vec<Option<(usize, usize)>>> = vec![vec![None; n - m + 1]; m + 1];
    best[0][0] = Some((0, 0));
    for j in 0..m {
        for s in j..=j + n - m {
            let Some((c, _)) = best[j][s - j] else {
                continue;
            };
            for t in s + 1..=(s + cap).min(j + 1 + n - m) {
                let away = stay[s..t].iter().filter(|&&(h, _)| h != j);
                let c = c + away.map(|&(_, w)| w).sum::<usize>();
                let slot = &mut best[j + 1][t - j - 1];
                if slot.is_none_or(|(old, _)| c < old) {
                    *slot = Some((c, s));
                }
            }
        }
    }
    let mut starts = vec![n; m + 1];
    for j in (1..=m).rev() {
        starts[j - 1] = best[j][starts[j] - j].expect("⌈blocks/members⌉ fits").1;
    }
    starts
}

/// Rebuild every vector of `vecs` (slot = index) over `new_range` from the
/// node's old owned values (`own_range` is `None` for a replaced rank,
/// whose old values are poisoned) and the blocks' vectors of the same
/// slot: rebuilt, or handed over. Each source gives the rows it shares
/// with `new_range`; together they must cover every row.
pub(crate) fn splice_slots(
    vecs: &mut [Vec<f64>],
    new_range: &Range<usize>,
    own_range: Option<&Range<usize>>,
    blocks: &[ReconBlock],
) {
    for (slot, v) in vecs.iter_mut().enumerate() {
        let mut out = vec![f64::NAN; new_range.len()];
        let blocks = blocks.iter().map(|b| (&b.range, &b.vecs[slot][..]));
        for (range, src) in own_range.map(|own| (own, &v[..])).into_iter().chain(blocks) {
            let rows = range.start.max(new_range.start)..range.end.min(new_range.end);
            if !rows.is_empty() {
                out[rows.start - new_range.start..rows.end - new_range.start]
                    .copy_from_slice(&src[rows.start - range.start..rows.end - range.start]);
            }
        }
        assert!(out.iter().all(|x| !x.is_nan()), "shrink splice left a gap");
        *v = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The new partition in setup blocks: each new member's first one.
    fn block_starts(plan: &EventPlan, setup: &BlockPartition) -> Vec<usize> {
        let starts = &plan.new_part.starts()[..plan.new_members.len()];
        starts.iter().map(|&r| setup.owner_of(r)).collect()
    }

    /// The reconstructor rule: the replaced rank itself, else the nearest
    /// preceding new member, or the first for a leading run.
    fn assert_reconstructors(plan: &EventPlan) {
        for l in &plan.lost {
            let before = plan.new_members.iter().rev().find(|&&m| m < l.rank);
            let rule = match plan.replaced().contains(&l.rank) {
                true => l.rank,
                false => *before.unwrap_or(&plan.new_members[0]),
            };
            assert_eq!(l.reconstructor, rule, "{:?}, rank {}", plan.failed, l.rank);
        }
    }

    /// A Shrink balances the setup blocks over the members left: an
    /// interior run of one or two goes to its neighbours, the preceding
    /// one rebuilding it all; a longer run, or one at either end, also
    /// moves a neighbouring survivor block along. Checked on the setup
    /// partition of eight nodes: the new partition, the reconstructors,
    /// and that no member holds more than ⌈N/N′⌉ setup blocks.
    #[test]
    fn a_shrink_splits_each_interior_run_between_its_neighbours() {
        let members: Vec<usize> = (0..8).collect();
        let part = BlockPartition::new(61, members.len());
        // (failed, replacement budget, each new member's first setup block).
        type Event = (&'static [usize], usize, &'static [usize]);
        let events: [Event; 9] = [
            (&[3], 0, &[0, 1, 2, 4, 5, 6, 7]),
            (&[3, 4], 0, &[0, 1, 2, 4, 6, 7]),
            // Rank 1 rebuilds blocks 2–4 and holds 2–3; rank 0 takes block 1.
            (&[2, 3, 4], 0, &[0, 2, 4, 6, 7]),
            (&[0], 0, &[0, 2, 3, 4, 5, 6, 7]),
            (&[0, 1, 7], 0, &[0, 2, 4, 5, 6]),
            (&[5, 6, 7], 0, &[0, 1, 2, 4, 6]),
            (&[1, 2, 5], 0, &[0, 2, 4, 6, 7]),
            (&[3, 4, 5], 1, &[0, 1, 2, 3, 5, 7]),
            (&[3, 4], usize::MAX, &[0, 1, 2, 3, 4, 5, 6, 7]),
        ];
        for (failed, avail, want) in events {
            let plan = EventPlan::new(&members, &part, &part, 0, failed, avail);
            assert_eq!(
                block_starts(&plan, &part),
                want,
                "{failed:?}, budget {avail}"
            );
            assert_reconstructors(&plan);
            let cap = members.len().div_ceil(plan.new_members.len());
            for slot in 0..plan.new_members.len() {
                let held = part.blocks_of(&plan.new_part.range(slot));
                assert!(
                    held.len() <= cap,
                    "{failed:?}: member {slot} holds {held:?}"
                );
            }
        }
    }

    /// Plan `failed` on `members` holding `part` (cut at `setup` block
    /// starts) and hold it to brute force: its partition of the setup
    /// blocks reaches the least (largest holding, surviving blocks moved,
    /// rebuilt blocks handed over) of all contiguous partitions, the
    /// largest is ⌈blocks/N′⌉, its reconstructors follow the rule, and with
    /// nothing retired the partition is the old one.
    fn assert_optimal(
        members: &[usize],
        part: &BlockPartition,
        setup: &BlockPartition,
        failed: &[usize],
        avail: usize,
    ) -> EventPlan {
        let plan = EventPlan::new(members, part, setup, members[0], failed, avail);
        assert_reconstructors(&plan);
        if plan.retired().is_empty() {
            assert_eq!(plan.new_part, *part, "{failed:?}");
            return plan;
        }
        let n = setup.nodes();
        // Who holds block k if nothing moves, and whether it was rebuilt.
        let stay = |k: usize| {
            let held = members[part.owner_of(setup.starts()[k])];
            match plan.lost.iter().find(|l| l.rank == held) {
                Some(l) => (l.reconstructor, true),
                None => (held, false),
            }
        };
        let cost = |starts: &[usize]| {
            let (mut widest, mut moved, mut handed) = (0, 0, 0);
            for (j, &m) in plan.new_members.iter().enumerate() {
                let end = starts.get(j + 1).copied().unwrap_or(n);
                widest = widest.max(end - starts[j]);
                for (_, lost) in (starts[j]..end).map(stay).filter(|&(h, _)| h != m) {
                    *(if lost { &mut handed } else { &mut moved }) += 1;
                }
            }
            (widest, moved, handed)
        };
        let m = plan.new_members.len();
        let best = (0u32..1 << (n - 1))
            .filter(|cuts| cuts.count_ones() as usize == m - 1)
            .map(|cuts| {
                let inner = (1..n).filter(|&k| cuts >> (k - 1) & 1 == 1);
                cost(&std::iter::once(0).chain(inner).collect::<Vec<_>>())
            })
            .min()
            .unwrap();
        let got = cost(&block_starts(&plan, setup));
        assert_eq!(got, best, "{members:?} of {n}, {failed:?}, budget {avail}");
        assert_eq!(got.0, n.div_ceil(m), "{members:?} of {n}, {failed:?}");
        plan
    }

    /// Every nonempty proper subset of `members` of at most `most`.
    fn failed_sets(members: &[usize], most: usize) -> impl Iterator<Item = Vec<usize>> + '_ {
        let sets = (1u32..(1 << members.len()) - 1).map(move |set| {
            let picked = members
                .iter()
                .enumerate()
                .filter(move |&(k, _)| set >> k & 1 == 1);
            picked.map(|(_, &r)| r).collect::<Vec<usize>>()
        });
        sets.filter(move |f| f.len() <= most)
    }

    /// [`place`] against brute force: every failed set of at most four of
    /// N ≤ 9 nodes (wrapped runs included) under every replacement budget,
    /// and after each event that retires a rank a second Shrink of at most
    /// two of the members left, on the first event's partition (nine
    /// blocks, {0, 1, 2, 3} then {4, 5}: three blocks each).
    #[test]
    fn the_adoption_rule_is_the_lexicographic_optimum() {
        for n in 2..=9usize {
            let members: Vec<usize> = (0..n).collect();
            let setup = BlockPartition::new(5 * n + 3, n);
            for failed in failed_sets(&members, 4) {
                for avail in 0..=failed.len() {
                    let plan = assert_optimal(&members, &setup, &setup, &failed, avail);
                    if plan.retired().is_empty() || plan.new_members.len() < 2 {
                        continue;
                    }
                    let (members, part) = (&plan.new_members, &plan.new_part);
                    for again in failed_sets(members, 2) {
                        assert_optimal(members, part, &setup, &again, 0);
                    }
                }
            }
        }
    }

    /// A splice whose sources leave a row of the new range uncovered
    /// panics instead of installing NaN.
    #[test]
    #[should_panic(expected = "shrink splice left a gap")]
    fn a_splice_with_an_uncovered_row_panics() {
        let mut vecs = vec![vec![1.0; 4]];
        let blk = ReconBlock {
            range: 6..8,
            vecs: vec![vec![2.0; 2]],
        };
        splice_slots(&mut vecs, &(2..9), Some(&(2..6)), &[blk]);
    }
}
