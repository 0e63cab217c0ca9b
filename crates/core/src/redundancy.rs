//! Redundancy placement — the core contribution of the paper (Sec. 4).
//!
//! To tolerate up to `φ` simultaneous node failures, every element of the
//! two most recent search directions must have `φ` redundant copies on `φ`
//! distinct nodes other than its owner (then any `ψ ≤ φ` failures leave at
//! least one copy alive).
//!
//! * [`backup_targets`] — the ring-alternating targets `d_ik` of Eqn. (5):
//!   `d_ik = (i + ⌈k/2⌉) mod N` for odd `k`, `(i − k/2) mod N` for even.
//!   With matrix entries clustered around the diagonal these targets
//!   already receive natural SpMV traffic, so the extras ride along for
//!   free (no extra latency — Sec. 5).
//! * [`compute_extra_sends`] — the extra sets `Rᶜᵢₖ` of Eqn. (6), using
//!   the natural multiplicity `mᵢ(s)` (Eqn. 3) and the count `gᵢ(s)` of
//!   backup targets already receiving `s`.
//!
//! Note on minimality: Eqn. (6) guarantees ≥ φ distinct holders (proved in
//! the tests below) and is minimal *when the backup targets that receive
//! an element naturally occupy the earliest rounds* — true for the banded
//! patterns the strategy is designed around (natural traffic goes to ring
//! neighbours, which are exactly `d_i1`, `d_i2`, …). For adversarial
//! patterns the formula can place a copy beyond the φ-th: it errs toward
//! more redundancy, never less. We reproduce the paper's formula exactly.

use crate::config::BackupStrategy;
use crate::scatter::PeerLists;

/// The backup targets `d_i1 … d_iφ` of node `i` (paper Eqn. 5).
///
/// # Panics
/// Panics unless `1 ≤ phi < nodes` (the paper requires `φ < N`).
pub fn backup_targets(i: usize, nodes: usize, phi: usize) -> Vec<usize> {
    assert!(
        phi >= 1 && phi < nodes,
        "need 1 ≤ φ < N (φ={phi}, N={nodes})"
    );
    (1..=phi)
        .map(|k| {
            if k % 2 == 1 {
                (i + k.div_ceil(2)) % nodes
            } else {
                (i + nodes - k / 2) % nodes
            }
        })
        .collect()
}

/// Consecutive-ring targets `d_ik = (i + k) mod N` — the ablation
/// alternative to Eqn. (5).
pub(crate) fn backup_targets_consecutive(i: usize, nodes: usize, phi: usize) -> Vec<usize> {
    assert!(
        phi >= 1 && phi < nodes,
        "need 1 ≤ φ < N (φ={phi}, N={nodes})"
    );
    (1..=phi).map(|k| (i + k) % nodes).collect()
}

/// The targets a strategy places its copies on.
pub(crate) fn targets_for(
    strategy: &BackupStrategy,
    i: usize,
    nodes: usize,
    phi: usize,
) -> Vec<usize> {
    match strategy {
        BackupStrategy::Minimal | BackupStrategy::FullBlock => backup_targets(i, nodes, phi),
        BackupStrategy::MinimalConsecutive => backup_targets_consecutive(i, nodes, phi),
    }
}

/// Compute the extra send sets (local offsets, per backup target that
/// gets any) for node `rank`, given its natural send lists `S_ik` (local
/// offsets per peer with natural traffic).
///
/// For [`BackupStrategy::Minimal`] this is Eqn. (6); for
/// [`BackupStrategy::FullBlock`] the whole block goes to every backup
/// target (minus what already travels there naturally), realizing the
/// Sec. 4.2 upper bound.
pub fn compute_extra_sends(
    rank: usize,
    nodes: usize,
    phi: usize,
    strategy: &BackupStrategy,
    my_len: usize,
    send_natural: &PeerLists,
) -> PeerLists {
    let targets = targets_for(strategy, rank, nodes, phi);

    // mᵢ(s): to how many distinct peers each owned element travels.
    let mut m = vec![0u32; my_len];
    for (_, sends) in send_natural.iter().filter(|&(k, _)| k != rank) {
        for &off in sends {
            m[off] += 1;
        }
    }

    // Membership bitmap per backup target: s ∈ S_{i,d_ik}?
    let in_target: Vec<Vec<bool>> = targets
        .iter()
        .map(|&d| {
            let mut bits = vec![false; my_len];
            for &off in &send_natural[d] {
                bits[off] = true;
            }
            bits
        })
        .collect();

    // gᵢ(s): number of backup targets that already receive s naturally.
    let mut g = vec![0u32; my_len];
    for bits in &in_target {
        for (s, &b) in bits.iter().enumerate() {
            if b {
                g[s] += 1;
            }
        }
    }

    let mut extra = Vec::with_capacity(targets.len());
    for (k1, (&d, bits)) in targets.iter().zip(&in_target).enumerate() {
        let k = k1 + 1; // Eqn. 6 numbers rounds from 1
        let mut list = Vec::new();
        for s in 0..my_len {
            let include = match strategy {
                BackupStrategy::Minimal | BackupStrategy::MinimalConsecutive => {
                    !bits[s] && (m[s] - g[s]) as usize + k <= phi
                }
                BackupStrategy::FullBlock => !bits[s],
            };
            if include {
                list.push(s);
            }
        }
        extra.push((d, list));
    }
    // The targets are distinct, so sorting the φ lists by slot loses nothing.
    extra.into_iter().collect()
}

/// Verify the coverage invariant: with the given natural sends and extras,
/// every owned element has at least `phi` distinct non-owner holders.
/// Returns the first violating local offset, if any. (Test/diagnostic
/// helper — the solver relies on the guarantee, tests verify it.)
pub fn check_coverage(
    rank: usize,
    nodes: usize,
    phi: usize,
    my_len: usize,
    send_natural: &PeerLists,
    send_extra: &PeerLists,
) -> Option<usize> {
    for s in 0..my_len {
        let mut holders = std::collections::BTreeSet::new();
        for k in 0..nodes {
            if k == rank {
                continue;
            }
            if send_natural[k].contains(&s) || send_extra[k].contains(&s) {
                holders.insert(k);
            }
        }
        if holders.len() < phi {
            return Some(s);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(lists: &PeerLists) -> usize {
        lists.iter().map(|(_, l)| l.len()).sum()
    }

    #[test]
    fn targets_alternate_around_ring() {
        // Eqn. 5: +1, -1, +2, -2, +3, -3, +4, -4 around the ring.
        assert_eq!(backup_targets(0, 16, 8), vec![1, 15, 2, 14, 3, 13, 4, 12]);
        assert_eq!(backup_targets(5, 8, 3), vec![6, 4, 7]);
        // Wrap-around.
        assert_eq!(backup_targets(7, 8, 2), vec![0, 6]);
    }

    #[test]
    fn targets_are_distinct_and_not_self() {
        for nodes in [2usize, 3, 5, 8, 13] {
            for phi in 1..nodes {
                for i in 0..nodes {
                    let t = backup_targets(i, nodes, phi);
                    let mut u = t.clone();
                    u.sort_unstable();
                    u.dedup();
                    assert_eq!(u.len(), phi, "duplicates: i={i} N={nodes} φ={phi}");
                    assert!(!t.contains(&i), "self-target: i={i} N={nodes} φ={phi}");
                }
            }
        }
    }

    #[test]
    fn chen_single_failure_special_case() {
        // φ=1 must reduce to Chen's scheme: Rᶜᵢ (never-sent elements) goes
        // to (i+1) mod N, and only those.
        let nodes = 4;
        // Node 1 owns offsets 0..4; offsets 1, 2 travel naturally.
        let send_natural = vec![vec![1], vec![], vec![2], vec![]].into();
        let extra = compute_extra_sends(1, nodes, 1, &BackupStrategy::Minimal, 4, &send_natural);
        // d_11 = 2. Elements never sent anywhere: {0, 3}. Element 1 goes
        // to node 0 (m=1>0 ⟹ m-g=1 > φ-k=0 ⟹ excluded). Element 2
        // already goes to node 2 naturally.
        assert_eq!(extra[2], vec![0, 3]);
        assert!(extra[0].is_empty() && extra[1].is_empty() && extra[3].is_empty());
    }

    #[test]
    fn coverage_invariant_small_example() {
        let nodes = 5;
        let my_len = 6;
        // Mixed natural traffic.
        let send_natural = vec![
            vec![],     // self (rank 0)
            vec![0, 1], // to node 1
            vec![1],    // to node 2
            vec![],     // to node 3
            vec![5],    // to node 4
        ]
        .into();
        for phi in 1..5 {
            let extra = compute_extra_sends(
                0,
                nodes,
                phi,
                &BackupStrategy::Minimal,
                my_len,
                &send_natural,
            );
            assert_eq!(
                check_coverage(0, nodes, phi, my_len, &send_natural, &extra),
                None,
                "coverage violated at φ={phi}"
            );
        }
    }

    #[test]
    fn minimal_sends_nothing_when_ring_neighbours_receive() {
        // Natural receivers = the nearest ring neighbours (the banded
        // case Eqn. 5 is designed for): redundancy is completely free as
        // long as φ ≤ multiplicity (the zero-overhead case of Sec. 5).
        let nodes = 6;
        let my_len = 4;
        let all: Vec<usize> = (0..my_len).collect();
        // Rank 0 sends everything to ranks 1, 5, 2 = d_01, d_02, d_03.
        let send_natural = vec![
            vec![],
            all.clone(),
            all.clone(),
            vec![],
            vec![],
            all.clone(),
        ]
        .into();
        for phi in 1..=3 {
            let extra = compute_extra_sends(
                0,
                nodes,
                phi,
                &BackupStrategy::Minimal,
                my_len,
                &send_natural,
            );
            assert_eq!(total(&extra), 0, "φ={phi} should be free");
        }
        // φ=4 needs exactly one more copy of each element (to d_04 = 4).
        let extra =
            compute_extra_sends(0, nodes, 4, &BackupStrategy::Minimal, my_len, &send_natural);
        assert_eq!(
            check_coverage(0, nodes, 4, my_len, &send_natural, &extra),
            None
        );
        assert_eq!(total(&extra), my_len, "exactly one extra copy per element");
        assert_eq!(extra[4].len(), my_len);
    }

    #[test]
    fn eqn6_is_conservative_for_late_natural_targets() {
        // Natural receivers {1, 2, 3}: target d_03 = 2 receives naturally
        // but sits in round k=3 > φ−(m−g) — Eqn. (6) then places a fourth
        // copy (conservative, never fewer than φ). Documents the exact
        // paper behaviour.
        let nodes = 6;
        let my_len = 2;
        let all: Vec<usize> = (0..my_len).collect();
        let send_natural = vec![
            vec![],
            all.clone(), // d_01 (k=1)
            all.clone(), // d_03 (k=3)
            all.clone(), // not a target
            vec![],
            vec![], // d_02 (k=2)
        ]
        .into();
        let extra =
            compute_extra_sends(0, nodes, 3, &BackupStrategy::Minimal, my_len, &send_natural);
        // m = 3 ≥ φ = 3, yet round 2 (target 5) gets a copy:
        // m − g = 3 − 2 = 1 ≤ φ − k = 1.
        assert_eq!(extra[5], all);
        // Coverage is of course still satisfied.
        assert_eq!(
            check_coverage(0, nodes, 3, my_len, &send_natural, &extra),
            None
        );
    }

    #[test]
    fn full_block_strategy_sends_everything() {
        let nodes = 4;
        let my_len = 5;
        let send_natural = vec![vec![], vec![0], vec![], vec![]].into();
        let extra = compute_extra_sends(
            0,
            nodes,
            2,
            &BackupStrategy::FullBlock,
            my_len,
            &send_natural,
        );
        // Targets: d_01 = 1, d_02 = 3. To node 1: everything except the
        // naturally-sent {0}; to node 3: everything.
        assert_eq!(extra[1], vec![1, 2, 3, 4]);
        assert_eq!(extra[3], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn minimal_is_no_larger_than_full_block() {
        let nodes = 7;
        let my_len = 10;
        let send_natural: PeerLists = (0..nodes)
            .map(|k| {
                (
                    k,
                    (0..my_len).filter(|s| (s + k) % 3 == 0 && k != 0).collect(),
                )
            })
            .collect();
        for phi in 1..nodes {
            let min_total = total(&compute_extra_sends(
                0,
                nodes,
                phi,
                &BackupStrategy::Minimal,
                my_len,
                &send_natural,
            ));
            let full_total = total(&compute_extra_sends(
                0,
                nodes,
                phi,
                &BackupStrategy::FullBlock,
                my_len,
                &send_natural,
            ));
            assert!(min_total <= full_total, "φ={phi}");
            assert_eq!(
                check_coverage(
                    0,
                    nodes,
                    phi,
                    my_len,
                    &send_natural,
                    &compute_extra_sends(
                        0,
                        nodes,
                        phi,
                        &BackupStrategy::Minimal,
                        my_len,
                        &send_natural
                    )
                ),
                None
            );
        }
    }

    #[test]
    #[should_panic(expected = "need 1 ≤ φ < N")]
    fn phi_must_be_less_than_n() {
        backup_targets(0, 4, 4);
    }

    #[test]
    fn consecutive_targets_walk_the_ring() {
        assert_eq!(backup_targets_consecutive(0, 8, 3), vec![1, 2, 3]);
        assert_eq!(backup_targets_consecutive(6, 8, 3), vec![7, 0, 1]);
    }

    #[test]
    fn alternating_avoids_extra_latency_on_banded_traffic() {
        // Banded-matrix traffic from rank 3: lower-boundary elements go to
        // the −1 neighbour (rank 2), upper-boundary elements to the +1
        // neighbour (rank 4); every element has multiplicity 1. At φ=2 one
        // extra copy per element is unavoidable for both strategies — but
        // the Eqn. (5) alternation places all extras on the {+1, −1} links
        // that already carry traffic, while the consecutive ring must open
        // a *new* link to the silent +2 neighbour (extra latency, the
        // Sec. 4.2 penalty).
        let nodes = 8;
        let my_len = 4;
        let send_natural: PeerLists = [
            (2, vec![0, 1]), // −1 neighbour
            (4, vec![2, 3]), // +1 neighbour
        ]
        .into_iter()
        .collect();
        let alt = compute_extra_sends(3, nodes, 2, &BackupStrategy::Minimal, my_len, &send_natural);
        let con = compute_extra_sends(
            3,
            nodes,
            2,
            &BackupStrategy::MinimalConsecutive,
            my_len,
            &send_natural,
        );
        let silent_extras = |extra: &PeerLists| -> usize {
            (0..nodes)
                .filter(|&d| send_natural[d].is_empty())
                .map(|d| extra[d].len())
                .sum()
        };
        assert_eq!(silent_extras(&alt), 0, "alternating piggybacks everything");
        assert!(
            silent_extras(&con) > 0,
            "consecutive opens a silent link: {con:?}"
        );
        // Both still guarantee coverage.
        assert_eq!(
            check_coverage(3, nodes, 2, my_len, &send_natural, &alt),
            None
        );
        assert_eq!(
            check_coverage(3, nodes, 2, my_len, &send_natural, &con),
            None
        );
    }

    #[test]
    fn coverage_holds_for_consecutive_strategy() {
        let nodes = 6;
        let my_len = 5;
        let send_natural = vec![vec![], vec![0, 2], vec![], vec![1], vec![], vec![4]].into();
        for phi in 1..nodes {
            let extra = compute_extra_sends(
                0,
                nodes,
                phi,
                &BackupStrategy::MinimalConsecutive,
                my_len,
                &send_natural,
            );
            assert_eq!(
                check_coverage(0, nodes, phi, my_len, &send_natural, &extra),
                None,
                "φ={phi}"
            );
        }
    }
}
