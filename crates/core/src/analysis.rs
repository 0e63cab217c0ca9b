//! Communication-overhead analysis — the paper's Sec. 4.2 bounds and the
//! Sec. 5 sparsity-pattern criteria, computed for a concrete matrix,
//! partition, and redundancy level.
//!
//! The paper bounds the per-iteration overhead `O` of distributing the
//! redundant copies by
//!
//! ```text
//! 0  ≤  Σₖ maxᵢ |Rᶜᵢₖ| µ  ≤  O  ≤  Σₖ maxᵢ (λᵢₖ + |Rᶜᵢₖ| µ)  ≤  φ (λmax + ⌈n/N⌉ µ)
//! ```
//!
//! and notes that no extra latency is paid if, for every node `i` and
//! round `k`, the submatrix `A_{I_{d_ik}, I_i}` has a nonzero (natural
//! traffic to the backup target exists).

use parcomm::CostModel;
use sparsemat::{analysis::send_sets, BlockPartition, Csr};

use crate::config::BackupStrategy;
use crate::redundancy::{compute_extra_sends, targets_for};
use crate::scatter::PeerLists;

/// Predicted redundancy overhead for one matrix/partition/φ combination.
#[derive(Clone, Debug)]
pub struct OverheadPrediction {
    /// Lower bound on the per-iteration overhead (seconds, cost model).
    pub lower_bound: f64,
    /// Modeled per-iteration overhead under the cost model (extra
    /// elements + extra latencies actually incurred).
    pub modeled: f64,
    /// The paper's coarse upper bound `φ(λmax + ⌈n/N⌉µ)`.
    pub upper_bound: f64,
    /// Total extra elements sent per iteration, cluster-wide.
    pub total_extra_elems: usize,
    /// No round actually pays an extra message latency (nothing extra is
    /// sent over links without natural traffic).
    pub latency_free: bool,
}

/// Analyze the redundancy traffic the scheme would generate.
pub fn predict_overhead(
    a: &Csr,
    part: &BlockPartition,
    phi: usize,
    strategy: &BackupStrategy,
    cost: &CostModel,
) -> OverheadPrediction {
    let nodes = part.nodes();
    let sets = send_sets(a, part);

    let mut max_extra_per_round = vec![0usize; phi];
    let mut extra_latency_round = vec![false; phi];
    let mut total_extra = 0usize;

    for i in 0..nodes {
        // Natural sends of node i as local offsets.
        let start = part.range(i).start;
        let send_natural: PeerLists = sets[i]
            .iter()
            .map(|sk| sk.iter().map(|&g| g - start).collect())
            .enumerate()
            .collect();
        let extras = compute_extra_sends(i, nodes, phi, strategy, part.len_of(i), &send_natural);
        let targets = targets_for(strategy, i, nodes, phi);
        for (k1, &d) in targets.iter().enumerate() {
            let cnt = extras[d].len();
            total_extra += cnt;
            max_extra_per_round[k1] = max_extra_per_round[k1].max(cnt);
            if cnt > 0 && send_natural[d].is_empty() {
                extra_latency_round[k1] = true;
            }
        }
    }

    let lower_bound: f64 = max_extra_per_round
        .iter()
        .map(|&m| m as f64 * cost.mu)
        .sum();
    let modeled: f64 = max_extra_per_round
        .iter()
        .zip(&extra_latency_round)
        .map(|(&m, &lat)| m as f64 * cost.mu + if lat { cost.lambda } else { 0.0 })
        .sum();
    let upper_bound = cost.redundancy_overhead_upper_bound(phi, part.n(), nodes);
    let latency_free = !extra_latency_round.iter().any(|&b| b);

    OverheadPrediction {
        lower_bound,
        modeled,
        upper_bound,
        total_extra_elems: total_extra,
        latency_free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{circuit_like, elasticity3d, poisson3d, BlockStencil};

    #[test]
    fn bounds_are_ordered() {
        let a = poisson3d(6, 6, 6);
        let part = BlockPartition::new(216, 8);
        let cost = CostModel::default();
        for phi in [1usize, 3] {
            let p = predict_overhead(&a, &part, phi, &BackupStrategy::Minimal, &cost);
            assert!(p.lower_bound <= p.modeled + 1e-18, "phi={phi}");
            assert!(p.modeled <= p.upper_bound * (1.0 + 1e-12), "phi={phi}");
        }
    }

    #[test]
    fn overhead_grows_with_phi() {
        let a = poisson3d(6, 6, 6);
        let part = BlockPartition::new(216, 8);
        let cost = CostModel::default();
        let p1 = predict_overhead(&a, &part, 1, &BackupStrategy::Minimal, &cost);
        let p3 = predict_overhead(&a, &part, 3, &BackupStrategy::Minimal, &cost);
        assert!(p3.total_extra_elems > p1.total_extra_elems);
    }

    #[test]
    fn wide_band_is_latency_free_for_small_phi() {
        // Full27 elasticity on few nodes: each node talks to its ring
        // neighbours naturally, and every element already travels (m ≥ 1),
        // so φ=1 redundancy is completely free — no extras, no latency.
        let a = elasticity3d(6, 6, 6, 3, BlockStencil::Full27, 0.0, 1);
        let part = BlockPartition::new(a.n_rows(), 6);
        let p = predict_overhead(
            &a,
            &part,
            1,
            &BackupStrategy::Minimal,
            &CostModel::default(),
        );
        assert!(p.latency_free, "{p:?}");
        assert_eq!(p.total_extra_elems, 0, "φ=1 should be free on wide bands");
    }

    #[test]
    fn full_block_hits_upper_bound_in_bandwidth_regime() {
        // The coarse upper bound φ(λ + ⌈n/N⌉µ) includes a latency term
        // that piggybacked messages avoid; compare in a pure-bandwidth
        // model (λ = 0), where FullBlock sends ≈ ⌈n/N⌉ per round.
        let a = circuit_like(240, 4, 0.02, 7);
        let part = BlockPartition::new(240, 8);
        let cost = CostModel {
            lambda: 0.0,
            mu: 1.0e-9,
            gamma: 0.0,
        };
        let min = predict_overhead(&a, &part, 3, &BackupStrategy::Minimal, &cost);
        let full = predict_overhead(&a, &part, 3, &BackupStrategy::FullBlock, &cost);
        assert!(full.total_extra_elems >= min.total_extra_elems);
        assert!(
            full.modeled > 0.8 * full.upper_bound,
            "modeled {} vs bound {}",
            full.modeled,
            full.upper_bound
        );
    }

    #[test]
    fn minimal_on_high_multiplicity_pattern_is_cheap() {
        // Scattered pattern with high multiplicity: φ=1 extras are rare.
        let a = circuit_like(400, 40, 0.5, 3);
        let part = BlockPartition::new(400, 16);
        let p = predict_overhead(
            &a,
            &part,
            1,
            &BackupStrategy::Minimal,
            &CostModel::default(),
        );
        let n_per_node = 25.0;
        let avg_extra = p.total_extra_elems as f64 / 16.0;
        assert!(
            avg_extra < n_per_node,
            "extras {avg_extra} should be below block size {n_per_node}"
        );
    }
}
