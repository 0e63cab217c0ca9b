//! Sparsity-pattern analysis for the block-row distribution.
//!
//! The ESR redundancy overhead is governed by how much of the search
//! direction already travels during SpMV (paper Eqns. 2–3, Sec. 5):
//!
//! * `ghost_needs(k)` — which remote vector elements node `k`'s rows touch;
//! * `send_sets` — the paper's `S_ik`: elements of node `i` sent to `k`;
//! * `multiplicities` — the paper's `mᵢ(s)`: to how many distinct nodes an
//!   owned element travels naturally;
//! * [`PatternAnalysis`] — the natural coverage per redundancy level, used
//!   by the Sec. 4.2/5 analysis benchmark.

use crate::csr::Csr;
use crate::partition::BlockPartition;

/// Sorted unique global column indices outside `rank`'s own range that
/// appear in `rank`'s rows — the ghost elements its SpMV needs.
pub fn ghost_needs(a: &Csr, part: &BlockPartition, rank: usize) -> Vec<usize> {
    let range = part.range(rank);
    let mut needs: Vec<usize> = Vec::new();
    for r in range.clone() {
        let (cols, _) = a.row(r);
        needs.extend(
            cols.iter()
                .map(|&c| c as usize)
                .filter(|c| !range.contains(c)),
        );
    }
    needs.sort_unstable();
    needs.dedup();
    needs
}

/// The send sets `S_ik` of the paper's Eqn. (2): `sets[i][k]` is the sorted
/// list of global indices owned by node `i` that node `k` needs for SpMV
/// (empty for `k == i`).
pub fn send_sets(a: &Csr, part: &BlockPartition) -> Vec<Vec<Vec<usize>>> {
    let nodes = part.nodes();
    let mut sets = vec![vec![Vec::new(); nodes]; nodes];
    for k in 0..nodes {
        let needs = ghost_needs(a, part, k);
        // `needs` is sorted, so a linear sweep groups by owner.
        for idx in needs {
            let owner = part.owner_of(idx);
            sets[owner][k].push(idx);
        }
    }
    sets
}

/// The multiplicities `mᵢ(s)` of the paper's Eqn. (3), as a global array:
/// `m[s]` = number of distinct *other* nodes that element `s` is sent to
/// during SpMV.
pub(crate) fn multiplicities(a: &Csr, part: &BlockPartition) -> Vec<u32> {
    let mut m = vec![0u32; part.n()];
    for k in 0..part.nodes() {
        for idx in ghost_needs(a, part, k) {
            m[idx] += 1;
        }
    }
    m
}

/// Pattern summary for one matrix + partition.
#[derive(Clone, Debug)]
pub struct PatternAnalysis {
    /// Fraction of elements with multiplicity ≥ φ for φ = 1..=8
    /// (`coverage[φ-1]`): if ≈ 1, redundancy level φ is nearly free
    /// (paper Sec. 5).
    pub coverage: [f64; 8],
}

/// Analyze the natural SpMV traffic of `a` under `part`.
pub fn analyze(a: &Csr, part: &BlockPartition) -> PatternAnalysis {
    let m = multiplicities(a, part);
    let n = part.n() as f64;
    let mut coverage = [0.0f64; 8];
    for (phi_m1, c) in coverage.iter_mut().enumerate() {
        let phi = phi_m1 as u32 + 1;
        *c = m.iter().filter(|&&mi| mi >= phi).count() as f64 / n;
    }
    PatternAnalysis { coverage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{circuit_like, poisson2d};

    #[test]
    fn ghost_needs_tridiagonal() {
        // 1-D Laplacian: each block needs exactly its boundary neighbours.
        let a = crate::gen::banded_spd(12, 1, 1.0, 1);
        let part = BlockPartition::new(12, 3);
        assert_eq!(ghost_needs(&a, &part, 0), vec![4]);
        assert_eq!(ghost_needs(&a, &part, 1), vec![3, 8]);
        assert_eq!(ghost_needs(&a, &part, 2), vec![7]);
    }

    #[test]
    fn send_sets_mirror_needs() {
        let a = poisson2d(6, 6);
        let part = BlockPartition::new(36, 4);
        let sets = send_sets(&a, &part);
        for k in 0..4 {
            let needs = ghost_needs(&a, &part, k);
            let mut from_sets: Vec<usize> = (0..4).flat_map(|i| sets[i][k].clone()).collect();
            from_sets.sort_unstable();
            assert_eq!(from_sets, needs, "k={k}");
            assert!(sets[k][k].is_empty(), "no self-sends");
        }
        // Every S_ik element is owned by i.
        for (i, row) in sets.iter().enumerate() {
            for sk in row {
                for &s in sk {
                    assert_eq!(part.owner_of(s), i);
                }
            }
        }
    }

    #[test]
    fn multiplicity_counts_distinct_receivers() {
        let a = poisson2d(4, 4);
        let part = BlockPartition::new(16, 4);
        let m = multiplicities(&a, &part);
        let sets = send_sets(&a, &part);
        for s in 0..16 {
            let i = part.owner_of(s);
            let expect = (0..4).filter(|&k| sets[i][k].contains(&s)).count() as u32;
            assert_eq!(m[s], expect, "s={s}");
        }
    }

    #[test]
    fn banded_matrix_rc_only_away_from_boundaries() {
        // 2-D Poisson, 8 grid rows over 4 nodes (2 grid rows each): the
        // outermost grid rows of the end nodes touch no block boundary and
        // are never sent (Rᶜ = 8 each); both grid rows of the middle nodes
        // are boundary rows, so everything they own travels (Rᶜ = 0).
        let a = poisson2d(8, 8);
        let part = BlockPartition::new(64, 4);
        let m = multiplicities(&a, &part);
        let rc_sizes: Vec<usize> = (0..4)
            .map(|i| part.range(i).filter(|&s| m[s] == 0).count())
            .collect();
        assert_eq!(rc_sizes, vec![8, 0, 0, 8]);
        // Narrow band: neighbours-only communication.
        let sets = send_sets(&a, &part);
        let spmv_degree: Vec<usize> = sets
            .iter()
            .map(|row| row.iter().filter(|s| !s.is_empty()).count())
            .collect();
        assert!(spmv_degree.iter().all(|&d| d <= 2), "{spmv_degree:?}");
    }

    #[test]
    fn wide_band_beats_scattered_coverage() {
        // Wide-band structural patterns (M5'–M8' class) communicate most
        // elements naturally; circuit-like graphs keep most elements local
        // and need extra redundancy messages (paper Sec. 5).
        use crate::gen::{elasticity3d, BlockStencil};
        let a = elasticity3d(4, 4, 4, 3, BlockStencil::Full27, 0.0, 3);
        let parta = BlockPartition::new(a.n_rows(), 8);
        let an = analyze(&a, &parta);
        let b = circuit_like(192, 6, 0.05, 3);
        let partb = BlockPartition::new(192, 8);
        let bn = analyze(&b, &partb);
        assert!(
            an.coverage[0] > bn.coverage[0],
            "elasticity {} vs circuit {}",
            an.coverage[0],
            bn.coverage[0]
        );
    }

    #[test]
    fn coverage_is_monotone_decreasing() {
        let a = circuit_like(200, 5, 0.2, 9);
        let part = BlockPartition::new(200, 8);
        let an = analyze(&a, &part);
        for w in an.coverage.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}
