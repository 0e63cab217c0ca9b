//! Reverse Cuthill–McKee reordering and bandwidth statistics.
//!
//! The paper's scheme performs best when the matrix "is not too sparse
//! within a bandwidth of ⌈φn/(2N)⌉ around the diagonal" (Sec. 5), and names
//! automatic adaptation to sparsity patterns as future work. RCM is the
//! classical bandwidth-reducing reordering: applying it to a scattered
//! matrix before partitioning moves it toward the favourable case — one of
//! the ablations in the benchmark suite.

use crate::csr::Csr;

/// Reverse Cuthill–McKee permutation for a structurally symmetric matrix.
/// Returns `perm` with `perm[old] = new` (use with [`Csr::permute_sym`]).
/// Each connected component is started from a pseudo-peripheral vertex.
pub fn rcm(a: &Csr) -> Vec<usize> {
    assert_eq!(a.n_rows(), a.n_cols(), "rcm needs a square matrix");
    let n = a.n_rows();
    let degree = |v: usize| a.row(v).0.len();

    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n); // order[k] = old index
    let mut queue: std::collections::VecDeque<usize> = Default::default();
    let mut neighbours: Vec<usize> = Vec::new();

    for start_scan in 0..n {
        if visited[start_scan] {
            continue;
        }
        let start = pseudo_peripheral(a, start_scan);
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            neighbours.clear();
            let (cols, _) = a.row(v);
            neighbours.extend(
                cols.iter()
                    .map(|&u| u as usize)
                    .filter(|&u| u != v && !visited[u]),
            );
            // Cuthill–McKee visits neighbours by increasing degree.
            neighbours.sort_unstable_by_key(|&u| degree(u));
            for &u in &neighbours {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    // Reverse (the "R" in RCM) and invert to old → new form.
    let mut perm = vec![0usize; n];
    for (k, &old) in order.iter().rev().enumerate() {
        perm[old] = k;
    }
    perm
}

/// Find a pseudo-peripheral vertex of the component containing `start`
/// (George–Liu: repeat BFS from the farthest minimum-degree vertex).
fn pseudo_peripheral(a: &Csr, start: usize) -> usize {
    let mut v = start;
    let mut last_ecc = 0usize;
    for _ in 0..8 {
        // eccentricity growth converges in a few steps
        let (ecc, farthest) = bfs_farthest(a, v);
        if ecc <= last_ecc {
            return v;
        }
        last_ecc = ecc;
        v = farthest;
    }
    v
}

/// BFS returning (eccentricity, a farthest vertex of minimum degree).
fn bfs_farthest(a: &Csr, start: usize) -> (usize, usize) {
    let n = a.n_rows();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    let mut last_level: Vec<usize> = vec![start];
    let mut ecc = 0usize;
    while !queue.is_empty() {
        let mut next_level = Vec::new();
        for _ in 0..queue.len() {
            let v = queue.pop_front().unwrap();
            let (cols, _) = a.row(v);
            for &u in cols {
                let u = u as usize;
                if u != v && dist[u] == usize::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                    next_level.push(u);
                }
            }
        }
        if !next_level.is_empty() {
            ecc += 1;
            last_level = next_level;
        }
    }
    let farthest = last_level
        .iter()
        .copied()
        .min_by_key(|&u| a.row(u).0.len())
        .unwrap_or(start);
    (ecc, farthest)
}

/// Average over rows of `max |i - j|` per row — a finer-grained locality
/// measure than the worst-case `Csr::bandwidth`.
pub fn mean_row_bandwidth(a: &Csr) -> f64 {
    if a.n_rows() == 0 {
        return 0.0;
    }
    let total: usize = (0..a.n_rows())
        .map(|r| {
            a.row(r)
                .0
                .iter()
                .map(|&c| r.abs_diff(c as usize))
                .max()
                .unwrap_or(0)
        })
        .sum();
    total as f64 / a.n_rows() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{mesh_laplacian_2d, MeshOrdering};

    #[test]
    fn rcm_is_permutation() {
        let a = mesh_laplacian_2d(8, 8, MeshOrdering::Random, 1);
        let p = rcm(&a);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scattered_matrix() {
        let a = mesh_laplacian_2d(12, 12, MeshOrdering::Random, 7);
        let before = a.bandwidth();
        let after = a.permute_sym(&rcm(&a)).bandwidth();
        assert!(
            after < before,
            "rcm should reduce bandwidth: {before} -> {after}"
        );
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        // Two disjoint 2-cliques + an isolated vertex.
        let mut coo = crate::coo::Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 2.0);
        }
        coo.push_sym(0, 1, -1.0);
        coo.push_sym(2, 3, -1.0);
        let a = coo.to_csr();
        let p = rcm(&a);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn permuted_matrix_spd_preserved() {
        let a = mesh_laplacian_2d(6, 6, MeshOrdering::Random, 3);
        let p = a.permute_sym(&rcm(&a));
        assert!(p.is_symmetric(1e-14));
        assert!(p.to_dense().is_spd());
    }

    #[test]
    fn mean_row_bandwidth_tracks_locality() {
        let nat = mesh_laplacian_2d(10, 10, MeshOrdering::Natural, 5);
        let rnd = mesh_laplacian_2d(10, 10, MeshOrdering::Random, 5);
        assert!(mean_row_bandwidth(&nat) < mean_row_bandwidth(&rnd));
    }
}
