//! Block-row data distribution.
//!
//! The paper (Sec. 1.1.2) distributes all matrices and vectors in blocks of
//! contiguous rows: "every node owns blocks of n/N contiguous rows (if
//! n = cN …, otherwise some nodes own ⌊n/N⌋ and others ⌈n/N⌉ rows)". The
//! first `n mod N` nodes get the larger blocks.

use std::ops::Range;

/// A contiguous block-row partition of `0..n` over `nodes` ranks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockPartition {
    n: usize,
    nodes: usize,
    starts: Vec<usize>, // len nodes + 1, starts[k]..starts[k+1] = rank k
}

impl BlockPartition {
    /// Partition `n` rows over `nodes` ranks.
    pub fn new(n: usize, nodes: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        assert!(n >= nodes, "fewer rows than nodes");
        let base = n / nodes;
        let extra = n % nodes;
        let mut starts = Vec::with_capacity(nodes + 1);
        let mut s = 0;
        starts.push(0);
        for k in 0..nodes {
            s += base + usize::from(k < extra);
            starts.push(s);
        }
        debug_assert_eq!(s, n);
        BlockPartition { n, nodes, starts }
    }

    /// Generalized (non-uniform) contiguous partition from explicit block
    /// boundaries: block `k` owns `starts[k]..starts[k+1]`. This is the
    /// layout a *shrunken* cluster runs on after surviving nodes adopt the
    /// subdomains of failed nodes: still contiguous block rows (so the
    /// PETSc-style diag/offdiag SpMV split keeps working), but with block
    /// sizes that are unions of the original `⌈n/N⌉`-blocks.
    ///
    /// # Panics
    /// Panics unless `starts` begins at 0, is strictly increasing (no empty
    /// blocks — every rank must own rows), and has at least one block.
    pub fn from_starts(starts: Vec<usize>) -> Self {
        assert!(starts.len() >= 2, "need at least one block");
        assert_eq!(starts[0], 0, "first block must start at row 0");
        assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "block boundaries must be strictly increasing (no empty blocks): {starts:?}"
        );
        BlockPartition {
            n: *starts.last().unwrap(),
            nodes: starts.len() - 1,
            starts,
        }
    }

    /// The block boundaries (`len = nodes + 1`).
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Total number of rows `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of ranks `N`.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The global index range `Iₖ` owned by `rank`.
    #[inline]
    pub fn range(&self, rank: usize) -> Range<usize> {
        self.starts[rank]..self.starts[rank + 1]
    }

    /// Number of rows owned by `rank`.
    #[inline]
    pub fn len_of(&self, rank: usize) -> usize {
        self.starts[rank + 1] - self.starts[rank]
    }

    /// Largest block size — `⌈n/N⌉` for the uniform layout (the paper's
    /// bound unit in Sec. 4.2), the widest adopted block after a shrink.
    pub fn max_block(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .expect("at least one block")
    }

    /// The rank owning global index `i`.
    #[inline]
    pub fn owner_of(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        // starts is sorted; partition_point returns the first start > i.
        self.starts.partition_point(|&s| s <= i) - 1
    }

    /// The blocks whose union is `rows` — a non-empty range that starts and
    /// ends on block boundaries, such as a block of a partition cut at a
    /// subset of these starts (a shrunken layout's).
    pub fn blocks_of(&self, rows: &Range<usize>) -> Range<usize> {
        let (first, last) = (self.owner_of(rows.start), self.owner_of(rows.end - 1));
        debug_assert_eq!(
            (self.starts[first], self.starts[last + 1]),
            (rows.start, rows.end)
        );
        first..last + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let p = BlockPartition::new(12, 4);
        for k in 0..4 {
            assert_eq!(p.len_of(k), 3);
        }
        assert_eq!(p.range(2), 6..9);
    }

    #[test]
    fn uneven_split_puts_extra_first() {
        let p = BlockPartition::new(10, 4); // 3,3,2,2
        assert_eq!(p.len_of(0), 3);
        assert_eq!(p.len_of(1), 3);
        assert_eq!(p.len_of(2), 2);
        assert_eq!(p.len_of(3), 2);
        assert_eq!(p.max_block(), 3);
        // Every index owned exactly once.
        let mut seen = [0; 10];
        for k in 0..4 {
            for i in p.range(k) {
                seen[i] += 1;
                assert_eq!(p.owner_of(i), k);
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn single_node_owns_all() {
        let p = BlockPartition::new(5, 1);
        assert_eq!(p.range(0), 0..5);
        assert_eq!(p.owner_of(4), 0);
    }

    #[test]
    fn from_starts_non_uniform() {
        // A 3-block layout with very unequal sizes (post-shrink shape).
        let p = BlockPartition::from_starts(vec![0, 7, 9, 20]);
        assert_eq!(p.n(), 20);
        assert_eq!(p.nodes(), 3);
        assert_eq!(p.range(0), 0..7);
        assert_eq!(p.range(1), 7..9);
        assert_eq!(p.range(2), 9..20);
        assert_eq!(p.max_block(), 11); // the widest (adopted) block
        for i in 0..20 {
            let o = p.owner_of(i);
            assert!(p.range(o).contains(&i));
        }
        assert_eq!(p.starts(), &[0, 7, 9, 20]);
    }

    #[test]
    fn blocks_of_a_coarser_block() {
        let p = BlockPartition::new(10, 4); // 0..3, 3..6, 6..8, 8..10
        let coarse = BlockPartition::from_starts(vec![0, 3, 10]);
        assert_eq!(p.blocks_of(&coarse.range(0)), 0..1);
        assert_eq!(p.blocks_of(&coarse.range(1)), 1..4);
        assert_eq!(p.blocks_of(&(0..10)), 0..4);
    }

    #[test]
    fn from_starts_roundtrips_uniform() {
        let u = BlockPartition::new(143, 7);
        let g = BlockPartition::from_starts(u.starts().to_vec());
        assert_eq!(u, g);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_starts_rejects_empty_block() {
        BlockPartition::from_starts(vec![0, 5, 5, 10]);
    }

    #[test]
    #[should_panic(expected = "start at row 0")]
    fn from_starts_rejects_offset_origin() {
        BlockPartition::from_starts(vec![1, 5, 10]);
    }

    #[test]
    fn owner_of_boundaries() {
        let p = BlockPartition::new(100, 7);
        for i in 0..100 {
            let o = p.owner_of(i);
            assert!(p.range(o).contains(&i));
        }
    }
}
