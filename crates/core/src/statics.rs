//! Static data, derived once per [`crate::driver::Problem`].
//!
//! The paper's model (Sec. 1.1.2) keeps `A`, `b` and the preconditioner on
//! reliable storage: a node failure destroys solver state, never these.
//! What a node derives from them — its block rows of `A` split for the
//! distributed SpMV, and the exact LDLᵀ factor of its diagonal block — is a
//! function of the matrix and the row range alone (`ghost_cols` are the
//! columns of those rows outside the range), so one copy serves every
//! solve, every cluster size that cuts the same range, every replacement
//! node and every adopter. [`StaticData`] is that copy, and the only place
//! `esr-core` extracts a block of `A` or factors one.
//!
//! Virtual cost is a function of the block, not of who computed it: the
//! callers charge the extraction and factorization flops exactly as if
//! they had done the work themselves, so sharing moves host time only.
//!
//! There is no eviction. An entry is made the first time a range is asked
//! for (`N` per cluster size, plus a Shrink's widened ranges and the x
//! solve's failed-row unions) and released with the last `Problem` clone.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use precond::{PrecondError, SparseLdl};
use sparsemat::{BlockPartition, Csr};

use crate::localmat::LocalMatrix;

/// How much static data a [`StaticData`] has derived so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticCounts {
    /// Row blocks extracted ([`LocalMatrix::build_range`] calls).
    pub blocks_built: usize,
    /// Diagonal blocks factored ([`SparseLdl::new`] calls).
    pub factors_built: usize,
}

/// The exact LDLᵀ factor of each block of a partition, in block order: the
/// block-Jacobi preconditioner over it (shared static data).
pub type BlockFactors = Arc<[Arc<SparseLdl>]>;

struct Entry {
    lm: Arc<LocalMatrix>,
    factor: OnceLock<Result<Arc<SparseLdl>, PrecondError>>,
}

/// A full cluster's partition and its member list.
pub(crate) type FullCluster = (Arc<BlockPartition>, Arc<[usize]>);

/// The tolerance of [`StaticData::is_symmetric`], relative to the largest
/// `|a_ij|`. An assembled symmetric matrix differs from its transpose by
/// rounding in the last bits of its entries (≈ 1e-16 relative); 1e-12
/// leaves room for that and no more.
pub const SYMMETRY_RTOL: f64 = 1e-12;

/// The per-row-range static data of one system matrix, filled on demand.
pub struct StaticData {
    a: Arc<Csr>,
    symmetric: OnceLock<bool>,
    entries: Mutex<HashMap<Range<usize>, Arc<Entry>>>,
    /// [`Self::block_jacobi`], per partition (keyed by its block starts).
    setups: Mutex<HashMap<Vec<usize>, BlockFactors>>,
    /// [`Self::cluster`], per cluster size.
    clusters: Mutex<HashMap<usize, FullCluster>>,
    blocks_built: AtomicUsize,
    factors_built: AtomicUsize,
}

impl StaticData {
    /// An empty store describing `a`.
    pub fn new(a: Arc<Csr>) -> Self {
        StaticData {
            a,
            symmetric: OnceLock::new(),
            entries: Mutex::new(HashMap::new()),
            setups: Mutex::new(HashMap::new()),
            clusters: Mutex::new(HashMap::new()),
            blocks_built: AtomicUsize::new(0),
            factors_built: AtomicUsize::new(0),
        }
    }

    /// The matrix this store describes.
    pub fn matrix(&self) -> &Arc<Csr> {
        &self.a
    }

    /// Whether the matrix is symmetric, pattern and values, to
    /// [`SYMMETRY_RTOL`] — what every ESR reconstruction assumes (its
    /// block factors are LDLᵀ, its x solve is CG). Checked on first use.
    pub fn is_symmetric(&self) -> bool {
        *self.symmetric.get_or_init(|| {
            let largest = self.a.vals().iter().fold(0.0, |m: f64, v| m.max(v.abs()));
            self.a.is_symmetric(SYMMETRY_RTOL * largest)
        })
    }

    fn entry(&self, range: &Range<usize>) -> Arc<Entry> {
        let mut entries = self
            .entries
            .lock()
            .expect("a block extraction panicked while holding the static-data lock");
        entries
            .entry(range.clone())
            .or_insert_with(|| {
                self.blocks_built.fetch_add(1, Ordering::Relaxed);
                Arc::new(Entry {
                    lm: Arc::new(LocalMatrix::build_range(&self.a, range.clone())),
                    factor: OnceLock::new(),
                })
            })
            .clone()
    }

    /// The block rows `range` of the matrix.
    pub fn block(&self, range: &Range<usize>) -> Arc<LocalMatrix> {
        self.entry(range).lm.clone()
    }

    /// The exact LDLᵀ factor of the diagonal block over `range` (of
    /// [`Self::block`]'s `diag`). A block that is not SPD fails the same
    /// way every time it is asked for.
    pub fn factor(&self, range: &Range<usize>) -> Result<Arc<SparseLdl>, PrecondError> {
        let entry = self.entry(range);
        // Factored outside the map lock: only callers of this range wait.
        entry
            .factor
            .get_or_init(|| {
                self.factors_built.fetch_add(1, Ordering::Relaxed);
                SparseLdl::new(&entry.lm.diag).map(Arc::new)
            })
            .clone()
    }

    /// The block-Jacobi preconditioner of `part` (the partition a cluster
    /// sets up on): the [`Self::factor`] of each of its blocks, in block
    /// order, or the first error. Assembled once per partition. A node that
    /// holds it holds the factor of every block it may adopt later, so
    /// taking one on cannot fail.
    pub fn block_jacobi(&self, part: &BlockPartition) -> Result<BlockFactors, PrecondError> {
        let mut setups = self.setups.lock().expect("a factorization panicked");
        if let Some(m) = setups.get(part.starts()) {
            return Ok(m.clone());
        }
        let factors = (0..part.nodes()).map(|k| self.factor(&part.range(k)));
        let m: BlockFactors = factors.collect::<Result<_, _>>()?;
        setups.insert(part.starts().to_vec(), m.clone());
        Ok(m)
    }

    /// The full cluster of `nodes`: its partition and its member list
    /// (the identity), one copy per cluster size for every node and solve.
    /// A copy per node would make each node's memory grow with N.
    pub(crate) fn cluster(&self, nodes: usize) -> FullCluster {
        let mut clusters = self.clusters.lock().expect("a partition panicked");
        let part = || Arc::new(BlockPartition::new(self.a.n_rows(), nodes));
        let new = || (part(), (0..nodes).collect());
        clusters.entry(nodes).or_insert_with(new).clone()
    }

    /// What has been derived so far (statistics; not synchronized with
    /// solves running on other threads).
    pub fn counts(&self) -> StaticCounts {
        StaticCounts {
            blocks_built: self.blocks_built.load(Ordering::Relaxed),
            factors_built: self.factors_built.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::poisson2d;

    #[test]
    fn a_range_is_extracted_and_factored_once() {
        let a = Arc::new(poisson2d(6, 6));
        let store = StaticData::new(a.clone());
        let part = BlockPartition::new(36, 3);
        let first = store.block(&part.range(1));
        let again = store.block(&part.range(1));
        assert!(Arc::ptr_eq(&first, &again));
        let expect = LocalMatrix::build(&a, &part, 1);
        assert_eq!(first.ghost_cols, expect.ghost_cols);
        assert_eq!(first.diag.to_dense(), expect.diag.to_dense());
        let f1 = store.factor(&part.range(1)).unwrap();
        let f2 = store.factor(&part.range(1)).unwrap();
        assert!(Arc::ptr_eq(&f1, &f2));
        // A merged range is an entry of its own.
        store.factor(&(part.range(1).start..36)).unwrap();
        assert_eq!(
            store.counts(),
            StaticCounts {
                blocks_built: 2,
                factors_built: 2
            }
        );
        // The partition's preconditioner is those same factors, assembled
        // once.
        let m = store.block_jacobi(&part).unwrap();
        assert!(Arc::ptr_eq(&m[1], &f1));
        assert!(Arc::ptr_eq(&m, &store.block_jacobi(&part).unwrap()));
        assert_eq!(store.counts().factors_built, 4);
    }

    #[test]
    fn a_failed_factorization_is_remembered() {
        // −I is symmetric and not positive definite.
        let mut neg = sparsemat::Coo::new(4, 4);
        for i in 0..4 {
            neg.push(i, i, -1.0);
        }
        let store = StaticData::new(Arc::new(neg.to_csr()));
        assert!(store.factor(&(0..4)).is_err());
        assert!(store.factor(&(0..4)).is_err());
        assert!(store.block_jacobi(&BlockPartition::new(4, 1)).is_err());
        assert_eq!(store.counts().factors_built, 1);
    }
}
