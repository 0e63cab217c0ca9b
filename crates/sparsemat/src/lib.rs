//! # sparsemat — sparse linear algebra substrate
//!
//! Everything the ESR-PCG reproduction needs from a sparse matrix library:
//!
//! * [`csr::Csr`] storage with SpMV, submatrix extraction, permutation,
//!   symmetry checks ([`coo::Coo`] is the builder format);
//! * `dense` — small dense matrices with Cholesky factorization, used for
//!   exact preconditioner block solves and as an SPD test oracle;
//! * [`partition::BlockPartition`] — the contiguous block-row data
//!   distribution of the paper (Sec. 1.1.2);
//! * [`gen`] — scalable synthetic SPD generators matched to the sparsity
//!   *classes* of the paper's SuiteSparse test set (Table 1), since the
//!   original matrices are not redistributable here (see DESIGN.md);
//! * [`order`] — reverse Cuthill–McKee reordering and bandwidth statistics;
//! * [`analysis`] — sparsity-pattern analysis: the natural SpMV send sets
//!   `S_ik` and multiplicities `mᵢ(s)` of the paper's Eqns. (2)–(3), which
//!   determine the redundancy overhead (paper Sec. 5);
//! * `rng` — a seeded SplitMix64/Xoshiro256** PRNG making every generated
//!   matrix bit-reproducible across platforms and dependency versions.

// Indexed loops over several parallel arrays are the clearest form for
// the numeric kernels in this crate; iterator-zip pyramids obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod analysis;
pub(crate) mod coo;
pub mod csr;
pub(crate) mod dense;
pub mod gen;
pub mod hotpath;
pub mod order;
pub(crate) mod partition;
pub(crate) mod rng;
pub mod vecops;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use partition::BlockPartition;
pub use rng::Rng;
