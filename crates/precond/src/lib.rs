//! # precond — preconditioners and local factorizations
//!
//! The paper's solver setup (Sec. 6): *"We use a block Jacobi as a
//! preconditioner during the regular operation of the solver, solving the
//! preconditioner blocks exactly"*, and *"an approximate solver based on ILU
//! factorization for the blocks"* inside the reconstruction. This crate
//! provides those pieces, plus the diagonal scaling and the explicit form
//! the solver configuration also offers:
//!
//! * [`Preconditioner`] — the apply-interface `z ≈ M⁻¹ r`;
//! * [`Jacobi`] — diagonal scaling;
//! * [`BlockJacobi`] — block-diagonal solves with exact sparse LDLᵀ or
//!   approximate ILU(0) per block;
//! * [`SparseLdl`] — an up-looking sparse LDLᵀ factorization (elimination
//!   tree based, in the style of Davis's LDL) for *exact* block solves;
//! * [`Ilu0`] — zero-fill incomplete LU;
//! * [`ExplicitPrec`] — a preconditioner *given as an explicit sparse
//!   matrix* `P = M⁻¹`, the form assumed by the paper's Alg. 2 and the
//!   sequential reference for `PrecondConfig::ExplicitP`.

// Indexed loops over several parallel arrays are the clearest form for
// the numeric kernels in this crate; iterator-zip pyramids obscure the math.
#![allow(clippy::needless_range_loop)]

pub(crate) mod block_jacobi;
pub(crate) mod explicit;
pub(crate) mod ilu;
pub(crate) mod jacobi;
pub mod ldl;
pub(crate) mod traits;

pub use block_jacobi::{BlockJacobi, BlockSolver};
pub use explicit::ExplicitPrec;
pub use ilu::Ilu0;
pub use jacobi::Jacobi;
pub use ldl::{LdlWorkspace, SparseLdl};
pub use traits::{Identity, PrecondError, Preconditioner};
