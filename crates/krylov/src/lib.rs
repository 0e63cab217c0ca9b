//! # krylov — sequential iterative solvers
//!
//! The reference (non-distributed) solvers of the reproduction: these are
//! the baselines the distributed ESR solver is validated against, and the
//! inner solvers used during reconstruction.
//!
//! * [`pcg()`](cg::pcg) — the preconditioned conjugate gradient method, literally the
//!   paper's Alg. 1;
//! * [`pipecg()`](pipecg::pipecg) — pipelined (communication-hiding) PCG in the
//!   Ghysels–Vanroose recurrence form, the numerical reference for the
//!   resilient communication-hiding solver (Levonyak et al., arXiv:1912.09230);
//! * [`bicgstab()`](bicgstab::bicgstab) — preconditioned BiCGSTAB (the paper's Sec. 1 lists it
//!   among the methods the ESR extension applies to).

// Indexed loops over several parallel arrays are the clearest form for
// the numeric kernels in this crate; iterator-zip pyramids obscure the math.
#![allow(clippy::needless_range_loop)]

pub(crate) mod bicgstab;
pub(crate) mod cg;
pub(crate) mod pipecg;
pub(crate) mod report;

pub use bicgstab::bicgstab;
pub use cg::pcg;
pub use pipecg::pipecg;
pub use report::SolveReport;
