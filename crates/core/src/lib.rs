//! # esr-core — exact state reconstruction for distributed PCG
//!
//! The primary contribution of Pachajoa, Levonyak, Gansterer & Träff,
//! *"How to Make the Preconditioned Conjugate Gradient Method Resilient
//! Against Multiple Node Failures"* (ICPP 2019): a distributed PCG solver
//! that survives up to `φ` **simultaneous or overlapping node failures**
//! without checkpointing, by keeping `φ` redundant copies of the two most
//! recent search directions distributed across the cluster.
//!
//! Module map (paper section → code):
//!
//! | Paper | Module |
//! |---|---|
//! | Alg. 1 (PCG), block-row distribution (Sec. 1.1.2) | `pcg`, [`localmat`] |
//! | The one SPMD node program: setup, failure boundary, proceed after recovery (Secs. 1.1.1, 2.2) | `node` |
//! | SpMV generalized scatter (Sec. 6) | [`scatter`] |
//! | Eqns. (2)–(6): `S_ik`, `mᵢ(s)`, `d_ik`, `Rᶜᵢₖ` (Secs. 3–4) | [`redundancy`] |
//! | Retention of `p(j)`, `p(j-1)` copies (Sec. 2.2) | [`retention`] |
//! | Alg. 2 generalized to `ψ ≤ φ` failures (Sec. 4.1), recovery policies | `engine` |
//! | Checkpoint/rollback protection flavor (Sec. 1.2's comparator) | [`checkpoint`] |
//! | Communication-hiding pipelined PCG + its ESR (arXiv:1912.09230) | `pipecg` |
//! | Preconditioner variants (M-given / P-given) | `precsetup` |
//! | Communication-overhead bounds (Sec. 4.2, Sec. 5) | [`analysis`] |
//! | Static data on reliable storage, derived once per problem (Sec. 1.1.2) | `statics` |
//! | Experiment orchestration (Secs. 6–7) | [`driver`] |
//! | ESR beyond PCG: BiCGSTAB (Sec. 1) | `bicgstab` |
//!
//! The recovery protocol itself — scalar/copy routing, the four-substep
//! overlapping-failure restart, spare-pool grants, shrink adoption and the
//! post-shrink layout rebuild — lives once, in `engine`, and so does the
//! solve around it, in `node`: one generic loop owns setup, the
//! checkpoint deposit, the failure boundary and the control flow after a
//! recovery.
//! Each solver (`pcg`, `pipecg`, `bicgstab`) contributes only its
//! owned state, its recurrence split at its failure boundary, and the
//! maps from retained copies back to full state. [`driver::run`] takes the
//! solver as a [`SolverKind`].

// Indexed loops over several parallel arrays are the clearest form for
// the numeric kernels in this crate; iterator-zip pyramids obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod analysis;
pub(crate) mod bicgstab;
pub mod checkpoint;
pub mod config;
pub mod driver;
pub(crate) mod engine;
pub mod localmat;
pub(crate) mod node;
pub(crate) mod pcg;
pub(crate) mod pipecg;
pub(crate) mod precsetup;
pub mod redundancy;
pub mod retention;
pub mod scatter;
pub(crate) mod statics;

pub use config::{
    BackupStrategy, ConfigError, CrConfig, PrecondConfig, Protection, RecoveryConfig,
    RecoveryPolicy, ResilienceConfig, SolverConfig, SolverKind,
};
pub use driver::{
    run, run_bicgstab, run_pcg, run_pipecg, ExperimentResult, PhaseBreakdown, Problem,
};
pub use engine::{RecoveryReport, RecoveryTimeline, SubstepTiming};
pub use node::{node_program, NodeOutcome};
pub use statics::{StaticCounts, StaticData};
