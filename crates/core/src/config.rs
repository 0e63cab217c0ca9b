//! Solver, resilience, and recovery configuration.

use sparsemat::Csr;
use std::sync::Arc;

/// How redundant copies of the search directions are placed.
#[derive(Clone, Debug, PartialEq)]
pub enum BackupStrategy {
    /// The paper's strategy: backup targets `d_ik` from Eqn. (5)
    /// (alternating ring: +1, −1, +2, −2, …), minimal extra sets `Rᶜᵢₖ`
    /// from Eqn. (6). With `φ = 1` this reduces exactly to Chen's
    /// single-failure scheme (Sec. 3).
    Minimal,
    /// Ablation of the Eqn. (5) placement: same minimal sets, but
    /// *consecutive* ring targets `d_ik = (i + k) mod N`. For a banded
    /// matrix the natural traffic reaches ring distance ±c, so the
    /// alternating choice finds free rides up to `φ = 2c` while the
    /// consecutive choice stops at `φ = c` — exactly the asymmetry the
    /// paper's heuristic exploits.
    MinimalConsecutive,
    /// Naive ablation: send the *entire* owned block to every backup
    /// target, ignoring natural SpMV traffic. Realizes the paper's
    /// Sec. 4.2 upper bound `φ(λmax + ⌈n/N⌉µ)` and quantifies how much
    /// Eqn. (6) saves.
    FullBlock,
}

/// The preconditioner configuration, which also selects the reconstruction
/// variant (paper Alg. 2 assumes `P = M⁻¹` given; the companion paper's
/// Alg. 3 handles `M` given).
#[derive(Clone)]
pub enum PrecondConfig {
    /// No preconditioning (plain CG): `z = r`, reconstruction is trivial.
    None,
    /// `M = diag(A)`: M-given reconstruction, `r_If = D_If · z_If` locally.
    Jacobi,
    /// The paper's setup (Sec. 6): block Jacobi aligned with the node
    /// partition, blocks solved **exactly** (sparse LDLᵀ). M-given
    /// reconstruction is local: `r_If = A_{If,If} z_If`.
    BlockJacobiExact,
    /// Explicit `P = M⁻¹` given as a sparse matrix: the fully general
    /// P-given reconstruction (Alg. 2 lines 5–6), including the gather of
    /// surviving `r` parts and the distributed solve of
    /// `P_{If,If} r_If = v` when `P` couples across nodes.
    ExplicitP(Arc<Csr>),
}

impl std::fmt::Debug for PrecondConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrecondConfig::None => write!(f, "None"),
            PrecondConfig::Jacobi => write!(f, "Jacobi"),
            PrecondConfig::BlockJacobiExact => write!(f, "BlockJacobiExact"),
            PrecondConfig::ExplicitP(p) => {
                write!(f, "ExplicitP({}x{})", p.n_rows(), p.n_cols())
            }
        }
    }
}

/// Reconstruction-phase configuration (paper Secs. 6, 7.1).
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Relative tolerance of the inner solver for `A_{If,If} x_If = w`.
    /// The paper uses `1e-14` ("we can set the tolerance for the local
    /// system to a very small value").
    pub inner_rel_tol: f64,
    /// Iteration cap for the inner solver. An inner solve that reaches it
    /// without meeting `inner_rel_tol` panics rather than return an inexact
    /// `x_If`.
    pub(crate) inner_max_iter: usize,
    /// Solve `A_{If,If}` with the exact per-block LDLᵀ as the inner
    /// preconditioner (`true`, default) or zero-fill ILU as in the paper's
    /// PETSc implementation (`false`). With the exact factors, whenever the
    /// reconstructors' coupling is bipartite (every chain of adjacent lost
    /// blocks) half of them eliminate their rows exactly and the others
    /// iterate on the Schur complement, in about half the iterations; a
    /// reconstructor coupled to no other, such as a lone one, solves
    /// directly. Under ILU(0) every reconstructor iterates.
    ///
    /// Redundancy restoration after recovery needs no configuration.
    /// After every reconstruction the solver repairs its last scatter —
    /// into the replaced ranks, or in full after a Shrink — and goes on
    /// with the interrupted iteration (the paper's "skip steps that have
    /// already been performed" remark), so every redundant copy the next
    /// failure boundary reads is back before it. The repair is
    /// `Layout::scatter`'s, in `engine`.
    pub exact_block_precond: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            inner_rel_tol: 1e-14,
            inner_max_iter: 20_000,
            exact_block_precond: true,
        }
    }
}

/// What the cluster does with the subdomains of failed nodes.
///
/// The paper assumes ULFM hands every failed rank a replacement node
/// (Sec. 1.1.1, Sec. 6) — but replacement capacity is exactly what a real
/// machine may lack after multiple node failures (Pachajoa et al.,
/// arXiv:2007.04066). The policy decides:
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// The paper's model: every failed rank gets a replacement node that
    /// rebuilds the lost subdomain in place. Cluster size never changes.
    #[default]
    Replace,
    /// A finite pool of `k` hot spares managed by the cluster
    /// ([`parcomm::SparePool`]). Each failed rank consumes one
    /// spare and is replaced in place; once the pool runs dry, the
    /// uncovered failed subdomains are *adopted* by surviving nodes and
    /// the cluster continues shrunken (the [`RecoveryPolicy::Shrink`]
    /// fallback).
    Spares(usize),
    /// No replacement capacity at all: surviving nodes adopt the failed
    /// subdomains (reconstructing them from the retained `p(j)/p(j−1)`
    /// copies) and the solve continues on `N − ψ` ranks with a non-uniform
    /// block partition, a shrunken communicator, and re-derived redundancy
    /// targets for the surviving ring.
    Shrink,
}

/// Periodic checkpoint parameters for [`Protection::Checkpoint`].
///
/// Diskless neighbour checkpointing (paper Sec. 1.2's comparator class):
/// every `interval` iterations each node packs its dynamic solver state
/// and deposits `copies` replicas on ring partners picked by the same
/// Eqn. (5) alternating-ring placement ESR uses for redundant copies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrConfig {
    /// Checkpoint every `interval` outer iterations (`interval ≥ 1`;
    /// iteration 0 is always checkpointed).
    pub interval: usize,
    /// Replicas per checkpoint, placed on the Eqn. (5) ring
    /// (`1 ≤ copies ≤ N − 1`). Recovery from `ψ` failures needs at least
    /// one replica of every failed block on a survivor.
    pub copies: usize,
}

impl Default for CrConfig {
    fn default() -> Self {
        CrConfig {
            interval: 10,
            copies: 1,
        }
    }
}

impl CrConfig {
    /// Same configuration with a different checkpoint interval.
    #[must_use]
    pub fn with_interval(mut self, interval: usize) -> Self {
        self.interval = interval;
        self
    }

    /// Same configuration with a different replica count.
    #[must_use]
    pub fn with_copies(mut self, copies: usize) -> Self {
        self.copies = copies;
        self
    }
}

/// Which state-protection flavor guards the dynamic solver state — the
/// axis the paper's headline comparison (Sec. 1.2/2.2) varies while
/// holding solver, failure script, and recovery policy fixed.
#[derive(Clone, Debug, PartialEq)]
pub enum Protection {
    /// Exact state reconstruction: `φ` redundant copies of the two most
    /// recent search directions ride the SpMV traffic, and recovery
    /// rebuilds the lost state algebraically. No rollback — surviving
    /// nodes keep their iterates.
    Esr,
    /// Periodic diskless neighbour checkpointing: recovery fetches the
    /// newest surviving replica of every failed block and rolls *all*
    /// ranks back to the checkpointed iteration.
    Checkpoint(CrConfig),
}

/// Resilience configuration: how many simultaneous failures to tolerate.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// `φ`: number of redundant copies ≡ maximum simultaneous (or
    /// overlapping) node failures tolerated. Must satisfy `φ < N`.
    /// (Only meaningful under [`Protection::Esr`]; the checkpointing
    /// flavor sizes its survivability by [`CrConfig::copies`] instead.)
    pub(crate) phi: usize,
    /// Placement strategy for the copies.
    pub strategy: BackupStrategy,
    /// Reconstruction parameters.
    pub recovery: RecoveryConfig,
    /// What happens to a failed node's subdomain (replacement node,
    /// finite spare pool, or adoption by survivors).
    pub policy: RecoveryPolicy,
    /// How the dynamic state is protected: ESR reconstruction (the
    /// paper's method) or periodic checkpoint/rollback.
    pub(crate) protection: Protection,
}

impl ResilienceConfig {
    /// The paper's configuration for a given `φ` — in-place replacement,
    /// ESR protection, minimal copy placement — with one deviation: the
    /// inner reconstruction solve is preconditioned with the exact block
    /// LDLᵀ factors ([`RecoveryConfig::default`]). The paper's PETSc runs
    /// used ILU(0) there; set `recovery.exact_block_precond = false` for the
    /// paper's choice. Both solve to the inner tolerance; the exact factors
    /// take fewer inner iterations.
    pub fn paper(phi: usize) -> Self {
        ResilienceConfig {
            phi,
            strategy: BackupStrategy::Minimal,
            recovery: RecoveryConfig::default(),
            policy: RecoveryPolicy::Replace,
            protection: Protection::Esr,
        }
    }

    /// Same, with an explicit recovery policy.
    pub(crate) fn with_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same, with an explicit state-protection flavor.
    #[must_use]
    pub fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// The checkpoint parameters, when checkpointing is the protection.
    pub fn cr(&self) -> Option<&CrConfig> {
        match &self.protection {
            Protection::Esr => None,
            Protection::Checkpoint(cr) => Some(cr),
        }
    }

    /// True when the protection flavor is exact state reconstruction.
    pub fn is_esr(&self) -> bool {
        self.protection == Protection::Esr
    }
}

/// The distributed solvers [`crate::driver::run`] can run — also named so
/// configuration errors can state exactly which solver rejected which
/// combination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Blocking PCG ([`crate::driver::run_pcg`]).
    Pcg,
    /// Communication-hiding pipelined PCG ([`crate::driver::run_pipecg`]).
    PipeCg,
    /// Preconditioned BiCGSTAB ([`crate::driver::run_bicgstab`]).
    BiCgStab,
}

impl SolverKind {
    /// Human-readable solver name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Pcg => "blocking PCG",
            SolverKind::PipeCg => "pipelined PCG",
            SolverKind::BiCgStab => "BiCGSTAB",
        }
    }
}

/// A solver × policy × preconditioner combination the suite cannot run,
/// with the violated constraint named. Returned by
/// `SolverConfig::validate` (and therefore by every `run_*` entry point)
/// instead of panicking deep inside a node program.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The preconditioner conflicts with the solver or the policy.
    PrecondUnsupported {
        /// The rejecting solver.
        solver: SolverKind,
        /// Debug rendering of the requested preconditioner.
        precond: String,
        /// The constraint that rules the combination out.
        constraint: &'static str,
    },
    /// `φ` does not leave a survivor: `φ < N` must hold.
    PhiTooLarge {
        /// Requested redundancy.
        phi: usize,
        /// Cluster size.
        nodes: usize,
    },
    /// The checkpoint parameters are out of range for this cluster, or
    /// checkpoint protection is unsupported here.
    CrInvalid {
        /// Requested checkpoint interval.
        interval: usize,
        /// Requested replicas per checkpoint.
        copies: usize,
        /// Cluster size.
        nodes: usize,
        /// The constraint that rules the combination out.
        constraint: &'static str,
    },
    /// ESR protection on a matrix that is not symmetric
    /// (`crate::StaticData::is_symmetric`): its reconstruction factors
    /// blocks of `A` as LDLᵀ and solves for `x` with CG, so it would
    /// rebuild a wrong state. Checkpoint protection solves nothing and is
    /// allowed.
    EsrNonsymmetric {
        /// The requested solver.
        solver: SolverKind,
    },
    /// The block-row distribution gives every node at least one row:
    /// `1 ≤ N ≤ n` must hold.
    NodesOutOfRange {
        /// Cluster size.
        nodes: usize,
        /// System dimension.
        rows: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::PrecondUnsupported {
                solver,
                precond,
                constraint,
            } => write!(
                f,
                "PrecondConfig::{precond} is not supported by {}: {constraint}",
                solver.name()
            ),
            ConfigError::PhiTooLarge { phi, nodes } => write!(
                f,
                "phi = {phi} redundant copies on a cluster of {nodes} nodes: \
                 φ ≤ N−1 must leave at least one survivor holding copies"
            ),
            ConfigError::CrInvalid {
                interval,
                copies,
                nodes,
                constraint,
            } => write!(
                f,
                "CrConfig {{ interval: {interval}, copies: {copies} }} on a cluster \
                 of {nodes} nodes: {constraint}"
            ),
            ConfigError::EsrNonsymmetric { solver } => write!(
                f,
                "ESR protection for {} on a nonsymmetric A: its reconstruction \
                 factors blocks of A as LDLᵀ and solves for x with CG; use \
                 checkpoint protection",
                solver.name()
            ),
            ConfigError::NodesOutOfRange { nodes, rows } => write!(
                f,
                "a cluster of {nodes} nodes for a system of {rows} rows: every node \
                 owns at least one block row, so 1 ≤ N ≤ n must hold"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full solver configuration.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Relative residual tolerance; the paper terminates "once the
    /// relative residual norm has been reduced by a factor of 10⁸".
    pub rel_tol: f64,
    /// Outer iteration cap.
    pub max_iter: usize,
    /// Preconditioner (also fixes the reconstruction variant).
    pub precond: PrecondConfig,
    /// `None` = plain non-resilient PCG (the paper's reference runs).
    pub resilience: Option<ResilienceConfig>,
    /// Record the virtual-time trace of the solve into
    /// [`crate::ExperimentResult::trace`]. Strictly observational: the
    /// solve's numbers are bitwise the same either way.
    pub trace: bool,
}

impl SolverConfig {
    /// The paper's reference configuration: non-resilient PCG with exact
    /// block Jacobi, tolerance 1e-8.
    pub fn reference() -> Self {
        SolverConfig {
            rel_tol: 1e-8,
            max_iter: 100_000,
            precond: PrecondConfig::BlockJacobiExact,
            resilience: None,
            trace: false,
        }
    }

    /// The paper's resilient configuration with `φ` redundant copies.
    pub fn resilient(phi: usize) -> Self {
        SolverConfig {
            resilience: Some(ResilienceConfig::paper(phi)),
            ..SolverConfig::reference()
        }
    }

    /// Resilient configuration with an explicit recovery policy.
    pub fn resilient_with_policy(phi: usize, policy: RecoveryPolicy) -> Self {
        SolverConfig {
            resilience: Some(ResilienceConfig::paper(phi).with_policy(policy)),
            ..SolverConfig::reference()
        }
    }

    /// Check this configuration against a solver and cluster size, naming
    /// the violated constraint on rejection. The full recovery-policy ×
    /// solver matrix {Replace, Spares, Shrink} × {PCG, PipeCG, BiCGSTAB}
    /// runs through the one restart protocol (`crate::engine::recover`)
    /// under either state-protection flavor; what remains unsupported:
    ///
    /// * [`Protection::Checkpoint`] needs `interval ≥ 1` and
    ///   `1 ≤ copies ≤ N − 1` (a replica on every node is the ceiling);
    /// * `ExplicitP` reconstruction (P-given, Alg. 2 lines 5–6) gathers
    ///   over the full cluster, which a shrunken cluster no longer has —
    ///   Replace only, and blocking PCG only (the pipelined solver would
    ///   serialize `P`'s ghost exchange against its overlapped reduction;
    ///   BiCGSTAB's reconstruction identities assume block-diagonal `M`);
    /// * `φ ≥ N` leaves no survivor to hold copies.
    pub(crate) fn validate(&self, solver: SolverKind, nodes: usize) -> Result<(), ConfigError> {
        // Solver-inherent preconditioner constraints hold with or without
        // resilience configured.
        if matches!(self.precond, PrecondConfig::ExplicitP(_)) {
            if solver == SolverKind::PipeCg {
                return Err(ConfigError::PrecondUnsupported {
                    solver,
                    precond: format!("{:?}", self.precond),
                    constraint: "pipelined PCG requires a block-diagonal (M-given) \
                                 preconditioner (None, Jacobi, or BlockJacobiExact): \
                                 P's own ghost exchange would serialize against the \
                                 overlapped reduction",
                });
            }
            if solver == SolverKind::BiCgStab {
                return Err(ConfigError::PrecondUnsupported {
                    solver,
                    precond: format!("{:?}", self.precond),
                    constraint: "ESR-BiCGSTAB's reconstruction identities (p = M p̂, \
                                 s = M ŝ) require a block-diagonal (M-given) \
                                 preconditioner",
                });
            }
        }
        let Some(res) = &self.resilience else {
            return Ok(()); // non-resilient runs have no policy to reject
        };
        if res.phi >= nodes {
            return Err(ConfigError::PhiTooLarge {
                phi: res.phi,
                nodes,
            });
        }
        if let Protection::Checkpoint(cr) = &res.protection {
            if cr.interval == 0 {
                return Err(ConfigError::CrInvalid {
                    interval: cr.interval,
                    copies: cr.copies,
                    nodes,
                    constraint: "interval ≥ 1 is required (interval = 0 would \
                                 checkpoint every message boundary, i.e. never \
                                 advance)",
                });
            }
            if cr.copies == 0 {
                return Err(ConfigError::CrInvalid {
                    interval: cr.interval,
                    copies: cr.copies,
                    nodes,
                    constraint: "copies ≥ 1 is required: with no replicas every \
                                 failure is unrecoverable",
                });
            }
            if cr.copies >= nodes {
                return Err(ConfigError::CrInvalid {
                    interval: cr.interval,
                    copies: cr.copies,
                    nodes,
                    constraint: "copies ≤ N − 1 must hold: a node deposits replicas \
                                 on *other* ring members, of which there are only \
                                 N − 1",
                });
            }
            if matches!(self.precond, PrecondConfig::ExplicitP(_)) {
                return Err(ConfigError::PrecondUnsupported {
                    solver,
                    precond: format!("{:?}", self.precond),
                    constraint: "the checkpoint/rollback path wires the paper's \
                                 M-given (block-diagonal) preconditioners only",
                });
            }
        }
        if matches!(self.precond, PrecondConfig::ExplicitP(_))
            && res.policy != RecoveryPolicy::Replace
        {
            return Err(ConfigError::PrecondUnsupported {
                solver,
                precond: format!("{:?}", self.precond),
                constraint: "the P-given reconstruction gathers over the full \
                             cluster, which a shrunken cluster no longer has; \
                             use RecoveryPolicy::Replace with ExplicitP",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let r = SolverConfig::reference();
        assert_eq!(r.rel_tol, 1e-8);
        assert!(r.resilience.is_none());
        let s = SolverConfig::resilient(3);
        let res = s.resilience.unwrap();
        assert_eq!(res.phi, 3);
        assert_eq!(res.strategy, BackupStrategy::Minimal);
        assert_eq!(res.recovery.inner_rel_tol, 1e-14);
        assert!(res.recovery.exact_block_precond);
        // The paper's model is in-place replacement; the default must stay
        // Replace so existing pinned trajectories are untouched.
        assert_eq!(res.policy, RecoveryPolicy::Replace);
    }

    #[test]
    fn policy_presets() {
        let s = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Spares(3));
        assert_eq!(s.resilience.unwrap().policy, RecoveryPolicy::Spares(3));
        let s = SolverConfig::resilient_with_policy(2, RecoveryPolicy::Shrink);
        assert_eq!(s.resilience.unwrap().policy, RecoveryPolicy::Shrink);
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Replace);
    }

    #[test]
    fn debug_impls_render() {
        let cfg = SolverConfig::resilient(1);
        let s = format!("{cfg:?}");
        assert!(s.contains("BlockJacobiExact"));
    }

    #[test]
    fn protection_defaults_to_esr() {
        let res = SolverConfig::resilient(2).resilience.unwrap();
        assert_eq!(res.protection, Protection::Esr);
        assert!(res.is_esr());
        assert!(res.cr().is_none());
    }

    fn cr_cfg(cr: CrConfig) -> SolverConfig {
        let mut cfg = SolverConfig::resilient(1);
        cfg.resilience =
            Some(ResilienceConfig::paper(1).with_protection(Protection::Checkpoint(cr)));
        cfg
    }

    #[test]
    fn cr_bounds_are_typed_errors() {
        let zero_interval = cr_cfg(CrConfig::default().with_interval(0));
        assert!(matches!(
            zero_interval.validate(SolverKind::Pcg, 4),
            Err(ConfigError::CrInvalid { interval: 0, .. })
        ));
        let zero_copies = cr_cfg(CrConfig::default().with_copies(0));
        assert!(matches!(
            zero_copies.validate(SolverKind::Pcg, 4),
            Err(ConfigError::CrInvalid { copies: 0, .. })
        ));
        // copies ≥ N leaves no legal ring placement.
        let too_many = cr_cfg(CrConfig::default().with_copies(4));
        assert!(matches!(
            too_many.validate(SolverKind::Pcg, 4),
            Err(ConfigError::CrInvalid { copies: 4, .. })
        ));
        // N − 1 replicas (a copy on every other node) is the legal ceiling.
        let ceiling = cr_cfg(CrConfig::default().with_copies(3));
        assert!(ceiling.validate(SolverKind::Pcg, 4).is_ok());
    }

    #[test]
    fn cr_rejects_explicit_p() {
        let mut cfg = cr_cfg(CrConfig::default());
        cfg.precond = PrecondConfig::ExplicitP(Arc::new(Csr::identity(8)));
        assert!(matches!(
            cfg.validate(SolverKind::Pcg, 4),
            Err(ConfigError::PrecondUnsupported { .. })
        ));
    }

    #[test]
    fn cr_supports_every_engine_policy() {
        for policy in [
            RecoveryPolicy::Replace,
            RecoveryPolicy::Spares(2),
            RecoveryPolicy::Shrink,
        ] {
            let mut cfg = cr_cfg(CrConfig::default().with_copies(2));
            cfg.resilience = Some(cfg.resilience.unwrap().with_policy(policy));
            for solver in [SolverKind::Pcg, SolverKind::PipeCg, SolverKind::BiCgStab] {
                assert!(cfg.validate(solver, 5).is_ok(), "{solver:?} × {policy:?}");
            }
        }
    }

    #[test]
    fn cr_error_display_names_the_constraint() {
        let err = cr_cfg(CrConfig::default().with_interval(0))
            .validate(SolverKind::Pcg, 4)
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("interval: 0"), "{msg}");
        assert!(msg.contains("interval ≥ 1"), "{msg}");
    }
}
