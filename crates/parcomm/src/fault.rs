//! ULFM-like failure injection, detection, and notification.
//!
//! The MPI extension *User Level Failure Mitigation* (paper Sec. 1.1.1)
//! provides: detection of node failures, consistent notification of the
//! surviving nodes about *which* nodes failed, and a mechanism for providing
//! replacement nodes. We reproduce those semantics with a shared, read-only
//! [`FailureScript`] consulted at well-defined algorithm boundaries:
//!
//! * because the solver is SPMD, every node reaches the same boundary with
//!   the same identifier, so all nodes agree on the announced failures
//!   without an explicit agreement protocol (this stands in for
//!   ULFM's `MPI_Comm_agree`);
//! * the *failed* node itself learns of its failure at the boundary,
//!   poisons its dynamic state with NaN ([`poison`]) and continues in the
//!   **replacement node** role — exactly the simulation methodology of the
//!   paper (Sec. 6), which keeps ranks alive and re-purposes them;
//! * failures scheduled *inside* a recovery ([`FailAt::RecoverySubstep`])
//!   model **overlapping failures**: the reconstruction is aborted and
//!   restarted with the enlarged failed set (paper Sec. 4.1).
//!
//! ## Node lifecycle
//!
//! A node's life is a composition of two state machines. The *scheduler*
//! level (`crate::sched`) knows only execution states — a node is
//! **Runnable** (parked, dispatchable), **Running** (holds the baton),
//! **Blocked** (parked in a receive with no matching message), or **Done**
//! (its program returned). The *solver* level layers failure roles on top,
//! without ever leaving the scheduler's view:
//!
//! ```text
//!   Healthy ──failure announced at a boundary──▶ Failed (state poisoned)
//!      ▲                                            │
//!      │                      ┌─────────────────────┤
//!      │              spare granted           no spare left
//!      │                      │                     │
//!      └── Replacement ◀──────┘                     ▼
//!          (same rank,                       Retired (leaves the
//!           reconstructs via ESR)            solve; its subdomain
//!                                            is adopted by survivors)
//! ```
//!
//! A **Failed** node is not torn down: it keeps its rank and scheduler
//! slot, and — having poisoned its dynamic data — either re-enters the
//! solve as the **Replacement** node (reconstructing its subdomain from
//! redundant copies) or **Retires**, finishing its program early so its
//! scheduler state goes Done while the survivors adopt its rows. There is
//! no per-role thread bookkeeping anywhere: roles are pure solver-level
//! facts, derived deterministically from the script by every node.

use std::sync::Arc;

/// The algorithm boundary at which a failure becomes visible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailAt {
    /// Detected at the post-SpMV boundary of solver iteration `j`
    /// (0-based). At this point redundant copies of `p(j)` and `p(j-1)`
    /// exist, which is what the ESR reconstruction requires.
    Iteration(u64),
    /// Detected during the recovery triggered at iteration
    /// `after_iteration`, before recovery substep `substep` completes —
    /// an *overlapping* failure.
    RecoverySubstep {
        /// The iteration whose boundary started the interrupted recovery.
        after_iteration: u64,
        /// The recovery substep about to begin when the failure hits
        /// (`< RECOVERY_SUBSTEPS`).
        substep: u32,
    },
}

/// Overlap boundaries of one recovery attempt: the restart protocol polls
/// [`FailAt::RecoverySubstep`] for `substep` in `0..RECOVERY_SUBSTEPS` and
/// nowhere else.
pub const RECOVERY_SUBSTEPS: u32 = 4;

/// One failure event: the boundary and the ranks that fail there.
#[derive(Clone, Debug)]
pub struct FailureEvent {
    /// The boundary at which the failure is detected.
    pub when: FailAt,
    /// The ranks that fail there (distinct).
    pub ranks: Vec<usize>,
}

/// A deterministic schedule of node failures for one solver run.
#[derive(Clone, Debug, Default)]
pub struct FailureScript {
    events: Vec<FailureEvent>,
    /// Cluster size the script was validated against at construction
    /// (builders that know `nodes` set this; [`FailureScript::new`] cannot).
    validated_nodes: Option<usize>,
}

impl FailureScript {
    /// A failure-free run.
    pub fn none() -> Self {
        Self::default()
    }

    /// Script with the given events. Rank bounds cannot be checked here
    /// (the cluster size is unknown); prefer the size-aware builders
    /// [`FailureScript::simultaneous`] / [`FailureScript::at_iterations`],
    /// which validate everything at construction.
    pub fn new(events: Vec<FailureEvent>) -> Self {
        let s = FailureScript {
            events,
            validated_nodes: None,
        };
        s.validate();
        s
    }

    /// Convenience: `count` simultaneous failures of contiguous ranks
    /// starting at `first_rank`, detected at iteration `iteration`. This is
    /// the paper's experimental setup (Sec. 7.1: failures "placed in
    /// contiguous ranks", starting at rank 0 or rank N/2). Bounds are
    /// checked here, at construction.
    pub fn simultaneous(iteration: u64, first_rank: usize, count: usize, nodes: usize) -> Self {
        // `count >= nodes` would wrap modulo `nodes` into duplicate ranks
        // and die with a misleading "duplicate rank" panic; the real
        // constraint is ψ ≤ N−1 — at least one node must survive to hold
        // the redundant copies the reconstruction reads.
        assert!(
            count < nodes,
            "cannot fail {count} of {nodes} nodes simultaneously: \
             ψ ≤ N−1 must leave at least one survivor"
        );
        assert!(
            first_rank < nodes,
            "first_rank {first_rank} out of bounds for a cluster of {nodes} nodes"
        );
        let ranks = (0..count).map(|i| (first_rank + i) % nodes).collect();
        let mut s = FailureScript::new(vec![FailureEvent {
            when: FailAt::Iteration(iteration),
            ranks,
        }]);
        s.validated_nodes = Some(nodes);
        s
    }

    /// Builder for multi-event scripts: one `(iteration, rank)` pair per
    /// failure, grouped into one [`FailureEvent`] per distinct iteration.
    /// Rank bounds are validated here, once, at construction — not later
    /// inside [`crate::Cluster::run`] — so a typo'd rank fails at the line
    /// that wrote it.
    ///
    /// ```
    /// use parcomm::FailureScript;
    /// // Rank 1 dies at iteration 4, ranks 0 and 5 at iteration 9.
    /// let script = FailureScript::at_iterations(6, &[(4, 1), (9, 0), (9, 5)]);
    /// assert_eq!(script.total_failed_ranks(), 3);
    /// ```
    pub fn at_iterations(nodes: usize, failures: &[(u64, usize)]) -> Self {
        for &(iter, rank) in failures {
            assert!(
                rank < nodes,
                "failure (iteration {iter}, rank {rank}) out of bounds for a \
                 cluster of {nodes} nodes"
            );
        }
        let mut iters: Vec<u64> = failures.iter().map(|&(it, _)| it).collect();
        iters.sort_unstable();
        iters.dedup();
        let events: Vec<FailureEvent> = iters
            .into_iter()
            .map(|it| FailureEvent {
                when: FailAt::Iteration(it),
                ranks: failures
                    .iter()
                    .filter(|&&(eit, _)| eit == it)
                    .map(|&(_, r)| r)
                    .collect(),
            })
            .collect();
        let mut s = FailureScript::new(events);
        s.validated_nodes = Some(nodes);
        s
    }

    /// The cluster size this script was bounds-checked against at
    /// construction, if its builder knew one.
    pub fn validated_nodes(&self) -> Option<usize> {
        self.validated_nodes
    }

    fn validate(&self) {
        for e in &self.events {
            assert!(!e.ranks.is_empty(), "failure event with no ranks");
            let mut sorted = e.ranks.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                e.ranks.len(),
                "duplicate rank in failure event"
            );
            // A boundary the recovery never polls would be silently inert.
            if let FailAt::RecoverySubstep { substep, .. } = e.when {
                assert!(
                    substep < RECOVERY_SUBSTEPS,
                    "failure event at {:?} can never fire: a recovery polls \
                     substeps 0..{RECOVERY_SUBSTEPS} only",
                    e.when
                );
            }
        }
    }

    /// Validate the script against a concrete cluster size. A script whose
    /// ranks fall outside `0..nodes` is silently inert (no boundary ever
    /// announces them) — which in a resilience experiment means the failure
    /// you believed you injected never happened. The size-aware builders
    /// run this at construction; for [`FailureScript::new`]-built scripts
    /// it runs as a backstop when the oracle is attached to a cluster,
    /// where the size is finally known.
    ///
    /// # Panics
    /// Panics on the first out-of-bounds rank, and when the script was
    /// built for a different cluster size than it is now being run on.
    pub(crate) fn validate_for_cluster(&self, nodes: usize) {
        if let Some(built_for) = self.validated_nodes {
            assert!(
                built_for == nodes,
                "failure script was built for a cluster of {built_for} nodes \
                 but is attached to one of {nodes}"
            );
            return; // bounds already checked at construction
        }
        for e in &self.events {
            for &r in &e.ranks {
                assert!(
                    r < nodes,
                    "failure script rank {r} out of bounds for a cluster of {nodes} nodes \
                     (event at {:?}) — the event would be silently inert",
                    e.when
                );
            }
        }
    }

    /// All events in the script.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Ranks that fail exactly at `boundary` (consistent on every caller).
    pub(crate) fn failures_at(&self, boundary: FailAt) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .events
            .iter()
            .filter(|e| e.when == boundary)
            .flat_map(|e| e.ranks.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total number of distinct ranks failing anywhere in the script.
    pub fn total_failed_ranks(&self) -> usize {
        let mut all: Vec<usize> = self
            .events
            .iter()
            .flat_map(|e| e.ranks.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// Shared failure oracle; nodes consult it at boundaries. Read-only after
/// construction, hence trivially consistent across nodes (the ULFM
/// "agreement" comes for free from SPMD determinism).
#[derive(Clone, Debug)]
pub(crate) struct FaultOracle {
    script: Arc<FailureScript>,
}

impl FaultOracle {
    /// Wrap a failure script for shared consultation.
    pub(crate) fn new(script: FailureScript) -> Self {
        FaultOracle {
            script: Arc::new(script),
        }
    }

    /// Ranks newly failed at this boundary.
    pub(crate) fn poll(&self, boundary: FailAt) -> Vec<usize> {
        self.script.failures_at(boundary)
    }
}

/// Poison a buffer that belonged to a failed node. Recovery code must never
/// read these values; NaN propagation makes any violation visible in tests
/// (a reconstructed state containing NaN fails every accuracy assertion).
pub fn poison(buf: &mut [f64]) {
    for x in buf.iter_mut() {
        *x = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_wraps_ranks() {
        let s = FailureScript::simultaneous(10, 6, 4, 8);
        let f = s.failures_at(FailAt::Iteration(10));
        assert_eq!(f, vec![0, 1, 6, 7]);
        assert_eq!(s.total_failed_ranks(), 4);
    }

    #[test]
    fn failures_only_at_matching_boundary() {
        let s = FailureScript::simultaneous(10, 0, 2, 8);
        assert!(s.failures_at(FailAt::Iteration(9)).is_empty());
        assert_eq!(s.failures_at(FailAt::Iteration(10)).len(), 2);
        assert!(s
            .failures_at(FailAt::RecoverySubstep {
                after_iteration: 10,
                substep: 0
            })
            .is_empty());
    }

    #[test]
    fn overlapping_events_are_distinct_boundaries() {
        let s = FailureScript::new(vec![
            FailureEvent {
                when: FailAt::Iteration(5),
                ranks: vec![1],
            },
            FailureEvent {
                when: FailAt::RecoverySubstep {
                    after_iteration: 5,
                    substep: 2,
                },
                ranks: vec![3],
            },
        ]);
        assert_eq!(s.failures_at(FailAt::Iteration(5)), vec![1]);
        assert_eq!(
            s.failures_at(FailAt::RecoverySubstep {
                after_iteration: 5,
                substep: 2
            }),
            vec![3]
        );
        assert_eq!(s.total_failed_ranks(), 2);
    }

    #[test]
    #[should_panic(expected = "substep: 4 } can never fire: a recovery polls substeps 0..4 only")]
    fn overlapping_failure_past_the_last_boundary_is_rejected() {
        // No recovery polls this boundary: accepted, the experiment would
        // run failure-free while believing it had injected a failure.
        FailureScript::new(vec![FailureEvent {
            when: FailAt::RecoverySubstep {
                after_iteration: 5,
                substep: RECOVERY_SUBSTEPS,
            },
            ranks: vec![3],
        }]);
    }

    #[test]
    fn oracle_is_consistent_across_clones() {
        let o = FaultOracle::new(FailureScript::simultaneous(3, 2, 2, 16));
        let o2 = o.clone();
        assert_eq!(o.poll(FailAt::Iteration(3)), o2.poll(FailAt::Iteration(3)));
    }

    #[test]
    fn poison_sets_nan() {
        let mut v = vec![1.0, 2.0];
        poison(&mut v);
        assert!(v.iter().all(|x| x.is_nan()));
    }

    #[test]
    #[should_panic(expected = "ψ ≤ N−1 must leave at least one survivor")]
    fn simultaneous_whole_cluster_rejected() {
        // Used to wrap modulo `nodes` and panic with the misleading
        // "duplicate rank in failure event".
        FailureScript::simultaneous(3, 0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "ψ ≤ N−1 must leave at least one survivor")]
    fn simultaneous_more_than_cluster_rejected() {
        FailureScript::simultaneous(3, 2, 9, 8);
    }

    #[test]
    fn at_iterations_groups_by_iteration() {
        let s = FailureScript::at_iterations(8, &[(4, 1), (9, 0), (9, 5)]);
        assert_eq!(s.failures_at(FailAt::Iteration(4)), vec![1]);
        assert_eq!(s.failures_at(FailAt::Iteration(9)), vec![0, 5]);
        assert_eq!(s.total_failed_ranks(), 3);
        assert_eq!(s.validated_nodes(), Some(8));
        // Already validated — the cluster backstop accepts the same size.
        s.validate_for_cluster(8);
    }

    #[test]
    #[should_panic(expected = "out of bounds for a cluster of 4 nodes")]
    fn at_iterations_rejects_bad_rank_at_construction() {
        FailureScript::at_iterations(4, &[(2, 1), (5, 7)]);
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn at_iterations_rejects_duplicate_rank_in_one_event() {
        FailureScript::at_iterations(4, &[(2, 1), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "first_rank 9 out of bounds")]
    fn simultaneous_rejects_bad_first_rank_at_construction() {
        FailureScript::simultaneous(3, 9, 1, 8);
    }

    #[test]
    #[should_panic(expected = "built for a cluster of 8 nodes")]
    fn size_mismatch_between_builder_and_cluster_rejected() {
        let s = FailureScript::simultaneous(3, 1, 2, 8);
        s.validate_for_cluster(6);
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn duplicate_ranks_rejected() {
        FailureScript::new(vec![FailureEvent {
            when: FailAt::Iteration(0),
            ranks: vec![1, 1],
        }]);
    }
}
