//! The four workloads and the seed → input derivation.

use crate::adapter::{Matrix, Policy, Protection, Solver};

/// The seed whose inputs the README's baseline describes.
pub const DEFAULT_SEED: u64 = 1;

/// What one cell of a workload's cell set runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellKind {
    Reference,
    Undisturbed,
    Failure {
        policy: Policy,
        protection: Protection,
    },
}

#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// `<solver>.<kind>`, unique within the workload.
    pub label: String,
    pub solver: Solver,
    pub kind: CellKind,
    /// Run only in the traced repetition: the solve feeds per-layer metrics
    /// and is too slow to repeat in the end-to-end cell set.
    pub traced_only: bool,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub matrix: Matrix,
    pub scale: f64,
    pub nodes: usize,
    /// φ redundant copies = ψ simultaneous failures.
    pub phi: usize,
    pub cells: Vec<Cell>,
}

const CKPT: Protection = Protection::Checkpoint {
    interval: 10,
    copies: 3,
};

fn solver_name(s: Solver) -> &'static str {
    match s {
        Solver::Pcg => "pcg",
        Solver::PipeCg => "pipecg",
        Solver::BiCgStab => "bicgstab",
    }
}

fn cell(solver: Solver, kind: CellKind, traced_only: bool) -> Cell {
    let kind_name = match kind {
        CellKind::Reference => "reference".to_string(),
        CellKind::Undisturbed => "undisturbed".to_string(),
        CellKind::Failure { policy, protection } => format!(
            "failure-{}_{}",
            match policy {
                Policy::Replace => "replace",
                Policy::Shrink => "shrink",
            },
            match protection {
                Protection::Esr => "esr",
                Protection::Checkpoint { .. } => "ckpt",
            }
        ),
    };
    Cell {
        label: format!("{}.{kind_name}", solver_name(solver)),
        solver,
        kind,
        traced_only,
    }
}

const REPLACE_ESR: CellKind = CellKind::Failure {
    policy: Policy::Replace,
    protection: Protection::Esr,
};

/// One Table 2 cell set: t₀, the undisturbed overhead, the failure overhead.
fn pcg_cell_set(undisturbed_traced_only: bool) -> Vec<Cell> {
    vec![
        cell(Solver::Pcg, CellKind::Reference, false),
        cell(Solver::Pcg, CellKind::Undisturbed, undisturbed_traced_only),
        cell(Solver::Pcg, REPLACE_ESR, false),
    ]
}

fn mix_cell_set() -> Vec<Cell> {
    let mut cells = Vec::new();
    for solver in [Solver::Pcg, Solver::PipeCg, Solver::BiCgStab] {
        cells.push(cell(solver, CellKind::Reference, false));
        if solver == Solver::Pcg {
            cells.push(cell(solver, CellKind::Undisturbed, false));
        }
        for policy in [Policy::Replace, Policy::Shrink] {
            for protection in [Protection::Esr, CKPT] {
                cells.push(cell(
                    solver,
                    CellKind::Failure { policy, protection },
                    false,
                ));
            }
        }
    }
    cells
}

/// The benchmark's workloads. Sizes are the largest that let three
/// repetitions fit the run length on the 2-core reference host; each keeps
/// the dominant layer its design names (README.md has the measured shares).
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper_m5_n128",
            why: "One Table 2 cell set in the paper's configuration (M5 wide band, N=128, \
                  phi=psi=3); no single layer dominates, so a gain must arrive here to matter.",
            matrix: Matrix::M5,
            scale: 0.04,
            nodes: 128,
            phi: 3,
            cells: pcg_cell_set(false),
        },
        Workload {
            name: "scale_m1_n512",
            why: "About 4 rows per node on 512 node threads: kernels vanish and the parcomm \
                  runtime (hand-offs, mailbox matching, stacks) is most of the wall.",
            matrix: Matrix::M1,
            scale: 0.004,
            nodes: 512,
            phi: 1,
            cells: pcg_cell_set(true),
        },
        Workload {
            name: "thick_m1_n16",
            why: "About 1000-row blocks give the block LDLt heavy fill: precond factor+solve \
                  is nearly all of the wall and parcomm moves few messages.",
            matrix: Matrix::M1,
            scale: 0.03,
            nodes: 16,
            phi: 3,
            cells: pcg_cell_set(false),
        },
        Workload {
            name: "mix_m3_n64",
            why: "PCG, pipelined PCG, BiCGSTAB x {Replace,Shrink} x {ESR,Checkpoint} on the \
                  scattered M3: non-blocking requests, sub-communicators, deposits, shrink path.",
            matrix: Matrix::M3,
            scale: 0.04,
            nodes: 64,
            phi: 3,
            cells: mix_cell_set(),
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
impl Workload {
    /// The same cell set on a problem small enough for a unit test.
    pub fn tiny(&self) -> Workload {
        Workload {
            scale: match self.matrix {
                Matrix::M3 => 0.001,
                _ => 0.002,
            },
            nodes: 8,
            ..self.clone()
        }
    }
}

/// Where the failure of the workload's failure solves is placed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// Share of the reference solve's iterations completed at the failure.
    pub progress: f64,
    /// First of the ψ contiguous failed ranks (they wrap modulo N).
    pub first_rank: usize,
}

/// Ranks N/2… at 50 % of the reference iterations, as the paper's Table 2
/// has it, whatever the seed: the seed moves the right-hand side only.
///
/// A placement drawn from the seed made the virtual-time overhead read the
/// seed, not the code. Which ranks fail decides what a recovery costs: on
/// `thick_m1_n16` a failed set that wraps (ranks 14, 15, 0 or 15, 0, 1: two
/// separate pieces of the grid) reads 12.6 % where three adjacent blocks
/// read 16.4–17.4 %, a spread of 26 % of the median over ten seeds. When
/// they fail decides what a Shrink costs (the rest of the solve runs on
/// N − ψ nodes): a progress drawn from [0.2, 0.8] spread `mix_m3_n64` by
/// 11 % over ten seeds, 5 % with the progress fixed.
pub fn placement(nodes: usize) -> Placement {
    Placement {
        progress: 0.5,
        first_rank: nodes / 2,
    }
}

/// The iteration at whose boundary the failure strikes: inside the solve,
/// never at iteration 0 (nothing to reconstruct from) when there is room.
///
/// A checkpointed solve fails at the nearest iteration midway between two
/// checkpoints, so it rolls back half an interval — the expected loss —
/// whatever iteration count the seed's right-hand side gives. Where in the checkpoint sawtooth a failure lands is
/// otherwise the largest term of the C/R overhead (0 to 9 of ~30 iterations
/// here), and the metric's spread across seeds was wider than any bound.
pub fn failure_iteration(
    progress: f64,
    reference_iterations: usize,
    protection: Protection,
) -> u64 {
    let last = reference_iterations.saturating_sub(1).max(1);
    let at = ((progress * reference_iterations as f64) as usize).clamp(1, last);
    let Protection::Checkpoint { interval, .. } = protection else {
        return at as u64;
    };
    (0..)
        .map(|k| k * interval + interval / 2)
        .take_while(|&it| it <= last)
        .filter(|&it| it >= 1)
        .min_by_key(|&it| it.abs_diff(at))
        .unwrap_or(at) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_stays_within_phi_and_n() {
        assert_eq!(
            placement(128),
            Placement {
                progress: 0.5,
                first_rank: 64
            }
        );
        for w in all().iter().flat_map(|w| [w.clone(), w.tiny()]) {
            let p = placement(w.nodes);
            assert!(
                p.first_rank >= 1 && p.first_rank + w.phi < w.nodes,
                "{}: {p:?}: the psi = phi failed ranks are interior and do not wrap",
                w.name
            );
        }
        for progress in [0.2, 0.5, 0.8] {
            for protection in [Protection::Esr, CKPT] {
                let it = failure_iteration(progress, 40, protection);
                assert!((1..40).contains(&it), "{it}");
            }
        }
        assert_eq!(failure_iteration(0.5, 75, Protection::Esr), 37);
        assert_eq!(failure_iteration(0.2, 1, Protection::Esr), 1);
        assert_eq!(failure_iteration(0.8, 2, Protection::Esr), 1);
        // Checkpointed solves fail midway between two checkpoints.
        assert_eq!(failure_iteration(0.5, 28, CKPT), 15);
        assert_eq!(failure_iteration(0.5, 17, CKPT), 5);
        assert_eq!(failure_iteration(0.8, 17, CKPT), 15);
        assert_eq!(failure_iteration(0.2, 75, CKPT), 15);
        assert_eq!(
            failure_iteration(0.5, 4, CKPT),
            2,
            "no mid-interval point inside"
        );
    }

    #[test]
    fn cell_labels_are_unique_trace_names() {
        for w in all() {
            let mut seen = std::collections::BTreeSet::new();
            for c in &w.cells {
                assert!(
                    seen.insert(c.label.clone()),
                    "{} twice in {}",
                    c.label,
                    w.name
                );
                assert!(c
                    .label
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || "_.-".contains(ch)));
            }
            assert!(w.cells.iter().any(|c| c.kind == CellKind::Reference));
            assert!(w.cells.iter().any(|c| c.kind == CellKind::Undisturbed));
        }
        assert_eq!(by_name("mix_m3_n64").unwrap().cells.len(), 16);
        assert!(by_name("nope").is_none());
    }
}
