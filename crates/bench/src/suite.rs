//! The one solver driver of the harnesses: the paper's Sec. 7 experiment
//! grid — per matrix the reference run, the undisturbed runs with
//! φ ∈ {1, 3, 8} redundant copies, and ψ = φ simultaneous failures at the
//! start / center ranks per injection progress point — solved on demand,
//! each cell at most once per process.
//!
//! A [`Suite`] holds one generated matrix at a time (the views ask matrix
//! by matrix) and keeps a [`Summary`] per solved cell, not the
//! `ExperimentResult` with its solution vector; `esr_core::run_pcg` is
//! called here and nowhere else in the harnesses but `report`.

use crate::{BenchConfig, FailLocation};
use esr_core::{run_pcg, ExperimentResult, Problem, SolverConfig};
use parcomm::FailureScript;
use sparsemat::gen::suite::PaperMatrix;
use sparsemat::order::mean_row_bandwidth;
use std::collections::HashMap;

/// The paper's redundancy levels.
pub const PHIS: [usize; 3] = [1, 3, 8];
/// The paper's failure locations.
pub const LOCATIONS: [FailLocation; 2] = [FailLocation::Start, FailLocation::Center];

/// What is solved on one matrix: a column of the grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Run {
    /// Plain PCG, no redundancy: the paper's `t0`.
    Reference,
    /// Resilient PCG keeping `phi` copies, no failure.
    Undisturbed { phi: usize },
    /// Resilient PCG keeping `phi` copies, ψ = φ ranks failing at `loc`
    /// after fraction `progress` of the reference run's iterations.
    Failure {
        phi: usize,
        loc: FailLocation,
        progress: f64,
    },
}

impl Run {
    /// Every run of the grid at the given progress points:
    /// 4 + 6·|progress| per matrix.
    pub fn grid(progress: &[f64]) -> Vec<Run> {
        let mut runs = vec![Run::Reference];
        runs.extend(PHIS.map(|phi| Run::Undisturbed { phi }));
        for phi in PHIS {
            for loc in LOCATIONS {
                let at = |&progress| Run::Failure { phi, loc, progress };
                runs.extend(progress.iter().map(at));
            }
        }
        runs
    }
}

/// What the views read of a solved cell.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub vtime: f64,
    pub vtime_recovery: f64,
    pub iterations: usize,
    pub recoveries: usize,
    pub converged: bool,
    pub residual_deviation: f64,
}

/// What Table 1 reads of a generated matrix.
#[derive(Clone, Copy, Debug)]
pub struct MatrixInfo {
    /// Rows.
    pub n: usize,
    pub nnz: usize,
    /// Mean row bandwidth.
    pub bandwidth: f64,
}

/// The suite runner: generates each requested matrix, solves each
/// requested cell, and remembers both.
pub struct Suite {
    pub cfg: BenchConfig,
    current: Option<(PaperMatrix, Problem)>,
    infos: HashMap<PaperMatrix, MatrixInfo>,
    cells: Vec<(PaperMatrix, Run, Summary)>,
    solves: usize,
}

impl Suite {
    pub fn new(cfg: BenchConfig) -> Self {
        Suite {
            cfg,
            current: None,
            infos: HashMap::new(),
            cells: Vec::new(),
            solves: 0,
        }
    }

    /// A runner configured from the `ESR_*` environment variables.
    pub fn from_env() -> Self {
        Suite::new(BenchConfig::from_env())
    }

    /// Solves run so far.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// The analog of `id` with its right-hand side. The previous matrix
    /// is let go; clones share the block rows and factors solves derive.
    pub fn problem(&mut self, id: PaperMatrix) -> Problem {
        if self.current.as_ref().is_none_or(|(cur, _)| *cur != id) {
            self.release();
            let problem = self.cfg.problem(id);
            let a = &problem.a;
            let (n, nnz, bandwidth) = (a.n_rows(), a.nnz(), mean_row_bandwidth(a));
            self.infos.insert(id, MatrixInfo { n, nnz, bandwidth });
            self.current = Some((id, problem));
        }
        self.current.as_ref().unwrap().1.clone()
    }

    /// Size and shape of the analog of `id`.
    pub fn info(&mut self, id: PaperMatrix) -> MatrixInfo {
        if !self.infos.contains_key(&id) {
            self.problem(id);
        }
        self.infos[&id]
    }

    /// Let the current matrix go, reporting what its solves derived from
    /// it: one block and one factorization per node, however many solves.
    fn release(&mut self) {
        if let Some((id, problem)) = self.current.take() {
            let built = problem.static_counts();
            if built.blocks_built > 0 {
                println!(
                    "[static data] {id:?}: {} blocks extracted, {} factorizations",
                    built.blocks_built, built.factors_built
                );
            }
        }
    }

    /// `psi` simultaneous failures at `loc`, injected at fraction
    /// `progress` of the reference run of `id`.
    pub fn failures(
        &mut self,
        id: PaperMatrix,
        psi: usize,
        loc: FailLocation,
        progress: f64,
    ) -> FailureScript {
        let ref_iters = self.cell(id, Run::Reference).iterations;
        let at = ((ref_iters as f64 * progress) as u64).max(1);
        let nodes = self.cfg.nodes;
        FailureScript::simultaneous(at, loc.first_rank(nodes), psi, nodes)
    }

    /// One solve on the configured cluster: every harness solve but
    /// `report`'s comes through here.
    pub fn solve(
        &mut self,
        problem: &Problem,
        solver: &SolverConfig,
        script: FailureScript,
    ) -> ExperimentResult {
        self.solves += 1;
        run_pcg(problem, self.cfg.nodes, solver, self.cfg.cost, script)
            .expect("valid bench configuration")
    }

    /// The cell (`id`, `run`) of the grid, solved on first request.
    ///
    /// # Panics
    /// Panics when the solve does not converge, or a failure run does not
    /// recover exactly once.
    pub fn cell(&mut self, id: PaperMatrix, run: Run) -> Summary {
        if let Some((_, _, s)) = self.cells.iter().find(|(i, r, _)| (*i, *r) == (id, run)) {
            return *s;
        }
        let (solver, script) = match run {
            Run::Reference => (SolverConfig::reference(), FailureScript::none()),
            Run::Undisturbed { phi } => (SolverConfig::resilient(phi), FailureScript::none()),
            Run::Failure { phi, loc, progress } => (
                SolverConfig::resilient(phi),
                self.failures(id, phi, loc, progress),
            ),
        };
        let problem = self.problem(id);
        let res = self.solve(&problem, &solver, script);
        assert!(res.converged, "{id:?} {run:?}: did not converge");
        let expected = usize::from(matches!(run, Run::Failure { .. }));
        assert_eq!(res.recoveries, expected, "{id:?} {run:?}: recoveries");
        let summary = Summary {
            vtime: res.vtime,
            vtime_recovery: res.vtime_recovery,
            iterations: res.iterations,
            recoveries: res.recoveries,
            converged: res.converged,
            residual_deviation: res.residual_deviation,
        };
        self.cells.push((id, run, summary));
        summary
    }
}

impl Drop for Suite {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Suite {
        let var = |k: &str| match k {
            "ESR_SCALE" => Some("0.002".to_string()),
            "ESR_NODES" => Some("4".to_string()),
            _ => None,
        };
        Suite::new(BenchConfig::parse(var).unwrap())
    }

    #[test]
    fn grid_has_four_plus_six_per_progress_point_distinct_runs() {
        for progress in [&[0.5][..], &[0.2, 0.5, 0.8]] {
            let grid = Run::grid(progress);
            assert_eq!(grid.len(), 4 + 6 * progress.len());
            for (k, run) in grid.iter().enumerate() {
                assert!(!grid[..k].contains(run), "{run:?} twice");
            }
        }
    }

    #[test]
    fn a_cell_is_solved_once_and_shares_the_reference() {
        let mut suite = tiny();
        let id = PaperMatrix::M1;
        let run = Run::Failure {
            phi: 1,
            loc: FailLocation::Center,
            progress: 0.5,
        };
        let first = suite.cell(id, run);
        // The failure run needed the reference's iteration count.
        assert_eq!(suite.solves(), 2);
        assert_eq!((first.recoveries, first.converged), (1, true));
        let again = suite.cell(id, run);
        let t0 = suite.cell(id, Run::Reference);
        assert_eq!(suite.solves(), 2);
        assert_eq!(again.vtime.to_bits(), first.vtime.to_bits());
        assert!(first.vtime_recovery > 0.0 && t0.vtime_recovery == 0.0);
        // Both solves derived from one block and one factor per node.
        let built = suite.problem(id).static_counts();
        assert_eq!((built.blocks_built, built.factors_built), (4, 4));
    }

    #[test]
    fn matrix_info_outlives_the_matrix() {
        let mut suite = tiny();
        let m1 = suite.info(PaperMatrix::M1);
        suite.problem(PaperMatrix::M2);
        let again = suite.info(PaperMatrix::M1);
        assert_eq!((m1.n, m1.nnz), (again.n, again.nnz));
        assert!(matches!(suite.current, Some((PaperMatrix::M2, _))));
        assert_eq!(suite.solves(), 0);
    }
}
