//! The failure grid: every recovery scenario is a [`Cell`], solved beside
//! its failure-free *twin* — the same problem, cluster size and
//! configuration run with `FailureScript::none()` — and judged against it.
//! Problems and twins are cached, so each twin is solved once per test
//! binary.
//!
//! # The judge
//!
//! [`Outcome::judge`] returns every check a failure cell fails. The margins
//! are the widest values over the ~600 cells the six recovery binaries
//! judge (debug profile):
//!
//! * [`Check::Script`]: cell and twin converged; the cell recovered the
//!   events and ranks its schedule strikes (an event naming only retired
//!   ranks is inert) and retired the ranks its policy leaves uncovered;
//!   each recovery left a substep timeline whose last attempt ran every
//!   substep of its protection flavor.
//! * [`Check::Iterations`]: the twin's iteration count, exactly (k = 0
//!   under every protection and policy; no cell differed).
//! * [`Check::TrueResidual`]: `true_residual` at most 2× the twin's. The
//!   ratios seen lie in 0.89–1.0000017 (the widest: BiCGSTAB, Shrink,
//!   `poisson2d(64, 64)`, N = 16).
//! * [`Check::ResidualGap`]: `|true_residual − solver_residual|` at most
//!   1e-12·‖b‖. Widest: 7.0e-15·‖b‖ (pipelined PCG, ψ = 3 at N = 13).
//! * [`Check::Solution`]: `max |x − x*| < 1e-6`, `x*` the ones vector, or
//!   the twin's `x` on a random right-hand side. Widest: 1.1e-7
//!   (BiCGSTAB, back-to-back events at φ = 1).
//! * [`Check::Bitwise`]: checkpoint/restart under Replace or a spare pool
//!   covering every failed rank rolls back onto the same partition and
//!   replays the lost iterations, so it *is* its twin: iterations, both
//!   residuals and every entry of `x`, to the bit (~100 cells).
//!
//! The residual gap is what tells an exact reconstruction from a loose one.
//! With the inner solve of the x reconstruction stopped at
//! `inner_rel_tol = 1e-6` instead of 1e-14, PCG under Replace (ranks 2–3 of
//! 7 at iteration 5) still takes the twin's iterations and ends with
//! `max |x − 1|` = 3.1e-8, but its gap is 3.7e-8·‖b‖ and its true residual
//! 9.4× the twin's (`policy_matrix::the_judge_rejects_a_loose_inner_solve`).

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

use esr_core::{
    run, ExperimentResult, Problem, Protection, RecoveryPolicy, SolverConfig, SolverKind as Solver,
};
use parcomm::{CostModel, FailAt, FailureEvent, FailureScript};
use sparsemat::Csr;

/// A system matrix, built on first use and cached by `name` (so a name
/// stands for one matrix). `rhs_seed` `None` gives the ones solution
/// (`b = A·1`), `Some(seed)` a seeded random `b`.
#[derive(Clone, Copy)]
pub struct Matrix {
    pub name: &'static str,
    pub build: fn() -> Csr,
    pub rhs_seed: Option<u64>,
}

/// The ones-solution [`Matrix`] built by `$build`, named by its text.
macro_rules! matrix {
    ($build:expr) => {
        $crate::common::grid::Matrix {
            name: stringify!($build),
            build: || $build,
            rhs_seed: None,
        }
    };
}
pub(crate) use matrix;

/// One recovery scenario.
#[derive(Clone)]
pub struct Cell {
    pub protection: Protection,
    pub policy: RecoveryPolicy,
    pub solver: Solver,
    pub schedule: FailureScript,
    pub matrix: Matrix,
    pub nodes: usize,
    pub phi: usize,
    /// A further change to the configuration the cell's fields build (the
    /// preconditioner, the inner solve, tracing); most cells leave it.
    pub tune: fn(&mut SolverConfig),
}

impl Cell {
    /// ESR under Replace, blocking PCG.
    pub fn new(matrix: Matrix, nodes: usize, phi: usize, schedule: FailureScript) -> Self {
        Cell {
            protection: Protection::Esr,
            policy: RecoveryPolicy::Replace,
            solver: Solver::Pcg,
            schedule,
            matrix,
            nodes,
            phi,
            tune: |_| {},
        }
    }

    fn config(&self) -> SolverConfig {
        let mut cfg = SolverConfig::resilient_with_policy(self.phi, self.policy);
        if let Some(res) = cfg.resilience.take() {
            cfg.resilience = Some(res.with_protection(self.protection.clone()));
        }
        (self.tune)(&mut cfg);
        cfg
    }

    pub fn label(&self) -> String {
        let events: Vec<String> = (self.schedule.events().iter())
            .map(|e| format!("{:?} at {:?}", e.ranks, e.when))
            .collect();
        let (protection, solver, policy) = (&self.protection, self.solver, self.policy);
        let (matrix, nodes, phi) = (self.matrix.name, self.nodes, self.phi);
        format!(
            "{protection:?} × {solver:?} × {policy:?} on {matrix} (N = {nodes}, φ = {phi}), \
             failing {}",
            events.join(", ")
        )
    }

    /// (recoveries, ranks recovered, ranks retired) the schedule strikes.
    fn expected(&self) -> (usize, usize, usize) {
        let mut pool = match self.policy {
            RecoveryPolicy::Replace => usize::MAX,
            RecoveryPolicy::Spares(k) => k,
            RecoveryPolicy::Shrink => 0,
        };
        let (mut recoveries, mut recovered) = (0, 0);
        let mut retired = BTreeSet::new();
        for e in self.schedule.events() {
            let fresh: Vec<usize> = (e.ranks.iter().copied())
                .filter(|r| !retired.contains(r))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            recoveries += usize::from(matches!(e.when, FailAt::Iteration(_)));
            recovered += fresh.len();
            for r in fresh {
                match pool {
                    0 => _ = retired.insert(r),
                    _ => pool -= 1,
                }
            }
        }
        (recoveries, recovered, retired.len())
    }
}

/// `base` once per solver × policy × schedule, in that nesting order.
pub fn grid(
    base: &Cell,
    solvers: &[Solver],
    policies: &[RecoveryPolicy],
    schedules: &[FailureScript],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &solver in solvers {
        for &policy in policies {
            for schedule in schedules {
                cells.push(Cell {
                    solver,
                    policy,
                    schedule: schedule.clone(),
                    ..base.clone()
                });
            }
        }
    }
    cells
}

/// `first` fail at iteration `at`; each `(substep, rank)` of `then` fails
/// at that recovery substep of the event.
pub fn overlap(at: u64, first: Vec<usize>, then: &[(u32, usize)]) -> FailureScript {
    let during = then.iter().map(|&(substep, rank)| FailureEvent {
        when: FailAt::RecoverySubstep {
            after_iteration: at,
            substep,
        },
        ranks: vec![rank],
    });
    let initial = FailureEvent {
        when: FailAt::Iteration(at),
        ranks: first,
    };
    FailureScript::new(std::iter::once(initial).chain(during).collect())
}

/// What a judge check found wrong.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    Script,
    Iterations,
    TrueResidual,
    ResidualGap,
    Solution,
    Bitwise,
}

/// A solved cell and its twin.
pub struct Outcome {
    pub res: ExperimentResult,
    pub twin: Arc<ExperimentResult>,
    cell: Cell,
    b_norm: f64,
}

fn problem(matrix: Matrix) -> Problem {
    static PROBLEMS: LazyLock<Mutex<HashMap<&'static str, Problem>>> =
        LazyLock::new(Default::default);
    let mut problems = PROBLEMS.lock().unwrap();
    (problems.entry(matrix.name))
        .or_insert_with(|| match matrix.rhs_seed {
            None => Problem::with_ones_solution((matrix.build)()),
            Some(seed) => Problem::with_random_rhs((matrix.build)(), seed),
        })
        .clone()
}

/// Solve `cell` and (once per binary) its twin.
pub fn solve(cell: &Cell) -> Outcome {
    type Twin = Arc<OnceLock<Arc<ExperimentResult>>>;
    static TWINS: LazyLock<Mutex<HashMap<String, Twin>>> = LazyLock::new(Default::default);
    let problem = problem(cell.matrix);
    let cfg = cell.config();
    let solve = |script| {
        let res = run(
            cell.solver,
            &problem,
            cell.nodes,
            &cfg,
            CostModel::default(),
            script,
        );
        res.unwrap_or_else(|e| panic!("{}: {e}", cell.label()))
    };
    let key = format!(
        "{} {} {:?} {cfg:?}",
        cell.matrix.name, cell.nodes, cell.solver
    );
    let slot = TWINS.lock().unwrap().entry(key).or_default().clone();
    // The twin solves beside the cell: a solve runs one node at a time.
    let (res, twin) = std::thread::scope(|s| {
        let twin = s.spawn(|| {
            let twin = slot.get_or_init(|| Arc::new(solve(FailureScript::none())));
            twin.clone()
        });
        (solve(cell.schedule.clone()), twin.join().unwrap())
    });
    Outcome {
        res,
        twin,
        b_norm: problem.b.iter().map(|v| v * v).sum::<f64>().sqrt(),
        cell: cell.clone(),
    }
}

/// Solve `cell` and assert that it passes the judge.
pub fn check(cell: &Cell) -> Outcome {
    let out = solve(cell);
    if let Err(failed) = out.judge() {
        let lines: Vec<String> = (failed.iter())
            .map(|(check, why)| format!("{check:?}: {why}"))
            .collect();
        panic!("{}:\n    {}", cell.label(), lines.join("\n    "));
    }
    out
}

impl Outcome {
    /// `max |x − x*|`: `x*` is the ones vector, or the twin's `x` on a
    /// random right-hand side.
    pub fn solution_error(&self) -> f64 {
        let exact = |i: usize| match self.cell.matrix.rhs_seed {
            None => 1.0,
            Some(_) => self.twin.x[i],
        };
        (self.res.x.iter().enumerate())
            .map(|(i, v)| (v - exact(i)).abs())
            .fold(0.0, f64::max)
    }

    /// Every check of the module doc this cell fails, with what it saw.
    pub fn judge(&self) -> Result<(), Vec<(Check, String)>> {
        let (res, twin, cell) = (&self.res, &*self.twin, &self.cell);
        let scripted = cell.expected();
        let struck = (res.recoveries, res.ranks_recovered, res.retired_nodes());
        let (flavor, substeps) = match cell.protection {
            Protection::Esr => ("esr", ["setup", "gather", "rebuild", "xsolve", "commit"]),
            Protection::Checkpoint(_) => ("cr", ["setup", "fetch", "epoch", "idle", "commit"]),
        };
        let timelines = res.recovery_timelines.len() == scripted.0
            && res.recovery_timelines.iter().all(|tl| {
                let last = tl.segments.iter().map(|s| s.attempt).max();
                let ran =
                    |want| (tl.segments.iter()).any(|s| Some(s.attempt) == last && s.label == want);
                tl.flavor == flavor
                    && tl.segments.iter().all(|s| s.vtime >= 0.0)
                    && substeps.into_iter().all(ran)
            });
        let ratio = res.true_residual / twin.true_residual;
        let gap = (res.true_residual - res.solver_residual).abs() / self.b_norm;
        let err = self.solution_error();
        let covered = match cell.policy {
            RecoveryPolicy::Replace => true,
            RecoveryPolicy::Spares(k) => k >= scripted.1,
            RecoveryPolicy::Shrink => false,
        };
        let bits = |r: &ExperimentResult| {
            let x: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
            (
                r.iterations,
                r.solver_residual.to_bits(),
                r.true_residual.to_bits(),
                x,
            )
        };
        let rollback = matches!(cell.protection, Protection::Checkpoint(_)) && covered;
        let checks = [
            (
                Check::Script,
                res.converged && twin.converged && struck == scripted && timelines,
                format!(
                    "converged {}, twin {}; (recoveries, recovered, retired) {struck:?}, \
                     scripted {scripted:?}; timelines as scripted: {timelines}",
                    res.converged, twin.converged
                ),
            ),
            (
                Check::Iterations,
                res.iterations == twin.iterations,
                format!(
                    "{} iterations, the twin {}",
                    res.iterations, twin.iterations
                ),
            ),
            (
                Check::TrueResidual,
                ratio <= 2.0,
                format!("true residual {ratio:.3}× the twin's"),
            ),
            (
                Check::ResidualGap,
                gap <= 1e-12,
                format!("gap {gap:.2e}·‖b‖"),
            ),
            (
                Check::Solution,
                err < 1e-6,
                format!("max |x − x*| = {err:.2e}"),
            ),
            (
                Check::Bitwise,
                !rollback || bits(res) == bits(twin),
                "left its twin".into(),
            ),
        ];
        let failed: Vec<_> = (checks.into_iter())
            .filter(|(_, ok, _)| !ok)
            .map(|(check, _, why)| (check, why))
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(failed)
        }
    }
}
