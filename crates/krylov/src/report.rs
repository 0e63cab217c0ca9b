//! Solve outcome reporting.

/// Why a solver stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StopReason {
    /// Residual tolerance reached.
    Converged,
    /// Iteration limit hit before convergence.
    MaxIterations,
    /// The iteration broke down (division by ~zero curvature / ρ).
    Breakdown,
}

/// Outcome of an iterative solve.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Why the solver stopped.
    pub(crate) stop: StopReason,
}

impl SolveReport {
    /// True if converged.
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }
}
