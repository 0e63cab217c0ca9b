//! The stationary Jacobi iteration.
//!
//! Chen's original ESR paper covers the stationary methods (the iterate `x`
//! itself is the communicated vector), and the paper's Sec. 1 lists them
//! among the algorithms its multi-failure extension applies to. The
//! sequential Jacobi iteration here is the reference the ESR-protected
//! distributed one in `esr-core` is compared against sweep for sweep
//! (`tests/distributed.rs`); Gauss–Seidel, SOR and SSOR, which have no
//! distributed counterpart, are not provided.

use crate::report::{SolveReport, StopReason};
use sparsemat::vecops::norm2;
use sparsemat::Csr;

fn true_residual(a: &Csr, x: &[f64], b: &[f64], r: &mut [f64]) -> f64 {
    a.spmv(x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    norm2(r)
}

/// Jacobi iteration: `x ← x + D⁻¹ (b - A x)`, stopped when the true
/// residual of the new iterate has dropped by `rel_tol`.
pub fn jacobi_iter(a: &Csr, b: &[f64], x0: &[f64], rel_tol: f64, max_iter: usize) -> SolveReport {
    let n = a.n_rows();
    let diag = a.diag();
    let mut x = x0.to_vec();
    let mut xnew = vec![0.0; n];
    let mut r = vec![0.0; n];
    let r0_norm = true_residual(a, &x, b, &mut r);
    let target = rel_tol * r0_norm;
    let mut history = vec![r0_norm];
    let mut stop = match r0_norm <= f64::MIN_POSITIVE {
        true => StopReason::Converged,
        false => StopReason::MaxIterations,
    };
    let mut iterations = 0;
    while stop == StopReason::MaxIterations && iterations < max_iter {
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut s = b[i];
            for (c, v) in cols.iter().zip(vals) {
                if *c as usize != i {
                    s -= v * x[*c as usize];
                }
            }
            xnew[i] = s / diag[i];
        }
        x.copy_from_slice(&xnew);
        iterations += 1;
        let rnorm = true_residual(a, &x, b, &mut r);
        history.push(rnorm);
        if !rnorm.is_finite() {
            stop = StopReason::Breakdown;
        } else if rnorm <= target {
            stop = StopReason::Converged;
        }
    }
    SolveReport {
        x,
        iterations,
        residual_norm: *history.last().unwrap(),
        initial_residual_norm: r0_norm,
        stop,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsemat::gen::{poisson2d, rhs_for_ones};

    #[test]
    fn jacobi_converges_on_dd_system() {
        let a = poisson2d(6, 6);
        let b = rhs_for_ones(&a);
        let rep = jacobi_iter(&a, &b, &vec![0.0; 36], 1e-8, 10_000);
        assert!(rep.converged(), "stop={:?}", rep.stop);
        for xi in &rep.x {
            assert!((xi - 1.0).abs() < 1e-5, "{xi}");
        }
    }

    #[test]
    fn history_tracks_sweeps() {
        let a = poisson2d(4, 4);
        let b = rhs_for_ones(&a);
        let rep = jacobi_iter(&a, &b, &[0.0; 16], 1e-6, 1000);
        assert!(rep.converged());
        assert_eq!(rep.history.len(), rep.iterations + 1);
        let capped = jacobi_iter(&a, &b, &[0.0; 16], 1e-6, 3);
        assert_eq!(capped.stop, StopReason::MaxIterations);
        assert_eq!((capped.iterations, capped.history.len()), (3, 4));
        assert_eq!(capped.history[..], rep.history[..4]);
    }
}
