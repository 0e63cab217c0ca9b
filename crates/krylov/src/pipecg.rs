//! Pipelined (communication-hiding) preconditioned conjugate gradient —
//! the Ghysels–Vanroose recurrence form used by Levonyak, Pacher &
//! Gansterer (arXiv:1912.09230) as the basis of their resilient
//! communication-hiding PCG.
//!
//! Standard PCG needs two dependent global reductions per iteration, each
//! on the critical path. The pipelined form fuses them into **one**
//! reduction of `(γ = rᵀu, δ = wᵀu, ‖r‖²)` and restructures the
//! recurrences so that the SpMV and the preconditioner application are
//! *independent* of the reduction result — a distributed implementation
//! overlaps them with the reduction (see `esr_core::pipecg`). The price is
//! four auxiliary vectors tied by the invariants
//!
//! ```text
//! u = M⁻¹ r,   w = A u,   s = A p,   q = M⁻¹ s,   z = A q,
//! ```
//!
//! which also underlie the ESR reconstruction of the distributed version:
//! every auxiliary vector is recomputable from `u` and `p` alone.
//!
//! This sequential version is the numerical reference: it performs the
//! exact same floating-point recurrences as the distributed solver, so the
//! two can be validated against each other.

use crate::report::{SolveReport, StopReason};
use precond::Preconditioner;
use sparsemat::vecops::{axpy, dot, norm2, xpay};
use sparsemat::Csr;

/// Solve `A x = b` with pipelined PCG. Stops when
/// `‖r‖₂ ≤ rel_tol · ‖b - A x₀‖₂` (recurrence residual, evaluated at the
/// top of each iteration) or after `max_iter` iterations.
pub fn pipecg(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    m: &dyn Preconditioner,
    rel_tol: f64,
    max_iter: usize,
) -> SolveReport {
    let n = a.n_rows();
    assert_eq!(b.len(), n);
    assert_eq!(x0.len(), n);
    assert_eq!(m.dim(), n);

    let mut x = x0.to_vec();
    // r(0) = b − A x(0); u(0) = M⁻¹ r(0); w(0) = A u(0).
    let mut r = b.to_vec();
    let ax = a.mul_vec(&x);
    for (ri, axi) in r.iter_mut().zip(&ax) {
        *ri -= axi;
    }
    let mut u = vec![0.0; n];
    m.apply(&r, &mut u);
    let mut w = a.mul_vec(&u);

    let r0_norm = norm2(&r);
    let target = rel_tol * r0_norm;
    if r0_norm <= f64::MIN_POSITIVE {
        return SolveReport {
            x,
            iterations: 0,
            stop: StopReason::Converged,
        };
    }

    let mut z = vec![0.0; n]; // z(j) = A q(j)
    let mut q = vec![0.0; n]; // q(j) = M⁻¹ s(j)
    let mut s = vec![0.0; n]; // s(j) = A p(j)
    let mut p = vec![0.0; n];
    let mut mbuf = vec![0.0; n]; // m(j) = M⁻¹ w(j)
    let mut nbuf = vec![0.0; n]; // n(j) = A m(j)
    let mut gamma_prev = 0.0f64;
    let mut alpha_prev = 0.0f64;
    let mut iterations = 0usize;

    loop {
        // The fused reduction values of iteration j; in the distributed
        // version these travel in ONE overlapped all-reduce.
        let rnorm = norm2(&r);
        if rnorm <= target {
            return SolveReport {
                x,
                iterations,
                stop: StopReason::Converged,
            };
        }
        if iterations == max_iter {
            return SolveReport {
                x,
                iterations,
                stop: StopReason::MaxIterations,
            };
        }
        let gamma = dot(&r, &u);
        let delta = dot(&w, &u);

        // Independent of the reduction: m(j) = M⁻¹ w(j), n(j) = A m(j) —
        // this is the work a distributed solver hides the reduction behind.
        m.apply(&w, &mut mbuf);
        a.spmv(&mbuf, &mut nbuf);

        let alpha;
        if iterations == 0 {
            if delta <= 0.0 || !delta.is_finite() {
                return breakdown(x, iterations);
            }
            alpha = gamma / delta;
            z.copy_from_slice(&nbuf);
            q.copy_from_slice(&mbuf);
            s.copy_from_slice(&w);
            p.copy_from_slice(&u);
        } else {
            let beta = gamma / gamma_prev;
            // In exact arithmetic δ − β γ / α(j-1) = pᵀA p.
            let denom = delta - beta * gamma / alpha_prev;
            if denom <= 0.0 || !denom.is_finite() {
                return breakdown(x, iterations);
            }
            alpha = gamma / denom;
            xpay(&nbuf, beta, &mut z); // z = n + β z
            xpay(&mbuf, beta, &mut q); // q = m + β q
            xpay(&w, beta, &mut s); //    s = w + β s
            xpay(&u, beta, &mut p); //    p = u + β p
        }
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &s, &mut r);
        axpy(-alpha, &q, &mut u);
        axpy(-alpha, &z, &mut w);
        gamma_prev = gamma;
        alpha_prev = alpha;
        iterations += 1;
    }
}

fn breakdown(x: Vec<f64>, iterations: usize) -> SolveReport {
    SolveReport {
        x,
        iterations,
        stop: StopReason::Breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::pcg;
    use precond::{BlockJacobi, BlockSolver, Identity, Ilu0, Jacobi};
    use sparsemat::gen::{poisson2d, poisson3d, random_rhs, rhs_for_ones};

    fn check_solution(a: &Csr, rep: &SolveReport, b: &[f64], tol: f64) {
        assert!(rep.converged(), "did not converge: {:?}", rep.stop);
        let mut r = a.mul_vec(&rep.x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        let rel = norm2(&r) / norm2(b);
        assert!(rel <= tol, "true residual {rel} > {tol}");
    }

    #[test]
    fn pipecg_solves_poisson_unpreconditioned() {
        let a = poisson2d(10, 10);
        let b = rhs_for_ones(&a);
        let rep = pipecg(&a, &b, &vec![0.0; 100], &Identity::new(100), 1e-10, 1000);
        check_solution(&a, &rep, &b, 1e-8);
        for xi in &rep.x {
            assert!((xi - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pipecg_matches_pcg_solution_and_iterations() {
        // The pipelined recurrences are a reformulation, not a different
        // method: same Krylov spaces, so (in well-conditioned cases) the
        // same convergence history up to rounding.
        let a = poisson3d(6, 6, 6);
        let b = random_rhs(216, 3);
        let x0 = vec![0.0; 216];
        let ilu = Ilu0::new(&a).unwrap();
        let classic = pcg(&a, &b, &x0, &ilu, 1e-9, 5000);
        let piped = pipecg(&a, &b, &x0, &ilu, 1e-9, 5000);
        assert!(classic.converged() && piped.converged());
        assert!(
            classic.iterations.abs_diff(piped.iterations) <= 2,
            "classic {} vs pipelined {}",
            classic.iterations,
            piped.iterations
        );
        let max_diff = classic
            .x
            .iter()
            .zip(&piped.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-7, "solutions diverged: {max_diff}");
    }

    #[test]
    fn pipecg_with_common_preconditioners() {
        let a = poisson2d(14, 14);
        let b = random_rhs(196, 9);
        let x0 = vec![0.0; 196];
        let jacobi = Jacobi::new(&a).unwrap();
        let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
        for m in [&jacobi as &dyn Preconditioner, &bj] {
            let rep = pipecg(&a, &b, &x0, m, 1e-9, 5000);
            check_solution(&a, &rep, &b, 1e-7);
        }
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = poisson2d(8, 8);
        let b = rhs_for_ones(&a);
        let rep = pipecg(&a, &b, &vec![1.0; 64], &Identity::new(64), 1e-8, 10);
        assert_eq!(rep.iterations, 0);
        assert!(rep.converged());
    }

    #[test]
    fn breakdown_on_indefinite() {
        let mut coo = sparsemat::Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push_sym(0, 1, 2.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let rep = pipecg(&a, &[1.0, -1.0], &[0.0, 0.0], &Identity::new(2), 1e-10, 100);
        assert_eq!(rep.stop, StopReason::Breakdown);
    }
}
