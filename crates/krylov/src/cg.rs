//! (Preconditioned) conjugate gradient — the paper's Alg. 1.

use crate::report::{SolveReport, StopReason};
use precond::Preconditioner;
use sparsemat::vecops::{axpy, dot, norm2, xpay};
use sparsemat::Csr;

/// Solve `A x = b` with PCG (paper Alg. 1): preconditioner `m ≈ A⁻¹`
/// applied as `z = M⁻¹ r`. Stops when `‖r‖₂ ≤ rel_tol · ‖b - A x₀‖₂` or
/// after `max_iter` iterations.
pub fn pcg(
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
    // r(0) = b - A x(0)
    let mut r = b.to_vec();
    let ax = a.mul_vec(&x);
    for (ri, axi) in r.iter_mut().zip(&ax) {
        *ri -= axi;
    }
    let r0_norm = norm2(&r);
    let target = rel_tol * r0_norm;

    // z(0) = M⁻¹ r(0), p(0) = z(0)
    let mut z = vec![0.0; n];
    m.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    if r0_norm <= f64::MIN_POSITIVE {
        return SolveReport {
            x,
            iterations: 0,
            stop: StopReason::Converged,
        };
    }

    for j in 0..max_iter {
        a.spmv(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            return SolveReport {
                x,
                iterations: j,
                stop: StopReason::Breakdown,
            };
        }
        let alpha = rz / pap; // line 3
        axpy(alpha, &p, &mut x); // line 4
        axpy(-alpha, &ap, &mut r); // line 5
        let rnorm = norm2(&r);
        if rnorm <= target {
            return SolveReport {
                x,
                iterations: j + 1,
                stop: StopReason::Converged,
            };
        }
        m.apply(&r, &mut z); // line 6
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz; // line 7
        rz = rz_next;
        xpay(&z, beta, &mut p); // line 8: p = z + β p
    }
    SolveReport {
        x,
        iterations: max_iter,
        stop: StopReason::MaxIterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use precond::{BlockJacobi, BlockSolver, Identity, Ilu0, Jacobi};
    use sparsemat::gen::{poisson2d, poisson3d, random_rhs, rhs_for_ones};

    /// Unpreconditioned CG.
    fn cg(a: &Csr, b: &[f64], x0: &[f64], rel_tol: f64, max_iter: usize) -> SolveReport {
        pcg(a, b, x0, &Identity::new(a.n_rows()), rel_tol, max_iter)
    }

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
    fn cg_solves_poisson() {
        let a = poisson2d(10, 10);
        let b = rhs_for_ones(&a);
        let rep = cg(&a, &b, &vec![0.0; 100], 1e-10, 1000);
        check_solution(&a, &rep, &b, 1e-8);
        for xi in &rep.x {
            assert!((xi - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let a = poisson2d(20, 20);
        let b = random_rhs(400, 7);
        let x0 = vec![0.0; 400];
        let plain = cg(&a, &b, &x0, 1e-8, 10_000);
        let ilu = Ilu0::new(&a).unwrap();
        let pre = pcg(&a, &b, &x0, &ilu, 1e-8, 10_000);
        assert!(plain.converged() && pre.converged());
        assert!(
            pre.iterations < plain.iterations,
            "ilu {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn all_preconditioners_converge() {
        let a = poisson3d(6, 6, 6);
        let b = random_rhs(216, 3);
        let x0 = vec![0.0; 216];
        let jacobi = Jacobi::new(&a).unwrap();
        let ilu = Ilu0::new(&a).unwrap();
        let bj = BlockJacobi::with_blocks(&a, 4, BlockSolver::ExactLdl).unwrap();
        let precs: [&dyn Preconditioner; 3] = [&jacobi, &ilu, &bj];
        for m in precs {
            let rep = pcg(&a, &b, &x0, m, 1e-9, 5000);
            check_solution(&a, &rep, &b, 1e-7);
        }
    }

    #[test]
    fn exact_preconditioner_converges_in_one_iteration() {
        let a = poisson2d(7, 7);
        let b = random_rhs(49, 5);
        let exact = BlockJacobi::with_blocks(&a, 1, BlockSolver::ExactLdl).unwrap();
        let rep = cg(&a, &b, &vec![0.0; 49], 1e-10, 50);
        let rep_exact = pcg(&a, &b, &vec![0.0; 49], &exact, 1e-10, 50);
        assert!(rep_exact.iterations <= 2, "{}", rep_exact.iterations);
        assert!(rep_exact.iterations < rep.iterations);
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = poisson2d(8, 8);
        let b = rhs_for_ones(&a);
        let rep = cg(&a, &b, &vec![1.0; 64], 1e-8, 10);
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
        // This RHS makes the very first search direction have negative
        // curvature: p₀ᵀAp₀ = [1,-1]·A·[1,-1]ᵀ = -2.
        let rep = cg(&a, &[1.0, -1.0], &[0.0, 0.0], 1e-10, 100);
        assert_eq!(rep.stop, StopReason::Breakdown);
    }
}
