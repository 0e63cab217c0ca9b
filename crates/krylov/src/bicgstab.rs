//! Preconditioned BiCGSTAB (van der Vorst).
//!
//! The paper states its ESR modifications also apply to "preconditioned
//! bi-conjugate gradient stabilized (BiCGSTAB)" (Sec. 1). This sequential
//! version is the reference for the distributed ESR-protected BiCGSTAB in
//! `esr-core`.

use crate::report::{SolveReport, StopReason};
use precond::Preconditioner;
use sparsemat::vecops::{axpy, dot, norm2};
use sparsemat::Csr;

/// Solve `A x = b` with right-preconditioned BiCGSTAB. Works for general
/// (non-symmetric) `A`; the shadow residual is fixed to `r(0)`.
pub fn bicgstab(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    m: &dyn Preconditioner,
    rel_tol: f64,
    max_iter: usize,
) -> SolveReport {
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut r = b.to_vec();
    let ax = a.mul_vec(&x);
    for (ri, axi) in r.iter_mut().zip(&ax) {
        *ri -= axi;
    }
    let r0_norm = norm2(&r);
    let target = rel_tol * r0_norm;
    if r0_norm <= f64::MIN_POSITIVE {
        return SolveReport {
            x,
            iterations: 0,
            stop: StopReason::Converged,
        };
    }

    let rhat0 = r.clone();
    let mut p = r.clone();
    let mut rho = dot(&rhat0, &r);
    let mut v = vec![0.0; n];
    let mut phat = vec![0.0; n];
    let mut shat = vec![0.0; n];
    let mut t = vec![0.0; n];

    for j in 0..max_iter {
        if rho.abs() < f64::MIN_POSITIVE || !rho.is_finite() {
            return SolveReport {
                x,
                iterations: j,
                stop: StopReason::Breakdown,
            };
        }
        m.apply(&p, &mut phat);
        a.spmv(&phat, &mut v);
        let rhat0_v = dot(&rhat0, &v);
        if rhat0_v.abs() < f64::MIN_POSITIVE {
            return SolveReport {
                x,
                iterations: j,
                stop: StopReason::Breakdown,
            };
        }
        let alpha = rho / rhat0_v;
        // s = r - α v (reuse r's storage conceptually; keep s explicit)
        let mut s = r.clone();
        axpy(-alpha, &v, &mut s);
        let snorm = norm2(&s);
        if snorm <= target {
            axpy(alpha, &phat, &mut x);
            return SolveReport {
                x,
                iterations: j + 1,
                stop: StopReason::Converged,
            };
        }
        m.apply(&s, &mut shat);
        a.spmv(&shat, &mut t);
        let tt = dot(&t, &t);
        if tt <= 0.0 || !tt.is_finite() {
            return SolveReport {
                x,
                iterations: j,
                stop: StopReason::Breakdown,
            };
        }
        let omega = dot(&t, &s) / tt;
        axpy(alpha, &phat, &mut x);
        axpy(omega, &shat, &mut x);
        // r = s - ω t
        r.copy_from_slice(&s);
        axpy(-omega, &t, &mut r);
        let rnorm = norm2(&r);
        if rnorm <= target {
            return SolveReport {
                x,
                iterations: j + 1,
                stop: StopReason::Converged,
            };
        }
        let rho_next = dot(&rhat0, &r);
        let beta = (rho_next / rho) * (alpha / omega);
        rho = rho_next;
        // p = r + β (p - ω v)
        for ((pi, ri), vi) in p.iter_mut().zip(&r).zip(&v) {
            *pi = ri + beta * (*pi - omega * vi);
        }
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
    use precond::{Identity, Ilu0, Jacobi};
    use sparsemat::gen::{poisson2d, random_rhs};
    use sparsemat::Coo;

    fn check(a: &Csr, rep: &SolveReport, b: &[f64], tol: f64) {
        assert!(rep.converged(), "stop={:?}", rep.stop);
        let mut r = a.mul_vec(&rep.x);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri -= bi;
        }
        assert!(norm2(&r) / norm2(b) < tol);
    }

    #[test]
    fn solves_spd_system() {
        let a = poisson2d(10, 10);
        let b = random_rhs(100, 1);
        let rep = bicgstab(&a, &b, &vec![0.0; 100], &Identity::new(100), 1e-9, 2000);
        check(&a, &rep, &b, 1e-7);
    }

    #[test]
    fn solves_nonsymmetric_system() {
        // Convection–diffusion-like: Poisson + asymmetric convection term.
        let base = poisson2d(8, 8);
        let mut coo = Coo::new(64, 64);
        for r in 0..64 {
            let (cols, vals) = base.row(r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(r, *c as usize, *v);
            }
            if r + 1 < 64 {
                coo.push(r, r + 1, 0.3); // upwind bias
            }
        }
        let a = coo.to_csr();
        let b = random_rhs(64, 2);
        let rep = bicgstab(&a, &b, &vec![0.0; 64], &Identity::new(64), 1e-9, 2000);
        check(&a, &rep, &b, 1e-7);
    }

    #[test]
    fn preconditioning_helps() {
        let a = poisson2d(16, 16);
        let b = random_rhs(256, 3);
        let x0 = vec![0.0; 256];
        let plain = bicgstab(&a, &b, &x0, &Identity::new(256), 1e-8, 5000);
        let ilu = Ilu0::new(&a).unwrap();
        let pre = bicgstab(&a, &b, &x0, &ilu, 1e-8, 5000);
        assert!(plain.converged() && pre.converged());
        assert!(pre.iterations < plain.iterations);
    }

    #[test]
    fn jacobi_preconditioned_converges() {
        let a = poisson2d(9, 9);
        let b = random_rhs(81, 4);
        let jac = Jacobi::new(&a).unwrap();
        let rep = bicgstab(&a, &b, &vec![0.0; 81], &jac, 1e-9, 2000);
        check(&a, &rep, &b, 1e-7);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = poisson2d(4, 4);
        let rep = bicgstab(&a, &[0.0; 16], &[0.0; 16], &Identity::new(16), 1e-9, 10);
        assert_eq!(rep.iterations, 0);
    }
}
