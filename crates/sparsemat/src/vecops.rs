//! Dense vector kernels used throughout the solvers.
//!
//! These are the BLAS-1 operations of the PCG iteration (paper Alg. 1).
//! All are sequential per node — a node's share of a distributed vector is
//! small — and written as simple loops the compiler auto-vectorizes.

/// Dot product `xᵀy`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut s = 0.0;
    for (a, b) in x.iter().zip(y) {
        s += a * b;
    }
    s
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub(crate) fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// `y ← y + a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `y ← x + a·y` (the search-direction update `p ← z + βp`).
#[inline]
pub fn xpay(x: &[f64], a: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + a * *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        assert_eq!(norm2_sq(&x), 14.0);
        assert!((norm2(&x) - 14.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn xpay_is_search_direction_update() {
        let z = [1.0, 1.0];
        let mut p = [3.0, 4.0];
        xpay(&z, 0.5, &mut p); // p = z + 0.5 p
        assert_eq!(p, [2.5, 3.0]);
    }
}
