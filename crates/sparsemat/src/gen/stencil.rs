//! Regular-grid stencil generators (banded patterns).

use crate::coo::Coo;
use crate::csr::Csr;
use crate::rng::Rng;

/// 2-D Poisson equation, 5-point finite-difference stencil with Dirichlet
/// boundary: the classic SPD model problem. `n = nx·ny`, bandwidth `nx`.
pub fn poisson2d(nx: usize, ny: usize) -> Csr {
    let n = nx * ny;
    let mut coo = Coo::with_capacity(n, n, 5 * n);
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            coo.push(i, i, 4.0);
            if x + 1 < nx {
                coo.push_sym(i, idx(x + 1, y), -1.0);
            }
            if y + 1 < ny {
                coo.push_sym(i, idx(x, y + 1), -1.0);
            }
        }
    }
    coo.to_csr()
}

/// 3-D Poisson equation, 7-point stencil with Dirichlet boundary.
/// `n = nx·ny·nz`. Paper analog class: **M1'** (parabolic_fem — ~7 nnz/row,
/// narrow band).
pub fn poisson3d(nx: usize, ny: usize, nz: usize) -> Csr {
    let n = nx * ny * nz;
    let mut coo = Coo::with_capacity(n, n, 7 * n);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                coo.push(i, i, 6.0);
                if x + 1 < nx {
                    coo.push_sym(i, idx(x + 1, y, z), -1.0);
                }
                if y + 1 < ny {
                    coo.push_sym(i, idx(x, y + 1, z), -1.0);
                }
                if z + 1 < nz {
                    coo.push_sym(i, idx(x, y, z + 1), -1.0);
                }
            }
        }
    }
    coo.to_csr()
}

/// 3-D "finite element" operator on a regular grid: a 19-point stencil
/// (faces + edge diagonals) with jittered, deterministic coefficients.
/// ~16–19 nnz/row, medium band. Paper analog class: **M2'** (offshore).
pub(crate) fn fem3d(nx: usize, ny: usize, nz: usize, seed: u64) -> Csr {
    let offsets: [(i64, i64, i64); 9] = [
        // Half of the 19-point stencil (the symmetric counterpart is
        // generated by push_sym); (0,0,0) handled separately.
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, -1, 0),
        (1, 0, 1),
        (1, 0, -1),
        (0, 1, 1),
        (0, 1, -1),
    ];
    jittered_stencil(nx, ny, nz, &offsets, seed)
}

/// Symmetric strictly diagonally dominant stencil matrix with coupling
/// strengths jittered in `[0.5, 1.5)`.
fn jittered_stencil(
    nx: usize,
    ny: usize,
    nz: usize,
    offsets: &[(i64, i64, i64)],
    seed: u64,
) -> Csr {
    let n = nx * ny * nz;
    let mut rng = Rng::new(seed);
    let mut coo = Coo::with_capacity(n, n, (2 * offsets.len() + 1) * n);
    let idx = |x: i64, y: i64, z: i64| (z as usize * ny + y as usize) * nx + x as usize;
    let inside = |x: i64, y: i64, z: i64| {
        x >= 0 && y >= 0 && z >= 0 && (x as usize) < nx && (y as usize) < ny && (z as usize) < nz
    };
    let mut rowsum = vec![0.0f64; n];
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                let i = idx(x, y, z);
                for &(dx, dy, dz) in offsets {
                    let (xx, yy, zz) = (x + dx, y + dy, z + dz);
                    if inside(xx, yy, zz) {
                        let j = idx(xx, yy, zz);
                        let w = rng.range_f64(0.5, 1.5);
                        coo.push_sym(i, j, -w);
                        rowsum[i] += w;
                        rowsum[j] += w;
                    }
                }
            }
        }
    }
    // Small slack keeps the spectrum Laplacian-like (realistic PCG
    // iteration counts) while guaranteeing positive definiteness.
    for (i, &s) in rowsum.iter().enumerate() {
        coo.push(i, i, s + 0.01 * s.max(1.0));
    }
    coo.to_csr()
}

/// Random banded SPD matrix: entries within `|i-j| ≤ bandwidth` present
/// with probability `fill`, symmetric, strictly diagonally dominant.
pub fn banded_spd(n: usize, bandwidth: usize, fill: f64, seed: u64) -> Csr {
    assert!(bandwidth >= 1 && n > 0);
    let mut rng = Rng::new(seed);
    let mut coo = Coo::with_capacity(n, n, (n as f64 * bandwidth as f64 * fill) as usize + n);
    let mut rowsum = vec![0.0f64; n];
    for i in 0..n {
        for j in (i + 1)..(i + bandwidth + 1).min(n) {
            if rng.chance(fill) {
                let w = rng.range_f64(0.1, 1.0);
                coo.push_sym(i, j, -w);
                rowsum[i] += w;
                rowsum[j] += w;
            }
        }
    }
    for (i, &s) in rowsum.iter().enumerate() {
        coo.push(i, i, s + 0.05 * s.max(1.0));
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson2d_shape_and_spd() {
        let a = poisson2d(4, 3);
        assert_eq!(a.n_rows(), 12);
        assert!(a.is_symmetric(0.0));
        assert!(a.to_dense().is_spd());
        // Interior point has 4 neighbours + diagonal.
        let (cols, _) = a.row(5); // (x=1, y=1)
        assert_eq!(cols.len(), 5);
    }

    #[test]
    fn poisson3d_shape_and_spd() {
        let a = poisson3d(3, 3, 3);
        assert_eq!(a.n_rows(), 27);
        assert!(a.is_symmetric(0.0));
        assert!(a.to_dense().is_spd());
        let (cols, _) = a.row(13); // center of the cube
        assert_eq!(cols.len(), 7);
    }

    #[test]
    fn poisson_bandwidth_is_plane_size() {
        assert_eq!(poisson2d(5, 4).bandwidth(), 5);
        assert_eq!(poisson3d(3, 4, 5).bandwidth(), 12);
    }

    #[test]
    fn fem3d_spd_and_wider() {
        let a = fem3d(4, 4, 4, 7);
        assert!(a.is_symmetric(1e-15));
        assert!(a.to_dense().is_spd());
        // Interior rows have up to 19 entries.
        let max_row = (0..a.n_rows()).map(|r| a.row(r).0.len()).max().unwrap();
        assert!(max_row > 7 && max_row <= 19, "max_row={max_row}");
    }

    #[test]
    fn fem3d_deterministic() {
        assert_eq!(fem3d(3, 3, 3, 1), fem3d(3, 3, 3, 1));
        assert_ne!(fem3d(3, 3, 3, 1), fem3d(3, 3, 3, 2));
    }

    #[test]
    fn banded_spd_respects_band() {
        let a = banded_spd(50, 3, 0.7, 9);
        assert!(a.bandwidth() <= 3);
        assert!(a.is_symmetric(1e-15));
        assert!(a.to_dense().is_spd());
    }
}
