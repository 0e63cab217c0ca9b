//! The paper's test set (Table 1), as scalable synthetic analogs.
//!
//! Each entry reproduces the *class* of one SuiteSparse matrix: its
//! application domain, nonzeros-per-row density, and — decisive for the ESR
//! overhead (paper Sec. 5) — its sparsity-pattern character (narrow band /
//! wide band / unstructured / scattered). `scale = 1.0` targets the paper's
//! problem sizes; benchmarks default to smaller scales (see EXPERIMENTS.md).

use crate::csr::Csr;
use crate::gen::elasticity::{elasticity3d, BlockStencil};
use crate::gen::graphs::{circuit_like, mesh_laplacian_2d, MeshOrdering};
use crate::gen::stencil::{fem3d, poisson3d};

/// Identifiers of the paper's eight test matrices (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PaperMatrix {
    /// parabolic_fem analog: 3-D 7-point stencil, narrow band.
    M1,
    /// offshore analog: 3-D 19-point jittered stencil, medium band.
    M2,
    /// G3_circuit analog: scattered circuit graph (worst case).
    M3,
    /// thermal2 analog: unstructured 2-D mesh, Hilbert-ordered.
    M4,
    /// Emilia_923 analog: 3-DOF elasticity, 15-point block stencil.
    M5,
    /// Geo_1438 analog: 3-DOF elasticity, 19-point block stencil.
    M6,
    /// Serena analog: 3-DOF elasticity, 19-point, heterogeneous stiffness.
    M7,
    /// audikw_1 analog: 3-DOF elasticity, full 27-point block stencil
    /// (densest band; the paper's best case).
    M8,
}

/// Static description of one test problem.
#[derive(Clone, Copy, Debug)]
pub struct MatrixSpec {
    /// Which of the paper's eight test problems this is.
    pub(crate) id: PaperMatrix,
    /// The SuiteSparse matrix this stands in for.
    pub paper_name: &'static str,
    /// Application domain (paper Table 1's "Problem type").
    pub problem_type: &'static str,
    /// Size and nonzeros of the original (paper Table 1).
    pub paper_n: usize,
    /// Nonzeros of the original.
    pub paper_nnz: usize,
    /// Pattern class driving the ESR overhead behaviour.
    pub pattern: &'static str,
}

/// All eight specs in paper order (ordered by increasing paper NNZ).
pub(crate) const MATRICES: [MatrixSpec; 8] = [
    MatrixSpec {
        id: PaperMatrix::M1,
        paper_name: "parabolic_fem",
        problem_type: "Fluid dynamics",
        paper_n: 525_825,
        paper_nnz: 3_674_625,
        pattern: "narrow band",
    },
    MatrixSpec {
        id: PaperMatrix::M2,
        paper_name: "offshore",
        problem_type: "Electromagnetics",
        paper_n: 259_789,
        paper_nnz: 4_242_673,
        pattern: "medium band",
    },
    MatrixSpec {
        id: PaperMatrix::M3,
        paper_name: "G3_circuit",
        problem_type: "Circuit simulation",
        paper_n: 1_585_478,
        paper_nnz: 7_660_826,
        pattern: "scattered",
    },
    MatrixSpec {
        id: PaperMatrix::M4,
        paper_name: "thermal2",
        problem_type: "Thermal",
        paper_n: 1_228_045,
        paper_nnz: 8_580_313,
        pattern: "unstructured",
    },
    MatrixSpec {
        id: PaperMatrix::M5,
        paper_name: "Emilia_923",
        problem_type: "Structural",
        paper_n: 923_136,
        paper_nnz: 40_373_538,
        pattern: "wide band",
    },
    MatrixSpec {
        id: PaperMatrix::M6,
        paper_name: "Geo_1438",
        problem_type: "Structural",
        paper_n: 1_437_960,
        paper_nnz: 60_236_322,
        pattern: "wide band",
    },
    MatrixSpec {
        id: PaperMatrix::M7,
        paper_name: "Serena",
        problem_type: "Structural",
        paper_n: 1_391_349,
        paper_nnz: 64_131_971,
        pattern: "wide band",
    },
    MatrixSpec {
        id: PaperMatrix::M8,
        paper_name: "audikw_1",
        problem_type: "Structural",
        paper_n: 943_695,
        paper_nnz: 77_651_847,
        pattern: "dense band",
    },
];

/// Look up a spec.
pub fn spec(id: PaperMatrix) -> &'static MatrixSpec {
    MATRICES.iter().find(|s| s.id == id).unwrap()
}

fn cube_side(target_points: usize, scale: f64) -> usize {
    (((target_points as f64) * scale).cbrt().round() as usize).max(3)
}

fn square_side(target_points: usize, scale: f64) -> usize {
    (((target_points as f64) * scale).sqrt().round() as usize).max(3)
}

/// Generate the analog of `id` at the given `scale` of the paper's problem
/// size (`scale = 1.0` ≈ paper sizes; generation cost is O(nnz)).
pub fn generate(id: PaperMatrix, scale: f64) -> Csr {
    assert!(scale > 0.0);
    match id {
        PaperMatrix::M1 => {
            let s = cube_side(525_825, scale);
            poisson3d(s, s, s)
        }
        PaperMatrix::M2 => {
            let s = cube_side(259_789, scale);
            fem3d(s, s, s, 0xE5D2_0001)
        }
        PaperMatrix::M3 => {
            let n = ((1_585_478f64 * scale).round() as usize).max(64);
            circuit_like(n, 8, 0.05, 0xE5D2_0003)
        }
        PaperMatrix::M4 => {
            let s = square_side(1_228_045, scale);
            mesh_laplacian_2d(s, s, MeshOrdering::Hilbert, 0xE5D2_0004)
        }
        PaperMatrix::M5 => {
            let s = cube_side(923_136 / 3, scale);
            elasticity3d(s, s, s, 3, BlockStencil::Edges15, 0.0, 0xE5D2_0005)
        }
        PaperMatrix::M6 => {
            let s = cube_side(1_437_960 / 3, scale);
            elasticity3d(s, s, s, 3, BlockStencil::Edges19, 0.0, 0xE5D2_0006)
        }
        PaperMatrix::M7 => {
            let s = cube_side(1_391_349 / 3, scale);
            elasticity3d(s, s, s, 3, BlockStencil::Edges19, 0.8, 0xE5D2_0007)
        }
        PaperMatrix::M8 => {
            let s = cube_side(943_695 / 3, scale);
            elasticity3d(s, s, s, 3, BlockStencil::Full27, 0.2, 0xE5D2_0008)
        }
    }
}

/// All eight ids in paper order.
pub fn all_ids() -> [PaperMatrix; 8] {
    [
        PaperMatrix::M1,
        PaperMatrix::M2,
        PaperMatrix::M3,
        PaperMatrix::M4,
        PaperMatrix::M5,
        PaperMatrix::M6,
        PaperMatrix::M7,
        PaperMatrix::M8,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scale_generates_all() {
        for id in all_ids() {
            let a = generate(id, 0.0005);
            assert!(a.n_rows() >= 27, "{id:?} too small: {}", a.n_rows());
            assert!(a.is_symmetric(1e-12), "{id:?} not symmetric");
        }
    }

    #[test]
    fn small_instances_are_spd() {
        for id in all_ids() {
            let a = generate(id, 0.0002);
            if a.n_rows() <= 1500 {
                assert!(a.to_dense().is_spd(), "{id:?} not SPD");
            }
        }
    }

    #[test]
    fn density_ordering_matches_paper() {
        // Structural matrices (M5–M8) are much denser per row than the
        // stencil/graph problems (M1, M3, M4) — as in Table 1.
        let density = |id| {
            let a = generate(id, 0.001);
            a.nnz() as f64 / a.n_rows() as f64
        };
        let d1 = density(PaperMatrix::M1);
        let d3 = density(PaperMatrix::M3);
        let d5 = density(PaperMatrix::M5);
        let d8 = density(PaperMatrix::M8);
        assert!(d1 < 8.0, "M1 {d1}");
        assert!(d3 < 9.0, "M3 {d3}");
        assert!(d5 > 25.0, "M5 {d5}");
        assert!(d8 > d5, "M8 {d8} vs M5 {d5}");
    }

    #[test]
    fn specs_cover_all_ids() {
        for id in all_ids() {
            assert_eq!(spec(id).id, id);
        }
    }

    #[test]
    fn scale_changes_size_monotonically() {
        let small = generate(PaperMatrix::M1, 0.0005).n_rows();
        let large = generate(PaperMatrix::M1, 0.004).n_rows();
        assert!(large > small);
    }
}
