//! Per-node preconditioner state.
//!
//! The preconditioner is distributed like everything else (paper
//! Sec. 1.1.2: block rows of `M` live on the owning node). Three of the
//! four configurations are block-diagonal and apply locally; an explicit
//! `P = M⁻¹` with coupling across nodes needs its own ghost exchange, for
//! which it gets a dedicated scatter plan over `P`'s pattern.

use parcomm::NodeCtx;
use precond::{PrecondError, Preconditioner};
use sparsemat::{BlockPartition, Csr};
use std::sync::Arc;

use crate::config::PrecondConfig;
use crate::localmat::LocalMatrix;
use crate::scatter::ScatterPlan;
use crate::statics::{BlockFactors, StaticData};

/// A node's share of the preconditioner.
///
/// One value lives per node for the whole solve; the size skew between
/// variants is irrelevant (never stored in bulk).
#[allow(clippy::large_enum_variant)]
pub(crate) enum NodePrecond {
    /// Identity (plain CG).
    None,
    /// `M = diag(A)`.
    Jacobi {
        /// Element-wise inverse of the owned diagonal of `A`.
        inv_diag: Vec<f64>,
    },
    /// The paper's setup: `M` = block-Jacobi over the diagonal blocks of
    /// `A` on the setup partition, each solved exactly by sparse LDLᵀ. `M`
    /// stays that for the whole solve: after a Shrink a node applies the
    /// setup blocks its widened rows cover, one by one.
    BlockJacobiExact {
        /// The factor of every setup block.
        m: BlockFactors,
        /// The setup blocks this node's rows cover, in row order.
        blocks: std::ops::Range<usize>,
    },
    /// Explicit `P = M⁻¹` as a distributed sparse matrix: apply is a
    /// distributed SpMV over `P`'s own communication plan.
    ExplicitP {
        /// The full `P` (static data; recovery reads its rows).
        p_full: Arc<Csr>,
        /// This node's block rows of `P`.
        p_local: LocalMatrix,
        /// Ghost-exchange plan over `P`'s pattern.
        p_plan: ScatterPlan,
        /// Ghost buffer for `P`-applies.
        p_ghosts: Vec<f64>,
    },
}

impl NodePrecond {
    /// Collective setup — all nodes must call this at the same SPMD point
    /// with the same configuration. `lm` is this node's block of
    /// `statics`' matrix.
    pub(crate) async fn setup(
        ctx: &mut NodeCtx,
        cfg: &PrecondConfig,
        part: &BlockPartition,
        statics: &StaticData,
        lm: &LocalMatrix,
    ) -> Result<Self, PrecondError> {
        match cfg {
            PrecondConfig::None => Ok(NodePrecond::None),
            PrecondConfig::Jacobi => {
                let diag = lm.diag.diag();
                let mut inv_diag = Vec::with_capacity(diag.len());
                for (i, &d) in diag.iter().enumerate() {
                    if d <= 0.0 || !d.is_finite() {
                        return Err(PrecondError::Breakdown(lm.range.start + i));
                    }
                    inv_diag.push(1.0 / d);
                }
                Ok(NodePrecond::Jacobi { inv_diag })
            }
            PrecondConfig::BlockJacobiExact => {
                let m = statics.block_jacobi(part)?;
                let k = ctx.rank();
                // Charge the factorization to the virtual clock (a coarse
                // 20 flops per factor nonzero), whoever computed it.
                ctx.clock_mut().advance_flops(20 * m[k].l_nnz().max(1));
                Ok(NodePrecond::BlockJacobiExact {
                    m,
                    blocks: k..k + 1,
                })
            }
            PrecondConfig::ExplicitP(p) => {
                if p.n_rows() != part.n() || p.n_cols() != part.n() {
                    return Err(PrecondError::Shape(format!(
                        "P is {}x{}, system is {}",
                        p.n_rows(),
                        p.n_cols(),
                        part.n()
                    )));
                }
                let p_local = LocalMatrix::build(p, part, ctx.rank());
                let p_plan = ScatterPlan::negotiate(ctx, &p_local, part).await;
                let p_ghosts = vec![0.0; p_local.ghost_cols.len()];
                Ok(NodePrecond::ExplicitP {
                    p_full: p.clone(),
                    p_local,
                    p_plan,
                    p_ghosts,
                })
            }
        }
    }

    /// Re-cut this node's share for its new block `lm` after a Shrink —
    /// any run of setup blocks, which need not contain the old one — from
    /// what setup derived: it cannot fail, and `M` stays the
    /// preconditioner of the setup partition `part`. Charges `20·l_nnz`
    /// for each block of `part` the node did not hold before, or, if it
    /// lost its memory (a spare: `all`), for every block it covers.
    pub(crate) fn widen(
        &mut self,
        ctx: &mut NodeCtx,
        part: &BlockPartition,
        lm: &LocalMatrix,
        all: bool,
    ) {
        match self {
            NodePrecond::Jacobi { inv_diag } => {
                // Every diagonal entry passed setup's check on its owner.
                *inv_diag = lm.diag.diag().iter().map(|d| 1.0 / d).collect();
            }
            NodePrecond::BlockJacobiExact { m, blocks } => {
                let covered = part.blocks_of(&lm.range);
                let new = covered.clone().filter(|k| all || !blocks.contains(k));
                let flops = new.map(|k| 20 * m[k].l_nnz().max(1)).sum();
                ctx.clock_mut().advance_flops(flops);
                *blocks = covered;
            }
            // Nothing to re-cut, or (P-given) rejected for every policy
            // that shrinks.
            NodePrecond::None | NodePrecond::ExplicitP { .. } => {}
        }
    }

    /// Apply `z ← M⁻¹ r` on the owned block. May communicate (explicit P
    /// with off-node coupling) — all nodes must call together.
    pub(crate) async fn apply(&mut self, ctx: &mut NodeCtx, r_loc: &[f64], z_loc: &mut [f64]) {
        match self {
            NodePrecond::None => z_loc.copy_from_slice(r_loc),
            NodePrecond::Jacobi { inv_diag } => {
                for ((z, r), d) in z_loc.iter_mut().zip(r_loc).zip(inv_diag.iter()) {
                    *z = r * d;
                }
                ctx.clock_mut().advance_flops(r_loc.len());
            }
            NodePrecond::BlockJacobiExact { m, blocks } => {
                z_loc.copy_from_slice(r_loc);
                let (mut rest, mut flops) = (z_loc, 0);
                for factor in &m[blocks.clone()] {
                    let (piece, tail) = rest.split_at_mut(factor.dim());
                    factor.solve_in_place(piece);
                    flops += factor.solve_flops();
                    rest = tail;
                }
                ctx.clock_mut().advance_flops(flops);
            }
            NodePrecond::ExplicitP {
                p_local,
                p_plan,
                p_ghosts,
                ..
            } => {
                let copies = &[(0, None)];
                p_plan
                    .exchange_to(ctx, r_loc, p_ghosts, copies, None, None)
                    .await;
                p_local.spmv(r_loc, p_ghosts, z_loc);
                ctx.clock_mut().advance_flops(p_local.spmv_flops());
            }
        }
    }

    /// The explicit `P` matrix (P-given recovery needs its rows).
    pub(crate) fn p_matrix(&self) -> Option<&Arc<Csr>> {
        match self {
            NodePrecond::ExplicitP { p_full, .. } => Some(p_full),
            _ => None,
        }
    }
}
