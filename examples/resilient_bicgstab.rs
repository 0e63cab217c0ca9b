//! ESR beyond PCG: the paper (Sec. 1) claims its multi-failure extension
//! also applies to preconditioned BiCGSTAB. This example recovers a
//! BiCGSTAB solve from two simultaneous node failures.
//!
//! ```sh
//! cargo run --release --example resilient_bicgstab
//! ```

use esr_core::{run_bicgstab, Problem, SolverConfig};
use parcomm::{CostModel, FailureScript};
use sparsemat::gen::poisson2d;

fn main() {
    let nodes = 8;
    let a = poisson2d(48, 48);
    println!(
        "system: 2-D Poisson, n = {}, on {} nodes\n",
        a.n_rows(),
        nodes
    );
    let problem = Problem::with_ones_solution(a);
    let cost = CostModel::default();

    // --- resilient BiCGSTAB: two failures at iteration 20 ----------------
    let script = FailureScript::simultaneous(20, 3, 2, nodes);
    let bicg = run_bicgstab(&problem, nodes, &SolverConfig::resilient(2), cost, script).unwrap();
    let err = bicg.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max);
    println!("ESR-BiCGSTAB (φ = 2, 2 simultaneous failures):");
    println!(
        "  converged in {} iterations, {} ranks reconstructed, max|x-1| = {err:.2e}",
        bicg.iterations, bicg.ranks_recovered
    );
    assert!(bicg.converged && err < 1e-6);
    println!("\nok: ESR protects BiCGSTAB as claimed");
}
