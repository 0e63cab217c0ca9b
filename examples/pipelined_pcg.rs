//! Communication-hiding pipelined PCG surviving a 2-node failure detected
//! **mid-overlap** — after the iteration's fused reduction has been issued
//! but before its result has been consumed.
//!
//! The pipelined solver issues one non-blocking all-reduce per iteration
//! and hides its flight time behind the preconditioner application, ghost
//! exchange, and SpMV. The ULFM boundary sits inside that overlap window:
//! on a failure the in-flight reduction is drained and its values held
//! (reduced over the pre-failure state, they are the failure-free run's),
//! the state of the failed nodes is reconstructed from the redundant
//! copies of `u(j)` and `p(j-1)` (everything else follows from `s = Ap`,
//! `q = M⁻¹s`, `z = Aq`), and the interrupted iteration goes on with the
//! held values: the run takes a failure-free twin's iteration count.
//!
//! ```sh
//! cargo run --release --example pipelined_pcg
//! ```

use esr_core::{run_pcg, run_pipecg, Problem, SolverConfig};
use parcomm::{CommPhase, CostModel, FailureScript};
use sparsemat::gen::poisson2d;

fn main() {
    let nodes = 16;
    let a = poisson2d(64, 64);
    println!(
        "system: 2-D Poisson, n = {}, on {} nodes",
        a.n_rows(),
        nodes
    );
    let problem = Problem::with_ones_solution(a);

    // Blocking reference first: 2 dependent all-reduces per iteration,
    // every microsecond of reduction latency on the critical path.
    let blocking = run_pcg(
        &problem,
        nodes,
        &SolverConfig::reference(),
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();

    let cfg = SolverConfig::resilient(2);
    let twin = run_pipecg(
        &problem,
        nodes,
        &cfg,
        CostModel::default(),
        FailureScript::none(),
    )
    .unwrap();

    // Ranks 5 and 6 fail at iteration 20 — detected at the post-exchange
    // boundary, i.e. while the iteration's reduction is still in flight.
    let script = FailureScript::simultaneous(20, 5, 2, nodes);
    println!("\ninjected: ranks 5 and 6 at iteration 20 (mid-overlap boundary)");

    let res = run_pipecg(&problem, nodes, &cfg, CostModel::default(), script).unwrap();

    let err = res.x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0, f64::max);
    let exposed = |r: &esr_core::ExperimentResult| r.exposed_vtime_per_iter(CommPhase::Reduction);
    let hidden = res.hidden_vtime_per_iter(CommPhase::Reduction);

    println!("\nconverged        : {}", res.converged);
    println!(
        "iterations       : {} (failure-free: {}, blocking reference: {})",
        res.iterations, twin.iterations, blocking.iterations
    );
    println!("recovery events  : {}", res.recoveries);
    println!("ranks recovered  : {}", res.ranks_recovered);
    println!(
        "reconstruction   : {:.3} ms modeled",
        res.vtime_recovery * 1e3
    );
    println!("max |x - 1|      : {err:.2e}");
    println!(
        "\nexposed reduction: {:.3} µs/iter (blocking PCG: {:.3} µs/iter)",
        exposed(&res) * 1e6,
        exposed(&blocking) * 1e6
    );
    println!(
        "hidden reduction : {:.3} µs/iter (overlapped with SpMV + M⁻¹)",
        hidden * 1e6
    );

    assert!(res.converged && res.ranks_recovered == 2 && err < 1e-6);
    assert_eq!(res.iterations, twin.iterations);
    assert!(exposed(&res) < exposed(&blocking));
    println!("\nok: the failure hit mid-overlap and the pipeline recovered exactly");
}
