//! **Sec. 4.2 / Sec. 5 analysis** — measured redundancy traffic against
//! the paper's theoretical bounds, per matrix and redundancy level:
//!
//! * lower bound `Σₖ maxᵢ|Rᶜᵢₖ|µ`, modeled overhead, and the coarse upper
//!   bound `φ(λmax + ⌈n/N⌉µ)`;
//! * the latency criterion of Sec. 5 (extras riding on natural traffic);
//! * the natural-multiplicity coverage that determines how much of the
//!   redundancy is free;
//! * cross-check: elements measured on the wire == predicted per iteration.

use esr_bench::{banner, write_csv, Suite};
use esr_core::{analysis, BackupStrategy, SolverConfig};
use parcomm::{CommPhase, FailureScript};
use sparsemat::BlockPartition;

fn main() {
    let mut suite = Suite::from_env();
    let cfgb = suite.cfg.clone();
    banner("Analysis — redundancy traffic vs. Sec. 4.2 bounds", &cfgb);
    println!(
        "{:<4} {:>3} | {:>11} {:>11} {:>11} | {:>12} {:>8} | {:>10} {:>9}",
        "ID",
        "φ",
        "lower [µs]",
        "model [µs]",
        "upper [µs]",
        "extras/iter",
        "lat-free",
        "measured",
        "cov m≥φ"
    );

    let mut csv = Vec::new();
    for &id in &cfgb.matrices {
        let problem = suite.problem(id);
        let a = &problem.a;
        let part = BlockPartition::new(a.n_rows(), cfgb.nodes);
        let pattern = sparsemat::analysis::analyze(a, &part);
        for phi in [1usize, 3, 8] {
            let pred =
                analysis::predict_overhead(a, &part, phi, &BackupStrategy::Minimal, &cfgb.cost);
            // Measure actual wire traffic in a short resilient run.
            let mut cfg = SolverConfig::resilient(phi);
            cfg.max_iter = 10_000;
            let res = suite.solve(&problem, &cfg, FailureScript::none());
            assert!(res.converged);
            let measured_per_iter =
                res.stats.elems(CommPhase::Redundancy) as f64 / res.iterations as f64;
            assert_eq!(
                measured_per_iter as usize, pred.total_extra_elems,
                "{id:?} φ={phi}: model and wire disagree"
            );
            println!(
                "{:<4} {:>3} | {:>11.3} {:>11.3} {:>11.3} | {:>12} {:>8} | {:>10.0} {:>8.0}%",
                format!("{id:?}"),
                phi,
                pred.lower_bound * 1e6,
                pred.modeled * 1e6,
                pred.upper_bound * 1e6,
                pred.total_extra_elems,
                pred.latency_free,
                measured_per_iter,
                100.0 * pattern.coverage[phi - 1],
            );
            csv.push(format!(
                "{id:?},{phi},{:.9},{:.9},{:.9},{},{},{:.1},{:.4}",
                pred.lower_bound,
                pred.modeled,
                pred.upper_bound,
                pred.total_extra_elems,
                pred.latency_free,
                measured_per_iter,
                pattern.coverage[phi - 1]
            ));
        }
    }
    write_csv(
        "analysis.csv",
        "id,phi,lower_s,modeled_s,upper_s,extras_per_iter,latency_free,measured_per_iter,coverage",
        &csv,
    );
    println!("\n(bounds: 0 ≤ lower ≤ modeled ≤ upper = φ(λ + ⌈n/N⌉µ), Sec. 4.2)");
}
