//! **ESR vs. checkpoint/restart on the same engine** — the comparison
//! motivating the paper (Secs. 1.2, 2.2): C/R "imposes a usually
//! considerable runtime overhead due to continuously saving the state of
//! the solver", while ESR keeps only the search-direction copies that
//! mostly ride along with SpMV.
//!
//! Both protections are *flavors of the same restart protocol*: the
//! identical PCG loop, cluster, matrices, and failure scenarios run under
//! `Protection::Esr` and `Protection::Checkpoint`, so every measured
//! difference is protection cost, not harness drift. C/R uses diskless
//! neighbour checkpointing on the same ring partners as ESR's Eqn. (5)
//! (the strongest practical C/R variant).

use esr_bench::{banner, write_csv, FailLocation, Run, Suite};
use esr_core::{CrConfig, Protection, SolverConfig};
use parcomm::FailureScript;

/// The ESR solver configuration with its protection swapped to periodic
/// neighbour checkpointing — everything else (policy, φ bookkeeping)
/// identical, so the two flavors differ only in the protection axis.
fn cr_solver(psi: usize, cr: &CrConfig) -> SolverConfig {
    let mut cfg = SolverConfig::resilient(psi);
    cfg.resilience = cfg
        .resilience
        .map(|r| r.with_protection(Protection::Checkpoint(cr.clone())));
    cfg
}

fn main() {
    let mut suite = Suite::from_env();
    banner("Baseline — ESR vs. diskless checkpoint/restart", &suite.cfg);

    println!(
        "{:<4} | {:>11} {:>11} | {:>11} {:>11} {:>11} | {:>11} {:>11}",
        "ID",
        "ESR undis.",
        "ESR fail",
        "CR5 undis.",
        "CR20 undis.",
        "CR20 fail",
        "ESR rec",
        "CR20 redo"
    );
    let mut csv = Vec::new();
    for id in suite.cfg.matrices.clone() {
        let problem = suite.problem(id);
        let t0 = suite.cell(id, Run::Reference).vtime;
        let (psi, loc, progress) = (3usize, FailLocation::Center, 0.5);

        // ESR: the paper-configuration cells of the grid (φ = ψ).
        let phi = psi;
        let esr_u = suite.cell(id, Run::Undisturbed { phi });
        let esr_f = suite.cell(id, Run::Failure { phi, loc, progress });

        // C/R with two checkpoint intervals; copies = ψ for equal
        // fault-tolerance level. Same entry point as ESR — the protection
        // flavor is a field of the solver configuration.
        let cr5 = cr_solver(psi, &CrConfig::default().with_interval(5).with_copies(psi));
        let cr20 = cr_solver(psi, &CrConfig::default().with_interval(20).with_copies(psi));
        let cr5_u = suite.solve(&problem, &cr5, FailureScript::none());
        let cr20_u = suite.solve(&problem, &cr20, FailureScript::none());
        let script = suite.failures(id, psi, loc, progress);
        let cr20_f = suite.solve(&problem, &cr20, script);
        assert!(cr5_u.converged && cr20_u.converged && cr20_f.converged);
        assert_eq!(cr20_f.recoveries, 1, "the rollback must have fired");

        let pct = |t: f64| 100.0 * (t / t0 - 1.0);
        println!(
            "{:<4} | {:>10.1}% {:>10.1}% | {:>10.1}% {:>10.1}% {:>10.1}% | {:>10.2}% {:>10.2}%",
            format!("{id:?}"),
            pct(esr_u.vtime),
            pct(esr_f.vtime),
            pct(cr5_u.vtime),
            pct(cr20_u.vtime),
            pct(cr20_f.vtime),
            100.0 * esr_f.vtime_recovery / t0,
            100.0 * (cr20_f.vtime - cr20_u.vtime) / t0,
        );
        csv.push(format!(
            "{id:?},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4}",
            pct(esr_u.vtime),
            pct(esr_f.vtime),
            pct(cr5_u.vtime),
            pct(cr20_u.vtime),
            pct(cr20_f.vtime),
            100.0 * esr_f.vtime_recovery / t0,
            100.0 * (cr20_f.vtime - cr20_u.vtime) / t0,
        ));
    }
    write_csv(
        "cr_baseline.csv",
        "id,esr_undisturbed_pct,esr_failure_pct,cr5_undisturbed_pct,cr20_undisturbed_pct,cr20_failure_pct,esr_recovery_pct,cr20_redo_pct",
        &csv,
    );
    println!("\n(ψ = 3 failures at 50% progress, center ranks; CR5/CR20 =");
    println!(" checkpoint every 5/20 iterations with ψ replicas; both flavors");
    println!(" run the same engine-backed PCG loop)");
}
