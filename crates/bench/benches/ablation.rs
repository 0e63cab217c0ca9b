//! **Ablations** — the design choices DESIGN.md calls out:
//!
//! 1. backup placement: the paper's minimal sets (Eqn. 6) vs. naive
//!    full-block replication (realizes the Sec. 4.2 upper bound);
//! 2. reconstruction block solver: exact sparse LDLᵀ vs. the paper's
//!    ILU(0) (paper Sec. 6 uses ILU in PETSc);
//! 3. bandwidth-reducing RCM reordering before partitioning — the paper's
//!    "future work" direction for scattered patterns (Sec. 8).

//!
//! The reference runs and the paper-configuration runs (Eqn. 6 placement,
//! exact inner solver) are cells of the evaluation grid; the variants are
//! solved beside them through the same runner.

use esr_bench::{banner, write_csv, FailLocation, Run, Suite};
use esr_core::{analysis, BackupStrategy, Problem, SolverConfig};
use parcomm::FailureScript;
use sparsemat::gen::suite::PaperMatrix;
use sparsemat::BlockPartition;

fn main() {
    let mut suite = Suite::from_env();
    let cfgb = suite.cfg.clone();
    banner("Ablations — placement strategy / inner solver / RCM", &cfgb);
    let mut csv = Vec::new();

    // ---- 1. placement: Eqn. 5+6 vs. consecutive ring vs. full block ----
    println!("\n[1] backup placement at φ=3 (undisturbed overhead vs t0):");
    println!(
        "{:<4} {:>16} {:>16} {:>16}",
        "ID", "eqn5+6 (paper)", "consecutive", "full-block"
    );
    for &id in &cfgb.matrices {
        let problem = suite.problem(id);
        let t0 = suite.cell(id, Run::Reference).vtime;
        let paper = suite.cell(id, Run::Undisturbed { phi: 3 });
        let mut ovh = vec![100.0 * (paper.vtime / t0 - 1.0)];
        for strategy in [
            BackupStrategy::MinimalConsecutive,
            BackupStrategy::FullBlock,
        ] {
            let mut cfg = SolverConfig::resilient(3);
            cfg.resilience.as_mut().unwrap().strategy = strategy;
            let res = suite.solve(&problem, &cfg, FailureScript::none());
            assert!(res.converged);
            ovh.push(100.0 * (res.vtime / t0 - 1.0));
        }
        println!(
            "{:<4} {:>15.1}% {:>15.1}% {:>15.1}%",
            format!("{id:?}"),
            ovh[0],
            ovh[1],
            ovh[2]
        );
        csv.push(format!(
            "placement,{id:?},{:.3},{:.3},{:.3}",
            ovh[0], ovh[1], ovh[2]
        ));
    }

    // ---- 2. exact LDLᵀ vs. ILU(0) reconstruction solver -----------------
    println!("\n[2] reconstruction inner solver (3 failures at center, rec time % of t0):");
    println!("{:<4} {:>14} {:>14}", "ID", "exact LDLᵀ", "ILU(0)+PCG");
    for &id in &cfgb.matrices {
        let problem = suite.problem(id);
        let t0 = suite.cell(id, Run::Reference).vtime;
        let (phi, loc, progress) = (3, FailLocation::Center, 0.5);
        let exact = suite.cell(id, Run::Failure { phi, loc, progress });
        let mut ilu = SolverConfig::resilient(phi);
        ilu.resilience
            .as_mut()
            .unwrap()
            .recovery
            .exact_block_precond = false;
        let script = suite.failures(id, phi, loc, progress);
        let res = suite.solve(&problem, &ilu, script);
        assert!(res.converged);
        let recs = [exact.vtime_recovery, res.vtime_recovery].map(|rec| 100.0 * rec / t0);
        println!(
            "{:<4} {:>13.2}% {:>13.2}%",
            format!("{id:?}"),
            recs[0],
            recs[1]
        );
        csv.push(format!("inner,{id:?},{:.4},{:.4}", recs[0], recs[1]));
    }

    // ---- 3. RCM reordering for the scattered pattern --------------------
    println!("\n[3] RCM reordering of the scattered M3' pattern (φ=3):");
    let a = sparsemat::gen::generate(PaperMatrix::M3, cfgb.scale);
    let part = BlockPartition::new(a.n_rows(), cfgb.nodes);
    let before = analysis::predict_overhead(&a, &part, 3, &BackupStrategy::Minimal, &cfgb.cost);
    let perm = sparsemat::order::rcm(&a);
    let a_rcm = a.permute_sym(&perm);
    let after = analysis::predict_overhead(&a_rcm, &part, 3, &BackupStrategy::Minimal, &cfgb.cost);
    println!(
        "    extras/iteration: {} natural → {} RCM ({:+.0}%)",
        before.total_extra_elems,
        after.total_extra_elems,
        100.0 * (after.total_extra_elems as f64 / before.total_extra_elems as f64 - 1.0)
    );
    for (label, mat) in [("natural", a), ("rcm", a_rcm)] {
        let problem = Problem::with_random_rhs(mat, 77);
        let t0 = suite.solve(&problem, &SolverConfig::reference(), FailureScript::none());
        let res = suite.solve(&problem, &SolverConfig::resilient(3), FailureScript::none());
        assert!(res.converged);
        let ovh = 100.0 * (res.vtime / t0.vtime - 1.0);
        println!(
            "    {label:>8}: undisturbed overhead {ovh:+.1}% (t0 {:.3} ms)",
            t0.vtime * 1e3
        );
        csv.push(format!("rcm,{label},{:.3},", ovh));
    }
    write_csv("ablation.csv", "ablation,case,v1,v2,v3", &csv);
}
