//! **Table 2** — the paper's main result: reference time `t0`, undisturbed
//! overhead for φ ∈ {1,3,8} redundant copies, and reconstruction time +
//! total overhead for ψ = φ ∈ {1,3,8} simultaneous node failures at the
//! start / center ranks, aggregated over the injection progress points.
//!
//! Times are virtual BSP-clock times (deterministic); the spread reported
//! as ±σ is the variation across the 20%/50%/80% injection points, which
//! is what the paper aggregates over.

use esr_bench::{banner, mean_std, run_failure_case, write_csv, BenchConfig, FailLocation};
use esr_core::{run_pcg, SolverConfig};
use parcomm::FailureScript;

const PHIS: [usize; 3] = [1, 3, 8];

fn main() {
    let cfgb = BenchConfig::from_env();
    banner(
        "Table 2 — runtime overheads of multi-failure ESR-PCG",
        &cfgb,
    );

    let mut csv = Vec::new();
    println!(
        "{:<4} {:>9} | {:>7} {:>7} {:>7} | {:<6} | {:>13} {:>13} {:>13} | {:>13} {:>13} {:>13}",
        "ID",
        "t0[ms]",
        "ovh φ1",
        "ovh φ3",
        "ovh φ8",
        "loc",
        "rec ψ=1 [%]",
        "rec ψ=3 [%]",
        "rec ψ=8 [%]",
        "ovh ψ=1 [%]",
        "ovh ψ=3 [%]",
        "ovh ψ=8 [%]"
    );

    for &id in &cfgb.matrices {
        let problem = cfgb.problem(id);
        let reference = run_pcg(
            &problem,
            cfgb.nodes,
            &SolverConfig::reference(),
            cfgb.cost,
            FailureScript::none(),
        )
        .unwrap();
        assert!(reference.converged, "{id:?}: reference did not converge");
        let t0 = reference.vtime;

        // Undisturbed overheads.
        let mut undisturbed = Vec::new();
        for phi in PHIS {
            let res = run_pcg(
                &problem,
                cfgb.nodes,
                &SolverConfig::resilient(phi),
                cfgb.cost,
                FailureScript::none(),
            )
            .unwrap();
            assert!(res.converged);
            undisturbed.push(100.0 * (res.vtime / t0 - 1.0));
        }

        // Failure runs per location and ψ = φ.
        for loc in [FailLocation::Start, FailLocation::Center] {
            let mut rec_cols = Vec::new();
            let mut ovh_cols = Vec::new();
            for phi in PHIS {
                let solver = SolverConfig::resilient(phi);
                let mut recs = Vec::new();
                let mut ovhs = Vec::new();
                for &pr in &cfgb.progress {
                    let res = run_failure_case(
                        &cfgb,
                        &problem,
                        &solver,
                        phi,
                        loc,
                        pr,
                        reference.iterations,
                    );
                    assert!(res.converged, "{id:?} φ={phi} {loc:?} @{pr}");
                    assert_eq!(res.recoveries, 1);
                    recs.push(100.0 * res.vtime_recovery / t0);
                    ovhs.push(100.0 * (res.vtime / t0 - 1.0));
                }
                rec_cols.push(mean_std(&recs));
                ovh_cols.push(mean_std(&ovhs));
            }
            let fmt = |(m, s): (f64, f64)| format!("{m:6.1}±{s:4.1}");
            if loc == FailLocation::Start {
                println!(
                    "{:<4} {:>9.3} | {:>7.1} {:>7.1} {:>7.1} | {:<6} | {:>13} {:>13} {:>13} | {:>13} {:>13} {:>13}",
                    format!("{id:?}"),
                    t0 * 1e3,
                    undisturbed[0],
                    undisturbed[1],
                    undisturbed[2],
                    loc.label(),
                    fmt(rec_cols[0]), fmt(rec_cols[1]), fmt(rec_cols[2]),
                    fmt(ovh_cols[0]), fmt(ovh_cols[1]), fmt(ovh_cols[2]),
                );
            } else {
                println!(
                    "{:<4} {:>9} | {:>7} {:>7} {:>7} | {:<6} | {:>13} {:>13} {:>13} | {:>13} {:>13} {:>13}",
                    "", "", "", "", "",
                    loc.label(),
                    fmt(rec_cols[0]), fmt(rec_cols[1]), fmt(rec_cols[2]),
                    fmt(ovh_cols[0]), fmt(ovh_cols[1]), fmt(ovh_cols[2]),
                );
            }
            for (k, phi) in PHIS.iter().enumerate() {
                csv.push(format!(
                    "{id:?},{:.6},{:.3},{},{},{:.3},{:.3},{:.3},{:.3}",
                    t0,
                    undisturbed[k],
                    loc.label(),
                    phi,
                    rec_cols[k].0,
                    rec_cols[k].1,
                    ovh_cols[k].0,
                    ovh_cols[k].1,
                ));
            }
        }
        // All solves above (22 at the default three progress points)
        // shared one `Problem`: the first derived a block and a factor per
        // node, the rest reused them.
        let built = problem.static_counts();
        println!(
            "[static data] {id:?}: {} blocks extracted, {} factorizations",
            built.blocks_built, built.factors_built
        );
    }
    write_csv(
        "table2.csv",
        "id,t0_s,undisturbed_ovh_pct,location,phi,rec_mean_pct,rec_std_pct,ovh_mean_pct,ovh_std_pct",
        &csv,
    );
}
