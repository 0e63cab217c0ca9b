//! The paper's tables and figures as views of the grid: each asks the
//! [`Suite`] for the cells it shows, prints them and writes its CSV. None
//! solves anything itself, so views rendered over one runner share every
//! cell they have in common.
//!
//! Times are virtual BSP-clock times (deterministic); the spread reported
//! as ±σ is the variation across the injection progress points, which is
//! what the paper aggregates over.

use crate::suite::{MatrixInfo, Run, Suite, Summary, LOCATIONS, PHIS};
use crate::{banner, mean_std, write_csv, FailLocation};
use sparsemat::gen::suite::{spec, PaperMatrix};

/// **Table 1** — the generated analog suite next to the paper's original
/// SuiteSparse matrices, so the scale factor and pattern classes are
/// explicit for every other experiment.
pub fn table1(suite: &mut Suite) {
    let title = "Table 1 — SPD test matrices (synthetic analogs)";
    banner(title, &suite.cfg);
    println!(
        "ID   stands for      problem type           paper n  paper nnz |         n         nnz   nnz/row | pattern"
    );
    let mut rows = Vec::new();
    for id in suite.cfg.matrices.clone() {
        let s = spec(id);
        let (paper, kind, pattern) = (s.paper_name, s.problem_type, s.pattern);
        let (n0, nnz0) = (s.paper_n, s.paper_nnz);
        let MatrixInfo { n, nnz, bandwidth } = suite.info(id);
        let (name, per_row) = (format!("{id:?}"), nnz as f64 / n as f64);
        println!(
            "{name:<4} {paper:<15} {kind:<20} {n0:>9} {nnz0:>10} | {n:>9} {nnz:>11} {per_row:>9.1} | {pattern} (mean row bw {bandwidth:.0})"
        );
        rows.push(format!(
            "{name},{paper},{kind},{n0},{nnz0},{n},{nnz},{per_row:.2},{pattern}"
        ));
    }
    let header = "id,paper_name,problem_type,paper_n,paper_nnz,n,nnz,nnz_per_row,pattern";
    write_csv("table1.csv", header, &rows);
}

/// Overhead of a run taking `t` against the reference `t0`, in percent.
fn overhead_pct(t: f64, t0: f64) -> f64 {
    100.0 * (t / t0 - 1.0)
}

/// The failure runs of (`id`, `phi`, `loc`), one per progress point.
fn failure_cells(
    suite: &mut Suite,
    id: PaperMatrix,
    phi: usize,
    loc: FailLocation,
) -> Vec<Summary> {
    let at = |progress| Run::Failure { phi, loc, progress };
    let progress = suite.cfg.progress.clone();
    progress
        .into_iter()
        .map(|pr| suite.cell(id, at(pr)))
        .collect()
}

/// **Table 2** — the paper's main result: reference time `t0`, undisturbed
/// overhead for φ ∈ {1,3,8} redundant copies, and reconstruction time +
/// total overhead for ψ = φ simultaneous node failures at the start /
/// center ranks, aggregated over the injection progress points.
pub fn table2(suite: &mut Suite) {
    let title = "Table 2 — runtime overheads of multi-failure ESR-PCG";
    banner(title, &suite.cfg);
    println!(
        "ID      t0[ms] |  ovh φ1  ovh φ3  ovh φ8 | loc    |   rec ψ=1 [%]   rec ψ=3 [%]   rec ψ=8 [%] |   ovh ψ=1 [%]   ovh ψ=3 [%]   ovh ψ=8 [%]"
    );
    let mut csv = Vec::new();
    for id in suite.cfg.matrices.clone() {
        let t0 = suite.cell(id, Run::Reference).vtime;
        let undisturbed =
            PHIS.map(|phi| overhead_pct(suite.cell(id, Run::Undisturbed { phi }).vtime, t0));
        for loc in LOCATIONS {
            // Per φ: mean ± σ over the progress points of the reconstruction
            // time and of the total overhead, both relative to t0.
            let stats = PHIS.map(|phi| {
                let cells = failure_cells(suite, id, phi, loc);
                let rec: Vec<f64> = cells
                    .iter()
                    .map(|c| 100.0 * c.vtime_recovery / t0)
                    .collect();
                let ovh: Vec<f64> = cells.iter().map(|c| overhead_pct(c.vtime, t0)).collect();
                (mean_std(&rec), mean_std(&ovh))
            });
            // t0 and the undisturbed overheads lead the matrix's first row.
            let [u1, u3, u8] = undisturbed;
            let lead = match loc {
                FailLocation::Start => {
                    let (name, t0_ms) = (format!("{id:?}"), t0 * 1e3);
                    format!("{name:<4} {t0_ms:>9.3} | {u1:>7.1} {u3:>7.1} {u8:>7.1}")
                }
                FailLocation::Center => format!("{:<14} | {:<23}", "", ""),
            };
            let col = |(m, s): (f64, f64)| format!("{:>13}", format!("{m:6.1}±{s:4.1}"));
            let rec = stats.map(|(rec, _)| col(rec)).join(" ");
            let ovh = stats.map(|(_, ovh)| col(ovh)).join(" ");
            println!("{lead} | {:<6} | {rec} | {ovh}", loc.label());
            for (k, phi) in PHIS.into_iter().enumerate() {
                let (u, loc, ((rm, rs), (om, os))) = (undisturbed[k], loc.label(), stats[k]);
                csv.push(format!(
                    "{id:?},{t0:.6},{u:.3},{loc},{phi},{rm:.3},{rs:.3},{om:.3},{os:.3}"
                ));
            }
        }
    }
    let header = "id,t0_s,undisturbed_ovh_pct,location,phi,rec_mean_pct,rec_std_pct,ovh_mean_pct,ovh_std_pct";
    write_csv("table2.csv", header, &csv);
}

/// **Table 3** — loss-of-orthogonality metric (paper Eqn. 7):
/// `∆ = (‖r_solver‖₂ − ‖b − A x‖₂) / ‖b − A x‖₂` after convergence, for the
/// reference PCG run (`∆PCG`) and the largest-magnitude one over all
/// failure experiments (`max ∆ESR`). The deviations must be tiny against
/// the 10⁸ residual reduction — reconstruction with inner tolerance 10⁻¹⁴
/// does not degrade the solver's accuracy.
pub fn table3(suite: &mut Suite) {
    banner("Table 3 — relative residual deviation (Eqn. 7)", &suite.cfg);
    println!("{:<4} {:>14} {:>14}", "ID", "max ∆ESR", "∆PCG");
    let mut csv = Vec::new();
    for id in suite.cfg.matrices.clone() {
        let delta_pcg = suite.cell(id, Run::Reference).residual_deviation;
        let mut max_esr = 0.0f64;
        for run in Run::grid(&suite.cfg.progress) {
            if matches!(run, Run::Failure { .. }) {
                let delta = suite.cell(id, run).residual_deviation;
                if delta.abs() >= max_esr.abs() {
                    max_esr = delta;
                }
            }
        }
        let name = format!("{id:?}");
        println!("{name:<4} {max_esr:>14.2e} {delta_pcg:>14.2e}");
        csv.push(format!("{name},{max_esr:e},{delta_pcg:e}"));
    }
    write_csv("table3.csv", "id,max_delta_esr,delta_pcg", &csv);
    println!("\n(the paper reports deviations of 1e-8 .. 1e-3; both solvers'");
    println!(" deviations must stay comparable and tiny vs. the 1e8 reduction)");
}

/// Matrix and failure location of Figs. 1–4. Figs. 1–3 plot runtime over
/// the number of copies, Fig. 4 runtime over the injection progress.
pub const FIGURES: [(PaperMatrix, FailLocation); 4] = [
    (PaperMatrix::M5, FailLocation::Center),
    (PaperMatrix::M1, FailLocation::Start),
    (PaperMatrix::M8, FailLocation::Center),
    (PaperMatrix::M5, FailLocation::Center),
];

/// **Figure `n`** of the paper, written to `fig<n>.csv`.
pub fn figure(suite: &mut Suite, n: usize) {
    let (id, loc) = FIGURES[n - 1];
    match n {
        4 => over_progress(suite, id, loc),
        _ => over_copies(suite, n, id, loc),
    }
}

/// Figs. 1–3: runtime and relative overhead versus the number of redundant
/// copies, failure-free ("blue boxes") and with ψ = φ failures ("orange
/// boxes"), for one matrix and one failure location.
fn over_copies(suite: &mut Suite, n: usize, id: PaperMatrix, loc: FailLocation) {
    let (matrix, place) = (spec(id).paper_name, loc.label());
    let title = format!("Figure {n} — {id:?}' ({matrix} analog), failures at {place} ranks");
    banner(&title, &suite.cfg);
    let reference = suite.cell(id, Run::Reference);
    let (t0, t0_ms, iters) = (reference.vtime, reference.vtime * 1e3, reference.iterations);
    println!("reference t0 = {t0_ms:.3} ms ({iters} iterations), failures at {place} ranks\n");
    println!("copies |    failure-free (blue) |         with ψ=φ failures (orange)");
    println!("     φ |  time [ms]     ovh [%] |  time [ms]     ovh [%]      ±σ [%]");
    let mut csv = Vec::new();
    for phi in PHIS {
        let undisturbed = suite.cell(id, Run::Undisturbed { phi }).vtime;
        let (u_ms, u_ovh) = (undisturbed * 1e3, overhead_pct(undisturbed, t0));
        let cells = failure_cells(suite, id, phi, loc);
        let times: Vec<f64> = cells.iter().map(|c| c.vtime * 1e3).collect();
        let ovhs: Vec<f64> = cells.iter().map(|c| overhead_pct(c.vtime, t0)).collect();
        let ((tm, _), (om, os)) = (mean_std(&times), mean_std(&ovhs));
        println!("{phi:>6} | {u_ms:>10.3} {u_ovh:>11.2} | {tm:>10.3} {om:>11.2} {os:>11.2}");
        let tm_s = tm / 1e3;
        csv.push(format!(
            "{phi},{undisturbed:.6},{u_ovh:.3},{tm_s:.6},{om:.3},{os:.3}"
        ));
    }
    let header =
        "phi,undisturbed_time_s,undisturbed_ovh_pct,failure_time_s,failure_ovh_pct,failure_ovh_std";
    write_csv(&format!("fig{n}.csv"), header, &csv);
}

/// Fig. 4: total runtime with three node failures per injection progress
/// point — the iteration at which failures strike has little influence on
/// the total runtime (the reconstruction cost is progress-independent).
fn over_progress(suite: &mut Suite, id: PaperMatrix, loc: FailLocation) {
    let place = loc.label();
    let title = format!("Figure 4 — {id:?}', three failures at {place}, vs. injection progress");
    banner(&title, &suite.cfg);
    let reference = suite.cell(id, Run::Reference);
    let (t0_ms, iters) = (reference.vtime * 1e3, reference.iterations);
    println!("reference t0 = {t0_ms:.3} ms ({iters} iterations)\n");
    println!(" progress |    time [ms] |  rec time [ms] |      iters");
    let cells = failure_cells(suite, id, 3, loc);
    let mut csv = Vec::new();
    for (pr, res) in suite.cfg.progress.iter().zip(cells) {
        let (pct, t, rec, iters) = (pr * 100.0, res.vtime, res.vtime_recovery, res.iterations);
        let (t_ms, rec_ms) = (t * 1e3, rec * 1e3);
        println!("{pct:>8.0}% | {t_ms:>12.3} | {rec_ms:>14.4} | {iters:>10}");
        csv.push(format!("{pr},{t:.6},{rec:.6},{iters}"));
    }
    write_csv("fig4.csv", "progress,time_s,recovery_s,iterations", &csv);
}
