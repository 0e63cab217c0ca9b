//! `compare <base.json> <new.json>`: per workload × end-to-end metric, both
//! medians and quartiles, the ratio with its base, and a verdict.

use std::path::Path;

use crate::metrics::{is_exact, Better, Clock, EndToEnd, Metric, END_TO_END};
use crate::results::{ResultSet, RunRecord};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound (or a side ran
    /// unpinned): the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one end-to-end metric of one workload.
pub fn judge(def: &EndToEnd, base: &Metric, new: &Metric, both_pinned: bool) -> Verdict {
    let (b, n) = (base.summary.median, new.summary.median);
    if def.clock == Clock::Virtual {
        // Deterministic: any change a PR did not announce is a correctness
        // regression, in either direction.
        return if b.to_bits() == n.to_bits() {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    let worse_by = match def.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    let under_floor = worse_by < def.floor;
    if worse_by > def.bound * b.abs() && !under_floor {
        return Verdict::Regressed;
    }
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let every_run_better = new
        .samples
        .iter()
        .all(|&x| base.samples.iter().all(|&y| better(x, y)));
    let too_wide = base.summary.spread().max(new.summary.spread()) > def.bound;
    if (too_wide || !both_pinned) && !every_run_better && !under_floor {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn failure_rate(r: &RunRecord) -> f64 {
    r.failures.len() as f64 / r.solves_attempted.max(1) as f64
}

/// Compare two result sets; returns the report and whether the new set is
/// acceptable (no `regressed`, no rise in the failure rate, exact counts
/// unchanged).
pub fn compare(base: &ResultSet, new: &ResultSet) -> Result<(String, bool), String> {
    if base.seed != new.seed {
        return Err(format!(
            "the result sets are of different seeds ({} and {}): their inputs differ",
            base.seed, new.seed
        ));
    }
    let mut out = String::new();
    let mut acceptable = true;
    out.push_str(&format!(
        "{:<16} {:<32} {:>40} {:>40} {:>8}  verdict\n",
        "workload",
        "metric [unit]",
        "base median (q1..q3, n)",
        "new median (q1..q3, n)",
        "new/base"
    ));
    for b in &base.runs {
        let Some(n) = new.run(&b.workload, b.trace) else {
            return Err(format!(
                "the new set has no run of {} (trace {})",
                b.workload, b.trace
            ));
        };
        if failure_rate(n) > failure_rate(b) {
            acceptable = false;
            out.push_str(&format!(
                "{:<16} solves_failed/solves_attempted rose: {}/{} -> {}/{}  regressed\n",
                b.workload,
                b.failures.len(),
                b.solves_attempted,
                n.failures.len(),
                n.solves_attempted
            ));
        }
        if b.trace {
            // Per-layer numbers carry no bound; the exact ones must repeat.
            for bm in b.metrics.iter().filter(|m| is_exact(&m.name, &m.unit)) {
                let same = n
                    .metric(&bm.name)
                    .is_some_and(|nm| nm.summary.median.to_bits() == bm.summary.median.to_bits());
                if !same {
                    acceptable = false;
                    out.push_str(&format!(
                        "{:<16} {} [{}] is exact and changed: {} -> {}  regressed\n",
                        b.workload,
                        bm.name,
                        bm.unit,
                        bm.summary.median,
                        n.metric(&bm.name).map_or(f64::NAN, |m| m.summary.median)
                    ));
                }
            }
            continue;
        }
        for def in &END_TO_END {
            let (Some(bm), Some(nm)) = (b.metric(def.name), n.metric(def.name)) else {
                return Err(format!("{}: metric {} is missing", b.workload, def.name));
            };
            let verdict = judge(def, bm, nm, b.pinned && n.pinned);
            acceptable &= verdict != Verdict::Regressed;
            let cell = |m: &Metric| {
                let s = &m.summary;
                format!(
                    "{} ({}..{}, {})",
                    sig6(s.median),
                    sig6(s.q1),
                    sig6(s.q3),
                    s.n
                )
            };
            out.push_str(&format!(
                "{:<16} {:<32} {:>40} {:>40} {:>8.4}  {}\n",
                b.workload,
                format!("{} [{}]", def.name, def.unit),
                cell(bm),
                cell(nm),
                nm.summary.median / bm.summary.median,
                verdict.as_str()
            ));
        }
    }
    Ok((out, acceptable))
}

/// Six significant digits, without an exponent.
fn sig6(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (5 - magnitude).max(0) as usize)
}

/// The `compare` subcommand; returns the process exit code.
pub fn main(args: &[String]) -> u8 {
    let [base, new] = args else {
        eprintln!("usage: compare <base.json> <new.json>");
        return 2;
    };
    let sets =
        ResultSet::read(Path::new(base)).and_then(|b| Ok((b, ResultSet::read(Path::new(new))?)));
    match sets.and_then(|(b, n)| compare(&b, &n)) {
        Ok((report, acceptable)) => {
            print!("{report}");
            println!("ratios are new/base; bounds: see BENCHMARK.json");
            u8::from(!acceptable)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn metric(name: &str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit: crate::metrics::unit_of(name).into(),
            summary: summarize(samples),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn host_metrics_are_judged_within_their_bound() {
        let wall = def("wall_s");
        let base = metric("wall_s", &[1.00, 1.01, 0.99]);
        assert_eq!(
            judge(wall, &base, &metric("wall_s", &[1.2, 1.19, 1.21]), true),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &base, &metric("wall_s", &[1.4, 1.41, 1.39]), true),
            Verdict::Regressed
        );
        // Spread wider than the bound: cannot tell …
        let noisy = metric("wall_s", &[0.8, 1.0, 1.3]);
        assert_eq!(judge(wall, &base, &noisy, true), Verdict::Unresolved);
        // … unless every new run beats every base run.
        let fast_noisy = metric("wall_s", &[0.5, 0.7, 0.9]);
        assert_eq!(judge(wall, &base, &fast_noisy, true), Verdict::Ok);
        // Unpinned results are not comparable.
        assert_eq!(judge(wall, &base, &base, false), Verdict::Unresolved);

        let rate = def("sim_node_iters_per_s");
        let base = metric("sim_node_iters_per_s", &[1000.0, 1010.0, 990.0]);
        let slow = metric("sim_node_iters_per_s", &[700.0, 710.0, 690.0]);
        assert_eq!(judge(rate, &base, &slow, true), Verdict::Regressed);
        assert_eq!(judge(rate, &slow, &base, true), Verdict::Ok);
    }

    #[test]
    fn a_millisecond_set_up_may_wobble() {
        let setup = def("setup_s");
        let base = metric("setup_s", &[0.001, 0.0011, 0.0012]);
        let new = metric("setup_s", &[0.002, 0.0021, 0.0022]);
        assert_eq!(judge(setup, &base, &new, true), Verdict::Ok);
        let base = metric("setup_s", &[0.30, 0.31, 0.32]);
        let new = metric("setup_s", &[0.40, 0.41, 0.42]);
        assert_eq!(judge(setup, &base, &new, true), Verdict::Regressed);
    }

    #[test]
    fn virtual_times_compare_bitwise() {
        let t0 = def("vtime_t0_s");
        let base = metric("vtime_t0_s", &[3.9391555999999175e-3]);
        assert_eq!(judge(t0, &base, &base.clone(), true), Verdict::Ok);
        let off = metric("vtime_t0_s", &[3.939155599999918e-3]);
        assert_eq!(judge(t0, &base, &off, true), Verdict::Regressed);
        // "Better" is still a change nobody announced.
        let lower = metric("vtime_t0_s", &[3.0e-3]);
        assert_eq!(judge(t0, &base, &lower, true), Verdict::Regressed);
    }

    fn set(seed: u64, wall: &[f64], failures: usize, msgs: f64) -> ResultSet {
        let run = |trace: bool, metrics: Vec<Metric>| RunRecord {
            workload: "thick_m1_n16".into(),
            seed,
            seconds: 15.0,
            trace,
            pinned: true,
            cpus_allowed: "1".into(),
            repetitions: 3,
            solves_attempted: 9,
            failures: vec!["pcg.reference: x".to_string(); failures],
            metrics,
        };
        let e2e = END_TO_END
            .iter()
            .map(|d| {
                if d.name == "wall_s" {
                    metric(d.name, wall)
                } else {
                    metric(d.name, &[2.0])
                }
            })
            .collect();
        ResultSet {
            seed,
            runs: vec![
                run(false, e2e),
                run(true, vec![metric("parcomm.msgs", &[msgs])]),
            ],
        }
    }

    #[test]
    fn compare_reports_every_metric_and_decides() {
        let base = set(1, &[1.0, 1.01, 0.99], 0, 5316.0);
        let (report, ok) = compare(&base, &set(1, &[1.02, 1.0, 1.01], 0, 5316.0)).unwrap();
        assert!(ok, "{report}");
        for d in &END_TO_END {
            assert_eq!(
                report.matches(&format!("{} [{}]", d.name, d.unit)).count(),
                1,
                "{report}"
            );
        }
        assert_eq!(
            report.matches(" ok\n").count(),
            END_TO_END.len(),
            "{report}"
        );

        let (report, ok) = compare(&base, &set(1, &[1.5, 1.51, 1.49], 0, 5316.0)).unwrap();
        assert!(!ok && report.contains("regressed"), "{report}");
        // A rise in the failure rate or a changed exact count is a regression too.
        let (report, ok) = compare(&base, &set(1, &[1.0, 1.01, 0.99], 1, 5316.0)).unwrap();
        assert!(!ok && report.contains("solves_failed"), "{report}");
        let (report, ok) = compare(&base, &set(1, &[1.0, 1.01, 0.99], 0, 5317.0)).unwrap();
        assert!(!ok && report.contains("parcomm.msgs"), "{report}");
        // Different seeds mean different inputs.
        assert!(compare(&base, &set(2, &[1.0], 0, 5316.0)).is_err());
    }
}
