//! The repo benchmark. See README.md for what it measures and why.
//!
//! ```text
//! esr-benchmark                          every workload, untraced then traced,
//!                                        each in its own pinned child; writes
//!                                        benchmark/out/results_seed<N>.json
//! esr-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                        one run (the BENCHMARK.json contract)
//! esr-benchmark compare BASE NEW         judge two result files
//! ```

mod adapter;
mod compare;
mod json;
mod metrics;
mod pin;
mod results;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::{count, obj, string, Json};
use metrics::END_TO_END;
use results::{ResultSet, RunRecord};

/// How long one run measures when `--seconds` is not given; BENCHMARK.json's
/// `run_seconds`.
const RUN_SECONDS: f64 = 15.0;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set by the parent on the re-executed, pinned process.
    pinned_child: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        pinned_child: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--pinned-child" => o.pinned_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Run one workload in this process and report it.
fn run_here(o: &Options, name: &str) -> Result<bool, String> {
    let w = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let cpus = pin::allowed_cpus();
    let pinned = cpus.len() == 1;
    let outcome = if o.trace {
        runner::run_per_layer(&w, o.seed, o.seconds)
    } else {
        runner::run_end_to_end(&w, o.seed, o.seconds)
    };
    let record = RunRecord {
        workload: w.name.to_string(),
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        pinned,
        cpus_allowed: cpus
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(","),
        repetitions: outcome.repetitions,
        solves_attempted: outcome.attempted,
        failures: outcome.failures,
        metrics: outcome.metrics,
    };

    println!(
        "workload {}  seed {}  trace {}  pinned {} (cpus {})  repetitions {}",
        record.workload,
        record.seed,
        u8::from(record.trace),
        record.pinned,
        record.cpus_allowed,
        record.repetitions
    );
    println!("why: {}", w.why);
    for m in &record.metrics {
        let bound = END_TO_END
            .iter()
            .find(|d| d.name == m.name)
            .map_or(String::new(), |d| {
                format!("  bound {:.0} %", 100.0 * d.bound)
            });
        let spread = if m.summary.n > 1 {
            format!(
                "  q1 {:.9} q3 {:.9} n {}",
                m.summary.q1, m.summary.q3, m.summary.n
            )
        } else {
            String::new()
        };
        println!(
            "  {:<36} {:>20.9} {:<8}{spread}{bound}",
            m.name, m.summary.median, m.unit
        );
    }
    println!(
        "  solves_attempted {}  solves_failed {}",
        record.solves_attempted,
        record.failures.len()
    );
    for f in &record.failures {
        println!("  FAILED {f}");
    }

    let io = |e: std::io::Error| format!("writing under {}: {e}", results::out_dir().display());
    if let Some(trace) = &outcome.trace {
        let path = results::out_dir().join(format!("trace_{}.json", w.name));
        results::write_file(&path, trace).map_err(io)?;
        println!("  trace written to {}", path.display());
    }
    results::write_file(
        &results::run_record_path(w.name, o.trace),
        &record.to_json(),
    )
    .map_err(io)?;
    println!("{}", record.contract_line());
    Ok(record.failures.is_empty())
}

fn child_args(workload: &str, o: &Options, trace: bool) -> Vec<String> {
    [
        "--pinned-child",
        "--workload",
        workload,
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec()
}

/// Every workload, untraced then traced, each in its own pinned child.
fn run_all(o: &Options) -> Result<bool, String> {
    let mut set = ResultSet {
        seed: o.seed,
        runs: Vec::new(),
    };
    let mut all_ok = true;
    for w in workloads::all() {
        for trace in [false, true] {
            let path = results::run_record_path(w.name, trace);
            // A stale record must not stand in for a child that died.
            let _ = std::fs::remove_file(&path);
            let status = pin::run_child(&child_args(w.name, o, trace))
                .map_err(|e| format!("starting the child for {}: {e}", w.name))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{} (trace {trace}) left no record: {e}", w.name))?;
            set.runs.push(RunRecord::from_json(&Json::parse(&text)?)?);
        }
    }
    let host = obj([
        ("cpu_model", string(&pin::cpu_model())),
        ("nproc", count(pin::allowed_cpus().len())),
    ]);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| results::out_dir().join(format!("results_seed{}.json", o.seed)));
    results::write_file(&path, &set.to_json(host))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result set written to {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return ExitCode::from(compare::main(&args[1..]));
    }
    let outcome = parse(&args).and_then(|o| match (&o.workload, o.pinned_child) {
        (Some(name), true) => run_here(&o, name),
        (Some(name), false) => pin::run_child(&child_args(name, &o, o.trace))
            .map(|status| status.success())
            .map_err(|e| format!("starting the child: {e}")),
        (None, _) => run_all(&o),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("esr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// BENCHMARK.json repeats the tables of this package for the driver.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |k: &str| doc.get(k).unwrap().as_arr().unwrap().to_vec();
        let text = |v: &Json, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        assert_eq!(list("paths"), [string("benchmark")]);
        assert!(list("command")
            .iter()
            .any(|a| a.as_str() == Some("benchmark/Cargo.toml")));

        let workloads = workloads::all();
        assert_eq!(list("workloads").len(), workloads.len());
        for (j, w) in list("workloads").iter().zip(&workloads) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(is_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(list("end_to_end").len(), END_TO_END.len());
        for (j, m) in list("end_to_end").iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), m.name);
            assert_eq!(text(j, "unit"), m.unit);
            assert_eq!(text(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
            assert!(is_name(m.name) && is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
        }
        assert_eq!(list("per_layer").len(), PER_LAYER.len());
        for (j, m) in list("per_layer").iter().zip(&PER_LAYER) {
            assert_eq!(text(j, "name"), m.0);
            assert_eq!(text(j, "unit"), m.1);
            assert_eq!(text(j, "better"), m.2.as_str());
            assert!(is_name(m.0) && is_unit(m.1));
        }
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(workloads.iter().map(|w| w.name));
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |s: &str| parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let o = parse("--workload mix_m3_n64 --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("mix_m3_n64"), 9, 2.5, true)
        );
        let o = parse("").unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (None, workloads::DEFAULT_SEED, RUN_SECONDS, false)
        );
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds -1",
            "--seconds nan",
            "--seed x",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
