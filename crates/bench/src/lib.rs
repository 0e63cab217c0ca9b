//! Shared infrastructure for the benchmark harnesses that regenerate the
//! paper's tables and figures (see EXPERIMENTS.md for the mapping).
//!
//! The paper's evaluation is one grid of solves ([`suite`]); its tables and
//! figures are [`views`] that only format cells, and every harness main
//! asks one [`Suite`] for the cells it shows.
//!
//! Configuration via environment variables:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `ESR_SCALE` | `0.01` | problem size as a fraction of the paper's (1.0 ≈ paper) |
//! | `ESR_NODES` | `128` | simulated cluster size N (the paper's 128) |
//! | `ESR_MATRICES` | all | comma list, e.g. `M1,M5,M8` |
//! | `ESR_PROGRESS` | `0.2,0.5,0.8` | failure-injection progress points, each inside (0, 1) |
//!
//! A variable that is set to something that does not parse is an error
//! naming the variable and the offending text, never a silent default. The
//! virtual BSP clock (λ–µ–γ model, paper Sec. 4.2) is deterministic, so one
//! solve per cell yields exact numbers; variation across the progress
//! points reproduces the spread the paper aggregates over.

pub mod suite;
pub mod views;

pub use suite::{Run, Suite, Summary};

use esr_core::Problem;
use parcomm::CostModel;
use sparsemat::gen::suite::{self as matrices, PaperMatrix};

/// Benchmark configuration resolved from the environment.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    pub scale: f64,
    pub nodes: usize,
    pub matrices: Vec<PaperMatrix>,
    pub progress: Vec<f64>,
    pub cost: CostModel,
}

impl BenchConfig {
    /// Read the configuration from `ESR_*` environment variables.
    ///
    /// # Panics
    /// Panics, naming the variable and the offending text, when one is set
    /// to something that does not parse.
    pub fn from_env() -> Self {
        Self::parse(|key| std::env::var(key).ok()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resolve the configuration from `var`, the lookup of one variable's
    /// text: the defaults, each overridden by a variable that is set and
    /// not blank.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let set = |key: &str| var(key).filter(|t| !t.trim().is_empty());
        // The event-driven scheduler runs one node at a time on parked OS
        // threads, so the paper's full cluster size is the cheap default —
        // N no longer multiplies host-thread contention, only stack count.
        let mut cfg = BenchConfig {
            scale: 0.01,
            nodes: 128,
            matrices: matrices::all_ids().to_vec(),
            progress: vec![0.2, 0.5, 0.8],
            cost: CostModel::default(),
        };
        if let Some(t) = set("ESR_SCALE") {
            let positive = |p: &str| p.parse().ok().filter(|&s: &f64| s > 0.0 && s.is_finite());
            cfg.scale = parse_part("ESR_SCALE", &t, &t, "a positive number", &positive)?;
        }
        if let Some(t) = set("ESR_NODES") {
            cfg.nodes = parse_part("ESR_NODES", &t, &t, "a node count", &|p| p.parse().ok())?;
        }
        if let Some(t) = set("ESR_MATRICES") {
            let named = |id: &PaperMatrix, p: &str| format!("{id:?}").eq_ignore_ascii_case(p);
            let matrix = |p: &str| matrices::all_ids().into_iter().find(|id| named(id, p));
            cfg.matrices = parse_list("ESR_MATRICES", &t, "one of M1..M8", matrix)?;
        }
        if let Some(t) = set("ESR_PROGRESS") {
            // At 0 or 1 the scheduled failure fires before the first
            // iteration or never.
            let fraction = |p: &str| p.parse().ok().filter(|&f: &f64| 0.0 < f && f < 1.0);
            let what = "a fraction strictly between 0 and 1";
            cfg.progress = parse_list("ESR_PROGRESS", &t, what, fraction)?;
        }
        Ok(cfg)
    }

    /// Generate the analog of `id` at the configured scale, with its RHS.
    pub fn problem(&self, id: PaperMatrix) -> Problem {
        let a = matrices::generate(id, self.scale);
        Problem::with_random_rhs(a, 0xBE7C_0000 + id as u64)
    }
}

/// One value, `part` of the `text` that variable `key` is set to, as `item`
/// reads it; a value `item` rejects is an error that names the variable,
/// its text and the part, and says `what` was expected.
fn parse_part<T>(
    key: &str,
    text: &str,
    part: &str,
    what: &str,
    item: &impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let part = part.trim();
    item(part).ok_or_else(|| format!("{key}={text:?}: {part:?} is not {what}"))
}

/// The values of the comma list `text` that variable `key` is set to.
fn parse_list<T>(
    key: &str,
    text: &str,
    what: &str,
    item: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let parts = text.split(',');
    parts
        .map(|p| parse_part(key, text, p, what, &item))
        .collect()
}

/// A harness's own comma list of numbers (`report`'s node counts), read
/// from environment variable `key`; `None` when it is unset or blank.
///
/// # Panics
/// Panics, naming the variable, its text and the offending part, on a
/// value that does not parse.
pub fn env_list<T: std::str::FromStr>(key: &str, what: &str) -> Option<Vec<T>> {
    let text = std::env::var(key).ok().filter(|t| !t.trim().is_empty())?;
    Some(parse_list(key, &text, what, |p| p.parse().ok()).unwrap_or_else(|e| panic!("{e}")))
}

/// Failure locations of the paper's setup (Sec. 7.1): contiguous ranks
/// starting at rank 0 ("start") or rank N/2 ("center").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailLocation {
    Start,
    Center,
}

impl FailLocation {
    pub fn first_rank(self, nodes: usize) -> usize {
        match self {
            FailLocation::Start => 0,
            FailLocation::Center => nodes / 2,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            FailLocation::Start => "start",
            FailLocation::Center => "center",
        }
    }
}

/// Mean and population standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Results directory: `ESR_RESULTS_DIR` if set, else the workspace's
/// `target/esr-results/`. Benches run with the package directory as CWD,
/// so the default is anchored at the workspace root.
pub fn results_dir() -> std::path::PathBuf {
    let dir = match std::env::var("ESR_RESULTS_DIR") {
        Ok(d) if !d.trim().is_empty() => std::path::PathBuf::from(d),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/esr-results"),
    };
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a machine-readable report (the `BENCH_*.json` artifacts).
pub fn write_json(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write json");
    println!("[json] wrote {}", path.display());
}

/// Write a CSV file under the results directory.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut out = String::with_capacity(rows.len() * 64 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    std::fs::write(&path, out).expect("write csv");
    println!("[csv] wrote {}", path.display());
}

/// Print the standard harness banner.
pub fn banner(title: &str, cfgb: &BenchConfig) {
    println!("================================================================");
    println!("{title}");
    println!(
        "scale = {} of paper size | N = {} nodes | λ = {:.1e}s µ = {:.1e}s γ = {:.1e}s",
        cfgb.scale, cfgb.nodes, cfgb.cost.lambda, cfgb.cost.mu, cfgb.cost.gamma
    );
    println!("(virtual BSP clock; see EXPERIMENTS.md for paper-vs-measured)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        assert!(mean_std(&[]).0.is_nan());
    }

    #[test]
    fn fail_location_ranks() {
        assert_eq!(FailLocation::Start.first_rank(16), 0);
        assert_eq!(FailLocation::Center.first_rank(16), 8);
    }

    /// The configuration when `key` is the only variable set.
    fn with(key: &'static str, text: &'static str) -> Result<BenchConfig, String> {
        BenchConfig::parse(|k| (k == key).then(|| text.to_string()))
    }

    #[test]
    fn unset_and_blank_variables_take_the_defaults() {
        for c in [BenchConfig::parse(|_| None), with("ESR_NODES", "  ")] {
            let c = c.unwrap();
            assert_eq!((c.scale, c.nodes), (0.01, 128));
            assert_eq!(c.matrices, matrices::all_ids());
            assert_eq!(c.progress, [0.2, 0.5, 0.8]);
        }
    }

    #[test]
    fn set_variables_parse() {
        assert_eq!(with("ESR_SCALE", " 0.5 ").unwrap().scale, 0.5);
        assert_eq!(with("ESR_NODES", "16").unwrap().nodes, 16);
        let m = with("ESR_MATRICES", "m5, M3,M5").unwrap().matrices;
        assert_eq!(m, [PaperMatrix::M5, PaperMatrix::M3, PaperMatrix::M5]);
        assert_eq!(
            with("ESR_PROGRESS", "0.5,0.9").unwrap().progress,
            [0.5, 0.9]
        );
    }

    #[test]
    fn a_bad_value_names_the_variable_and_the_text() {
        for (key, text, part) in [
            ("ESR_SCALE", "1,0", "1,0"),
            ("ESR_SCALE", "-1", "-1"),
            ("ESR_NODES", "12x", "12x"),
            ("ESR_MATRICES", "M1,M9", "M9"),
            ("ESR_PROGRESS", "0.2,fast", "fast"),
            ("ESR_PROGRESS", "0.5,1.0", "1.0"),
            ("ESR_PROGRESS", "0", "0"),
        ] {
            let err = with(key, text).unwrap_err();
            let shown = [key.to_string(), format!("{text:?}"), format!("{part:?}")];
            assert!(shown.iter().all(|s| err.contains(s)), "{err}");
        }
    }
}
