//! The result documents: one per run of a workload, and the file that
//! collects a whole set of runs for `compare`.

use std::path::{Path, PathBuf};

use crate::json::{count, num, obj, string, Json};
use crate::metrics::Metric;
use crate::stats::Summary;

/// Bumped when a metric's definition or a workload's inputs change, so
/// `compare` refuses to set unlike numbers side by side.
pub const BENCHMARK_VERSION: usize = 1;

/// One run of one workload, as written to disk.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The process ran on exactly one CPU (read back from its affinity).
    pub pinned: bool,
    pub cpus_allowed: String,
    pub repetitions: usize,
    pub solves_attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                obj([
                    ("name", string(&m.name)),
                    ("unit", string(&m.unit)),
                    ("median", num(m.summary.median)),
                    ("q1", num(m.summary.q1)),
                    ("q3", num(m.summary.q3)),
                    ("n", count(m.summary.n)),
                    (
                        "samples",
                        Json::Arr(m.samples.iter().map(|&s| num(s)).collect()),
                    ),
                ])
            })
            .collect();
        obj([
            ("benchmark_version", count(BENCHMARK_VERSION)),
            ("workload", string(&self.workload)),
            ("seed", num(self.seed as f64)),
            ("seconds", num(self.seconds)),
            ("trace", Json::Bool(self.trace)),
            ("pinned", Json::Bool(self.pinned)),
            ("cpus_allowed", string(&self.cpus_allowed)),
            ("repetitions", count(self.repetitions)),
            ("solves_attempted", count(self.solves_attempted)),
            ("solves_failed", count(self.failures.len())),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| string(f)).collect()),
            ),
            ("metrics", Json::Arr(metrics)),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RunRecord, String> {
        let field = |k: &str| doc.get(k).ok_or(format!("run record lacks \"{k}\""));
        let number = |k: &str| field(k)?.as_f64().ok_or(format!("\"{k}\" is not a number"));
        let text = |k: &str| {
            Ok::<_, String>(
                field(k)?
                    .as_str()
                    .ok_or(format!("\"{k}\" is not a string"))?
                    .to_string(),
            )
        };
        let flag = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or(format!("\"{k}\" is not a boolean"))
        };
        if number("benchmark_version")? != BENCHMARK_VERSION as f64 {
            return Err(format!(
                "result is of benchmark version {}, this is version {BENCHMARK_VERSION}",
                number("benchmark_version")?
            ));
        }
        let mut metrics = Vec::new();
        for m in field("metrics")?
            .as_arr()
            .ok_or("\"metrics\" is not a list")?
        {
            let f = |k: &str| {
                m.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric lacks \"{k}\""))
            };
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric lacks \"{k}\""))
            };
            metrics.push(Metric {
                name: s("name")?.to_string(),
                unit: s("unit")?.to_string(),
                summary: Summary {
                    median: f("median")?,
                    q1: f("q1")?,
                    q3: f("q3")?,
                    n: f("n")? as usize,
                },
                samples: m
                    .get("samples")
                    .and_then(Json::as_arr)
                    .ok_or("metric lacks \"samples\"")?
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect(),
            });
        }
        Ok(RunRecord {
            workload: text("workload")?,
            seed: number("seed")? as u64,
            seconds: number("seconds")?,
            trace: flag("trace")?,
            pinned: flag("pinned")?,
            cpus_allowed: text("cpus_allowed")?,
            repetitions: number("repetitions")? as usize,
            solves_attempted: number("solves_attempted")? as usize,
            failures: field("failures")?
                .as_arr()
                .ok_or("\"failures\" is not a list")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
        })
    }

    /// The last line of a run's standard output: the driver's contract.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", num(m.summary.median)), ("unit", string(&m.unit))]),
                )
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", count(self.solves_attempted)),
            ("failed", count(self.failures.len())),
            ("metrics", Json::Obj(metrics)),
        ])
        .write()
    }
}

/// A set of runs of one seed, as `compare` reads it.
pub struct ResultSet {
    pub seed: u64,
    pub runs: Vec<RunRecord>,
}

impl ResultSet {
    pub fn to_json(&self, host: Json) -> Json {
        obj([
            ("benchmark_version", count(BENCHMARK_VERSION)),
            ("seed", num(self.seed as f64)),
            ("host", host),
            (
                "runs",
                Json::Arr(self.runs.iter().map(RunRecord::to_json).collect()),
            ),
        ])
    }

    pub fn read(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or(format!("{}: no \"runs\" list", path.display()))?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("no \"seed\"")? as u64;
        Ok(ResultSet { seed, runs })
    }

    pub fn run(&self, workload: &str, trace: bool) -> Option<&RunRecord> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.trace == trace)
    }
}

/// `benchmark/out`, wherever the command was started from: the repo root
/// (the BENCHMARK.json command), `benchmark/` itself, or elsewhere.
pub fn out_dir() -> PathBuf {
    let package = if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark")
    } else if Path::new("src/adapter.rs").is_file() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    package.join("out")
}

/// Where a child leaves its record for the parent that started it.
pub fn run_record_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("run_{workload}_trace{}.json", u8::from(trace)))
}

pub fn write_file(path: &Path, doc: &Json) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.write() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn run_record_round_trips_and_prints_the_contract_line() {
        let samples = vec![1.25, 1.5, 1.0];
        let rec = RunRecord {
            workload: "thick_m1_n16".into(),
            seed: 7,
            seconds: 15.0,
            trace: false,
            pinned: true,
            cpus_allowed: "1".into(),
            repetitions: 3,
            solves_attempted: 9,
            failures: vec!["pcg.reference: did not converge".into()],
            metrics: vec![Metric {
                name: "wall_s".into(),
                unit: "s".into(),
                summary: summarize(&samples),
                samples,
            }],
        };
        let back = RunRecord::from_json(&Json::parse(&rec.to_json().write()).unwrap()).unwrap();
        assert_eq!(back, rec);

        let line = Json::parse(&rec.contract_line()).unwrap();
        let Json::Obj(pairs) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed"), Some(&count(1)));
        let wall = line.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value"), Some(&num(1.25)));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn other_versions_are_refused() {
        let doc = Json::parse("{\"benchmark_version\":0}").unwrap();
        assert!(RunRecord::from_json(&doc).unwrap_err().contains("version"));
    }
}
