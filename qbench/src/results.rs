//! Result files: what `qbench all` writes and `qbench compare` reads,
//! and the one-line JSON object the driver reads from a single run.

use crate::harness::Report;
use crate::metrics::{END_TO_END, PER_LAYER};
use serde::{Deserialize, Serialize, Value};

/// One metric of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    /// Name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples behind the value.
    pub samples: u64,
}

/// One check of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckRow {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// One workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRow {
    /// Workload name.
    pub workload: String,
    /// Whether spans were recorded (per-layer metrics) or not
    /// (end-to-end metrics).
    pub trace: bool,
    /// Whether every check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Wall time of the whole child process, s.
    pub process_s: f64,
    /// Metrics.
    pub metrics: Vec<MetricRow>,
    /// Checks.
    pub checks: Vec<CheckRow>,
    /// `key=value` facts.
    pub info: Vec<(String, String)>,
}

/// Where a result file was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
    /// Cores available to the process.
    pub nproc: u64,
    /// `/proc/version`.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
}

/// A set of runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Smoke scale; `compare` refuses such a file.
    pub quick: bool,
    /// Workload seed.
    pub seed: u64,
    /// Seconds each timed section measured.
    pub seconds: f64,
    /// Untraced runs per workload.
    pub repeats: u64,
    /// Where it ran.
    pub host: Host,
    /// Every run, in the order it was made.
    pub runs: Vec<RunRow>,
}

impl RunRow {
    /// A metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every end-to-end metric of an untraced
/// run or every per-layer metric of a traced one (0 for a layer the
/// workload bypasses).
pub fn driver_line(report: &Report, trace: bool) -> String {
    let wanted: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = wanted
        .into_iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(report.correct())),
        (
            "attempted".to_string(),
            Value::UInt(report.attempted.max(1)),
        ),
        ("failed".to_string(), Value::UInt(report.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        report.metric("setup_s", 0.5, "s", 3);
        report.check("x", true, String::new());
        let line = driver_line(&report, false);
        let v = serde_json::from_str_value(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = serde::find(v.as_map().unwrap(), "metrics").unwrap();
        assert_eq!(metrics.as_map().unwrap().len(), END_TO_END.len());
        assert!(
            line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"),
            "{line}"
        );
        assert!(!line.contains('\n'));

        let traced = driver_line(&report, true);
        let v = serde_json::from_str_value(&traced).unwrap();
        let metrics = serde::find(v.as_map().unwrap(), "metrics").unwrap();
        assert_eq!(metrics.as_map().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    fn result_file_round_trips() {
        let file = ResultFile {
            quick: true,
            seed: 7,
            seconds: 1.0,
            repeats: 1,
            host: Host {
                commit: "abc".into(),
                nproc: 2,
                kernel: "k".into(),
                rustc: "r".into(),
            },
            runs: vec![RunRow {
                workload: "w".into(),
                trace: false,
                correct: true,
                attempted: 3,
                failed: 0,
                process_s: 1.5,
                metrics: vec![MetricRow {
                    name: "setup_s".into(),
                    value: 0.25,
                    unit: "s".into(),
                    samples: 3,
                }],
                checks: vec![],
                info: vec![("k".into(), "v".into())],
            }],
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        assert_eq!(serde_json::from_str::<ResultFile>(&text).unwrap(), file);
    }
}
