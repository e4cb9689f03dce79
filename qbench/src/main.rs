//! `qbench` — one benchmark for the whole Q-Tag pipeline.
//!
//! ```text
//! qbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//!     one workload in this process; the last line of standard output
//!     is the JSON object the driver reads.
//! qbench all [--quick] [--only <workload>] [--seed <n>] [--seconds <s>]
//!            [--repeats <r>] [--out <file>]
//!     every workload, each run in a child process of its own: <r>
//!     untraced runs, then one traced run; prints every metric and the
//!     layer table, writes a result file, exits non-zero if a check fails.
//! qbench compare <A.json> <B.json>
//!     applies the bounds to two result files; exits non-zero on `worse`.
//! ```
//!
//! See `README.md` for what the workloads and metrics mean.

mod compare;
mod corpus;
mod harness;
mod metrics;
mod results;
mod stats;
mod sys;
mod timed;
mod trace;
mod workloads;

use harness::{Report, RunArgs};
use metrics::WORKLOADS;
use results::{Host, ResultFile, RunRow};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Span, Tracer};

/// The default workload seed.
const DEFAULT_SEED: u64 = 2019;
/// Seconds a timed section measures unless told otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
/// Seconds at `--quick` scale.
const QUICK_SECONDS: f64 = 0.5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some(_) => single(&args),
        None => Err("usage: qbench --workload <name> … | all … | compare A B".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("qbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Flags as `--name value` pairs, plus bare switches.
struct Flags<'a> {
    args: &'a [String],
}

impl Flags<'_> {
    fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")))
            .transpose()
    }
    fn switch(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

fn known_workload(name: &str) -> Result<&'static str, String> {
    WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload `{name}`; one of {WORKLOADS:?}"))
}

/// One workload in this process.
fn single(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let workload = known_workload(flags.value("--workload").ok_or("--workload is required")?)?;
    let quick = flags.switch("--quick");
    let run = RunArgs {
        seed: flags.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: flags.parsed("--seconds")?.unwrap_or(if quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: flags.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
        quick,
    };
    println!(
        "# qbench workload={workload} seed={} seconds={} trace={} quick={}",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.quick
    );
    let report = workloads::run(workload, &run).expect("the workload name was checked");
    print_report(workload, &report);
    if let Some((tracer, wall_ns)) = &report.trace {
        print_layer_table(tracer, *wall_ns);
        write_trace(workload, tracer)?;
    }
    // The driver reads the last line.
    println!("{}", results::driver_line(&report, run.trace));
    Ok(report.correct())
}

fn print_report(workload: &str, report: &Report) {
    for (key, value) in &report.info {
        println!("info {workload} {key}={value}");
    }
    for m in &report.metrics {
        println!(
            "metric {workload} {} {} {} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "metric {workload} failed_share {} ratio failed={} attempted={}",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for c in &report.checks {
        println!(
            "check {workload} {} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAIL" },
            c.detail
        );
    }
}

/// The layer table of a traced run: per span name its count, total and
/// self time, and the self time's share of the traced wall time.
fn print_layer_table(tracer: &Tracer, wall_ns: u64) {
    println!(
        "layer {:<24} {:>12} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "share"
    );
    for span in Span::ALL {
        let a = tracer.agg(*span);
        if a.count == 0 {
            continue;
        }
        println!(
            "layer {:<24} {:>12} {:>12.3} {:>12.3} {:>6.1}%",
            span.name(),
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6,
            a.self_ns as f64 * 100.0 / wall_ns.max(1) as f64
        );
    }
    let timed = tracer.agg(Span::Timed);
    if timed.count > 0 {
        // Single-threaded workloads run under one root span, so the self
        // times partition the traced wall time.
        println!(
            "layer self times sum to {:.3} ms of {:.3} ms traced wall ({:.2}%)",
            tracer.self_sum_ns() as f64 / 1e6,
            wall_ns as f64 / 1e6,
            tracer.self_sum_ns() as f64 * 100.0 / wall_ns.max(1) as f64
        );
    }
}

fn write_trace(workload: &str, tracer: &Tracer) -> Result<(), String> {
    let dir = sys::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    let text = serde_json::to_string(&tracer.samples().to_vec()).expect("span records serialise");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "info {workload} trace_file={} ({} sampled spans)",
        path.display(),
        tracer.samples().len()
    );
    Ok(())
}

/// Every workload, each run in its own child process.
fn all(args: &[String]) -> Result<bool, String> {
    let flags = Flags { args };
    let quick = flags.switch("--quick");
    let seed = flags.parsed("--seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = flags.parsed("--seconds")?.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let repeats: u64 = flags
        .parsed("--repeats")?
        .unwrap_or(if quick { 1 } else { 3 });
    let only = flags.value("--only").map(known_workload).transpose()?;
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;

    let mut file = ResultFile {
        quick,
        seed,
        seconds,
        repeats,
        host: host(),
        runs: Vec::new(),
    };
    let mut correct = true;
    for workload in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        for (trace, count) in [(false, repeats), (true, 1)] {
            for _ in 0..count {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if quick {
                    cmd.arg("--quick");
                }
                let started = Instant::now();
                let out = cmd
                    .output()
                    .map_err(|e| format!("spawning {workload}: {e}"))?;
                let process_s = started.elapsed().as_secs_f64();
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let row = parse_child(workload, trace, process_s, &stdout)
                    .ok_or_else(|| format!("{workload}: the child printed no result"))?;
                correct &= row.correct && out.status.success();
                file.runs.push(row);
            }
        }
        correct &= same_checksum(workload, &file.runs);
    }
    let path = match flags.value("--out") {
        Some(p) => std::path::PathBuf::from(p),
        None => sys::out_dir().join("result.json"),
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&file).expect("a result file serialises"),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# wrote {} ({} runs{})",
        path.display(),
        file.runs.len(),
        if quick {
            ", quick: not a measurement"
        } else {
            ""
        }
    );
    Ok(correct)
}

/// Rebuilds a run's rows from what the child printed.
fn parse_child(workload: &str, trace: bool, process_s: f64, stdout: &str) -> Option<RunRow> {
    let last = stdout.lines().last()?;
    let line = serde_json::from_str_value(last).ok()?;
    let map = line.as_map()?;
    let uint = |key: &str| match serde::find(map, key)? {
        serde::Value::UInt(u) => Some(*u),
        _ => None,
    };
    let mut row = RunRow {
        workload: workload.to_string(),
        trace,
        correct: matches!(serde::find(map, "correct")?, serde::Value::Bool(true)),
        attempted: uint("attempted")?,
        failed: uint("failed")?,
        process_s,
        metrics: Vec::new(),
        checks: Vec::new(),
        info: Vec::new(),
    };
    for l in stdout.lines() {
        let mut words = l.split_whitespace();
        match (words.next(), words.next()) {
            (Some("metric"), Some(w)) if w == workload => {
                let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                else {
                    continue;
                };
                let samples = words
                    .next()
                    .and_then(|n| n.strip_prefix("n="))
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(1);
                row.metrics.push(results::MetricRow {
                    name: name.to_string(),
                    value: value.parse().ok()?,
                    unit: unit.to_string(),
                    samples,
                });
            }
            (Some("check"), Some(w)) if w == workload => {
                let (Some(name), Some(verdict)) = (words.next(), words.next()) else {
                    continue;
                };
                row.checks.push(results::CheckRow {
                    name: name.to_string(),
                    ok: verdict == "ok",
                    detail: words.collect::<Vec<_>>().join(" "),
                });
            }
            (Some("info"), Some(w)) if w == workload => {
                if let Some((k, v)) = words.next().and_then(|kv| kv.split_once('=')) {
                    row.info.push((k.to_string(), v.to_string()));
                }
            }
            _ => {}
        }
    }
    Some(row)
}

/// Runs of one workload with one seed do the same fixed work before
/// their checksum or digest is taken, traced or not: the values must
/// agree across the children.
fn same_checksum(workload: &str, runs: &[RunRow]) -> bool {
    let mut ok = true;
    for key in ["checksum", "digest_unit0"] {
        let mut seen: Vec<&str> = runs
            .iter()
            .filter(|r| r.workload == workload)
            .flat_map(|r| r.info.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect();
        seen.dedup();
        if seen.len() > 1 {
            println!("check {workload} {key}_repeats_across_runs FAIL ({seen:?})");
            ok = false;
        } else if seen.len() == 1 {
            println!(
                "check {workload} {key}_repeats_across_runs ok ({})",
                seen[0]
            );
        }
    }
    ok
}

fn host() -> Host {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Host {
        commit: run("git", &["rev-parse", "HEAD"]),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        kernel: std::fs::read_to_string("/proc/version")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        rustc: run("rustc", &["--version"]),
    }
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: qbench compare <A.json> <B.json>".to_string());
    };
    let load = |path: &String| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    Ok(!compare::print(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` and `metrics.rs` name the same things.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let v = serde_json::from_str_value(&text).expect("it is JSON");
        let map = v.as_map().unwrap();
        let names = |key: &str| -> Vec<String> {
            match serde::find(map, key).unwrap() {
                serde::Value::Seq(items) => items
                    .iter()
                    .map(|i| {
                        serde::find(i.as_map().unwrap(), "name")
                            .and_then(serde::Value::as_str)
                            .unwrap()
                            .to_string()
                    })
                    .collect(),
                _ => panic!("{key} is a list"),
            }
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layer: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), layer);
        for (entry, m) in match serde::find(map, "end_to_end").unwrap() {
            serde::Value::Seq(items) => items.iter().zip(END_TO_END.iter()),
            _ => unreachable!(),
        } {
            let e = entry.as_map().unwrap();
            assert_eq!(
                serde::find(e, "unit").and_then(serde::Value::as_str),
                Some(m.unit)
            );
            assert_eq!(
                serde::find(e, "better").and_then(serde::Value::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(serde::find(e, "bound"), Some(&serde::Value::Float(m.bound)));
        }
        assert_eq!(
            serde::find(map, "run_seconds"),
            Some(&serde::Value::UInt(DEFAULT_SECONDS as u64))
        );
    }

    #[test]
    fn a_childs_output_parses_back_into_rows() {
        let out = "# qbench workload=w\n\
                   info campaign_replay digest_unit0=00ff\n\
                   metric campaign_replay setup_s 0.25 s n=3\n\
                   metric resident_fleet setup_s 9 s n=3\n\
                   check campaign_replay rates ok (0.93 in [0.92, 0.97])\n\
                   {\"correct\":true,\"attempted\":5,\"failed\":1,\"metrics\":{}}";
        let row = parse_child("campaign_replay", false, 1.0, out).unwrap();
        assert!(row.correct);
        assert_eq!((row.attempted, row.failed), (5, 1));
        assert_eq!(row.metrics.len(), 1, "another workload's line is not ours");
        assert_eq!(row.value("setup_s"), Some(0.25));
        assert_eq!(row.metrics[0].samples, 3);
        assert!(row.checks[0].ok);
        assert_eq!(row.info, [("digest_unit0".to_string(), "00ff".to_string())]);
        assert!(parse_child("w", false, 1.0, "no json here").is_none());
    }
}
