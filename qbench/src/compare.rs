//! `qbench compare A.json B.json`: applies each metric's bound to two
//! result files, one row per (metric, workload).

use crate::metrics::{Better, Bounded, END_TO_END, FAILED_SHARE_BOUND_ABS, NATIVE, WORKLOADS};
use crate::results::ResultFile;
use crate::stats;

/// What the bound says about one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread between repeats exceeds the bound, so the medians
    /// cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Median of A.
    pub a: f64,
    /// Median of B.
    pub b: f64,
    /// How much worse B is, as a share of A (negative: better).
    pub worse_by: f64,
    /// The wider of the two quartile spreads, as a share of the median.
    pub spread: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges B against A for one bounded metric.
pub fn judge(m: &Bounded, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = match m.better {
        Better::Lower => (med_b - med_a) / med_a,
        Better::Higher => (med_a - med_b) / med_a,
    };
    let spread = [a, b]
        .iter()
        .filter_map(|v| stats::quartile_spread(v))
        .fold(0.0, f64::max);
    let all_better = a.iter().all(|x| {
        b.iter().all(|y| match m.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if all_better {
        Verdict::Ok
    } else if spread > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

fn untraced_values(file: &ResultFile, workload: &str, metric: &str) -> Vec<f64> {
    file.runs
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.value(metric))
        .collect()
}

fn failed_shares(file: &ResultFile, workload: &str) -> Vec<f64> {
    file.runs
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .map(|r| r.failed as f64 / r.attempted.max(1) as f64)
        .collect()
}

/// Compares two result files. Errors on a quick file or one with a run
/// that failed its checks: neither is a measurement.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<Vec<Row>, String> {
    for (label, f) in [("A", a), ("B", b)] {
        if f.quick {
            return Err(format!("{label} is a --quick result; it measures nothing"));
        }
        if let Some(r) = f.runs.iter().find(|r| !r.correct) {
            return Err(format!("{label} holds an incorrect run of {}", r.workload));
        }
    }
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for m in END_TO_END.iter().chain(&NATIVE) {
            let (va, vb) = (
                untraced_values(a, workload, m.name),
                untraced_values(b, workload, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue; // a native metric of another workload, or --only
            }
            let (worse_by, spread, verdict) = judge(m, &va, &vb);
            rows.push(Row {
                metric: m.name,
                workload,
                a: stats::median(&va),
                b: stats::median(&vb),
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
        let (fa, fb) = (failed_shares(a, workload), failed_shares(b, workload));
        if fa.is_empty() || fb.is_empty() {
            continue;
        }
        let (med_a, med_b) = (stats::median(&fa), stats::median(&fb));
        rows.push(Row {
            metric: "failed_share",
            workload,
            a: med_a,
            b: med_b,
            worse_by: med_b - med_a,
            spread: 0.0,
            bound: FAILED_SHARE_BOUND_ABS,
            verdict: if med_b - med_a > FAILED_SHARE_BOUND_ABS {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// Prints the rows; returns whether any is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "metric", "workload", "A median", "B median", "worse by", "spread", "bound"
    );
    for r in rows {
        let pct = |x: f64| {
            if r.metric == "failed_share" {
                format!("{x:+.4}")
            } else {
                format!("{:+.1}%", x * 100.0)
            }
        };
        println!(
            "{:<22} {:<16} {:>14.4} {:>14.4} {:>9} {:>8} {:>7}  {}",
            r.metric,
            r.workload,
            r.a,
            r.b,
            pct(r.worse_by),
            pct(r.spread),
            pct(r.bound),
            r.verdict.as_str()
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {} worse, {} unresolved",
        rows.len(),
        worse,
        unresolved
    );
    worse > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten_percent(better: Better) -> Bounded {
        Bounded {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_direction() {
        let thr = ten_percent(Better::Higher);
        let lat = ten_percent(Better::Lower);

        // 5 % slower throughput, tight repeats: inside the bound.
        assert_eq!(
            judge(&thr, &[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]).2,
            Verdict::Ok
        );
        // 20 % slower: worse.
        assert_eq!(
            judge(&thr, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]).2,
            Verdict::Worse
        );
        // 20 % higher latency is worse, 20 % lower is fine.
        assert_eq!(
            judge(&lat, &[10.0, 10.1, 9.9], &[12.0, 12.1, 11.9]).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lat, &[10.0, 10.1, 9.9], &[8.0, 8.1, 7.9]).2,
            Verdict::Ok
        );
        // Repeats 40 % apart cannot resolve a 10 % bound …
        assert_eq!(
            judge(&thr, &[100.0, 140.0, 80.0], &[95.0, 130.0, 70.0]).2,
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&thr, &[100.0, 140.0, 80.0], &[150.0, 190.0, 145.0]).2,
            Verdict::Ok
        );
    }
}
