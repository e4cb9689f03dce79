//! **§5 fleet dataset**: the paper's broader deployment — "a dataset
//! including the viewability measures of more than 12 M ads belonging to
//! 99 ad campaigns that we monitor during a week" (Q-Tag only; the
//! commercial tag ran on just 4 campaigns due to its cost).
//!
//! Reproduces the 99-campaign fleet at configurable scale through the
//! full pipeline and reports the fleet-level distribution of measured
//! and viewability rates, plus replay throughput normalised per core.
//! Flags: `--impressions N` (per campaign, default 400), `--seed N`,
//! `--json`.

use qtag_bench::{format_pct, run_production, ExperimentOutput, ProductionConfig};
use serde::Serialize;
use std::time::Instant;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let out = ExperimentOutput::from_args();
    let cfg = ProductionConfig {
        campaigns: 99,
        impressions_per_campaign: out.arg("--impressions").unwrap_or(400) as u32,
        seed: out.arg("--seed").unwrap_or(1999),
        ..ProductionConfig::default()
    };
    eprintln!(
        "running fleet pipeline: {} campaigns x {} impressions …",
        cfg.campaigns, cfg.impressions_per_campaign
    );
    let replay_start = Instant::now();
    let r = run_production(&cfg);
    let replay_secs = replay_start.elapsed().as_secs_f64();

    let mut measured: Vec<f64> = r
        .qtag_reports
        .iter()
        .map(|c| c.total.measured_rate())
        .collect();
    let mut viewability: Vec<f64> = r
        .qtag_reports
        .iter()
        .map(|c| c.total.viewability_rate())
        .collect();
    measured.sort_by(f64::total_cmp);
    viewability.sort_by(f64::total_cmp);

    // The replay is single-threaded, so per-core == absolute here.
    let sessions_per_sec_per_core = r.served as f64 / replay_secs;

    out.section("§5 fleet — 99 campaigns, Q-Tag only");
    println!(
        "  campaigns: {}   ads served: {}",
        r.qtag_reports.len(),
        r.served
    );
    println!(
        "  measured rate:    mean {}  p10 {}  median {}  p90 {}",
        format_pct(r.qtag_summary.mean_measured_rate),
        format_pct(percentile(&measured, 0.10)),
        format_pct(percentile(&measured, 0.50)),
        format_pct(percentile(&measured, 0.90)),
    );
    println!(
        "  viewability rate: mean {}  p10 {}  median {}  p90 {}",
        format_pct(r.qtag_summary.mean_viewability_rate),
        format_pct(percentile(&viewability, 0.10)),
        format_pct(percentile(&viewability, 0.50)),
        format_pct(percentile(&viewability, 0.90)),
    );
    println!(
        "  DSP spend over the window: ${:.2}",
        r.spend_cpm_milli as f64 / 1000.0 / 1000.0
    );
    println!(
        "  replay throughput: {:.0} sessions/sec/core ({:.2}s wall, 1 worker)",
        sessions_per_sec_per_core, replay_secs
    );

    out.section("Shape checks vs the paper");
    let checks = [
        (
            "fleet mean measured rate ≈ 93 % (±3 pp)",
            (r.qtag_summary.mean_measured_rate - 0.93).abs() < 0.03,
        ),
        (
            "fleet mean viewability ≈ 50 % (±8 pp)",
            (r.qtag_summary.mean_viewability_rate - 0.50).abs() < 0.08,
        ),
        (
            "campaign heterogeneity: viewability p90 − p10 ≥ 8 pp",
            percentile(&viewability, 0.90) - percentile(&viewability, 0.10) >= 0.08,
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        campaigns: usize,
        served: u64,
        mean_measured: f64,
        mean_viewability: f64,
        viewability_p10: f64,
        viewability_p90: f64,
        sessions_per_sec_per_core: f64,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        campaigns: r.qtag_reports.len(),
        served: r.served,
        mean_measured: r.qtag_summary.mean_measured_rate,
        mean_viewability: r.qtag_summary.mean_viewability_rate,
        viewability_p10: percentile(&viewability, 0.10),
        viewability_p90: percentile(&viewability, 0.90),
        sessions_per_sec_per_core,
        shape_checks_pass: all_ok,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
