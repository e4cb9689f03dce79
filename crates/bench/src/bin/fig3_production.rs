//! **Figure 3**: measured rate and viewability rate of Q-Tag vs the
//! commercial solution on dual-tagged production campaigns.
//!
//! Paper setup: 4 campaigns, 1.89 M ads, both tags on every impression.
//! Paper results: measured rate Q-Tag ≈ 93 % vs commercial ≈ 74 %
//! (mean over campaigns, std error bars); viewability rate ≈ 50 % for
//! both, with similar spread.
//!
//! This binary drives the full pipeline: second-price auctions across
//! the eight exchanges → DSP serving → per-impression user session on
//! the simulated browser with *both* tags attached → lossy transport →
//! ingestion → campaign reports.
//!
//! Flags: `--impressions N` (per campaign, default 5000),
//! `--campaigns N` (default 4), `--seed N`, `--json`.

use qtag_bench::{format_pct, run_production, ExperimentOutput, ProductionConfig};

fn main() {
    let out = ExperimentOutput::from_args();
    let cfg = ProductionConfig {
        campaigns: out.arg("--campaigns").unwrap_or(4) as u32,
        impressions_per_campaign: out.arg("--impressions").unwrap_or(5_000) as u32,
        seed: out.arg("--seed").unwrap_or(2019),
        ..ProductionConfig::default()
    };

    eprintln!(
        "running production pipeline: {} campaigns x {} impressions …",
        cfg.campaigns, cfg.impressions_per_campaign
    );
    let r = run_production(&cfg);

    out.section("Figure 3 (a) — measured rate (mean ± std across campaigns)");
    println!(
        "  Q-Tag:       {} ± {}   (paper: ~93%)",
        format_pct(r.qtag_summary.mean_measured_rate),
        format_pct(r.qtag_summary.std_measured_rate)
    );
    println!(
        "  Commercial:  {} ± {}   (paper: ~74%)",
        format_pct(r.verifier_summary.mean_measured_rate),
        format_pct(r.verifier_summary.std_measured_rate)
    );

    out.section("Figure 3 (b) — viewability rate (mean ± std across campaigns)");
    println!(
        "  Q-Tag:       {} ± {}   (paper: ~50%)",
        format_pct(r.qtag_summary.mean_viewability_rate),
        format_pct(r.qtag_summary.std_viewability_rate)
    );
    println!(
        "  Commercial:  {} ± {}   (paper: ~50%)",
        format_pct(r.verifier_summary.mean_viewability_rate),
        format_pct(r.verifier_summary.std_viewability_rate)
    );

    out.section("Per-campaign detail");
    println!(
        "{:>10} {:>8} {:>16} {:>16} {:>14} {:>14}",
        "campaign", "served", "qtag measured", "comm measured", "qtag in-view", "comm in-view"
    );
    for (q, v) in r.qtag_reports.iter().zip(&r.verifier_reports) {
        println!(
            "{:>10} {:>8} {:>16} {:>16} {:>14} {:>14}",
            q.campaign_id,
            q.total.served,
            format_pct(q.total.measured_rate()),
            format_pct(v.total.measured_rate()),
            format_pct(q.total.viewability_rate()),
            format_pct(v.total.viewability_rate()),
        );
    }

    out.section("Shape checks vs the paper");
    let qm = r.qtag_summary.mean_measured_rate;
    let vm = r.verifier_summary.mean_measured_rate;
    let qv = r.qtag_summary.mean_viewability_rate;
    let vv = r.verifier_summary.mean_viewability_rate;
    let checks = [
        (
            "Q-Tag measured rate in the low-to-mid 90s",
            (0.88..=0.97).contains(&qm),
        ),
        (
            "commercial measured rate in the low-to-mid 70s",
            (0.65..=0.82).contains(&vm),
        ),
        (
            "gap of roughly 19 pp in Q-Tag's favour",
            (0.12..=0.27).contains(&(qm - vm)),
        ),
        (
            "both viewability rates near 50 % and within 5 pp of each other",
            (0.40..=0.62).contains(&qv) && (qv - vv).abs() < 0.05,
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    out.finish(&r);
    if !all_ok {
        std::process::exit(1);
    }
}
