//! **§6.1**: the economic implication of a higher measured rate.
//!
//! Under viewability pricing, unmeasured impressions are unmonetised.
//! The paper's ballpark: +19 pp measured rate × 50 % viewability ⇒
//! +9.5 % monetised impressions; at 100 M ads/day and a $1 average CPM
//! that is ≈ $9.5 k/day ≈ $3.5 M/year for a mid-size DSP (×10 for a
//! 1 B/day large DSP).
//!
//! This binary measures the rates from a (small) production-pipeline
//! run and feeds them through the same arithmetic, printing both the
//! simulation-derived estimate and the paper's reference calculation.
//!
//! Flags: `--impressions N` (per campaign, default 2500), `--seed N`,
//! `--json`.

use qtag_bench::{format_pct, run_production, ExperimentOutput, ProductionConfig};
use serde::Serialize;

/// Revenue uplift per day for a DSP serving `ads_per_day` at `cpm`
/// dollars, when switching from a solution measuring `rate_from` to one
/// measuring `rate_to`, with `viewability` of measured ads viewed.
fn daily_uplift(ads_per_day: f64, cpm: f64, rate_from: f64, rate_to: f64, viewability: f64) -> f64 {
    let extra_measured = (rate_to - rate_from).max(0.0);
    let extra_monetized = extra_measured * viewability;
    ads_per_day * extra_monetized * cpm / 1000.0
}

fn main() {
    let out = ExperimentOutput::from_args();
    let cfg = ProductionConfig {
        campaigns: 4,
        impressions_per_campaign: out.arg("--impressions").unwrap_or(2_500) as u32,
        seed: out.arg("--seed").unwrap_or(61),
        ..ProductionConfig::default()
    };
    eprintln!("measuring rates from a production-pipeline run …");
    let r = run_production(&cfg);

    let qtag = r.qtag_summary.mean_measured_rate;
    let comm = r.verifier_summary.mean_measured_rate;
    let viewability = r.qtag_summary.mean_viewability_rate;
    let cpm = 1.0; // $1 average CPM, the paper's reference (§6.1 fn. 4)

    out.section("Inputs");
    println!(
        "  measured rate:    Q-Tag {}  commercial {}",
        format_pct(qtag),
        format_pct(comm)
    );
    println!("  viewability rate: {}", format_pct(viewability));
    println!("  average CPM:      ${cpm:.2}");

    let mid_daily = daily_uplift(100e6, cpm, comm, qtag, viewability);
    let large_daily = daily_uplift(1e9, cpm, comm, qtag, viewability);

    out.section("Revenue uplift from switching to Q-Tag (simulation-derived)");
    println!(
        "  mid-size DSP (100M ads/day):  ${:>10.0} /day   ${:>12.0} /year   (paper: $9.5k/day, $3.5M/yr)",
        mid_daily,
        mid_daily * 365.0
    );
    println!(
        "  large DSP    (1B ads/day):    ${:>10.0} /day   ${:>12.0} /year   (paper: $95k/day, $35M/yr)",
        large_daily,
        large_daily * 365.0
    );

    out.section("Paper's reference arithmetic (93% vs 74%, 50% viewability)");
    let ref_daily = daily_uplift(100e6, 1.0, 0.74, 0.93, 0.5);
    println!(
        "  mid-size DSP: ${:.0}/day, ${:.1}M/year",
        ref_daily,
        ref_daily * 365.0 / 1e6
    );

    out.section("Shape checks vs the paper");
    let checks = [
        (
            "daily uplift for a mid DSP in the $6k–$13k band",
            (6_000.0..=13_000.0).contains(&mid_daily),
        ),
        (
            "yearly uplift for a mid DSP in the $2M–$5M band (paper: $3.5M)",
            (2e6..=5e6).contains(&(mid_daily * 365.0)),
        ),
        (
            "large DSP scales 10x",
            (large_daily / mid_daily - 10.0).abs() < 1e-6,
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        qtag_measured: f64,
        commercial_measured: f64,
        viewability: f64,
        mid_dsp_daily_usd: f64,
        mid_dsp_yearly_usd: f64,
        large_dsp_yearly_usd: f64,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        qtag_measured: qtag,
        commercial_measured: comm,
        viewability,
        mid_dsp_daily_usd: mid_daily,
        mid_dsp_yearly_usd: mid_daily * 365.0,
        large_dsp_yearly_usd: large_daily * 365.0,
        shape_checks_pass: all_ok,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
