//! **Table 2**: measured rate by site type × OS for mobile impressions,
//! Q-Tag vs the commercial solution.
//!
//! Paper values (measured rate):
//!
//! | site | OS      | Q-Tag | Commercial |
//! |------|---------|-------|------------|
//! | App  | Android | 90.6% | 53.4%      |
//! | App  | iOS     | 97.0% | 83.8%      |
//! | Brow.| Android | 94.4% | 86.7%      |
//! | Brow.| iOS     | 94.6% | 91.1%      |
//!
//! Flags: `--impressions N` (per campaign, default 8000), `--seed N`,
//! `--json`.

use qtag_bench::{format_pct, run_production, ExperimentOutput, ProductionConfig};
use qtag_server::SliceKey;
use qtag_wire::{OsKind, SiteType};
use serde::Serialize;

fn main() {
    let out = ExperimentOutput::from_args();
    let cfg = ProductionConfig {
        campaigns: 4,
        impressions_per_campaign: out.arg("--impressions").unwrap_or(8_000) as u32,
        seed: out.arg("--seed").unwrap_or(2020),
        ..ProductionConfig::default()
    };
    eprintln!(
        "running production pipeline: {} campaigns x {} impressions …",
        cfg.campaigns, cfg.impressions_per_campaign
    );
    let r = run_production(&cfg);

    // (site, os, paper qtag, paper commercial)
    let rows = [
        (SiteType::App, OsKind::Android, 0.906, 0.534),
        (SiteType::App, OsKind::Ios, 0.970, 0.838),
        (SiteType::Browser, OsKind::Android, 0.944, 0.867),
        (SiteType::Browser, OsKind::Ios, 0.946, 0.911),
    ];

    out.section("Table 2 — measured rate by site type and OS (measured | paper)");
    println!(
        "{:>9} {:>9} {:>18} {:>24}",
        "site", "OS", "Q-Tag", "Commercial"
    );
    #[derive(Serialize)]
    struct Row {
        site: String,
        os: String,
        qtag: f64,
        qtag_paper: f64,
        commercial: f64,
        commercial_paper: f64,
    }
    let mut payload_rows = Vec::new();
    let mut all_ok = true;
    for (site, os, paper_q, paper_v) in rows {
        let key = SliceKey {
            site_type: site,
            os,
        };
        let q = r
            .qtag_slices
            .get(&key)
            .map(|s| s.measured_rate())
            .unwrap_or(0.0);
        let v = r
            .verifier_slices
            .get(&key)
            .map(|s| s.measured_rate())
            .unwrap_or(0.0);
        println!(
            "{:>9} {:>9} {:>9} | {:<6} {:>9} | {:<6}",
            format!("{site:?}"),
            format!("{os:?}"),
            format_pct(q),
            format_pct(paper_q),
            format_pct(v),
            format_pct(paper_v),
        );
        // Shape: within 5 pp of the paper per cell.
        if (q - paper_q).abs() > 0.05 || (v - paper_v).abs() > 0.05 {
            all_ok = false;
        }
        payload_rows.push(Row {
            site: format!("{site:?}"),
            os: format!("{os:?}"),
            qtag: q,
            qtag_paper: paper_q,
            commercial: v,
            commercial_paper: paper_v,
        });
    }

    out.section("Shape checks vs the paper");
    // Ordering checks (the qualitative claims of §6).
    let get = |site, os, ours: &std::collections::HashMap<SliceKey, qtag_server::RateSlice>| {
        ours.get(&SliceKey {
            site_type: site,
            os,
        })
        .map(|s| s.measured_rate())
        .unwrap_or(0.0)
    };
    let worst_commercial_is_android_app = {
        let aa = get(SiteType::App, OsKind::Android, &r.verifier_slices);
        rows.iter()
            .all(|(s, o, _, _)| aa <= get(*s, *o, &r.verifier_slices))
    };
    let qtag_always_better = rows
        .iter()
        .all(|(s, o, _, _)| get(*s, *o, &r.qtag_slices) > get(*s, *o, &r.verifier_slices));
    let checks = [
        ("every cell within 5 pp of the paper", all_ok),
        (
            "commercial solution is worst in Android apps",
            worst_commercial_is_android_app,
        ),
        (
            "Q-Tag beats the commercial solution in every cell",
            qtag_always_better,
        ),
    ];
    let mut pass = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        pass &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        rows: Vec<Row>,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        rows: payload_rows,
        shape_checks_pass: pass,
    });
    if !pass {
        std::process::exit(1);
    }
}
