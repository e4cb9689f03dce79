//! **§2.2 extension**: "Note that ROI and CTR depend on the viewability
//! rate since the higher is the viewability rate of a campaign, the more
//! chances to get clicks and purchases."
//!
//! The paper states this relationship; this experiment measures it in
//! the reproduction. Campaigns differing only in placement quality
//! (above-fold share) are served to identical audiences with clicking
//! enabled; users can only click creatives that are actually on screen
//! (the engine enforces it), so CTR must rise with viewability — and
//! the slope quantifies the §2.2 claim.
//!
//! Flags: `--sessions N` (per campaign, default 4000), `--seed N`,
//! `--json`.

use qtag_adtech::{CampaignId, ServedAd};
use qtag_bench::{format_pct, ExperimentOutput};
use qtag_geometry::Size;
use qtag_user::{Population, PopulationConfig, SessionSim};
use qtag_wire::{AdFormat, EventKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    above_fold_share: f64,
    viewability: f64,
    ctr: f64,
}

fn main() {
    let out = ExperimentOutput::from_args();
    let sessions = out.arg("--sessions").unwrap_or(8_000);
    let seed = out.arg("--seed").unwrap_or(22);

    let population = Population::new(PopulationConfig::default());
    let fold_shares = [0.05, 0.20, 0.35, 0.50, 0.70, 0.90];

    out.section("CTR vs viewability (campaigns differing only in placement quality)");
    println!(
        "{:>12} {:>13} {:>9} {:>9}",
        "fold share", "viewability", "CTR", "clicks"
    );
    let mut rows = Vec::new();
    for (ci, share) in fold_shares.iter().enumerate() {
        let sim = SessionSim {
            above_fold_share: *share,
            ..SessionSim::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed + ci as u64);
        let mut measured = 0u64;
        let mut viewed = 0u64;
        let mut clicks = 0u64;
        for i in 0..sessions {
            let env = population.sample(&mut rng);
            let ad = ServedAd {
                impression_id: i + 1,
                campaign_id: CampaignId(ci as u32 + 1),
                creative_size: Size::MEDIUM_RECTANGLE,
                format: AdFormat::Display,
                paid_cpm_milli: 800,
            };
            let o = sim.run(&ad, &env, seed ^ (i * 48_271 + ci as u64));
            if o.qtag_beacons
                .iter()
                .any(|b| b.event == EventKind::Measurable)
            {
                measured += 1;
            }
            if o.qtag_beacons.iter().any(|b| b.event == EventKind::InView) {
                viewed += 1;
            }
            clicks += u64::from(o.clicks);
        }
        let viewability = viewed as f64 / measured.max(1) as f64;
        let ctr = clicks as f64 / sessions as f64;
        println!(
            "{:>12} {:>13} {:>9} {:>9}",
            format_pct(*share),
            format_pct(viewability),
            format!("{:.2}%", ctr * 100.0),
            clicks
        );
        rows.push(Row {
            above_fold_share: *share,
            viewability,
            ctr,
        });
    }

    out.section("Shape checks vs §2.2's claim");
    let monotone_pairs = rows
        .windows(2)
        .filter(|w| w[1].ctr + 1e-9 >= w[0].ctr)
        .count();
    let top = rows.last().unwrap();
    let bottom = rows.first().unwrap();
    let checks = [
        (
            "viewability rises with placement quality",
            top.viewability > bottom.viewability + 0.2,
        ),
        (
            "CTR rises with viewability (best ≥ 1.5× worst)",
            top.ctr >= 1.5 * bottom.ctr.max(1e-9),
        ),
        (
            "CTR is (weakly) monotone across the sweep (≤ 2 noise inversions)",
            monotone_pairs >= rows.len().saturating_sub(3),
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        rows: Vec<Row>,
        shape_checks_pass: bool,
    }
    out.finish(&Payload {
        rows,
        shape_checks_pass: all_ok,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
