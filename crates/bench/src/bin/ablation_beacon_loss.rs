//! **Transport ablation**: measured rate vs beacon loss.
//!
//! Fire-and-forget beacons get lost — pages unload mid-send, mobile
//! radios drop. How sensitive is the reported measured rate to the loss
//! rate? Q-Tag's protocol is naturally redundant (an impression counts
//! as measured if *either* the `Measurable` or a later `InView` beacon
//! arrives), so the measured rate should degrade sub-linearly in the
//! loss rate — an operational robustness property the paper's
//! production deployment implicitly relies on.
//!
//! Flags: `--impressions N` (per loss level, default 3000), `--seed N`,
//! `--json`.

use qtag_adtech::{CampaignId, ServedAd};
use qtag_bench::{format_pct, ExperimentOutput};
use qtag_geometry::Size;
use qtag_server::{ImpressionStore, LossyLink, ReportBuilder, ServedImpression};
use qtag_user::{Population, PopulationConfig, SessionSim};
use qtag_wire::framing::FrameEvent;
use qtag_wire::{AdFormat, FrameDecoder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

fn main() {
    let out = ExperimentOutput::from_args();
    let n = out.arg("--impressions").unwrap_or(3_000);
    let seed = out.arg("--seed").unwrap_or(77);
    let loss_levels = [0.0, 0.05, 0.10, 0.20, 0.30, 0.50];

    let population = Population::new(PopulationConfig::default());
    let sim = SessionSim::default();

    out.section("measured rate vs beacon loss (Q-Tag)");
    println!(
        "{:>10} {:>14} {:>16}",
        "loss", "measured rate", "naive 1-loss"
    );
    let mut rows = Vec::new();
    for (li, loss) in loss_levels.iter().enumerate() {
        let mut store = ImpressionStore::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed + li as u64);
        for i in 0..n {
            let env = population.sample(&mut rng);
            let ad = ServedAd {
                impression_id: i + 1,
                campaign_id: CampaignId(1),
                creative_size: Size::MEDIUM_RECTANGLE,
                format: AdFormat::Display,
                paid_cpm_milli: 800,
            };
            store.record_served(ServedImpression {
                impression_id: ad.impression_id,
                campaign_id: 1,
                os: env.os,
                browser: qtag_wire::BrowserKind::Chrome,
                site_type: env.site_type,
                ad_format: ad.format,
            });
            let o = sim.run(&ad, &env, seed ^ (i * 6_364_136_223_846_793_005));
            let mut link = LossyLink::new(*loss, 0.0, seed ^ i);
            let bytes = link.transmit(&o.qtag_beacons).unwrap();
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes);
            let mut evs = dec.drain();
            evs.extend(dec.finish());
            for ev in evs {
                if let FrameEvent::Beacon(b) = ev {
                    store.apply(&b);
                }
            }
        }
        let rate = ReportBuilder::per_campaign(&store)[0].total.measured_rate();
        println!(
            "{:>10} {:>14} {:>16}",
            format_pct(*loss),
            format_pct(rate),
            format_pct((1.0 - loss) * 0.94),
        );
        rows.push((*loss, rate));
    }

    out.section("Shape checks");
    let base = rows[0].1;
    let at_10 = rows
        .iter()
        .find(|(l, _)| (*l - 0.10).abs() < 1e-9)
        .unwrap()
        .1;
    let at_30 = rows
        .iter()
        .find(|(l, _)| (*l - 0.30).abs() < 1e-9)
        .unwrap()
        .1;
    let checks = [
        (
            "protocol redundancy: 10 % loss costs < 7 pp of measured rate",
            base - at_10 < 0.07,
        ),
        (
            "degradation is sub-linear (30 % loss costs well under 30 pp)",
            base - at_30 < 0.22,
        ),
        (
            "measured rate is monotone non-increasing in loss",
            rows.windows(2).all(|w| w[1].1 <= w[0].1 + 0.01),
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        rows: Vec<(f64, f64)>,
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
