//! **Retry-delivery ablation**: measured rate vs beacon loss, with
//! and without the reliable sender.
//!
//! The beacon-loss ablation (`ablation_beacon_loss`) shows the
//! fire-and-forget measured rate sagging as the network eats frames.
//! This experiment runs the *same* impressions through both delivery
//! paths at each loss level:
//!
//! * **fire-and-forget** — one [`LossyLink`] shot per session;
//! * **retry** — a `BeaconSender` over a simulated collector whose
//!   network drops frames *and acks* at the swept rate (plus resets
//!   at a quarter of it), retrying with seeded backoff until acked.
//!
//! The headline claim: the retry path holds the no-loss measured rate
//! at every swept loss level, and its conservation identity
//! `enqueued == acked + dropped_after_retries + abandoned` is exact —
//! duplicates forced by lost acks are deduplicated server-side, never
//! double-counted.
//!
//! Flags: `--impressions N` (per loss level, default 2000), `--seed N`,
//! `--json`.

use qtag_adtech::{CampaignId, ServedAd};
use qtag_bench::pipeline::{ingest_reliable, DeliveryTotals};
use qtag_bench::{format_pct, ExperimentOutput};
use qtag_geometry::Size;
use qtag_server::{ImpressionStore, LossyLink, ReportBuilder, ServedImpression};
use qtag_user::{Population, PopulationConfig, SessionSim};
use qtag_wire::framing::FrameEvent;
use qtag_wire::{AdFormat, FrameDecoder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

#[derive(Serialize, Clone, Copy)]
struct Row {
    loss: f64,
    fire_and_forget_rate: f64,
    retry_rate: f64,
    retransmits: u64,
    duplicates: u64,
    abandoned: u64,
    conserves: bool,
}

fn main() {
    let out = ExperimentOutput::from_args();
    let n = out.arg("--impressions").unwrap_or(2_000);
    let seed = out.arg("--seed").unwrap_or(41);
    let loss_levels = [0.0, 0.05, 0.10, 0.20, 0.30];

    let population = Population::new(PopulationConfig::default());
    let sim = SessionSim::default();

    out.section("measured rate vs loss: fire-and-forget vs retry delivery");
    println!(
        "{:>8} {:>16} {:>12} {:>12} {:>12} {:>10}",
        "loss", "fire-and-forget", "retry", "retransmits", "duplicates", "conserves"
    );
    let mut rows: Vec<Row> = Vec::new();
    for (li, loss) in loss_levels.iter().enumerate() {
        let mut faf_store = ImpressionStore::new();
        let mut retry_store = ImpressionStore::new();
        let mut totals = DeliveryTotals::default();
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
            let served = ServedImpression {
                impression_id: ad.impression_id,
                campaign_id: 1,
                os: env.os,
                browser: qtag_wire::BrowserKind::Chrome,
                site_type: env.site_type,
                ad_format: ad.format,
            };
            faf_store.record_served(served.clone());
            retry_store.record_served(served);
            // Identical session for both paths: the delivery layer is
            // the only experimental variable.
            let o = sim.run(&ad, &env, seed ^ (i * 6_364_136_223_846_793_005));

            let mut link = LossyLink::new(*loss, 0.0, seed ^ i);
            let bytes = link.transmit(&o.qtag_beacons).unwrap();
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes);
            let mut evs = dec.drain();
            evs.extend(dec.finish());
            for ev in evs {
                if let FrameEvent::Beacon(b) = ev {
                    faf_store.apply(&b);
                }
            }

            ingest_reliable(
                &mut retry_store,
                &o.qtag_beacons,
                *loss,
                seed ^ i,
                &mut totals,
                None,
            );
        }
        let faf_rate = ReportBuilder::per_campaign(&faf_store)[0]
            .total
            .measured_rate();
        let retry_rate = ReportBuilder::per_campaign(&retry_store)[0]
            .total
            .measured_rate();
        // The end-to-end conservation identity, checked EXACTLY:
        // every enqueued beacon is acked (and is a unique store
        // beacon), provably dropped, or explicitly abandoned.
        let conserves = totals.conserves()
            && totals.acked == retry_store.unique_beacons()
            && totals.enqueued
                == retry_store.unique_beacons()
                    + totals.dropped_after_retries
                    + totals.abandoned_unconfirmed;
        let row = Row {
            loss: *loss,
            fire_and_forget_rate: faf_rate,
            retry_rate,
            retransmits: totals.retransmits,
            duplicates: retry_store.total_duplicates(),
            abandoned: totals.abandoned_unconfirmed,
            conserves,
        };
        println!(
            "{:>8} {:>16} {:>12} {:>12} {:>12} {:>10}",
            format_pct(row.loss),
            format_pct(row.fire_and_forget_rate),
            format_pct(row.retry_rate),
            row.retransmits,
            row.duplicates,
            if row.conserves { "exact" } else { "BROKEN" },
        );
        rows.push(row);
    }

    out.section("Shape checks");
    let base_retry = rows[0].retry_rate;
    let checks = [
        (
            "retry measured rate >= fire-and-forget at every loss level",
            rows.iter()
                .all(|r| r.retry_rate >= r.fire_and_forget_rate - 1e-12),
        ),
        (
            "retry holds the no-loss rate to within 1 pp at 30 % loss",
            rows.last().unwrap().retry_rate >= base_retry - 0.01,
        ),
        (
            "fire-and-forget visibly degrades by 30 % loss (the gap is real)",
            rows[0].fire_and_forget_rate - rows.last().unwrap().fire_and_forget_rate > 0.05,
        ),
        (
            "conservation identity exact at every loss level",
            rows.iter().all(|r| r.conserves),
        ),
        (
            "lost acks force duplicate deliveries under loss",
            rows.iter().any(|r| r.loss > 0.0 && r.duplicates > 0),
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
