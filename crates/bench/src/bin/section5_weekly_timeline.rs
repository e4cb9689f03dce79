//! **§5 weekly monitoring**: the operator's view of the dataset the
//! paper collects — "viewability measures of more than 12 M ads … that
//! we monitor during a week".
//!
//! Impressions arrive over a simulated week following a diurnal traffic
//! curve; each runs the full session with Q-Tag, beacons are stamped
//! with the impression's wall-clock arrival time, applied to an
//! in-memory impression store, and folded by its apply outcome into
//! the monitoring backend's hourly [`Timeline`] (daily is
//! `coarsen(24)` of it). The output is the hourly/daily
//! trend dashboard a DSP would watch: volume waves with a stable
//! viewability rate riding on top.
//!
//! Flags: `--impressions N` (total, default 8000), `--seed N`, `--json`.
//!
//! **Durable mode** (`--wal-dir DIR`, optional `--restart-at K`):
//! every beacon additionally flows through the `qtag-store` durable
//! backend, which journals it and folds it into per-shard hourly/daily
//! rollups. At impression `K` the backend is dropped cold and
//! recovered from the WAL (a mid-run restart), and at the end the
//! published timeline is read from a *recovered* backend's merged
//! rollups — which must be bit-identical to the uninterrupted
//! in-memory timelines, or the run fails its shape checks (exit 1).

use qtag_adtech::{CampaignId, ServedAd};
use qtag_bench::{format_pct, ExperimentOutput};
use qtag_geometry::Size;
use qtag_server::{ImpressionStore, ServedImpression, Timeline};
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, SyncPolicy};
use qtag_user::{Population, PopulationConfig, SessionSim, TrafficPattern};
use qtag_wire::AdFormat;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

fn main() {
    let out = ExperimentOutput::from_args();
    let total = out.arg("--impressions").unwrap_or(8_000);
    let seed = out.arg("--seed").unwrap_or(55);
    let wal_dir = out.arg_str("--wal-dir");
    let restart_at = out.arg("--restart-at");

    let open_backend = |dir: &str| {
        DurableBackend::open(DurableConfig {
            dir: dir.into(),
            shards: 2,
            sync: SyncPolicy::Batch,
        })
        .unwrap_or_else(|e| panic!("open WAL dir {dir}: {e}"))
    };
    let mut backend = wal_dir.as_ref().map(|dir| {
        // A fresh week: the WAL dir is scratch space for this run.
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
        eprintln!("durable mode: journaling beacons to {dir}");
        open_backend(dir).0
    });

    let pattern = TrafficPattern::typical_week();
    let population = Population::new(PopulationConfig::default());
    let sim = SessionSim::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let mut store = ImpressionStore::new();
    let mut hourly = Timeline::hourly();
    let mut per_day_volume = [0u64; 7];

    eprintln!("simulating {total} impressions over one week …");
    for i in 0..total {
        if backend.is_some() && restart_at == Some(i) {
            // Mid-run restart: drop the backend cold (no flush, no
            // compaction) and recover everything from the WAL.
            drop(backend.take());
            let dir = wal_dir.as_ref().expect("durable mode");
            let (recovered, report) = open_backend(dir);
            eprintln!(
                "mid-run restart at impression {i}: recovered {} records \
                 ({} torn tails) from {dir}",
                report.records_replayed, report.truncated_tails
            );
            backend = Some(recovered);
        }
        let arrival = pattern.sample_arrival(&mut rng);
        per_day_volume[TrafficPattern::day_of(arrival) as usize] += 1;
        let env = population.sample(&mut rng);
        let ad = ServedAd {
            impression_id: i + 1,
            campaign_id: CampaignId(1 + (i % 12) as u32),
            creative_size: if i % 2 == 0 {
                Size::MEDIUM_RECTANGLE
            } else {
                Size::MOBILE_BANNER
            },
            format: AdFormat::Display,
            paid_cpm_milli: 800,
        };
        let outcome = sim.run(&ad, &env, seed ^ (i * 2_654_435_761));
        // Register the serve: the store joins beacons against the
        // served log, and the timeline folds are gated by that join
        // (an unregistered impression is an orphan and cannot enter
        // the measured/viewed cohorts). Durable mode journals it too.
        if let Some(first) = outcome.qtag_beacons.first() {
            let served = ServedImpression {
                impression_id: first.impression_id,
                campaign_id: first.campaign_id,
                os: first.os,
                browser: first.browser,
                site_type: first.site_type,
                ad_format: first.ad_format,
            };
            if let Some(b) = &backend {
                b.record_served(served.clone());
            }
            store.record_served(served);
        }
        for mut beacon in outcome.qtag_beacons {
            // Session-relative time → wall-clock time of the week.
            beacon.timestamp_us += arrival.as_micros();
            hourly.record_outcome(&beacon, &store.apply(&beacon));
            if let Some(b) = &backend {
                b.apply(&beacon);
            }
        }
    }
    let daily = hourly.coarsen(24);

    // Durable mode: restart once more at the end, then serve the
    // published timeline from the RECOVERED backend's merged rollups.
    // They must be bit-identical to the uninterrupted in-memory
    // timelines — the rollup rides the journal's critical section, so
    // neither the mid-run restart nor this one may move a single
    // bucket.
    let durable_identical = backend.take().map(|live| {
        drop(live);
        let dir = wal_dir.as_ref().expect("durable mode");
        let (recovered, report) = open_backend(dir);
        eprintln!(
            "final recovery: {} records replayed, {} snapshots loaded",
            report.records_replayed, report.snapshots_loaded
        );
        recovered.merged_hourly().export_state() == hourly.export_state()
            && recovered.merged_daily().export_state() == daily.export_state()
    });

    out.section("§5 weekly monitoring — daily volume and viewability (Q-Tag)");
    println!(
        "{:>5} {:>10} {:>10} {:>9} {:>13}",
        "day", "arrivals", "measured", "viewed", "viewability"
    );
    let day_names = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
    let mut daily_rates = Vec::new();
    for (bucket, stats) in daily.buckets() {
        let d = bucket as usize % 7;
        println!(
            "{:>5} {:>10} {:>10} {:>9} {:>13}",
            day_names[d],
            per_day_volume[d],
            stats.measured,
            stats.viewed,
            format_pct(stats.viewability_rate())
        );
        daily_rates.push(stats.viewability_rate());
    }

    out.section("hourly volume profile (beacons per hour-of-day, week total)");
    let mut per_hour = [0u64; 24];
    for (bucket, stats) in hourly.buckets() {
        per_hour[(bucket % 24) as usize] += stats.beacons;
    }
    let max = per_hour.iter().copied().max().unwrap_or(1).max(1);
    for (h, v) in per_hour.iter().enumerate() {
        let bar = "#".repeat((v * 40 / max) as usize);
        println!("  {h:02}h {v:>7} {bar}");
    }

    out.section("Shape checks");
    let evening: u64 = (19..=21).map(|h| per_hour[h]).sum();
    let overnight: u64 = (2..=5).map(|h| per_hour[h]).sum();
    let mean_rate = daily_rates.iter().sum::<f64>() / daily_rates.len().max(1) as f64;
    let max_dev = daily_rates
        .iter()
        .map(|r| (r - mean_rate).abs())
        .fold(0.0f64, f64::max);
    let checks = [
        (
            "traffic is diurnal (evening ≫ overnight)",
            evening > 2 * overnight,
        ),
        ("all seven days present", daily_rates.len() == 7),
        (
            "viewability stable across the week (max daily deviation < 6 pp)",
            max_dev < 0.06,
        ),
        (
            "weekly mean viewability near 50 %",
            (mean_rate - 0.50).abs() < 0.08,
        ),
    ];
    let mut all_ok = true;
    for (name, ok) in checks {
        println!("  [{}] {}", if ok { "ok" } else { "FAIL" }, name);
        all_ok &= ok;
    }
    if let Some(ok) = durable_identical {
        println!(
            "  [{}] published timeline from recovered rollups bit-identical \
             (mid-run restart{})",
            if ok { "ok" } else { "FAIL" },
            if restart_at.is_some() {
                ""
            } else {
                " not exercised"
            },
        );
        all_ok &= ok;
    }

    #[derive(Serialize)]
    struct Payload {
        impressions: u64,
        total_measured: u64,
        total_viewed: u64,
        mean_daily_viewability: f64,
        shape_checks_pass: bool,
        /// `Some` in durable mode: recovered rollups == direct timelines.
        durable_timeline_identical: Option<bool>,
    }
    out.finish(&Payload {
        impressions: total,
        total_measured: hourly.total_measured(),
        total_viewed: hourly.total_viewed(),
        mean_daily_viewability: mean_rate,
        shape_checks_pass: all_ok,
        durable_timeline_identical: durable_identical,
    });
    if !all_ok {
        std::process::exit(1);
    }
}
