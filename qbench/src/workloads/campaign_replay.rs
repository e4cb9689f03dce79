//! `campaign_replay` — closed loop, one thread, batch job.
//!
//! The §5 production comparison: 99 display campaigns served from one
//! open-auction request stream, every impression simulated with Q-Tag
//! and the commercial verifier attached, Q-Tag beacons carried by a
//! retrying sender in virtual time, the verifier's fire-and-forget, and
//! per-campaign reports built at the end. The front half (auction, page
//! build, compositor, tags) does almost all the work; sockets, WAL and
//! reactor do none.
//!
//! The run repeats fixed-size units (99 campaigns × a per-campaign
//! quota, fresh DSP and stores, own seed) until the time is up, and
//! reports medians over units.

use crate::harness::{repeated_setup, Fnv, Latency, Report, RunArgs, TAIL_CAP};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::add_sender_stats;
use crate::{corpus, sys};
use qtag_adtech::{AdSlotRequest, Campaign, Dsp, Exchange, ExchangeKind, GeoRegion, Sector};
use qtag_geometry::Size;
use qtag_server::{
    CampaignReport, ImpressionStore, LossyLink, ReportBuilder, ServedImpression,
    SimCollectorTransport, SimFaults,
};
use qtag_user::{EnvSample, Population, PopulationConfig, SessionSim};
use qtag_wire::framing::FrameEvent;
use qtag_wire::sender::{BeaconSender, SenderConfig, SenderStats};
use qtag_wire::{Beacon, BrowserKind, FrameDecoder, OsKind, SiteType};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const CAMPAIGNS: u32 = corpus::CAMPAIGNS;

/// Requests a unit may spend per impression of its quota before it
/// gives up; what is still unserved then counts as failed.
const REQUEST_CAP_PER_IMPRESSION: u64 = 60;

/// Virtual-time step of the sender pump, and the page-unload horizon
/// after which undelivered beacons are abandoned (counted, not lost).
const PUMP_STEP_US: u64 = 5_000;
const UNLOAD_HORIZON_US: u64 = 60_000_000;

struct Scale {
    /// Impressions per campaign in one unit.
    per_campaign: u32,
    /// Impressions per campaign in the warm-up replay that is part of
    /// set-up.
    warm_per_campaign: u32,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            per_campaign: 4,
            warm_per_campaign: 1,
        }
    } else {
        // 1 980 impressions, about one second: a dozen units fit a run,
        // so the reported medians rest on a dozen samples.
        Scale {
            per_campaign: 20,
            warm_per_campaign: 4,
        }
    }
}

/// What stays the same across units.
struct World {
    population: Population,
    campaigns: Vec<Campaign>,
    /// Above-the-fold share each campaign buys; the spread drives the
    /// cross-campaign viewability spread of Figure 3.
    fold_shares: Vec<f64>,
}

fn build_world(per_campaign: u32) -> World {
    let campaigns = (0..CAMPAIGNS)
        .map(|i| {
            let size = if i % 2 == 0 {
                Size::MEDIUM_RECTANGLE
            } else {
                Size::MOBILE_BANNER
            };
            let sector = Sector::ALL[i as usize % Sector::ALL.len()];
            let mut c = Campaign::display(i + 1, &format!("advertiser-{}", i + 1), sector, size);
            c.targeting.geos = vec![GeoRegion::ALL[i as usize % GeoRegion::ALL.len()]];
            c.impression_budget = u64::from(per_campaign);
            c
        })
        .collect();
    World {
        population: Population::new(PopulationConfig::default()),
        campaigns,
        fold_shares: (0..CAMPAIGNS)
            .map(|i| 0.14 + 0.08 * f64::from(i % 4))
            .collect(),
    }
}

fn browser_for(env: &EnvSample) -> BrowserKind {
    match (env.site_type, env.os) {
        (SiteType::App, OsKind::Ios) => BrowserKind::IosWebView,
        (SiteType::App, _) => BrowserKind::AndroidWebView,
        (SiteType::Browser, OsKind::Ios) => BrowserKind::Safari,
        (SiteType::Browser, _) => BrowserKind::Chrome,
    }
}

/// Counters of one unit.
#[derive(Default)]
struct Unit {
    target: u64,
    served: u64,
    requests: u64,
    qtag_beacons: u64,
    verifier_beacons: u64,
    verifier_frames_decoded: u64,
    duplicates: u64,
    delivery: SenderStats,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    qtag_reports: Vec<CampaignReport>,
    verifier_reports: Vec<CampaignReport>,
}

/// Q-Tag's beacons through a retrying sender over the simulated
/// collector, in virtual time, with the session's loss on both paths.
fn deliver_reliably(
    store: &mut ImpressionStore,
    beacons: &[Beacon],
    loss: f64,
    seed: u64,
    id: u64,
    totals: &mut SenderStats,
) {
    if beacons.is_empty() {
        return;
    }
    let transport = SimCollectorTransport::new(store, SimFaults::symmetric(loss, 0.002), seed);
    let mut sender = BeaconSender::new(
        transport,
        SenderConfig {
            seed: seed ^ 0x5EED,
            ..SenderConfig::default()
        },
    );
    {
        let _g = trace::span(Span::WireSenderOffer, id);
        for b in beacons {
            sender.offer(b, 0).expect("a tag's beacon encodes");
        }
    }
    {
        let _g = trace::span(Span::WireSenderPump, id);
        let mut now = 0u64;
        while !sender.is_idle() && now < UNLOAD_HORIZON_US {
            sender.pump(now);
            now += PUMP_STEP_US;
        }
        sender.abandon_pending();
    }
    add_sender_stats(totals, &sender.stats());
}

/// The verifier's beacons, fire-and-forget: one pass over the lossy
/// link, then the streaming decoder. Returns frames decoded.
fn deliver_once(
    store: &mut ImpressionStore,
    beacons: &[Beacon],
    loss: f64,
    seed: u64,
    id: u64,
) -> u64 {
    let bytes = {
        let _g = trace::span(Span::WireEncode, id);
        LossyLink::new(loss, 0.002, seed)
            .transmit(beacons)
            .expect("a tag's beacon encodes")
    };
    let events = {
        let _g = trace::span(Span::WireDecode, id);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        dec.drain()
    };
    let _g = trace::span(Span::ServerApply, id);
    let mut decoded = 0;
    for ev in events {
        if let FrameEvent::Beacon(b) = ev {
            store.apply(&b);
            decoded += 1;
        }
    }
    decoded
}

/// Replays one unit: serves `per_campaign` impressions for each of the
/// 99 campaigns and builds both solutions' reports.
fn run_unit(world: &World, seed: u64) -> Unit {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dsp = Dsp::new(world.campaigns.clone());
    let mut exchanges: Vec<Exchange> = ExchangeKind::ALL
        .iter()
        .map(|k| Exchange::new(*k))
        .collect();
    let mut qtag_store = ImpressionStore::new();
    let mut verifier_store = ImpressionStore::new();
    let slot_sizes = [Size::MEDIUM_RECTANGLE, Size::MOBILE_BANNER];

    let mut unit = Unit {
        target: world.campaigns.iter().map(|c| c.impression_budget).sum(),
        ..Unit::default()
    };
    let request_cap = unit.target * REQUEST_CAP_PER_IMPRESSION;
    let started = Instant::now();
    let mut impression_started = started;
    while unit.served < unit.target && unit.requests < request_cap {
        unit.requests += 1;
        let env = {
            let _g = trace::span(Span::UserSample, 0);
            world.population.sample(&mut rng)
        };
        let exchange = &mut exchanges[rng.gen_range(0..ExchangeKind::ALL.len())];
        let req = AdSlotRequest {
            request_id: unit.requests,
            geo: GeoRegion::ALL[rng.gen_range(0..GeoRegion::ALL.len())],
            os: env.os,
            browser: browser_for(&env),
            site_type: env.site_type,
            slot_size: slot_sizes[rng.gen_range(0..slot_sizes.len())],
            floor_cpm_milli: 200,
        };
        let won = {
            let _g = trace::span(Span::AdtechAuction, 0);
            exchange.run(&req, &mut dsp)
        };
        let Some((ad, _outcome)) = won else {
            continue; // a rival won or no campaign was eligible
        };
        unit.served += 1;
        let id = ad.impression_id;
        let served = ServedImpression {
            impression_id: id,
            campaign_id: ad.campaign_id.0,
            os: env.os,
            browser: req.browser,
            site_type: env.site_type,
            ad_format: ad.format,
        };
        qtag_store.record_served(served.clone());
        verifier_store.record_served(served);

        let sim = SessionSim {
            above_fold_share: world.fold_shares
                [(ad.campaign_id.0 as usize - 1) % world.fold_shares.len()],
            ..SessionSim::default()
        };
        let session_seed = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let out = {
            let _g = trace::span(Span::UserSession, id);
            sim.run(&ad, &env, session_seed)
        };
        unit.qtag_beacons += out.qtag_beacons.len() as u64;
        unit.verifier_beacons += out.verifier_beacons.len() as u64;

        deliver_reliably(
            &mut qtag_store,
            &out.qtag_beacons,
            env.beacon_loss,
            session_seed ^ 1,
            id,
            &mut unit.delivery,
        );
        unit.verifier_frames_decoded += deliver_once(
            &mut verifier_store,
            &out.verifier_beacons,
            env.beacon_loss,
            session_seed ^ 2,
            id,
        );

        let now = Instant::now();
        unit.latencies_ms
            .push((now - impression_started).as_secs_f64() * 1e3);
        impression_started = now;
    }
    {
        let _g = trace::span(Span::ServerReport, 0);
        unit.qtag_reports = ReportBuilder::per_campaign(&qtag_store);
        unit.verifier_reports = ReportBuilder::per_campaign(&verifier_store);
        std::hint::black_box(ReportBuilder::summary(&unit.qtag_reports));
        std::hint::black_box(ReportBuilder::slice_table(&qtag_store));
        std::hint::black_box(ReportBuilder::slice_table(&verifier_store));
    }
    unit.wall_s = started.elapsed().as_secs_f64();
    unit.duplicates = qtag_store.total_duplicates() + verifier_store.total_duplicates();
    unit
}

/// Hash of every per-campaign count of both solutions.
fn digest(qtag: &[CampaignReport], verifier: &[CampaignReport]) -> u64 {
    let mut h = Fnv::default();
    for r in qtag.iter().chain(verifier) {
        let t = &r.total;
        for v in [
            u64::from(r.campaign_id),
            t.served,
            t.measured,
            t.viewed,
            t.clicked,
        ] {
            h.eat(&v.to_le_bytes());
        }
    }
    h.value()
}

fn merge_reports(into: &mut Vec<CampaignReport>, from: &[CampaignReport]) {
    for r in from {
        match into.iter_mut().find(|x| x.campaign_id == r.campaign_id) {
            Some(existing) => existing.merge(r),
            None => into.push(r.clone()),
        }
    }
}

fn unit_seed(seed: u64, index: u64) -> u64 {
    corpus::mix(seed, index, 0xCA3B)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let scale = scale(args.quick);
    let (world, setup_s, setups) = repeated_setup(args.quick, || {
        // Set-up ends with a small warm-up replay so the timed units
        // start with warm caches and a grown allocator.
        let warm = build_world(scale.warm_per_campaign);
        std::hint::black_box(run_unit(&warm, unit_seed(args.seed, u64::MAX)).served);
        build_world(scale.per_campaign)
    });

    let mut units: Vec<Unit> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut tracer = Tracer::new();
    let mut traced_ns = 0u64;
    let deadline = Instant::now();
    let mut index = 0u64;
    while units.is_empty() || deadline.elapsed().as_secs_f64() < args.seconds {
        let seed = unit_seed(args.seed, index);
        units.push(run_unit(&world, seed));
        if args.trace {
            // The same unit again with spans on: the pair gives the
            // tracing overhead, the traced copy the layer budget.
            trace::set_enabled(true);
            let start = trace::now_ns();
            let traced = {
                let _g = trace::span(Span::Timed, index);
                run_unit(&world, seed)
            };
            traced_ns += trace::now_ns() - start;
            trace::set_enabled(false);
            tracer.merge(trace::take());
            traced_walls.push(traced.wall_s);
        }
        index += 1;
    }

    let mut report = Report::default();
    let sum = |f: fn(&Unit) -> u64| units.iter().map(f).sum::<u64>();
    let served = sum(|u| u.served);
    let beacons = sum(|u| u.qtag_beacons + u.verifier_beacons);
    report.attempted = sum(|u| u.target);
    report.failed = report.attempted - served;

    // Output checks, on every unit of the run merged.
    let mut qtag_reports = Vec::new();
    let mut verifier_reports = Vec::new();
    let mut delivery = SenderStats::default();
    for u in &units {
        merge_reports(&mut qtag_reports, &u.qtag_reports);
        merge_reports(&mut verifier_reports, &u.verifier_reports);
        add_sender_stats(&mut delivery, &u.delivery);
    }
    let q = ReportBuilder::summary(&qtag_reports);
    let v = ReportBuilder::summary(&verifier_reports);
    // A smoke run serves a few hundred impressions; its rates wander.
    let slack = if args.quick { 0.06 } else { 0.0 };
    let within = |x: f64, lo: f64, hi: f64| (lo - slack..=hi + slack).contains(&x);
    report.check(
        "qtag_measured_rate",
        within(q.mean_measured_rate, 0.92, 0.97),
        format!("{:.4} in [0.92, 0.97]", q.mean_measured_rate),
    );
    report.check(
        "verifier_measured_rate",
        within(v.mean_measured_rate, 0.71, 0.78),
        format!("{:.4} in [0.71, 0.78]", v.mean_measured_rate),
    );
    report.check(
        "viewability_rates",
        within(q.mean_viewability_rate, 0.45, 0.56)
            && within(v.mean_viewability_rate, 0.45, 0.56)
            && (q.mean_viewability_rate - v.mean_viewability_rate).abs() <= 0.05 + slack,
        format!(
            "qtag {:.4}, verifier {:.4}: both in [0.45, 0.56], within 0.05",
            q.mean_viewability_rate, v.mean_viewability_rate
        ),
    );
    report.check(
        "delivery_conserves",
        delivery.conserves(0) && delivery.enqueued == sum(|u| u.qtag_beacons),
        format!(
            "enqueued {} == acked {} + dropped {} + abandoned {}",
            delivery.enqueued,
            delivery.acked,
            delivery.dropped_after_retries,
            delivery.abandoned_unconfirmed
        ),
    );
    report.check(
        "every_campaign_reports",
        qtag_reports.len() == CAMPAIGNS as usize && verifier_reports.len() == CAMPAIGNS as usize,
        format!("{} of {CAMPAIGNS} campaigns", qtag_reports.len()),
    );
    report.info(
        "digest_unit0",
        format!(
            "{:016x}",
            digest(&units[0].qtag_reports, &units[0].verifier_reports)
        ),
    );
    report.info("units", units.len());
    report.info("served", served);

    if args.trace {
        layer_metrics(&mut report, &units, &tracer, &traced_walls);
        report.trace = Some((tracer, traced_ns));
        return report;
    }

    let unit_rates = |f: fn(&Unit) -> u64| -> Vec<f64> {
        units.iter().map(|u| f(u) as f64 / u.wall_s).collect()
    };
    let n = units.len() as u64;
    report.metric("setup_s", setup_s, "s", setups);
    report.metric(
        "impressions_per_s",
        stats::median(&unit_rates(|u| u.served)),
        "1/s",
        n,
    );
    report.metric(
        "beacons_per_s",
        stats::median(&unit_rates(|u| u.qtag_beacons + u.verifier_beacons)),
        "1/s",
        n,
    );
    let latencies: Vec<f64> = units
        .iter()
        .flat_map(|u| u.latencies_ms.iter().copied())
        .collect();
    let lat = Latency::of(&latencies, TAIL_CAP);
    report.info(
        "latency_tail",
        format!("p{}_median_of_{}_windows", lat.tail_percentile, lat.windows),
    );
    report.metric("latency_p50_ms", lat.p50_ms, "ms", lat.samples);
    report.metric("latency_tail_ms", lat.tail_ms, "ms", lat.samples);
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB", 1);
    report.info("beacons", beacons);
    report
}

fn layer_metrics(report: &mut Report, units: &[Unit], tracer: &Tracer, traced_walls: &[f64]) {
    // The traced copies replay the same seeds, so the untraced units'
    // counters are the traced units' counters. Counts are reported for
    // the first unit alone: how many units fit the time varies, the
    // first unit's work is fixed by the seed and repeats exactly.
    let sum = |f: fn(&Unit) -> u64| units.iter().map(f).sum::<u64>() as f64;
    let first = &units[0];
    let served = sum(|u| u.served);
    let total_us = |s: Span| tracer.agg(s).total_ns as f64 / 1e3;
    let total_ns = |s: Span| tracer.agg(s).total_ns as f64;
    let n = units.len() as u64;
    let delivery = first.delivery;
    let verifier_beacons = sum(|u| u.verifier_beacons);
    let decoded = sum(|u| u.verifier_frames_decoded);

    let mut m = |name, value: f64, unit| report.metric(name, value, unit, n);
    m(
        "adtech.auction_us_per_imp",
        total_us(Span::AdtechAuction) / served,
        "us",
    );
    m(
        "adtech.requests_per_fill",
        first.requests as f64 / first.served as f64,
        "count",
    );
    m(
        "user.sample_us_per_imp",
        total_us(Span::UserSample) / served,
        "us",
    );
    m(
        "user.session_us_per_imp",
        total_us(Span::UserSession) / served,
        "us",
    );
    m(
        "user.beacons_per_imp",
        (first.qtag_beacons + first.verifier_beacons) as f64 / first.served as f64,
        "count",
    );
    m(
        "wire.encode_ns_per_beacon",
        total_ns(Span::WireEncode) / verifier_beacons.max(1.0),
        "ns",
    );
    m(
        "wire.decode_ns_per_beacon",
        total_ns(Span::WireDecode) / decoded.max(1.0),
        "ns",
    );
    m(
        "wire.sender_offer_us_per_imp",
        total_us(Span::WireSenderOffer) / served,
        "us",
    );
    m(
        "wire.sender_pump_us_per_imp",
        total_us(Span::WireSenderPump) / served,
        "us",
    );
    m("wire.retransmits", delivery.retransmits as f64, "count");
    m("wire.reconnects", delivery.reconnects as f64, "count");
    m(
        "wire.dropped_after_retries",
        delivery.dropped_after_retries as f64,
        "count",
    );
    m(
        "wire.abandoned",
        delivery.abandoned_unconfirmed as f64,
        "count",
    );
    m(
        "server.apply_ns_per_beacon",
        total_ns(Span::ServerApply) / decoded.max(1.0),
        "ns",
    );
    m("server.duplicates", first.duplicates as f64, "count");
    m(
        "server.report_ms",
        total_us(Span::ServerReport) / 1e3 / n as f64,
        "ms",
    );
    let untraced: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    m(
        "trace_overhead_pct",
        (stats::median(traced_walls) / stats::median(&untraced) - 1.0) * 100.0,
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_repeats_exactly_per_seed_and_serves_its_quota() {
        let world = build_world(2);
        let a = run_unit(&world, 11);
        let b = run_unit(&world, 11);
        assert_eq!(a.served, u64::from(CAMPAIGNS) * 2);
        assert_eq!(a.served, a.target);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.delivery, b.delivery);
        assert_eq!(
            digest(&a.qtag_reports, &a.verifier_reports),
            digest(&b.qtag_reports, &b.verifier_reports)
        );
        assert!(a.delivery.conserves(0));
        assert_eq!(a.latencies_ms.len() as u64, a.served);
        let c = run_unit(&world, 12);
        assert_ne!(
            digest(&a.qtag_reports, &a.verifier_reports),
            digest(&c.qtag_reports, &c.verifier_reports)
        );
    }
}
