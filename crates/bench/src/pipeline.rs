//! The full production pipeline used by the Figure 3 / Table 2 /
//! economics experiments: auction → serve → user session → both tags →
//! lossy transport → ingestion → campaign reports.

use qtag_adtech::{AdSlotRequest, Campaign, Dsp, Exchange, ExchangeKind, GeoRegion, Sector};
use qtag_geometry::Size;
use qtag_server::{
    CampaignReport, FleetSummary, ImpressionStore, LossyLink, RateSlice, ReportBuilder,
    ServedImpression, SimCollectorTransport, SimFaults, SliceKey,
};
use qtag_user::{EnvSample, Population, PopulationConfig, SessionSim};
use qtag_wire::framing::FrameEvent;
use qtag_wire::sender::{BeaconSender, SenderConfig, SenderMetrics, SenderStats};
use qtag_wire::{BrowserKind, FrameDecoder, SiteType};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// How the Q-Tag side of the pipeline gets its beacons to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Paper-faithful: each beacon crosses the lossy link once;
    /// whatever the network eats is simply never measured. This is
    /// the mode every Figure 3 / Table 2 artefact reproduces.
    #[default]
    FireAndForget,
    /// Hardened: a [`BeaconSender`] retries each beacon through the
    /// same faulty network (loss on both the frame and the ack path)
    /// until the simulated collector acknowledges it. Loss becomes
    /// retransmissions and duplicates — which the store deduplicates
    /// — instead of measurement holes.
    Reliable,
}

/// Configuration of one production run.
#[derive(Debug, Clone)]
pub struct ProductionConfig {
    /// Number of dual-tagged campaigns (the paper compares on 4).
    pub campaigns: u32,
    /// Impressions to *serve* per campaign.
    pub impressions_per_campaign: u32,
    /// Master seed.
    pub seed: u64,
    /// Population mix (defaults to the Table 2 calibration).
    pub population: PopulationConfig,
    /// Q-Tag beacon delivery. The commercial verifier always stays
    /// fire-and-forget — it is the black box being compared against.
    pub delivery: DeliveryMode,
    /// Registry-backed sender metrics shared by every per-session
    /// [`BeaconSender`] the reliable path spins up. `None` skips the
    /// mirroring entirely.
    pub sender_metrics: Option<Arc<SenderMetrics>>,
}

impl Default for ProductionConfig {
    fn default() -> Self {
        ProductionConfig {
            campaigns: 4,
            impressions_per_campaign: 5_000,
            seed: 2019,
            population: PopulationConfig::default(),
            delivery: DeliveryMode::FireAndForget,
            sender_metrics: None,
        }
    }
}

/// Fleet-wide sums of every per-impression [`SenderStats`] (all zero
/// in fire-and-forget mode).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DeliveryTotals {
    /// Beacons accepted into retry queues.
    pub enqueued: u64,
    /// First-time frame writes plus retransmissions.
    pub frames_written: u64,
    /// Retransmissions alone.
    pub retransmits: u64,
    /// Beacons confirmed by the simulated collector.
    pub acked: u64,
    /// Beacons dropped at the retry cap, never fully written.
    pub dropped_after_retries: u64,
    /// Maybe-delivered beacons abandoned at the session's unload
    /// horizon.
    pub abandoned_unconfirmed: u64,
    /// Connection reopens performed by senders.
    pub reconnects: u64,
}

impl DeliveryTotals {
    fn add(&mut self, s: &SenderStats) {
        self.enqueued += s.enqueued;
        self.frames_written += s.frames_written;
        self.retransmits += s.retransmits;
        self.acked += s.acked;
        self.dropped_after_retries += s.dropped_after_retries;
        self.abandoned_unconfirmed += s.abandoned_unconfirmed;
        self.reconnects += s.reconnects;
    }

    /// The fleet-level conservation identity: every enqueued beacon
    /// was acked, provably dropped, or explicitly abandoned.
    pub fn conserves(&self) -> bool {
        self.enqueued == self.acked + self.dropped_after_retries + self.abandoned_unconfirmed
    }
}

/// Results of a production run: per-solution campaign reports and
/// summaries.
#[derive(Debug, Serialize)]
pub struct ProductionResults {
    /// Q-Tag per-campaign reports.
    pub qtag_reports: Vec<CampaignReport>,
    /// Commercial-verifier per-campaign reports.
    pub verifier_reports: Vec<CampaignReport>,
    /// Q-Tag fleet summary (Figure 3 bars).
    pub qtag_summary: FleetSummary,
    /// Verifier fleet summary.
    pub verifier_summary: FleetSummary,
    /// Q-Tag Table 2 slices.
    #[serde(skip)]
    pub qtag_slices: HashMap<SliceKey, RateSlice>,
    /// Verifier Table 2 slices.
    #[serde(skip)]
    pub verifier_slices: HashMap<SliceKey, RateSlice>,
    /// Ads served in total.
    pub served: u64,
    /// DSP spend over the run, milli-dollars CPM summed.
    pub spend_cpm_milli: u64,
    /// Reliable-delivery counters (zero when the Q-Tag side ran
    /// fire-and-forget).
    pub delivery: DeliveryTotals,
}

/// Runs the pipeline.
pub fn run_production(cfg: &ProductionConfig) -> ProductionResults {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let population = Population::new(cfg.population.clone());

    // Campaign portfolio: alternating creative sizes (the paper's two),
    // sector spread, and a distinct geographic audience per campaign —
    // §5: the campaigns "target different audiences and geographical
    // regions". Distinct audiences also mean distinct bid-request
    // streams, so every campaign actually serves.
    let campaigns: Vec<Campaign> = (0..cfg.campaigns)
        .map(|i| {
            let size = if i % 2 == 0 {
                Size::MEDIUM_RECTANGLE
            } else {
                Size::MOBILE_BANNER
            };
            let sector = Sector::ALL[i as usize % Sector::ALL.len()];
            let mut c = Campaign::display(i + 1, &format!("advertiser-{}", i + 1), sector, size);
            c.targeting.geos = vec![GeoRegion::ALL[i as usize % GeoRegion::ALL.len()]];
            // The impression budget caps delivery at the experiment's
            // per-campaign quota; the DSP's pacing rotation spreads
            // delivery across the portfolio.
            c.impression_budget = u64::from(cfg.impressions_per_campaign);
            c
        })
        .collect();
    // Placement quality per campaign: how much above-fold inventory the
    // campaign buys. Spread drives Figure 3's cross-campaign std dev.
    let fold_shares: Vec<f64> = (0..cfg.campaigns)
        .map(|i| 0.14 + 0.08 * f64::from(i % 4))
        .collect();

    let mut dsp = Dsp::new(campaigns.clone());
    let mut exchanges: Vec<Exchange> = ExchangeKind::ALL
        .iter()
        .map(|k| Exchange::new(*k))
        .collect();

    let mut qtag_store = ImpressionStore::new();
    let mut verifier_store = ImpressionStore::new();
    let mut served_total = 0u64;
    let mut delivery = DeliveryTotals::default();

    // Serve the whole portfolio from one open-auction request stream:
    // the exchanges emit bid requests with mixed geos, sizes and
    // environments; the DSP's pacing and per-campaign budgets spread
    // delivery evenly. Unfilled requests (rival won, nothing eligible)
    // are invisible to the DSP, exactly as in production.
    let target = u64::from(cfg.campaigns) * u64::from(cfg.impressions_per_campaign);
    let slot_sizes = [Size::MEDIUM_RECTANGLE, Size::MOBILE_BANNER];
    let mut request_id = 0u64;
    let max_requests = target.saturating_mul(60).max(100_000);
    while served_total < target && request_id < max_requests {
        request_id += 1;
        let env = population.sample(&mut rng);
        let exchange = &mut exchanges[rng.gen_range(0..ExchangeKind::ALL.len())];
        let req = AdSlotRequest {
            request_id,
            geo: GeoRegion::ALL[rng.gen_range(0..GeoRegion::ALL.len())],
            os: env.os,
            browser: browser_for(&env),
            site_type: env.site_type,
            slot_size: slot_sizes[rng.gen_range(0..slot_sizes.len())],
            floor_cpm_milli: 200,
        };
        let Some((ad, _outcome)) = exchange.run(&req, &mut dsp) else {
            continue; // rival won or no eligible campaign
        };
        served_total += 1;

        let served = ServedImpression {
            impression_id: ad.impression_id,
            campaign_id: ad.campaign_id.0,
            os: env.os,
            browser: req.browser,
            site_type: env.site_type,
            ad_format: ad.format,
        };
        qtag_store.record_served(served.clone());
        verifier_store.record_served(served);

        // The user session with both tags; placement quality follows the
        // winning campaign.
        let ci = (ad.campaign_id.0 as usize - 1) % fold_shares.len();
        let sim = SessionSim {
            above_fold_share: fold_shares[ci],
            ..SessionSim::default()
        };
        let session_seed = cfg.seed ^ (ad.impression_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let out = sim.run(&ad, &env, session_seed);

        // Transport with per-slice loss, then the streaming decoder.
        match cfg.delivery {
            DeliveryMode::FireAndForget => ingest(
                &mut qtag_store,
                &out.qtag_beacons,
                env.beacon_loss,
                session_seed ^ 1,
            ),
            DeliveryMode::Reliable => ingest_reliable(
                &mut qtag_store,
                &out.qtag_beacons,
                env.beacon_loss,
                session_seed ^ 1,
                &mut delivery,
                cfg.sender_metrics.as_ref(),
            ),
        }
        ingest(
            &mut verifier_store,
            &out.verifier_beacons,
            env.beacon_loss,
            session_seed ^ 2,
        );
    }

    let qtag_reports = ReportBuilder::per_campaign(&qtag_store);
    let verifier_reports = ReportBuilder::per_campaign(&verifier_store);
    ProductionResults {
        qtag_summary: ReportBuilder::summary(&qtag_reports),
        verifier_summary: ReportBuilder::summary(&verifier_reports),
        qtag_slices: ReportBuilder::slice_table(&qtag_store),
        verifier_slices: ReportBuilder::slice_table(&verifier_store),
        qtag_reports,
        verifier_reports,
        served: served_total,
        spend_cpm_milli: dsp.stats().spend_cpm_milli,
        delivery,
    }
}

fn browser_for(env: &EnvSample) -> BrowserKind {
    match (env.site_type, env.os) {
        (SiteType::App, qtag_wire::OsKind::Ios) => BrowserKind::IosWebView,
        (SiteType::App, _) => BrowserKind::AndroidWebView,
        (SiteType::Browser, qtag_wire::OsKind::Ios) => BrowserKind::Safari,
        (SiteType::Browser, _) => BrowserKind::Chrome,
    }
}

fn ingest(store: &mut ImpressionStore, beacons: &[qtag_wire::Beacon], loss: f64, seed: u64) {
    let mut link = LossyLink::new(loss, 0.002, seed);
    let bytes = link.transmit(beacons).expect("beacons encode");
    let mut dec = FrameDecoder::new();
    dec.extend(&bytes);
    for ev in dec.drain() {
        if let FrameEvent::Beacon(b) = ev {
            store.apply(&b);
        }
    }
}

/// One session's beacons through the reliable path: a [`BeaconSender`]
/// over a [`SimCollectorTransport`] whose fault profile mirrors the
/// session's fire-and-forget loss rate on both directions. The sender
/// is pumped in 5 ms virtual-time steps until everything is resolved
/// or the page-unload horizon expires; leftovers are abandoned (not
/// silently lost), keeping the identity exact.
pub fn ingest_reliable(
    store: &mut ImpressionStore,
    beacons: &[qtag_wire::Beacon],
    loss: f64,
    seed: u64,
    totals: &mut DeliveryTotals,
    metrics: Option<&Arc<SenderMetrics>>,
) {
    if beacons.is_empty() {
        return;
    }
    let faults = SimFaults::symmetric(loss, 0.002);
    let transport = SimCollectorTransport::new(store, faults, seed);
    let mut sender = BeaconSender::new(
        transport,
        SenderConfig {
            seed: seed ^ 0x5EED,
            ..SenderConfig::default()
        },
    );
    if let Some(m) = metrics {
        sender.attach_metrics(Arc::clone(m));
    }
    let mut now = 0u64;
    for b in beacons {
        sender.offer(b, now).expect("beacon encodes");
    }
    // 60 simulated seconds of unload grace — enough for the backoff
    // ceiling to retry maybe-delivered frames many times over.
    const HORIZON_US: u64 = 60_000_000;
    while !sender.is_idle() && now < HORIZON_US {
        sender.pump(now);
        now += 5_000;
    }
    sender.abandon_pending();
    let stats = sender.stats();
    debug_assert!(stats.conserves(0), "{stats:?}");
    totals.add(&stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_production_run_reproduces_paper_shape() {
        let cfg = ProductionConfig {
            campaigns: 4,
            impressions_per_campaign: 400,
            seed: 7,
            ..ProductionConfig::default()
        };
        let r = run_production(&cfg);
        assert_eq!(r.served, 1600);

        let q = r.qtag_summary.mean_measured_rate;
        let v = r.verifier_summary.mean_measured_rate;
        // Shape: Q-Tag measures substantially more than the commercial
        // solution; both viewability rates sit in the same mid band.
        assert!(q > v + 0.10, "qtag {q} vs verifier {v}");
        assert!((0.85..=0.99).contains(&q), "qtag measured rate {q}");
        assert!((0.60..=0.85).contains(&v), "verifier measured rate {v}");

        let qv = r.qtag_summary.mean_viewability_rate;
        let vv = r.verifier_summary.mean_viewability_rate;
        assert!(
            (qv - vv).abs() < 0.12,
            "viewability rates should agree: {qv} vs {vv}"
        );
        assert!((0.3..=0.7).contains(&qv), "viewability rate {qv}");
    }

    #[test]
    fn reliable_delivery_beats_fire_and_forget_and_conserves() {
        let base = ProductionConfig {
            campaigns: 2,
            impressions_per_campaign: 250,
            seed: 23,
            ..ProductionConfig::default()
        };
        let faf = run_production(&base);
        let reliable = run_production(&ProductionConfig {
            delivery: DeliveryMode::Reliable,
            ..base.clone()
        });
        let q_faf = faf.qtag_summary.mean_measured_rate;
        let q_rel = reliable.qtag_summary.mean_measured_rate;
        assert!(
            q_rel >= q_faf,
            "retries must not lose measurements: {q_rel} vs {q_faf}"
        );
        let d = reliable.delivery;
        assert!(d.conserves(), "{d:?}");
        assert!(d.enqueued > 0);
        assert!(
            d.retransmits > 0,
            "the population's loss must force retransmissions: {d:?}"
        );
        // Fire-and-forget leaves the counters untouched.
        assert_eq!(faf.delivery, DeliveryTotals::default());
        // The verifier side is identical in both runs (same seeds,
        // same fire-and-forget path) — the comparison is apples to
        // apples.
        assert_eq!(
            faf.verifier_summary.mean_measured_rate,
            reliable.verifier_summary.mean_measured_rate
        );
    }

    #[test]
    fn registry_snapshot_mirrors_delivery_totals() {
        let registry = qtag_obs::Registry::new();
        let metrics = SenderMetrics::register(&registry, "qtag_sender");
        let r = run_production(&ProductionConfig {
            campaigns: 2,
            impressions_per_campaign: 150,
            seed: 29,
            delivery: DeliveryMode::Reliable,
            sender_metrics: Some(Arc::clone(&metrics)),
            ..ProductionConfig::default()
        });
        let snap = registry.snapshot();
        let get = |name: &str| snap.value(name).unwrap_or_else(|| panic!("{name} missing"));
        let d = r.delivery;
        assert_eq!(get("qtag_sender_enqueued_total"), d.enqueued);
        assert_eq!(get("qtag_sender_acked_total"), d.acked);
        assert_eq!(get("qtag_sender_retransmits_total"), d.retransmits);
        assert_eq!(
            get("qtag_sender_dropped_after_retries_total"),
            d.dropped_after_retries
        );
        assert_eq!(
            get("qtag_sender_abandoned_unconfirmed_total"),
            d.abandoned_unconfirmed
        );
        assert_eq!(get("qtag_sender_pending"), 0, "every run drains");
        assert_eq!(metrics.ack_latency_us.count(), d.acked);
    }

    #[test]
    fn android_app_slice_shows_the_biggest_gap() {
        let cfg = ProductionConfig {
            campaigns: 2,
            impressions_per_campaign: 600,
            seed: 11,
            ..ProductionConfig::default()
        };
        let r = run_production(&cfg);
        let key = SliceKey {
            site_type: SiteType::App,
            os: qtag_wire::OsKind::Android,
        };
        let q = r.qtag_slices[&key].measured_rate();
        let v = r.verifier_slices[&key].measured_rate();
        assert!(q > 0.85, "qtag App/Android {q}");
        assert!(v < 0.65, "verifier App/Android {v}");
    }
}
