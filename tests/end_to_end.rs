//! End-to-end integration tests spanning every crate: auction → serving
//! → markup → session → tag → wire → transport → ingestion → report.

use qtag::adtech::{
    embed_served_ad, AdSlotRequest, Campaign, CampaignId, Dsp, Exchange, ExchangeKind, GeoRegion,
    Sector, ServedAd, ServingOrigins,
};
use qtag::core::{QTag, QTagConfig};
use qtag::dom::{Origin, Page, Screen, Tab, TabId, WindowKind};
use qtag::geometry::{Rect, Size, Vector};
use qtag::render::{Engine, EngineConfig, SimDuration};
use qtag::server::{
    ImpressionStore, IngestConfig, IngestService, LossyLink, ReportBuilder, ServedImpression,
    ShardedStore,
};
use qtag::user::{EnvSample, Population, PopulationConfig, SessionSim};
use qtag::wire::framing::FrameEvent;
use qtag::wire::{AdFormat, Beacon, EventKind, FrameDecoder, OsKind, SiteType};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The complete story of one impression, crossing every crate boundary
/// in the workspace, with the server's verdict checked at the end.
#[test]
fn one_impression_travels_the_whole_stack() {
    // --- buy side ---
    let mut dsp = Dsp::new(vec![Campaign::display(
        9,
        "EndToEnd Inc",
        Sector::Technology,
        Size::MEDIUM_RECTANGLE,
    )]);
    let mut exchange = Exchange::new(ExchangeKind::AppNexus);
    let req = AdSlotRequest {
        request_id: 1,
        geo: GeoRegion::Germany,
        os: OsKind::Windows10,
        browser: qtag::wire::BrowserKind::Chrome,
        site_type: SiteType::Browser,
        slot_size: Size::MEDIUM_RECTANGLE,
        floor_cpm_milli: 100,
    };
    let (ad, outcome) = exchange.run(&req, &mut dsp).expect("auction fills");
    assert_eq!(outcome.winner.campaign, CampaignId(9));
    assert!(
        ad.paid_cpm_milli <= 1000,
        "second price never exceeds the bid"
    );

    // --- sell side: page + markup ---
    let mut page = Page::new(
        Origin::https("publisher.example"),
        Size::new(1280.0, 2000.0),
    );
    let origins = ServingOrigins::default();
    let placement = embed_served_ad(
        &mut page,
        Rect::new(200.0, 100.0, 300.0, 250.0),
        &ad,
        &origins,
    )
    .expect("embed");
    assert_eq!(page.cross_origin_depth(placement.dsp_frame).unwrap(), 2);

    // --- browser + tag ---
    let mut screen = Screen::desktop();
    let window = screen.add_window(
        WindowKind::Browser {
            tabs: vec![Tab::new(page)],
            active: TabId(0),
        },
        Rect::new(0.0, 0.0, 1280.0, 880.0),
        80.0,
    );
    let mut engine = Engine::new(EngineConfig::default_desktop(), screen);
    let cfg = QTagConfig::new(ad.impression_id, ad.campaign_id.0, placement.creative_rect);
    engine
        .attach_script(
            window,
            Some(TabId(0)),
            placement.dsp_frame,
            Origin::parse(&origins.dsp).unwrap(),
            Box::new(QTag::new(cfg)),
        )
        .unwrap();
    engine.run_for(SimDuration::from_secs(2));
    let beacons: Vec<_> = engine
        .drain_outbox()
        .into_iter()
        .map(|o| o.beacon)
        .collect();
    assert!(beacons.iter().any(|b| b.event == EventKind::InView));

    // --- wire + transport + decode + sharded ingestion ---
    let store = ShardedStore::new(1);
    store.record_served(ServedImpression {
        impression_id: ad.impression_id,
        campaign_id: ad.campaign_id.0,
        os: OsKind::Windows10,
        browser: qtag::wire::BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: ad.format,
    });
    let service = IngestService::start_sharded(store.clone(), IngestConfig::default());
    let mut link = LossyLink::lossless();
    let mut dec = FrameDecoder::new();
    dec.extend(&link.transmit(&beacons).unwrap());
    let mut events = dec.drain();
    events.extend(dec.finish());
    let decoded: Vec<Beacon> = events
        .into_iter()
        .map(|ev| match ev {
            FrameEvent::Beacon(b) => b,
            FrameEvent::Corrupt(c) => panic!("lossless link corrupted a frame: {c:?}"),
        })
        .collect();
    assert_eq!(decoded, beacons);
    let outcome = service.inlet().send_batch(&decoded);
    assert_eq!(outcome.accepted, beacons.len() as u64);
    service.shutdown();

    // --- report ---
    assert_eq!(store.verdict(ad.impression_id), (true, true));
    let reports = ReportBuilder::per_campaign_sharded(&store);
    assert_eq!(reports[0].total.measured_rate(), 1.0);
    assert_eq!(reports[0].total.viewability_rate(), 1.0);
}

/// Both tags on the same impression report through independent
/// pipelines; the environment decides which of them can measure.
#[test]
fn dual_tag_session_diverges_only_in_hostile_environments() {
    let ad = ServedAd {
        impression_id: 77,
        campaign_id: CampaignId(1),
        creative_size: Size::MOBILE_BANNER,
        format: AdFormat::Display,
        paid_cpm_milli: 500,
    };
    let sim = SessionSim {
        above_fold_share: 1.0,
        ..SessionSim::default()
    };

    let mut healthy = EnvSample {
        site_type: SiteType::App,
        os: OsKind::Android,
        bounce: false,
        qtag_fetch_fail: false,
        verifier_fetch_fail: false,
        legacy_env: false,
        beacon_loss: 0.0,
        cpu_load: 0.1,
    };
    let out = sim.run(&ad, &healthy, 1);
    let measured = |bs: &[qtag::wire::Beacon]| bs.iter().any(|b| b.event == EventKind::Measurable);
    assert!(measured(&out.qtag_beacons));
    assert!(measured(&out.verifier_beacons));

    healthy.legacy_env = true;
    let out = sim.run(&ad, &healthy, 1);
    assert!(
        measured(&out.qtag_beacons),
        "Q-Tag survives legacy webviews"
    );
    assert!(out.verifier_beacons.is_empty(), "verifier SDK sandboxed");
}

/// A user who scrolls past the ad too quickly produces a *measured but
/// not viewed* impression — the distinction at the heart of the paper's
/// two metrics.
#[test]
fn fast_scroll_is_measured_but_not_viewed() {
    let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 4000.0));
    let ad_frame = page.create_frame(Origin::https("dsp.example"), Size::MEDIUM_RECTANGLE);
    page.embed_iframe(
        page.root(),
        ad_frame,
        Rect::new(400.0, 1500.0, 300.0, 250.0),
    )
    .unwrap();
    let mut screen = Screen::desktop();
    let window = screen.add_window(
        WindowKind::Browser {
            tabs: vec![Tab::new(page)],
            active: TabId(0),
        },
        Rect::new(0.0, 0.0, 1280.0, 880.0),
        80.0,
    );
    let mut engine = Engine::new(EngineConfig::default_desktop(), screen);
    let cfg = QTagConfig::new(5, 1, Rect::new(0.0, 0.0, 300.0, 250.0));
    engine
        .attach_script(
            window,
            Some(TabId(0)),
            ad_frame,
            Origin::https("dsp.example"),
            Box::new(QTag::new(cfg)),
        )
        .unwrap();

    // Read the top for a second, flash past the ad in 400 ms, read the
    // bottom.
    engine.run_for(SimDuration::from_secs(1));
    engine
        .scroll_page_to(window, Some(TabId(0)), Vector::new(0.0, 1400.0))
        .unwrap();
    engine.run_for(SimDuration::from_millis(400));
    engine
        .scroll_page_to(window, Some(TabId(0)), Vector::new(0.0, 3100.0))
        .unwrap();
    engine.run_for(SimDuration::from_secs(2));

    let mut store = ImpressionStore::new();
    store.record_served(ServedImpression {
        impression_id: 5,
        campaign_id: 1,
        os: OsKind::Windows10,
        browser: qtag::wire::BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: AdFormat::Display,
    });
    for o in engine.drain_outbox() {
        store.apply(&o.beacon);
    }
    assert_eq!(
        store.verdict(5),
        (true, false),
        "400 ms of exposure is measured, not viewed"
    );
}

/// Clicks travel the whole stack too: only clicks on visible creatives
/// dispatch, the tag reports them, and the store records them.
#[test]
fn click_lifecycle_respects_visibility() {
    let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 3000.0));
    let frame = page.create_frame(Origin::https("dsp.example"), Size::MEDIUM_RECTANGLE);
    page.embed_iframe(page.root(), frame, Rect::new(300.0, 200.0, 300.0, 250.0))
        .unwrap();
    let mut screen = Screen::desktop();
    let window = screen.add_window(
        WindowKind::Browser {
            tabs: vec![Tab::new(page)],
            active: TabId(0),
        },
        Rect::new(0.0, 0.0, 1280.0, 880.0),
        80.0,
    );
    let mut engine = Engine::new(EngineConfig::default_desktop(), screen);
    let cfg = QTagConfig::new(44, 1, Rect::new(0.0, 0.0, 300.0, 250.0));
    engine
        .attach_script(
            window,
            Some(TabId(0)),
            frame,
            Origin::https("dsp.example"),
            Box::new(QTag::new(cfg)),
        )
        .unwrap();
    engine.run_for(SimDuration::from_millis(500));

    // Click beside the ad: nobody receives it.
    assert_eq!(
        engine
            .click_at(
                window,
                Some(TabId(0)),
                qtag::geometry::Point::new(50.0, 50.0)
            )
            .unwrap(),
        0
    );
    // Click on the ad (viewport coords = doc coords, unscrolled page).
    assert_eq!(
        engine
            .click_at(
                window,
                Some(TabId(0)),
                qtag::geometry::Point::new(450.0, 325.0)
            )
            .unwrap(),
        1
    );
    // Scroll the ad away; the same point no longer hits it.
    engine
        .scroll_page_to(window, Some(TabId(0)), Vector::new(0.0, 2000.0))
        .unwrap();
    engine.run_for(SimDuration::from_millis(100));
    assert_eq!(
        engine
            .click_at(
                window,
                Some(TabId(0)),
                qtag::geometry::Point::new(450.0, 325.0)
            )
            .unwrap(),
        0
    );

    // The click beacon reaches the store.
    let mut store = ImpressionStore::new();
    store.record_served(ServedImpression {
        impression_id: 44,
        campaign_id: 1,
        os: OsKind::Windows10,
        browser: qtag::wire::BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: AdFormat::Display,
    });
    for o in engine.drain_outbox() {
        store.apply(&o.beacon);
    }
    assert!(store.record(44).unwrap().clicked);
    let reports = ReportBuilder::per_campaign(&store);
    assert_eq!(reports[0].total.clicked, 1);
    assert!((reports[0].total.ctr() - 1.0).abs() < 1e-12);
}

/// Population-driven mini-fleet: the measured-rate ordering of the
/// paper (Q-Tag > commercial) must emerge from any seed.
#[test]
fn measured_rate_ordering_is_seed_independent() {
    let population = Population::new(PopulationConfig::default());
    let sim = SessionSim::default();
    for seed in [3u64, 17, 4242] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut qtag_measured = 0u32;
        let mut verifier_measured = 0u32;
        let n = 120u32;
        for i in 0..n {
            let env = population.sample(&mut rng);
            let ad = ServedAd {
                impression_id: u64::from(i) + 1,
                campaign_id: CampaignId(1),
                creative_size: Size::MEDIUM_RECTANGLE,
                format: AdFormat::Display,
                paid_cpm_milli: 700,
            };
            let out = sim.run(&ad, &env, seed ^ u64::from(i));
            if out
                .qtag_beacons
                .iter()
                .any(|b| b.event == EventKind::Measurable)
            {
                qtag_measured += 1;
            }
            if out
                .verifier_beacons
                .iter()
                .any(|b| b.event == EventKind::Measurable)
            {
                verifier_measured += 1;
            }
        }
        assert!(
            qtag_measured > verifier_measured,
            "seed {seed}: qtag {qtag_measured} vs verifier {verifier_measured}"
        );
        assert!(qtag_measured as f64 / f64::from(n) > 0.85, "seed {seed}");
    }
}
