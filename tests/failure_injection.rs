//! Failure-injection integration tests: the system's behaviour when
//! parts of the pipeline break — lossy networks, corrupted streams,
//! dying sessions, hostile environments.

use qtag::core::{QTag, QTagConfig};
use qtag::dom::{Origin, Page, Screen, Tab, TabId, WindowKind};
use qtag::geometry::{Rect, Size};
use qtag::render::{Engine, EngineConfig, SimDuration};
use qtag::server::{
    ImpressionStore, IngestConfig, IngestService, LossyLink, ReportBuilder, ServedImpression,
    ShardedStore,
};
use qtag::wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::sync::Arc;

fn served(id: u64) -> ServedImpression {
    ServedImpression {
        impression_id: id,
        campaign_id: 1,
        os: OsKind::Android,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: AdFormat::Display,
    }
}

fn beacon(id: u64, event: EventKind, seq: u16) -> Beacon {
    Beacon {
        impression_id: id,
        campaign_id: 1,
        event,
        timestamp_us: u64::from(seq) * 1000,
        ad_format: AdFormat::Display,
        visible_fraction_milli: 900,
        exposure_ms: 1200,
        os: OsKind::Android,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        seq,
    }
}

/// Heavy beacon loss lowers the measured rate but never corrupts the
/// store: every surviving beacon still lands on the right impression.
#[test]
fn measured_rate_degrades_gracefully_under_loss() {
    let mut store = ImpressionStore::new();
    let n = 1000u64;
    for id in 1..=n {
        store.record_served(served(id));
    }
    let mut link = LossyLink::new(0.4, 0.0, 99);
    for id in 1..=n {
        let bytes = link
            .transmit(&[
                beacon(id, EventKind::Measurable, 0),
                beacon(id, EventKind::InView, 1),
            ])
            .unwrap();
        let mut dec = qtag::wire::FrameDecoder::new();
        dec.extend(&bytes);
        for ev in dec.drain() {
            if let qtag::wire::framing::FrameEvent::Beacon(b) = ev {
                store.apply(&b);
            }
        }
    }
    let reports = ReportBuilder::per_campaign(&store);
    let rate = reports[0].total.measured_rate();
    // P(measured) = P(at least one of two beacons survives) = 1 − 0.4².
    assert!((rate - 0.84).abs() < 0.04, "measured rate {rate}");
    assert_eq!(store.orphan_beacons(), 0);
    // Viewability conditioning still holds: viewed ⊆ measured.
    assert!(reports[0].total.viewed <= reports[0].total.measured);
}

/// A corrupted byte stream interleaved with good frames: the ingestion
/// service keeps every good beacon and counts the bad frames.
#[test]
fn ingestion_survives_corrupted_interleaved_streams() {
    let store = ShardedStore::new(1);
    for id in 1..=50 {
        store.record_served(served(id));
    }
    let service = IngestService::start_sharded(
        store.clone(),
        IngestConfig {
            workers: 3,
            ..IngestConfig::default()
        },
    );
    let mut corrupting = LossyLink::new(0.0, 0.5, 7);
    for id in 1..=50u64 {
        let bytes = corrupting
            .transmit(&[
                beacon(id, EventKind::Measurable, 0),
                beacon(id, EventKind::Measurable, 1),
            ])
            .unwrap();
        service.submit(id, bytes);
    }
    let stats = Arc::clone(service.stats_arc());
    service.shutdown();
    let reports = ReportBuilder::per_campaign_sharded(&store);
    // With two redundant beacons at 50 % corruption, ~75 % measured.
    let rate = reports[0].total.measured_rate();
    assert!((0.55..=0.92).contains(&rate), "measured rate {rate}");
    assert!(
        stats
            .corrupt_frames
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "corruption must be observed and counted"
    );
}

/// The page is torn down mid-measurement (user navigates away): the tag
/// is detached, nothing panics, and the impression stays unviewed.
#[test]
fn mid_session_teardown_is_clean() {
    let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 2000.0));
    let frame = page.create_frame(Origin::https("dsp.example"), Size::MEDIUM_RECTANGLE);
    page.embed_iframe(page.root(), frame, Rect::new(300.0, 100.0, 300.0, 250.0))
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
    let cfg = QTagConfig::new(3, 1, Rect::new(0.0, 0.0, 300.0, 250.0));
    let sid = engine
        .attach_script(
            window,
            Some(TabId(0)),
            frame,
            Origin::https("dsp.example"),
            Box::new(QTag::new(cfg)),
        )
        .unwrap();

    // 600 ms in — timer started but 1 s not reached — the user leaves.
    engine.run_for(SimDuration::from_millis(600));
    engine.detach_script(sid);
    engine.run_for(SimDuration::from_secs(2)); // must not panic

    let events: Vec<_> = engine
        .drain_outbox()
        .into_iter()
        .map(|o| o.beacon.event)
        .collect();
    assert!(events.contains(&EventKind::Measurable));
    assert!(
        !events.contains(&EventKind::InView),
        "600 ms of exposure must not satisfy the 1 s standard"
    );
}

/// Duplicate delivery (retries) cannot double-count: rates computed
/// after a replay equal rates before it.
#[test]
fn replayed_traffic_does_not_inflate_rates() {
    let mut store = ImpressionStore::new();
    for id in 1..=20 {
        store.record_served(served(id));
        store.apply(&beacon(id, EventKind::Measurable, 0));
        if id % 2 == 0 {
            store.apply(&beacon(id, EventKind::InView, 1));
        }
    }
    let before = ReportBuilder::per_campaign(&store)[0].total;
    // Replay everything twice.
    for _ in 0..2 {
        for id in 1..=20 {
            store.apply(&beacon(id, EventKind::Measurable, 0));
            store.apply(&beacon(id, EventKind::InView, 1));
        }
    }
    let after = ReportBuilder::per_campaign(&store)[0].total;
    assert_eq!(before.measured, after.measured);
    // Note: the replay legitimately delivers one *new* event (seq 1 for
    // odd ids was never seen), so compare against the deduped truth:
    assert_eq!(
        after.viewed, 20,
        "replays may fill gaps but never double-count"
    );
    assert_eq!(after.served, 20);
}

/// CPU starvation: at extreme load the page paints below every
/// threshold and the tag reports out-of-view rather than hallucinating
/// visibility.
#[test]
fn cpu_starvation_fails_closed() {
    let mut page = Page::new(Origin::https("pub.example"), Size::new(1280.0, 2000.0));
    let frame = page.create_frame(Origin::https("dsp.example"), Size::MEDIUM_RECTANGLE);
    page.embed_iframe(page.root(), frame, Rect::new(300.0, 100.0, 300.0, 250.0))
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
    let mut engine = Engine::new(
        EngineConfig {
            cpu: qtag::render::CpuLoadModel::Constant(0.95), // 3 fps effective
            ..EngineConfig::default_desktop()
        },
        screen,
    );
    let cfg = QTagConfig::new(9, 1, Rect::new(0.0, 0.0, 300.0, 250.0));
    engine
        .attach_script(
            window,
            Some(TabId(0)),
            frame,
            Origin::https("dsp.example"),
            Box::new(QTag::new(cfg)),
        )
        .unwrap();
    engine.run_for(SimDuration::from_secs(4));
    let events: Vec<_> = engine
        .drain_outbox()
        .into_iter()
        .map(|o| o.beacon.event)
        .collect();
    assert!(
        !events.contains(&EventKind::InView),
        "a 3 fps device must not satisfy a 20 fps visibility threshold"
    );
    assert!(
        events.contains(&EventKind::Measurable),
        "still measurable — verdict: not viewed"
    );
}
