//! Schedule-exploration models over the *real* ingest pipeline, built
//! only under `--cfg qtag_check` (the `qtag_server::sync` facade then
//! routes every lock, atomic, spawn and join through the qtag-check
//! scheduler):
//!
//! ```text
//! RUSTFLAGS="--cfg qtag_check" cargo test -p qtag-server --test check_models
//! ```
//!
//! These models spawn the service's own applier and worker threads, so
//! even a one-shard/one-worker service is a 3–4 thread model; all of
//! them therefore run under a CHESS-style preemption bound rather than
//! full DFS (see `crates/check`).
#![cfg(qtag_check)]

use qtag_check::sync::thread;
use qtag_check::Builder;
use qtag_server::sync::Arc;
use qtag_server::{IngestConfig, IngestService, ServedImpression, ShardedStore};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

fn served(id: u64) -> ServedImpression {
    ServedImpression {
        impression_id: id,
        campaign_id: 1,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: AdFormat::Display,
    }
}

fn beacon(id: u64, seq: u16) -> Beacon {
    Beacon {
        impression_id: id,
        campaign_id: 1,
        event: EventKind::InView,
        timestamp_us: 0,
        ad_format: AdFormat::Display,
        visible_fraction_milli: 1000,
        exposure_ms: 1000,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        seq,
    }
}

/// The ingest conservation identity under an offer/shutdown race: an
/// inlet thread offers beacons while the main thread concurrently
/// tears the service down. In every interleaving each offered beacon
/// must land in exactly one of accepted / shed / rejected, and every
/// accepted beacon must be applied to the store before `shutdown`
/// returns.
#[test]
fn offer_vs_shutdown_conserves_every_beacon() {
    let report = Builder::bounded(2).check(|| {
        let store = ShardedStore::new(1);
        store.record_served(served(1));
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                workers: 1,
                batch: 2,
                inlet_capacity: 1,
                metrics: None,
                journal: None,
            },
        );
        let stats = Arc::clone(service.stats_arc());
        let inlet = service.inlet();
        let offerer = thread::spawn(move || {
            let mut accepted = 0u64;
            for seq in 0..2u16 {
                accepted += inlet.offer_batch(&[beacon(1, seq)], |_| {}).accepted;
            }
            accepted
        });
        service.shutdown();
        let accepted = offerer.join().unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.beacons, accepted, "accepted counter matches outcomes");
        assert_eq!(
            snap.beacons + snap.shed_beacons + snap.rejected_after_shutdown,
            2,
            "every offered beacon lands in exactly one counter"
        );
        assert_eq!(
            store.unique_beacons(),
            accepted,
            "every accepted beacon applied before shutdown returned"
        );
    });
    assert!(report.schedules > 1, "schedules: {}", report.schedules);
}

/// Sharded applier handoff: beacons routed to two shard appliers while
/// the service shuts down concurrently with the last offer. Shard
/// routing must never lose an accepted beacon and the graceful drain
/// must apply everything accepted.
#[test]
fn sharded_handoff_applies_all_accepted() {
    // Ids 0 and 3 hash to different shards of a 2-shard store.
    let report = Builder::bounded(2).check(|| {
        let store = ShardedStore::new(2);
        store.record_served(served(0));
        store.record_served(served(3));
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                workers: 1,
                batch: 1,
                inlet_capacity: 2,
                metrics: None,
                journal: None,
            },
        );
        let stats = Arc::clone(service.stats_arc());
        let inlet = service.inlet();
        let offerer = thread::spawn(move || {
            inlet.send_batch(&[beacon(0, 0)]).accepted + inlet.send_batch(&[beacon(3, 0)]).accepted
        });
        service.shutdown();
        let accepted = offerer.join().unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.beacons, accepted);
        assert_eq!(snap.shed_beacons, 0, "blocking send never sheds");
        assert_eq!(snap.beacons + snap.rejected_after_shutdown, 2);
        assert_eq!(store.unique_beacons(), accepted);
    });
    assert!(report.schedules > 1, "schedules: {}", report.schedules);
}

/// A quiescent start/shutdown cycle must terminate in every schedule
/// (no lost wakeup between the worker's `Shutdown` message, the applier
/// channel disconnect, and the joins).
#[test]
fn idle_shutdown_terminates_in_every_schedule() {
    let report = Builder::bounded(2).check(|| {
        let service = IngestService::start_sharded(
            ShardedStore::new(1),
            IngestConfig {
                workers: 1,
                ..IngestConfig::default()
            },
        );
        service.shutdown();
    });
    assert!(report.complete, "model must exhaust its schedule tree");
    assert!(report.schedules > 1, "schedules: {}", report.schedules);
}
