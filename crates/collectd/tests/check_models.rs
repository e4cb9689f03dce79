//! Schedule-exploration models over the daemon's decode → batch →
//! inlet → applier path, built only under `--cfg qtag_check`:
//!
//! ```text
//! RUSTFLAGS="--cfg qtag_check" cargo test -p qtag-collectd --test check_models
//! ```
//!
//! The socket itself is replaced by scripted in-memory IO (the model
//! scheduler cannot preempt an OS `read`); everything else — the
//! connection state machine with its ack flush cursor, `FrameDecoder`,
//! the per-read batching, `BeaconInlet::offer_batch`, the shard
//! appliers, the ingest shutdown drain — is the real code, routed
//! through the sync facades. `reactor_chunks` serves the session one
//! wakeup at a time as a reactor worker does; its `write_cap` picks
//! how the client's socket takes the acks (unbounded: every write
//! completes; small: partial writes and parked flushes). Each model
//! asserts the collector's conservation identities in *every* explored
//! interleaving.
#![cfg(qtag_check)]

use qtag_check::sync::atomic::AtomicBool;
use qtag_check::sync::thread;
use qtag_check::Builder;
use qtag_collectd::{reactor_chunks, CollectorConfig, CollectorStats, OpsSnapshot};
use qtag_server::sync::Arc;
use qtag_server::{IngestConfig, IngestService, ServedImpression, ShardedStore};
use qtag_wire::framing::encode_frames;
use qtag_wire::sender::{ACK_HELLO, ACK_LEN};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

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

struct Rig {
    service: IngestService,
    store: ShardedStore,
    stats: Arc<CollectorStats>,
    cfg: Arc<CollectorConfig>,
    shutdown: Arc<AtomicBool>,
}

fn rig() -> Rig {
    let store = ShardedStore::new(1);
    // Serve the ids the models send, so applied beacons count as
    // unique rather than orphans.
    for id in 1..=2u64 {
        store.record_served(ServedImpression {
            impression_id: id,
            campaign_id: 1,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            ad_format: AdFormat::Display,
        });
    }
    let service = IngestService::start_sharded(
        store.clone(),
        IngestConfig {
            inlet_capacity: 2,
            ..IngestConfig::default()
        },
    );
    Rig {
        service,
        store,
        stats: Arc::new(CollectorStats::default()),
        cfg: Arc::new(CollectorConfig::default()),
        shutdown: Arc::new(AtomicBool::new(false)),
    }
}

/// An acked session: the hello byte, then the frames.
fn acked(beacons: &[Beacon]) -> Vec<u8> {
    let mut bytes = vec![ACK_HELLO];
    bytes.extend(encode_frames(beacons).unwrap());
    bytes
}

/// A connection drains its stream while the daemon's ingest service
/// shuts down concurrently — the shutdown/drain race of PR 2, run
/// through the real `ConnState` read/flush path (acked stream,
/// scripted IO with partial 4-byte ack writes). In every interleaving
/// `sent == applied + corrupt + shed + rejected` must hold, whatever
/// the inlet accepted must be in the store once `shutdown` returns,
/// and it must have been acked in full.
#[test]
fn drain_vs_shutdown_conserves() {
    // Sleep-set reduction prunes the interleavings that only permute
    // independent ops, so the wall-clock budget covers preemption
    // bound 3 and a doubled schedule cap.
    let report = Builder {
        max_schedules: 8_192,
        ..Builder::bounded(3)
    }
    .check(|| {
        let r = rig();
        let ingest_stats = Arc::clone(r.service.stats_arc());
        let inlet = r.service.inlet();
        let bytes = acked(&[beacon(1, 0), beacon(2, 0)]);
        let total_bytes = bytes.len() as u64;
        // Split mid-frame: the second read must resume the partial
        // frame exactly as a socket would.
        let cut = bytes.len() / 2;
        let chunks = vec![bytes[..cut].to_vec(), bytes[cut..].to_vec()];
        let stats = Arc::clone(&r.stats);
        let cfg = Arc::clone(&r.cfg);
        let shutdown = Arc::clone(&r.shutdown);
        let conn = thread::spawn(move || reactor_chunks(cfg, stats, inlet, shutdown, &chunks, 4));
        r.service.shutdown();
        let acks = conn.join().unwrap();
        let ops = OpsSnapshot {
            collector: r.stats.snapshot(),
            ingest: ingest_stats.snapshot(),
        };
        assert!(ops.conserves(2), "conservation violated: {ops:?}");
        assert!(ops.decode_accounted(), "decode accounting broken: {ops:?}");
        assert_eq!(ops.collector.bytes_read, total_bytes, "{ops:?}");
        assert_eq!(ops.collector.acked_connections, 1, "{ops:?}");
        // Every beacon the inlet accepted was acked in full, through
        // the partial-write cursor, in every interleaving.
        assert_eq!(
            acks.len() as u64,
            ops.ingest.beacons * ACK_LEN as u64,
            "{ops:?}"
        );
        assert_eq!(
            r.store.unique_beacons(),
            ops.ingest.beacons,
            "an accepted beacon missed the store: {ops:?}"
        );
    });
    assert!(report.schedules > 1, "schedules: {}", report.schedules);
}

/// Same race with a damaged frame in the stream: the corrupt frame is
/// counted exactly once, never applied, never acked, and the identity
/// still balances in every interleaving.
#[test]
fn corrupt_frame_accounting_survives_shutdown_race() {
    let report = Builder::bounded(2).check(|| {
        let r = rig();
        let ingest_stats = Arc::clone(r.service.stats_arc());
        let inlet = r.service.inlet();
        let good = acked(&[beacon(1, 0)]);
        let mut bad = encode_frames(&[beacon(1, 1)]).unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF; // fails the CRC, header stays honest
        let bad_bytes = bad.len() as u64;
        let chunks = vec![good, bad];
        let stats = Arc::clone(&r.stats);
        let cfg = Arc::clone(&r.cfg);
        let shutdown = Arc::clone(&r.shutdown);
        let conn = thread::spawn(move || reactor_chunks(cfg, stats, inlet, shutdown, &chunks, 4));
        r.service.shutdown();
        let acks = conn.join().unwrap();
        let ops = OpsSnapshot {
            collector: r.stats.snapshot(),
            ingest: ingest_stats.snapshot(),
        };
        assert_eq!(ops.collector.corrupt_frames, 1, "{ops:?}");
        // The damaged frame is discarded whole (honest header), so
        // its bytes land in corrupt_frame_bytes and none are spent
        // resynchronising.
        assert_eq!(ops.collector.corrupt_frame_bytes, bad_bytes, "{ops:?}");
        assert_eq!(ops.collector.resync_bytes, 0, "{ops:?}");
        assert!(ops.conserves(2), "conservation violated: {ops:?}");
        assert!(ops.decode_accounted(), "decode accounting broken: {ops:?}");
        assert_eq!(
            acks.len() as u64,
            ops.ingest.beacons * ACK_LEN as u64,
            "{ops:?}"
        );
    });
    assert!(report.schedules > 1, "schedules: {}", report.schedules);
}

/// Two connections (acked or fire-and-forget, connection `i` served
/// with `write_caps[i]`) racing each other and the shutdown:
/// per-connection batches land on the same shard applier without
/// losing or double counting anything.
fn two_connections_conserve(acked_protocol: bool, write_caps: [usize; 2]) {
    // Both connections bump the same monotone `CollectorStats` and
    // `IngestStats` counters with Relaxed RMWs. Exact reads happen
    // only after both joins (the joins supply the happens-before), so
    // the unordered increments the race detector sees are benign —
    // the sites carry matching `// ordering:` justifications.
    let report = Builder::bounded(1)
        .allow_race("crates/collectd/src/connection.rs")
        .allow_race("crates/server/src/ingest.rs")
        .check(move || {
            let r = rig();
            let ingest_stats = Arc::clone(r.service.stats_arc());
            let conns: Vec<_> = (1..=2u64)
                .zip(write_caps)
                .map(|(id, write_cap)| {
                    let chunks = vec![if acked_protocol {
                        acked(&[beacon(id, 0)])
                    } else {
                        encode_frames(&[beacon(id, 0)]).unwrap()
                    }];
                    let stats = Arc::clone(&r.stats);
                    let cfg = Arc::clone(&r.cfg);
                    let shutdown = Arc::clone(&r.shutdown);
                    let inlet = r.service.inlet();
                    thread::spawn(move || {
                        reactor_chunks(cfg, stats, inlet, shutdown, &chunks, write_cap)
                    })
                })
                .collect();
            r.service.shutdown();
            let acks: usize = conns.into_iter().map(|c| c.join().unwrap().len()).sum();
            let ops = OpsSnapshot {
                collector: r.stats.snapshot(),
                ingest: ingest_stats.snapshot(),
            };
            assert!(ops.conserves(2), "conservation violated: {ops:?}");
            assert!(ops.decode_accounted(), "decode accounting broken: {ops:?}");
            assert_eq!(r.store.unique_beacons(), ops.ingest.beacons);
            let acked_beacons = if acked_protocol {
                ops.ingest.beacons
            } else {
                0
            };
            assert_eq!(acks as u64, acked_beacons * ACK_LEN as u64, "{ops:?}");
        });
    assert!(report.schedules > 1, "schedules: {}", report.schedules);
    assert!(
        report.races > 0,
        "the allowlist should be load-bearing: the detector must have \
         observed the stats-counter races it tolerates"
    );
}

/// Two fire-and-forget connections: the unacked protocol path.
#[test]
fn two_connections_conserve_jointly() {
    two_connections_conserve(false, [4, 4]);
}

/// Two acked connections sharing one inlet while the service shuts
/// down, one whose socket takes every ack write whole and one that
/// takes 4 bytes at a time (partial writes, parked flushes): the two
/// write shapes must account jointly, keep exactly-once semantics and
/// ack every accepted frame.
#[test]
fn mixed_mode_connections_conserve_jointly() {
    two_connections_conserve(true, [usize::MAX, 4]);
}
