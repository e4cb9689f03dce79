//! The durable backend's correctness bar, end to end:
//!
//! * **Crash at any record boundary** — recovering a WAL truncated
//!   after any prefix of records reproduces exactly the store, the
//!   counters, the reports, and the rollups of a reference store fed
//!   that same prefix (an exhaustive sweep over every boundary).
//! * **Torn / corrupt tails** — a truncation or bit flip inside the
//!   last record loses only that record: recovery stops cleanly at the
//!   last valid frame, counts the truncation, and never invents data.
//! * **Compaction** — snapshot + WAL truncate round-trips to the same
//!   report output, including across further appends, and the
//!   compaction *crash window* (new snapshot, old WAL) is detected by
//!   the epoch and resolved without double-counting.
//! * **Parallel recovery** — shards recovered on several workers come
//!   back exactly as each shard's log replays alone, at shard counts
//!   below and above the core count, and a directory with several
//!   broken shards is refused with the lowest-numbered shard's error.

use qtag_server::{ImpressionStore, ReportBuilder, ServedImpression};
use qtag_store::{
    record, replay, replay_into, wal_path, DurableBackend, DurableConfig, ShardRollup,
    StorageBackend, SyncPolicy, WalRecord,
};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh scratch directory (process id + counter; no wall clock).
fn test_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("qtag-store-it-{}-{}-{tag}", std::process::id(), n));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn beacon(id: u64, seq: u16, event: EventKind, ts: u64) -> Beacon {
    Beacon {
        impression_id: id,
        campaign_id: (id % 3) as u32 + 1,
        event,
        timestamp_us: ts,
        ad_format: AdFormat::Display,
        visible_fraction_milli: 500 + seq * 37,
        exposure_ms: 700 + u32::from(seq) * 111,
        os: if id.is_multiple_of(2) {
            OsKind::Android
        } else {
            OsKind::Windows10
        },
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        seq,
    }
}

fn served(id: u64) -> ServedImpression {
    let b = beacon(id, 0, EventKind::Measurable, 0);
    ServedImpression {
        impression_id: id,
        campaign_id: b.campaign_id,
        os: b.os,
        browser: b.browser,
        site_type: b.site_type,
        ad_format: b.ad_format,
    }
}

/// Drives a deterministic mixed workload (registers, events, a
/// duplicate, an ack; every fourth impression an orphan) through a
/// backend.
fn drive(backend: &dyn StorageBackend, ids: std::ops::Range<u64>) {
    const HOUR: u64 = 3_600 * 1_000_000;
    for id in ids {
        if id % 4 != 3 {
            backend.record_served(served(id));
        }
        let t0 = id * HOUR / 2;
        backend.apply(&beacon(id, 0, EventKind::Measurable, t0));
        backend.apply(&beacon(id, 1, EventKind::InView, t0 + 1_000));
        backend.apply(&beacon(id, 1, EventKind::InView, t0 + 1_000)); // duplicate
        backend.apply(&beacon(id, 2, EventKind::Heartbeat, t0 + 2_000));
        backend.append_ack(id, 0);
    }
}

/// Byte offsets of every record boundary in a WAL file (header
/// included as boundary 0).
fn frame_boundaries(path: &Path) -> Vec<u64> {
    let bytes = std::fs::read(path).expect("read wal");
    let mut offs = vec![qtag_store::wal::WAL_HEADER_LEN as u64];
    let mut off = qtag_store::wal::WAL_HEADER_LEN;
    while off < bytes.len() {
        let (_, consumed) = record::decode_frame(&bytes[off..]).expect("clean log");
        off += consumed;
        offs.push(off as u64);
    }
    offs
}

/// Copies `src_dir`'s shard-0 WAL into a fresh directory, truncated to
/// `len` bytes.
fn truncated_copy(src_dir: &Path, len: u64, tag: &str) -> PathBuf {
    let dst_dir = test_dir(tag);
    let mut bytes = std::fs::read(wal_path(src_dir, 0)).expect("read wal");
    bytes.truncate(len as usize);
    std::fs::write(wal_path(&dst_dir, 0), &bytes).expect("write truncated wal");
    dst_dir
}

/// Asserts the recovered backend is bit-identical to a reference store
/// fed `records` directly, across every read surface.
fn assert_matches_reference(recovered: &DurableBackend, records: &[WalRecord], ids: u64) {
    let mut reference = ImpressionStore::new();
    let mut ref_rollup = ShardRollup::new();
    for rec in records {
        match rec {
            WalRecord::Served(s) => reference.record_served(s.clone()),
            WalRecord::Beacon(b) => {
                let outcome = reference.apply(b);
                ref_rollup.record(b, &outcome);
            }
            WalRecord::Ack { .. } => {}
        }
    }

    let store = recovered.store();
    assert_eq!(store.unique_beacons(), reference.unique_beacons());
    assert_eq!(store.total_duplicates(), reference.total_duplicates());
    assert_eq!(store.orphan_beacons(), reference.orphan_beacons());
    assert_eq!(store.served_count(), reference.served_count());
    for id in 0..ids {
        assert_eq!(store.verdict(id), reference.verdict(id), "verdict {id}");
        assert_eq!(
            store.record(id),
            reference.record(id).cloned(),
            "record {id}"
        );
    }
    assert_eq!(
        ReportBuilder::per_campaign_sharded(store),
        ReportBuilder::per_campaign(&reference),
        "reports"
    );
    assert_eq!(
        recovered.merged_hourly().export_state(),
        ref_rollup.hourly.export_state(),
        "hourly rollup"
    );
    assert_eq!(
        recovered.merged_daily().export_state(),
        ref_rollup.daily().export_state(),
        "daily rollup"
    );
    assert_eq!(recovered.merged_exposure(), ref_rollup.exposure);
    assert_eq!(recovered.merged_fraction(), ref_rollup.fraction);
}

/// The tentpole property, exhaustively: crash the log at EVERY record
/// boundary; recovery reproduces the reference prefix state exactly —
/// records, SeqSeen dedup, counters, reports, and rollups.
#[test]
fn crash_at_every_record_boundary_recovers_the_exact_prefix() {
    const IDS: u64 = 10;
    let src = test_dir("boundary_src");
    let (backend, _) = DurableBackend::open(DurableConfig {
        dir: src.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect("open source backend");
    drive(&backend, 0..IDS);
    drop(backend);

    let full = replay(&wal_path(&src, 0)).expect("replay source");
    assert!(full.torn.is_none());
    let boundaries = frame_boundaries(&wal_path(&src, 0));
    assert_eq!(boundaries.len(), full.records.len() + 1);

    for (k, &len) in boundaries.iter().enumerate() {
        let dir = truncated_copy(&src, len, "boundary_cut");
        let (recovered, report) = DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards: 1,
            sync: SyncPolicy::NoSync,
        })
        .unwrap_or_else(|e| panic!("recover at boundary {k}: {e}"));
        assert_eq!(report.records_replayed, k as u64, "boundary {k}");
        assert_eq!(report.truncated_tails, 0, "clean cut at boundary {k}");
        assert_matches_reference(&recovered, &full.records[..k], IDS);
        let snap = recovered.stats().snapshot();
        assert_eq!(snap.records_recovered, k as u64);
        assert_eq!(snap.truncated_records, 0);
        assert_eq!(snap.io_errors, 0);
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&src).unwrap();
}

/// Torn tail (crash mid-record): only the cut record is lost, the
/// truncation is counted, and the reopened log accepts appends again —
/// a second recovery is clean.
#[test]
fn torn_tail_is_truncated_counted_and_heals_on_reopen() {
    const IDS: u64 = 6;
    let src = test_dir("torn_src");
    let (backend, _) = DurableBackend::open(DurableConfig {
        dir: src.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect("open source backend");
    drive(&backend, 0..IDS);
    drop(backend);

    let full = replay(&wal_path(&src, 0)).expect("replay source");
    let boundaries = frame_boundaries(&wal_path(&src, 0));
    // Cut 5 bytes into the frame after boundary 7: a torn write.
    let keep = 7usize;
    let dir = truncated_copy(&src, boundaries[keep] + 5, "torn_cut");

    let (recovered, report) = DurableBackend::open(DurableConfig {
        dir: dir.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect("torn tail must recover, not error");
    assert_eq!(report.records_replayed, keep as u64);
    assert_eq!(report.truncated_tails, 1);
    assert_eq!(recovered.stats().snapshot().truncated_records, 1);
    assert_matches_reference(&recovered, &full.records[..keep], IDS);

    // Appending after recovery lands on a clean boundary…
    recovered.apply(&beacon(0, 9, EventKind::Heartbeat, 1_000));
    drop(recovered);
    // …so the next recovery sees a clean log: prefix + the append.
    let (again, report2) = DurableBackend::open(DurableConfig {
        dir: dir.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect("second recovery");
    assert_eq!(report2.truncated_tails, 0, "tail was truncated on reopen");
    assert_eq!(report2.records_replayed, keep as u64 + 1);
    let mut expect = full.records[..keep].to_vec();
    expect.push(WalRecord::Beacon(beacon(0, 9, EventKind::Heartbeat, 1_000)));
    assert_matches_reference(&again, &expect, IDS);
    drop(again);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&src).unwrap();
}

/// A bit flip inside the record area: the frame CRC stops replay at
/// the last valid record before the flip — no panic, no silent data
/// invention past it.
#[test]
fn bit_flip_in_record_area_stops_recovery_at_last_valid_record() {
    const IDS: u64 = 6;
    let src = test_dir("flip_src");
    let (backend, _) = DurableBackend::open(DurableConfig {
        dir: src.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect("open source backend");
    drive(&backend, 0..IDS);
    drop(backend);

    let boundaries = frame_boundaries(&wal_path(&src, 0));
    let full = replay(&wal_path(&src, 0)).expect("replay source");
    let keep = 11usize; // flip a byte inside record 12's payload
    let dir = test_dir("flip_cut");
    let mut bytes = std::fs::read(wal_path(&src, 0)).unwrap();
    bytes[boundaries[keep] as usize + 9] ^= 0x04;
    std::fs::write(wal_path(&dir, 0), &bytes).unwrap();

    let (recovered, report) = DurableBackend::open(DurableConfig {
        dir: dir.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect("corrupt tail must recover, not error");
    assert_eq!(report.records_replayed, keep as u64);
    assert_eq!(report.truncated_tails, 1);
    assert_matches_reference(&recovered, &full.records[..keep], IDS);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&src).unwrap();
}

/// Compaction round-trip over multiple shards: snapshot + truncate
/// changes no observable output, recovery after compaction replays
/// nothing, and appends after compaction recover on top of the
/// snapshot — always equal to one uninterrupted reference run.
#[test]
fn compaction_and_further_appends_round_trip_to_identical_reports() {
    const IDS: u64 = 24;
    const SHARDS: usize = 3;
    let dir = test_dir("compact");
    let open = || {
        DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards: SHARDS,
            sync: SyncPolicy::Batch,
        })
    };

    let (backend, _) = open().expect("open");
    drive(&backend, 0..IDS);
    let before = ReportBuilder::per_campaign_sharded(backend.store());
    let hourly_before = backend.merged_hourly().export_state();

    backend.compact().expect("compact");
    let snap = backend.stats().snapshot();
    assert_eq!(snap.compactions, SHARDS as u64);
    for shard in 0..SHARDS {
        assert_eq!(
            backend.wal_len(shard),
            qtag_store::wal::WAL_HEADER_LEN as u64,
            "shard {shard} WAL truncated"
        );
    }
    // Compaction changes nothing observable.
    assert_eq!(ReportBuilder::per_campaign_sharded(backend.store()), before);
    assert_eq!(backend.merged_hourly().export_state(), hourly_before);
    drop(backend);

    // Recovery now comes entirely from snapshots.
    let (recovered, report) = open().expect("recover from snapshots");
    assert_eq!(report.snapshots_loaded, SHARDS as u64);
    assert_eq!(report.records_replayed, 0);
    assert_eq!(recovered.stats().snapshot().snapshots_loaded, SHARDS as u64);
    assert_eq!(
        ReportBuilder::per_campaign_sharded(recovered.store()),
        before
    );
    assert_eq!(recovered.merged_hourly().export_state(), hourly_before);

    // Append on top of the snapshot, recover again: equal to one
    // uninterrupted run of the whole workload.
    drive(&recovered, IDS..IDS * 2);
    let appended = backend_stat_probe(&recovered);
    drop(recovered);
    let (again, report2) = open().expect("recover snapshot + wal");
    assert_eq!(report2.snapshots_loaded, SHARDS as u64);
    assert!(report2.records_replayed > 0, "fresh records replayed");

    let mut reference = ImpressionStore::new();
    let mut ref_rollup = ShardRollup::new();
    for id in 0..IDS * 2 {
        if id % 4 != 3 {
            reference.record_served(served(id));
        }
    }
    const HOUR: u64 = 3_600 * 1_000_000;
    for id in 0..IDS * 2 {
        let t0 = id * HOUR / 2;
        for b in [
            beacon(id, 0, EventKind::Measurable, t0),
            beacon(id, 1, EventKind::InView, t0 + 1_000),
            beacon(id, 1, EventKind::InView, t0 + 1_000),
            beacon(id, 2, EventKind::Heartbeat, t0 + 2_000),
        ] {
            let outcome = reference.apply(&b);
            ref_rollup.record(&b, &outcome);
        }
    }
    assert_eq!(
        ReportBuilder::per_campaign_sharded(again.store()),
        ReportBuilder::per_campaign(&reference)
    );
    assert_eq!(again.store().unique_beacons(), reference.unique_beacons());
    assert_eq!(
        again.store().total_duplicates(),
        reference.total_duplicates()
    );
    assert_eq!(
        again.merged_hourly().export_state(),
        ref_rollup.hourly.export_state()
    );
    assert_eq!(
        again.merged_daily().export_state(),
        ref_rollup.daily().export_state()
    );
    assert!(appended > 0);
    drop(again);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exercises the append-volume counters so the probe above is honest.
fn backend_stat_probe(b: &DurableBackend) -> u64 {
    let snap = b.stats().snapshot();
    assert!(snap.records_appended > 0);
    assert!(snap.batches_appended > 0);
    assert!(snap.bytes_appended > snap.records_appended);
    // Batch fsyncs ride the background flusher, so give it a beat to
    // sweep the dirty marks before insisting it synced.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while b.stats().snapshot().fsyncs == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "flusher never fsynced a dirty shard"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    snap.records_appended
}

/// Every read surface of a backend, for bit-identity checks.
fn observable(b: &DurableBackend, ids: u64) -> impl PartialEq + std::fmt::Debug {
    let store = b.store();
    (
        (0..ids)
            .map(|id| (store.verdict(id), store.record(id)))
            .collect::<Vec<_>>(),
        [
            store.unique_beacons(),
            store.total_duplicates(),
            store.orphan_beacons(),
            store.served_count() as u64,
        ],
        ReportBuilder::per_campaign_sharded(store),
        b.merged_hourly().export_state(),
        b.merged_daily().export_state(),
        b.merged_exposure(),
        b.merged_fraction(),
    )
}

/// Names and bytes of every file in `dir`, sorted.
fn listing(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("list dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let bytes = std::fs::read(e.path()).expect("read file");
            (e.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// Swaps two files' contents by renaming.
fn swap(a: &Path, b: &Path) {
    let tmp = a.with_extension("swap");
    std::fs::rename(a, &tmp).unwrap();
    std::fs::rename(b, a).unwrap();
    std::fs::rename(&tmp, b).unwrap();
}

/// A directory is tied to the shard count that wrote it. Reopening with
/// more or fewer shards is refused instead of silently re-routing (which
/// stranded verdicts on shards their beacons never reach), and the
/// refusal leaves every file as it was, so reopening with the right
/// count still recovers bit-identically — from the WAL alone and from
/// snapshot + WAL. Files swapped between shards are refused by their
/// headers.
#[test]
fn reopening_with_another_shard_count_is_refused() {
    const IDS: u64 = 100;
    let dir = test_dir("shard_count");
    let open = |shards| {
        DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards,
            sync: SyncPolicy::NoSync,
        })
    };
    let refused = |shards| {
        let err = open(shards)
            .err()
            .unwrap_or_else(|| panic!("{shards} shards accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    };

    let (backend, _) = open(2).expect("open with 2 shards");
    drive(&backend, 0..IDS);
    let wal_only = observable(&backend, IDS);
    drop(backend);

    let files = listing(&dir);
    refused(4);
    refused(1);
    assert_eq!(listing(&dir), files, "a refused open touched the directory");
    let (backend, report) = open(2).expect("reopen with 2 shards");
    assert_eq!(report.served_replayed, IDS / 4 * 3);
    assert_eq!(observable(&backend, IDS), wal_only);

    backend.compact().expect("compact");
    drive(&backend, IDS..IDS * 2);
    let snap_and_wal = observable(&backend, IDS * 2);
    drop(backend);

    let files = listing(&dir);
    refused(4);
    refused(1);
    assert_eq!(listing(&dir), files, "a refused open touched the directory");
    for ext in ["wal", "snap"] {
        let a = dir.join(format!("shard-000.{ext}"));
        let b = dir.join(format!("shard-001.{ext}"));
        swap(&a, &b);
        refused(2);
        swap(&a, &b);
    }
    let (backend, report) = open(2).expect("reopen with 2 shards");
    assert_eq!(report.snapshots_loaded, 2);
    assert_eq!(observable(&backend, IDS * 2), snap_and_wal);
    drop(backend);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The compaction crash window: snapshot written at epoch N+1 but the
/// WAL still the old epoch-N log (the crash hit between the two
/// renames). Recovery must detect the stale log via the epoch and
/// discard it — its records are inside the snapshot; replaying them
/// would double-count duplicates.
#[test]
fn stale_wal_from_compaction_crash_window_is_discarded() {
    const IDS: u64 = 8;
    let dir = test_dir("crash_window");
    let open = || {
        DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards: 1,
            sync: SyncPolicy::Batch,
        })
    };
    let (backend, _) = open().expect("open");
    drive(&backend, 0..IDS);
    let before = ReportBuilder::per_campaign_sharded(backend.store());
    let hourly_before = backend.merged_hourly().export_state();

    // Keep the pre-compaction WAL, compact, then put the old log back:
    // exactly the state a crash between compaction's two renames
    // leaves behind.
    let old_wal = std::fs::read(wal_path(&dir, 0)).unwrap();
    backend.compact().expect("compact");
    drop(backend);

    // A torn tail behind the stale records changes nothing: the log is
    // judged by its header and never decoded.
    let mut stale = old_wal.clone();
    stale.extend_from_slice(&[0xAB; 5]);
    std::fs::write(wal_path(&dir, 0), &stale).unwrap();

    let (recovered, report) = open().expect("recover across the crash window");
    assert_eq!(
        report,
        qtag_store::RecoveryReport {
            shards: 1,
            snapshots_loaded: 1,
            stale_wals_discarded: 1,
            ..Default::default()
        },
        "stale records not replayed, stale tail not counted"
    );
    // The writer reopened a fresh log at the snapshot's epoch.
    let fresh = std::fs::read(wal_path(&dir, 0)).unwrap();
    assert_eq!(fresh.len(), qtag_store::wal::WAL_HEADER_LEN);
    assert_eq!(fresh[..8], old_wal[..8], "magic, version, shard");
    assert_eq!(fresh[8..16], 1u64.to_be_bytes(), "epoch of the snapshot");
    assert_eq!(
        ReportBuilder::per_campaign_sharded(recovered.store()),
        before
    );
    assert_eq!(recovered.merged_hourly().export_state(), hourly_before);
    // The discarded log was replaced by a fresh epoch-stamped one, so
    // the next recovery is ordinary.
    drop(recovered);
    let (_again, report2) = open().expect("recovery after heal");
    assert_eq!(report2.stale_wals_discarded, 0);
    assert_eq!(report2.snapshots_loaded, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery on parallel workers equals each shard's log replayed on
/// its own, at one shard, at shard counts around a small machine's
/// core count, and at 8 (more shards than workers, so a worker
/// recovers several): per-campaign reports and unique beacons match
/// `replay_into` over every shard's WAL, and the hourly rollup matches
/// the live fold.
#[test]
fn parallel_recovery_equals_replaying_each_shard_log() {
    const IDS: u64 = 200;
    for shards in [1, 2, 3, 8] {
        let dir = test_dir("parallel");
        let open = || {
            DurableBackend::open(DurableConfig {
                dir: dir.clone(),
                shards,
                sync: SyncPolicy::NoSync,
            })
        };
        let (backend, _) = open().expect("open");
        drive(&backend, 0..IDS);
        let live_hourly = backend.merged_hourly().export_state();
        drop(backend);

        let mut reference = ImpressionStore::new();
        let mut records = 0;
        for shard in 0..shards {
            let log = replay(&wal_path(&dir, shard)).expect("replay shard log");
            assert!(log.torn.is_none());
            assert!(
                !log.records.is_empty(),
                "{shards} shards: shard {shard} empty"
            );
            records += log.records.len() as u64;
            replay_into(&mut reference, &log.records);
        }
        let (recovered, report) = open().expect("recover");
        assert_eq!(report.shards, shards);
        assert_eq!(report.records_replayed, records, "{shards} shards");
        assert_eq!(
            recovered.stats().snapshot().records_recovered,
            records,
            "{shards} shards"
        );
        assert_eq!(
            ReportBuilder::per_campaign_sharded(recovered.store()),
            ReportBuilder::per_campaign(&reference),
            "{shards} shards: reports"
        );
        assert_eq!(
            recovered.store().unique_beacons(),
            reference.unique_beacons(),
            "{shards} shards"
        );
        assert_eq!(
            recovered.merged_hourly().export_state(),
            live_hourly,
            "{shards} shards: hourly rollup"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Two broken shards at once: whichever worker meets its broken shard
/// first, `open` returns the lower shard's error, every time, and
/// leaves every byte of the directory as it found it.
#[test]
fn the_lowest_broken_shard_names_the_error() {
    const IDS: u64 = 200;
    for (shards, broken) in [(8, [1, 3]), (4, [1, 3]), (4, [1, 2]), (3, [0, 1])] {
        let dir = test_dir("broken");
        let open = || {
            DurableBackend::open(DurableConfig {
                dir: dir.clone(),
                shards,
                sync: SyncPolicy::NoSync,
            })
        };
        let (backend, _) = open().expect("open");
        drive(&backend, 0..IDS);
        drop(backend);
        // Each broken WAL's header names a shard that does not exist.
        for shard in broken {
            let path = wal_path(&dir, shard);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[6..8].copy_from_slice(&0x7777u16.to_be_bytes());
            std::fs::write(&path, &bytes).unwrap();
        }
        let before = listing(&dir);
        let expected = format!("shard-{:03}.wal: WAL header names shard", broken[0]);
        for run in 0..20 {
            let err = open().expect_err("a broken directory is refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(
                err.to_string().contains(&expected),
                "{shards} shards, broken {broken:?}, run {run}: {err}"
            );
            assert!(
                listing(&dir) == before,
                "a refused open touched the directory"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
