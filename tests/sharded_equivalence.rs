//! Sharded-vs-reference equivalence: for ANY beacon sequence (random
//! events, duplicates, orphans, arbitrary interleaving) and ANY shard
//! count 1–16, the sharded store's merged analytics are bit-identical
//! to a single-shard reference run over the exact same sequence.
//!
//! This is the correctness contract of the sharded aggregation layer:
//! sharding is an *implementation* of the impression store, never an
//! observable behaviour change. Four read paths are checked —
//! per-campaign reports, the grand-total slice table, the merged
//! viewability timeline, and the merged anomaly validator — plus the
//! dedup/orphan counters, and finally the same property through the
//! real concurrent `IngestService` (batched channels, one applier per
//! shard) rather than direct application.

use proptest::prelude::*;
use qtag_server::{
    shard_of, BeaconValidator, ImpressionStore, IngestConfig, IngestService, ReportBuilder,
    ServedImpression, ShardedStore, Timeline,
};
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, SyncPolicy};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

const IMPRESSION_SPACE: u64 = 48;

fn event_of(code: u8) -> EventKind {
    match code % 6 {
        0 => EventKind::TagLoaded,
        1 => EventKind::Measurable,
        2 => EventKind::InView,
        3 => EventKind::OutOfView,
        4 => EventKind::Heartbeat,
        _ => EventKind::Click,
    }
}

fn beacon(id: u64, seq: u16, event_code: u8, ts: u64, fraction: u16) -> Beacon {
    Beacon {
        impression_id: id,
        campaign_id: (id % 5) as u32 + 1,
        event: event_of(event_code),
        timestamp_us: ts,
        ad_format: AdFormat::Display,
        visible_fraction_milli: fraction % 1_001,
        exposure_ms: 800 + u32::from(seq) * 100,
        os: if id.is_multiple_of(3) {
            OsKind::Android
        } else if id % 3 == 1 {
            OsKind::Ios
        } else {
            OsKind::Windows10
        },
        browser: BrowserKind::Chrome,
        site_type: if id.is_multiple_of(2) {
            SiteType::App
        } else {
            SiteType::Browser
        },
        seq,
    }
}

fn served(id: u64) -> ServedImpression {
    let b = beacon(id, 0, 1, 0, 0);
    ServedImpression {
        impression_id: id,
        campaign_id: b.campaign_id,
        os: b.os,
        browser: b.browser,
        site_type: b.site_type,
        ad_format: b.ad_format,
    }
}

/// A random beacon: impression, sequence number (small range so
/// duplicates actually happen), event code, timestamp, fraction.
fn arb_beacon() -> impl Strategy<Value = Beacon> {
    (
        0..IMPRESSION_SPACE,
        0..6u16,
        0..6u8,
        0..4_000_000u64,
        0..2_000u16,
    )
        .prop_map(|(id, seq, ev, ts, fr)| beacon(id, seq, ev, ts, fr))
}

/// Served log: every fourth impression is deliberately missing, so
/// some beacons are orphans and the orphan counter is exercised.
fn record_served_everywhere(reference: &mut ImpressionStore, sharded: &ShardedStore) {
    for id in 0..IMPRESSION_SPACE {
        if id % 4 == 3 {
            continue;
        }
        reference.record_served(served(id));
        sharded.record_served(served(id));
    }
}

fn assert_reports_identical(reference: &ImpressionStore, sharded: &ShardedStore) {
    let expect = ReportBuilder::per_campaign(reference);
    let got = ReportBuilder::per_campaign_sharded(sharded);
    assert_eq!(expect.len(), got.len(), "campaign count");
    for (e, g) in expect.iter().zip(&got) {
        assert_eq!(e.campaign_id, g.campaign_id);
        assert_eq!(e.total, g.total, "campaign {} total", e.campaign_id);
        assert_eq!(e.slices, g.slices, "campaign {} slices", e.campaign_id);
    }
    assert_eq!(
        ReportBuilder::slice_table(reference),
        ReportBuilder::slice_table_sharded(sharded),
        "grand-total slice table"
    );
}

fn assert_counters_identical(reference: &ImpressionStore, sharded: &ShardedStore) {
    assert_eq!(reference.unique_beacons(), sharded.unique_beacons());
    assert_eq!(reference.total_duplicates(), sharded.total_duplicates());
    assert_eq!(reference.orphan_beacons(), sharded.orphan_beacons());
    assert_eq!(reference.served_count(), sharded.served_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Direct application: any sequence, any shard count — reports,
    /// slice table, and counters are bit-identical after merge-on-read.
    /// Every case also runs at one shard, the store every single-store
    /// caller builds.
    #[test]
    fn sharded_store_matches_reference(
        beacons in proptest::collection::vec(arb_beacon(), 0..400),
        shards in 1usize..=16,
    ) {
        for shards in [1, shards] {
            let mut reference = ImpressionStore::new();
            let sharded = ShardedStore::new(shards);
            record_served_everywhere(&mut reference, &sharded);
            for b in &beacons {
                reference.apply(b);
                sharded.apply(b);
            }
            assert_reports_identical(&reference, &sharded);
            assert_counters_identical(&reference, &sharded);
            // Per-impression state agrees point-wise too.
            for id in 0..IMPRESSION_SPACE {
                prop_assert_eq!(reference.verdict(id), sharded.verdict(id), "verdict {}", id);
                prop_assert_eq!(
                    reference.record(id).cloned(),
                    sharded.record(id),
                    "record {}", id
                );
            }
        }
    }

    /// Timeline: apply each beacon to its owning shard's store and fold
    /// the outcome into that shard's timeline, merge all shard
    /// timelines — identical buckets to one timeline fed the outcomes
    /// of one store. Every fourth impression is unregistered, so its
    /// beacons count in `beacons` but never in the cohorts.
    #[test]
    fn sharded_timelines_merge_to_reference(
        beacons in proptest::collection::vec(arb_beacon(), 0..400),
        shards in 1usize..=16,
    ) {
        let registered = |id: u64| id % 4 != 3;
        let mut ref_store = ImpressionStore::new();
        let mut shard_stores: Vec<ImpressionStore> =
            (0..shards).map(|_| ImpressionStore::new()).collect();
        for id in (0..IMPRESSION_SPACE).filter(|id| registered(*id)) {
            ref_store.record_served(served(id));
            shard_stores[shard_of(id, shards)].record_served(served(id));
        }
        // 0.5 s buckets so random timestamps land in several buckets
        // and the merge genuinely unions/overlaps bucket maps.
        let mut reference = Timeline::new(500_000);
        let mut per_shard: Vec<Timeline> =
            (0..shards).map(|_| Timeline::new(500_000)).collect();
        for b in &beacons {
            reference.record_outcome(b, &ref_store.apply(b));
            let s = shard_of(b.impression_id, shards);
            per_shard[s].record_outcome(b, &shard_stores[s].apply(b));
        }
        let mut merged = per_shard.remove(0);
        for t in &per_shard {
            merged.merge(t);
        }
        let got: Vec<_> = merged.buckets().map(|(k, v)| (k, *v)).collect();
        let expect: Vec<_> = reference.buckets().map(|(k, v)| (k, *v)).collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(merged.total_measured(), reference.total_measured());
        prop_assert_eq!(merged.total_viewed(), reference.total_viewed());
        // Orphans are traffic, never cohort members.
        let traffic: u64 = merged.buckets().map(|(_, s)| s.beacons).sum();
        prop_assert_eq!(traffic, beacons.len() as u64);
        // The first delivery of an `(impression, seq)` applies; a
        // retry of it is a duplicate whatever its event.
        let mut delivered = std::collections::BTreeSet::new();
        let measured_registered = beacons
            .iter()
            .filter(|b| registered(b.impression_id) && delivered.insert((b.impression_id, b.seq)))
            .filter(|b| matches!(b.event, EventKind::Measurable | EventKind::InView))
            .map(|b| b.impression_id)
            .collect::<std::collections::BTreeSet<_>>()
            .len() as u64;
        prop_assert_eq!(merged.total_measured(), measured_registered);
    }

    /// Anomaly validation: shard-local validators merged give the same
    /// violation multiset, accepted count and rate as one validator.
    #[test]
    fn sharded_validators_merge_to_reference(
        beacons in proptest::collection::vec(arb_beacon(), 0..400),
        shards in 1usize..=16,
    ) {
        let mut reference = BeaconValidator::new();
        let mut per_shard: Vec<BeaconValidator> =
            (0..shards).map(|_| BeaconValidator::new()).collect();
        for b in &beacons {
            reference.check(b);
            per_shard[shard_of(b.impression_id, shards)].check(b);
        }
        let mut merged = per_shard.remove(0);
        for v in &per_shard {
            merged.merge(v);
        }
        prop_assert_eq!(merged.accepted(), reference.accepted());
        let mut got = merged.violations().to_vec();
        let mut expect = reference.violations().to_vec();
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// The full concurrent path: the same per-impression-ordered
    /// workload pushed through a real `IngestService` (parallel
    /// appliers, batched channels, graceful-shutdown drain) produces
    /// analytics bit-identical to direct sequential application.
    /// Per-impression sequences stay in order because one impression's
    /// beacons always travel one shard channel in FIFO order; nothing
    /// else about scheduling matters.
    #[test]
    fn concurrent_ingest_matches_reference(
        shards in 1usize..=16,
        batch in prop_oneof![Just(1usize), Just(3), Just(8), Just(64)],
        rounds in 1u16..=5,
    ) {
        let mut reference = ImpressionStore::new();
        let sharded = ShardedStore::new(shards);
        record_served_everywhere(&mut reference, &sharded);

        let workload: Vec<Beacon> = (0..rounds)
            .flat_map(|seq| {
                (0..IMPRESSION_SPACE)
                    .map(move |id| beacon(id, seq, u8::try_from(seq % 6).unwrap(), u64::from(seq) * 50_000, 400 + seq))
            })
            .collect();
        for b in &workload {
            reference.apply(b);
        }

        let service = IngestService::start_sharded(
            sharded.clone(),
            IngestConfig { inlet_capacity: 64, ..IngestConfig::default() },
        );
        let inlet = service.inlet();
        for chunk in workload.chunks(batch.max(2) * shards) {
            let outcome = inlet.send_batch(chunk);
            prop_assert_eq!(outcome.rejected, 0);
            prop_assert_eq!(outcome.accepted, chunk.len() as u64);
        }
        service.shutdown();

        assert_reports_identical(&reference, &sharded);
        assert_counters_identical(&reference, &sharded);
    }
}

/// Scratch directory for the durable property (process id + counter;
/// no wall-clock reads).
fn wal_scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qtag-durable-eq-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Durability is as transparent as sharding: for ANY beacon
    /// sequence, ANY shard count 1–16 and EVERY sync policy, writing
    /// through the durable backend (real `IngestService` batches
    /// journaled into per-shard WALs ahead of apply), then recovering
    /// from the WAL into a fresh backend, is bit-identical to the
    /// in-memory reference run — on reports, counters, per-impression
    /// state, and the recovered rollup timelines.
    #[test]
    fn durable_recovery_matches_in_memory_run(
        beacons in proptest::collection::vec(arb_beacon(), 0..250),
        shards in 1usize..=16,
        batch in prop_oneof![Just(1usize), Just(8), Just(64)],
        sync in prop_oneof![
            Just(SyncPolicy::NoSync),
            Just(SyncPolicy::Batch),
            Just(SyncPolicy::Record),
        ],
    ) {
        let mut reference = ImpressionStore::new();
        let dir = wal_scratch_dir();
        let open = || DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards,
            sync,
        });
        let (backend, fresh) = open().expect("open fresh backend");
        prop_assert_eq!(fresh.records_replayed, 0);

        for id in 0..IMPRESSION_SPACE {
            if id % 4 == 3 {
                continue;
            }
            reference.record_served(served(id));
            backend.record_served(served(id));
        }
        // Outcome-driven reference fold: the rollup is store-gated
        // (orphans and duplicate seqs cannot inflate cohorts), so the
        // reference folds the same apply outcomes; daily derives from
        // hourly exactly (DESIGN.md §11).
        let mut ref_hourly = Timeline::hourly();
        for b in &beacons {
            let o = reference.apply(b);
            ref_hourly.record_outcome(b, &o);
        }
        let ref_daily = ref_hourly.coarsen(24);

        // The real concurrent write path, journaled: every applied
        // batch hits the WAL inside the shard's store lock.
        let service = IngestService::start_sharded(
            backend.store().clone(),
            IngestConfig {
                inlet_capacity: 64,
                journal: backend.journal(),
                ..IngestConfig::default()
            },
        );
        let inlet = service.inlet();
        for chunk in beacons.chunks(batch.max(2) * shards) {
            let outcome = inlet.send_batch(chunk);
            prop_assert_eq!(outcome.rejected, 0);
        }
        service.shutdown();

        // Live write-path transparency first…
        assert_reports_identical(&reference, backend.store());
        assert_counters_identical(&reference, backend.store());
        drop(backend);

        // …then recovery: reopen from disk and compare every surface.
        let (recovered, report) = open().expect("recover");
        prop_assert_eq!(report.truncated_tails, 0);
        let store = recovered.store();
        assert_reports_identical(&reference, store);
        assert_counters_identical(&reference, store);
        for id in 0..IMPRESSION_SPACE {
            prop_assert_eq!(reference.verdict(id), store.verdict(id), "verdict {}", id);
            prop_assert_eq!(reference.record(id).cloned(), store.record(id), "record {}", id);
        }
        prop_assert_eq!(
            recovered.merged_hourly().export_state(),
            ref_hourly.export_state(),
            "recovered hourly rollup"
        );
        prop_assert_eq!(
            recovered.merged_daily().export_state(),
            ref_daily.export_state(),
            "recovered daily rollup"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
