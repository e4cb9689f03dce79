//! # qtag-store
//!
//! Durable impression storage for the Q-Tag monitoring backend.
//!
//! The paper's headline experiment (§5) monitors campaigns for a week;
//! a memory-only store loses every registered impression and beacon on
//! the first crash or restart. This crate puts the sharded store
//! behind a [`StorageBackend`] trait, implemented by
//! [`DurableBackend`]: a per-shard append-only **write-ahead log**
//! (length+CRC-framed register/beacon/ack records, batched appends
//! riding the ingest pipeline's batch channels, [`SyncPolicy`]
//! selectable), **crash recovery** that replays the log back into
//! shard state — including the `SeqSeen` dedup trackers, bit for
//! bit — **snapshot compaction** that truncates the log, and
//! hourly/daily **rollups** (timelines plus mergeable `qtag-obs`
//! histogram snapshots) so week-scale campaign timelines read from
//! pre-aggregated buckets instead of raw beacons. A process that
//! wants no durability uses the bare `ShardedStore` and no backend.
//!
//! The correctness bar, enforced by this crate's tests plus the
//! root-level kill-and-recover and durable-equivalence suites:
//! recovery after a crash at *any* record boundary reproduces the
//! pre-crash store exactly (records, counters, conservation totals),
//! and rollup-served reports are bit-identical to full-replay reports.
//!
//! Module map: [`record`] (frame codec), [`wal`] (file layout, writer,
//! torn-tail replay), [`snapshot`] (compaction artifact), [`rollup`]
//! (time-windowed aggregates), [`backend`] (the trait and the durable
//! backend).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod record;
pub mod rollup;
pub mod snapshot;
pub mod sync;
pub mod wal;

pub use backend::{replay_into, DurableBackend, DurableConfig, RecoveryReport, StorageBackend};
pub use qtag_wire::crc::crc32;
pub use record::{RecordError, WalRecord};
pub use rollup::ShardRollup;
pub use snapshot::{read_snapshot, write_snapshot, ShardSnapshot};
pub use wal::{replay, wal_path, Replay, SyncPolicy, WalWriter};

qtag_obs::counters! {
    /// Counters the durable backend maintains. Exported through a
    /// metrics registry under the `qtag_store` prefix via
    /// [`StoreStats::register`].
    pub struct StoreStats / StoreStatsSnapshot {
        records_appended: counter("WAL records appended across all shards."),
        batches_appended: counter("WAL append calls (one per journaled batch)."),
        bytes_appended: counter("WAL bytes appended (frames, excluding headers)."),
        fsyncs: counter("fsync calls issued by the sync policy."),
        io_errors: counter("WAL append failures (journaling degraded, store still serving)."),
        records_unjournaled: counter("Records applied but refused by a WAL left poisoned by a failed append it could not rewind."),
        records_recovered: counter("WAL records replayed during recovery."),
        truncated_records: counter("Torn/corrupt WAL tails truncated during recovery."),
        snapshots_loaded: counter("Shard snapshots loaded during recovery."),
        compactions: counter("Shard compactions performed (snapshot + WAL truncate)."),
    }
}

/// Fresh per-test scratch directory under the target tmpdir. Uses the
/// process id plus a monotone counter — no wall-clock reads, unique
/// within and across concurrently running test binaries.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> std::path::PathBuf {
    use crate::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // ordering: Relaxed — unique-id counter, no memory published.
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("qtag-store-{}-{}-{tag}", std::process::id(), n));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
