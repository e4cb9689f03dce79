//! Sharded impression store: N independent [`ImpressionStore`]s keyed
//! by impression-id hash.
//!
//! The single-aggregator ingest design serialises every beacon through
//! one `Mutex<ImpressionStore>`; parser workers and connection readers
//! scale with cores but aggregation does not. [`ShardedStore`] removes
//! that choke point: each shard is an independent store guarded by its
//! own lock, an impression lives entirely on the shard its id hashes
//! to, and an applier thread per shard folds batches without ever
//! touching another shard's lock.
//!
//! **Merge-on-read invariant.** Because the shard key is the
//! impression id, every per-impression quantity (dedup state, verdict,
//! record) is complete within one shard, and every cross-impression
//! aggregate (reports, slice tables, orphan/unique/duplicate counters)
//! is a plain sum over shards. Reading therefore merges shard results
//! and is bit-identical to a single-store run over the same beacon
//! sequence — the property `tests/sharded_equivalence.rs` asserts for
//! shard counts 1–16.

use crate::store::{ImpressionRecord, ImpressionStore, ServedImpression};
use crate::sync::{Arc, Mutex};
use qtag_wire::Beacon;

/// Deterministic shard routing: Fibonacci multiplicative hash over the
/// impression id. Sequential ids (common in load generators and the
/// ad server's allocator) spread evenly instead of striding.
pub fn shard_of(impression_id: u64, shards: usize) -> usize {
    debug_assert!(shards >= 1, "shard count must be positive");
    if shards <= 1 {
        return 0;
    }
    ((impression_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32) as usize % shards
}

/// N independent impression stores, one lock each, routed by
/// [`shard_of`]. Clones share the shards (`Arc` inside), so readers
/// can keep a handle while the ingest service owns the write path.
#[derive(Clone, Debug)]
pub struct ShardedStore {
    shards: Arc<[Arc<Mutex<ImpressionStore>>]>,
}

impl ShardedStore {
    /// Creates `shards` empty stores.
    ///
    /// # Panics
    /// Panics on a zero shard count.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "shard count must be positive");
        ShardedStore {
            shards: (0..shards)
                .map(|_| Arc::new(Mutex::new(ImpressionStore::new())))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `impression_id`.
    pub fn shard_of(&self, impression_id: u64) -> usize {
        shard_of(impression_id, self.shards.len())
    }

    /// Direct handle to shard `idx` (lock to read mid-flight).
    pub fn shard(&self, idx: usize) -> &Arc<Mutex<ImpressionStore>> {
        &self.shards[idx]
    }

    /// All shard handles in index order.
    pub fn iter_shards(&self) -> impl Iterator<Item = &Arc<Mutex<ImpressionStore>>> {
        self.shards.iter()
    }

    /// Registers a served impression on its owning shard.
    pub fn record_served(&self, s: ServedImpression) {
        let idx = self.shard_of(s.impression_id);
        self.shards[idx].lock().record_served(s);
    }

    /// Applies one beacon to its owning shard (locks that shard only).
    /// Returns the per-beacon [`ApplyOutcome`](crate::ApplyOutcome).
    pub fn apply(&self, beacon: &Beacon) -> crate::ApplyOutcome {
        let idx = self.shard_of(beacon.impression_id);
        self.shards[idx].lock().apply(beacon)
    }

    /// Measurement verdict for an impression: `(measured, viewed)`.
    pub fn verdict(&self, impression_id: u64) -> (bool, bool) {
        self.shards[self.shard_of(impression_id)]
            .lock()
            .verdict(impression_id)
    }

    /// Clone of the measurement record for an impression, if any
    /// beacon arrived.
    pub fn record(&self, impression_id: u64) -> Option<ImpressionRecord> {
        self.shards[self.shard_of(impression_id)]
            .lock()
            .record(impression_id)
            .cloned()
    }

    /// `true` if `(impression_id, seq)` has already been applied.
    pub fn contains_seq(&self, impression_id: u64, seq: u16) -> bool {
        self.shards[self.shard_of(impression_id)]
            .lock()
            .contains_seq(impression_id, seq)
    }

    /// Served impressions across all shards (merge-on-read sum).
    pub fn served_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().served_count()).sum()
    }

    /// Orphan beacons across all shards.
    pub fn orphan_beacons(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().orphan_beacons()).sum()
    }

    /// Unique beacons applied across all shards.
    pub fn unique_beacons(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unique_beacons()).sum()
    }

    /// Duplicate beacons discarded across all shards.
    pub fn total_duplicates(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().total_duplicates())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_wire::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};

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

    fn beacon(id: u64, seq: u16, event: EventKind) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event,
            timestamp_us: 0,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 500,
            exposure_ms: 1000,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in 1..=16 {
            for id in 0..1_000u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards), "stable for ({id}, {shards})");
            }
        }
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let shards = 8;
        let mut counts = vec![0u64; shards];
        for id in 0..8_000u64 {
            counts[shard_of(id, shards)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            // Perfect balance is 1000; demand within ±30 %.
            assert!((700..=1300).contains(c), "shard {i} holds {c}");
        }
    }

    #[test]
    fn impression_state_lives_entirely_on_one_shard() {
        let store = ShardedStore::new(4);
        for id in 0..100u64 {
            store.record_served(served(id));
            store.apply(&beacon(id, 0, EventKind::Measurable));
            store.apply(&beacon(id, 1, EventKind::InView));
            store.apply(&beacon(id, 1, EventKind::InView)); // duplicate
        }
        for id in 0..100u64 {
            assert_eq!(store.verdict(id), (true, true), "impression {id}");
            assert!(store.contains_seq(id, 0));
            assert!(store.contains_seq(id, 1));
            assert!(!store.contains_seq(id, 2));
        }
        assert_eq!(store.served_count(), 100);
        assert_eq!(store.unique_beacons(), 200);
        assert_eq!(store.total_duplicates(), 100);
        assert_eq!(store.orphan_beacons(), 0);
    }

    #[test]
    fn orphans_are_counted_on_the_owning_shard() {
        let store = ShardedStore::new(3);
        store.apply(&beacon(999, 0, EventKind::InView));
        assert_eq!(store.orphan_beacons(), 1);
        assert_eq!(store.verdict(999), (false, false));
    }
}
