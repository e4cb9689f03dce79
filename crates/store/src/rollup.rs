//! Time-windowed rollups maintained alongside the WAL.
//!
//! Every beacon a shard journals is also folded into the shard's
//! rollup — an hourly [`Timeline`] plus exposure-duration and
//! visible-fraction histograms — so week-scale campaign timelines read
//! from a handful of pre-aggregated buckets instead of re-scanning raw
//! beacons. The daily timeline is *derived* from the hourly one on
//! read ([`Timeline::coarsen`] is exact, not approximate), so the hot
//! path maintains one timeline, not two.
//!
//! The fold is **outcome-driven**: the store's [`ApplyOutcome`] says
//! whether the beacon crossed the measurable/viewed boundary, so the
//! rollup touches only bucket counters. Dedup state lives in the store
//! once; a timeline is its bucket counters and nothing else.
//!
//! The rollup rides the shard's journal critical section, so its
//! contents correspond exactly to the journaled record prefix:
//! replaying a WAL through a fresh store and folding the replay
//! outcomes reproduces the live rollup bit for bit, and merging
//! per-shard rollups on read is bit-identical to one rollup fed the
//! combined stream (bucket counters and histogram buckets are sums).

use qtag_obs::{bucket_index, HistogramSnapshot};
use qtag_server::{ApplyOutcome, Timeline, TimelineState};
use qtag_wire::Beacon;

use crate::snapshot::SparseHist;

/// Hourly buckets per daily bucket.
pub(crate) const HOURS_PER_DAY: u64 = 24;

/// One shard's rollup aggregates. Not internally synchronized — lives
/// inside the shard's journal lock.
#[derive(Debug)]
pub struct ShardRollup {
    /// Hourly-bucket timeline (daily derives from it; see [`Self::daily`]).
    pub hourly: Timeline,
    /// Exposure durations (ms) across all journaled beacons.
    pub exposure: HistogramSnapshot,
    /// Visible fractions (‰) across all journaled beacons.
    pub fraction: HistogramSnapshot,
}

impl Default for ShardRollup {
    fn default() -> Self {
        Self::new()
    }
}

/// Adds one observation to an owned histogram snapshot (the
/// single-writer, lock-held counterpart of `Histogram::record`).
/// Saturating like the atomic path, so rollups and merges agree.
fn fold(h: &mut HistogramSnapshot, v: u64) {
    let b = &mut h.buckets[bucket_index(v)];
    *b = b.saturating_add(1);
    h.count = h.count.saturating_add(1);
    h.sum = h.sum.saturating_add(v);
}

impl ShardRollup {
    /// An empty rollup.
    pub fn new() -> Self {
        ShardRollup {
            hourly: Timeline::hourly(),
            exposure: HistogramSnapshot::empty(),
            fraction: HistogramSnapshot::empty(),
        }
    }

    /// Folds one journaled beacon into every window, gated by the
    /// store's apply outcome (see module docs).
    pub fn record(&mut self, beacon: &Beacon, outcome: &ApplyOutcome) {
        self.hourly.record_outcome(beacon, outcome);
        fold(&mut self.exposure, u64::from(beacon.exposure_ms));
        fold(&mut self.fraction, u64::from(beacon.visible_fraction_milli));
    }

    /// The daily timeline, derived exactly from the hourly buckets.
    pub fn daily(&self) -> Timeline {
        self.hourly.coarsen(HOURS_PER_DAY)
    }

    /// Persistence form of the histograms and the hourly timeline
    /// (daily is derived, so it is not persisted).
    pub fn export(&self) -> (TimelineState, SparseHist, SparseHist) {
        (
            self.hourly.export_state(),
            (
                self.exposure.count,
                self.exposure.sum,
                self.exposure.sparse(),
            ),
            (
                self.fraction.count,
                self.fraction.sum,
                self.fraction.sparse(),
            ),
        )
    }

    /// Rebuilds a rollup from its persisted form.
    pub fn restore(hourly: TimelineState, exposure: &SparseHist, fraction: &SparseHist) -> Self {
        ShardRollup {
            hourly: Timeline::from_state(hourly),
            exposure: HistogramSnapshot::from_sparse(&exposure.2, exposure.0, exposure.1),
            fraction: HistogramSnapshot::from_sparse(&fraction.2, fraction.0, fraction.1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_server::{BucketStats, ImpressionStore, ServedImpression};
    use qtag_wire::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};
    use std::collections::{BTreeMap, HashMap, HashSet};

    /// The raw-stream fold: de-duplicates the beacon stream with
    /// per-impression maps of its own instead of trusting the store's
    /// outcomes. The reference the outcome fold must match on clean
    /// streams.
    struct RawTimeline {
        bucket_us: u64,
        buckets: BTreeMap<u64, BucketStats>,
        /// impression → bucket index of its first Measurable.
        first_measured: HashMap<u64, u64>,
        /// impressions already counted as viewed.
        viewed: HashSet<u64>,
    }

    impl RawTimeline {
        fn new(bucket_us: u64) -> Self {
            RawTimeline {
                bucket_us,
                buckets: BTreeMap::new(),
                first_measured: HashMap::new(),
                viewed: HashSet::new(),
            }
        }

        fn record(&mut self, beacon: &Beacon) {
            let bucket = beacon.timestamp_us / self.bucket_us;
            self.buckets.entry(bucket).or_default().beacons += 1;
            match beacon.event {
                EventKind::Measurable => {
                    if let std::collections::hash_map::Entry::Vacant(e) =
                        self.first_measured.entry(beacon.impression_id)
                    {
                        e.insert(bucket);
                        self.buckets.entry(bucket).or_default().measured += 1;
                    }
                }
                EventKind::InView => {
                    // In-view implies measurable even when the
                    // Measurable beacon was lost; in that case this
                    // bucket becomes the impression's measured cohort.
                    let mut newly_measured = false;
                    let first = *self
                        .first_measured
                        .entry(beacon.impression_id)
                        .or_insert_with(|| {
                            newly_measured = true;
                            bucket
                        });
                    if newly_measured {
                        self.buckets.entry(first).or_default().measured += 1;
                    }
                    if self.viewed.insert(beacon.impression_id) {
                        // Attribute the view to the impression's first
                        // measured bucket so rates stay per-cohort.
                        self.buckets.entry(first).or_default().viewed += 1;
                    }
                }
                _ => {}
            }
        }

        fn state(&self) -> TimelineState {
            TimelineState {
                bucket_us: self.bucket_us,
                buckets: self.buckets.iter().map(|(k, v)| (*k, *v)).collect(),
            }
        }
    }

    fn beacon(id: u64, seq: u16, event: EventKind, ts: u64) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event,
            timestamp_us: ts,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 350 + seq * 10,
            exposure_ms: 500 + u32::from(seq) * 250,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    /// A store pre-registered for `ids`, so rollup tests can produce
    /// real apply outcomes (the only way rollups are ever fed).
    fn store_with(ids: std::ops::Range<u64>) -> ImpressionStore {
        let mut st = ImpressionStore::default();
        for id in ids {
            st.record_served(ServedImpression {
                impression_id: id,
                campaign_id: 1,
                os: OsKind::Android,
                browser: BrowserKind::Chrome,
                site_type: SiteType::Browser,
                ad_format: AdFormat::Display,
            });
        }
        st
    }

    #[test]
    fn export_restore_round_trip_then_identical_evolution() {
        const HOUR: u64 = 3_600 * 1_000_000;
        let mut st = store_with(0..10);
        let mut live = ShardRollup::new();
        for id in 0..10u64 {
            for b in [
                beacon(id, 0, EventKind::Measurable, id * HOUR / 2),
                beacon(id, 1, EventKind::InView, id * HOUR / 2 + 1),
            ] {
                let o = st.apply(&b);
                live.record(&b, &o);
            }
        }
        let (h, e, f) = live.export();
        let mut restored = ShardRollup::restore(h.clone(), &e, &f);
        assert_eq!(restored.export(), live.export());
        assert_eq!(restored.exposure, live.exposure);
        assert_eq!(restored.fraction, live.fraction);
        assert_eq!(restored.daily().export_state(), live.daily().export_state());

        // Further folding evolves both identically (dedup state lives
        // in the store, so the replayed InView does not double-count).
        for id in 0..10u64 {
            let b = beacon(id, 2, EventKind::InView, 30 * HOUR);
            let o = st.apply(&b);
            live.record(&b, &o);
            restored.record(&b, &o);
        }
        assert_eq!(restored.export(), live.export());
        assert_eq!(
            live.hourly.total_viewed(),
            10,
            "still one view per impression"
        );
    }

    #[test]
    fn outcome_fold_matches_raw_timeline_on_clean_streams() {
        // On a stream with no orphans and no duplicates, the
        // outcome-driven fold must reproduce the raw-stream fold
        // bucket-for-bucket — hourly and derived daily both.
        const HOUR: u64 = 3_600 * 1_000_000;
        let mut st = store_with(0..25);
        let mut rollup = ShardRollup::new();
        let mut raw_hourly = RawTimeline::new(HOUR);
        let mut raw_daily = RawTimeline::new(HOURS_PER_DAY * HOUR);
        for id in 0..25u64 {
            for (seq, ev) in [
                (0, EventKind::TagLoaded),
                (1, EventKind::Measurable),
                (2, EventKind::InView),
                (3, EventKind::Heartbeat),
            ] {
                let b = beacon(id, seq, ev, id * 5 * HOUR + u64::from(seq));
                let o = st.apply(&b);
                assert!(o.applied);
                rollup.record(&b, &o);
                raw_hourly.record(&b);
                raw_daily.record(&b);
            }
        }
        assert_eq!(rollup.hourly.export_state(), raw_hourly.state());
        assert_eq!(rollup.daily().export_state(), raw_daily.state());
    }

    #[test]
    fn outcome_fold_is_store_gated_on_dirty_streams() {
        // A duplicate (impression, seq) retry and an orphan beacon
        // still count as journaled beacons but cannot inflate the
        // measured/viewed cohorts: the store rejected them.
        const HOUR: u64 = 3_600 * 1_000_000;
        let mut st = store_with(0..1);
        let mut rollup = ShardRollup::new();
        let deliveries = [
            beacon(0, 0, EventKind::Measurable, HOUR / 2),
            beacon(0, 0, EventKind::Measurable, HOUR / 2), // retry duplicate
            beacon(99, 0, EventKind::Measurable, HOUR / 2), // orphan: never served
            beacon(0, 1, EventKind::InView, HOUR / 2 + 1),
        ];
        for b in &deliveries {
            let o = st.apply(b);
            rollup.record(b, &o);
        }
        let state = rollup.hourly.export_state();
        assert_eq!(state.buckets.len(), 1);
        let (_, stats) = state.buckets[0];
        assert_eq!(stats.beacons, 4, "every journaled beacon counts");
        assert_eq!(stats.measured, 1, "duplicate and orphan gated out");
        assert_eq!(stats.viewed, 1);
    }

    #[test]
    fn per_shard_rollups_merge_to_a_single_fed_reference() {
        const HOUR: u64 = 3_600 * 1_000_000;
        let mut ref_store = store_with(0..40);
        let mut reference = ShardRollup::new();
        let mut shard_stores: Vec<ImpressionStore> = (0..4).map(|_| store_with(0..40)).collect();
        let mut shards: Vec<ShardRollup> = (0..4).map(|_| ShardRollup::new()).collect();
        for id in 0..40u64 {
            for (seq, ev) in [(0, EventKind::Measurable), (1, EventKind::InView)] {
                let b = beacon(id, seq, ev, id * HOUR / 3);
                let o = ref_store.apply(&b);
                reference.record(&b, &o);
                let s = qtag_server::shard_of(id, 4);
                let o = shard_stores[s].apply(&b);
                shards[s].record(&b, &o);
            }
        }
        let mut merged_hourly = Timeline::hourly();
        let mut merged_exposure = HistogramSnapshot::empty();
        for s in &shards {
            merged_hourly.merge(&s.hourly);
            merged_exposure = merged_exposure.merge(&s.exposure);
        }
        assert_eq!(
            merged_hourly.export_state(),
            reference.hourly.export_state()
        );
        assert_eq!(merged_exposure, reference.exposure);
    }
}
