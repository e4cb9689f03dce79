//! Time-bucketed measurement trends.
//!
//! The paper's production dataset covers campaigns "that we monitor
//! during a week" (§5). Operators do not read one aggregate number —
//! they watch *trends*: hourly/daily delivery volume and viewability.
//! [`Timeline`] folds the beacon stream into fixed-width time buckets
//! and reports both.

use crate::idmap::IdMap;
use qtag_wire::{Beacon, EventKind};
use serde::Serialize;

/// Counters for one time bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BucketStats {
    /// Beacons that fell into the bucket.
    pub beacons: u64,
    /// Impressions whose *first* complete measurement landed in this
    /// bucket (each impression counts in exactly one bucket).
    pub measured: u64,
    /// Of those, impressions that (eventually) met the viewability
    /// criteria.
    pub viewed: u64,
}

impl BucketStats {
    /// Bucket-level viewability rate.
    pub fn viewability_rate(&self) -> f64 {
        if self.measured == 0 {
            0.0
        } else {
            self.viewed as f64 / self.measured as f64
        }
    }
}

/// A [`Timeline`]'s complete state in plain sorted vectors — the
/// persistence form used by durable-backend snapshots. Produced by
/// [`Timeline::export_state`], consumed by [`Timeline::from_state`];
/// the round trip is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineState {
    /// Bucket width in microseconds.
    pub bucket_us: u64,
    /// `(bucket index, stats)` in ascending bucket order.
    pub buckets: Vec<(u64, BucketStats)>,
    /// `(impression, first-measured bucket)` ascending by impression.
    pub first_measured: Vec<(u64, u64)>,
    /// `(impression, viewed)` ascending by impression.
    pub viewed: Vec<(u64, bool)>,
}

/// Fixed-width time-bucket aggregation over a beacon stream.
#[derive(Debug)]
pub struct Timeline {
    bucket_us: u64,
    /// Keyed by bucket index. A hash map, not an ordered map: the fold
    /// path runs up to three bucket lookups per beacon (twice per
    /// journaled beacon in the durable backend's rollups), while
    /// ordered iteration only happens on read — so readers sort the
    /// handful of buckets instead.
    // keys: bucket indexes of beacon `timestamp_us` off the wire — the
    // sender chooses them, so crafted timestamps can collide here. A
    // known open finding, left for a hostile-input fix.
    buckets: IdMap<BucketStats>,
    /// impression → bucket index of its first Measurable.
    // keys: impression ids off the raw beacon stream, in
    // `Timeline::record`, which only tests and experiment binaries call
    // (the durable rollups fold outcomes), and snapshot entries loaded
    // by `Timeline::from_state`.
    first_measured: IdMap<u64>,
    /// impressions already counted as viewed.
    // keys: as for `first_measured`.
    viewed: IdMap<bool>,
}

impl Timeline {
    /// Creates a timeline with the given bucket width in microseconds.
    ///
    /// # Panics
    /// Panics on a zero bucket width.
    pub fn new(bucket_us: u64) -> Self {
        assert!(bucket_us > 0, "bucket width must be positive");
        Timeline {
            bucket_us,
            buckets: IdMap::default(),
            first_measured: IdMap::default(),
            viewed: IdMap::default(),
        }
    }

    /// Hourly buckets.
    pub fn hourly() -> Self {
        Timeline::new(3_600 * 1_000_000)
    }

    /// Daily buckets.
    pub fn daily() -> Self {
        Timeline::new(24 * 3_600 * 1_000_000)
    }

    /// Bucket index for a timestamp.
    pub fn bucket_of(&self, timestamp_us: u64) -> u64 {
        timestamp_us / self.bucket_us
    }

    /// Folds one beacon into the timeline.
    pub fn record(&mut self, beacon: &Beacon) {
        let bucket = self.bucket_of(beacon.timestamp_us);
        let stats = self.buckets.entry(bucket).or_default();
        stats.beacons += 1;
        match beacon.event {
            EventKind::Measurable => {
                if let std::collections::hash_map::Entry::Vacant(e) =
                    self.first_measured.entry(beacon.impression_id)
                {
                    e.insert(bucket);
                    stats.measured += 1;
                }
            }
            EventKind::InView => {
                // In-view implies measurable even when the Measurable
                // beacon was lost; in that case this bucket becomes the
                // impression's measured cohort.
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
                let viewed = self.viewed.entry(beacon.impression_id).or_insert(false);
                if !*viewed {
                    *viewed = true;
                    // Attribute the view to the impression's first
                    // measured bucket so rates stay per-cohort.
                    self.buckets.entry(first).or_default().viewed += 1;
                }
            }
            _ => {}
        }
    }

    /// Folds one *store-applied* beacon by its [`ApplyOutcome`] — the
    /// durable rollup hot path. Where [`Timeline::record`] keeps its
    /// own per-impression cohort maps to deduplicate the raw stream,
    /// this variant trusts the store's dedup (the outcome says whether
    /// *this* beacon crossed the measurable/viewed boundary) and only
    /// touches the bucket counters, which stay cache-resident: a
    /// week of hourly buckets is 168 entries.
    ///
    /// On a stream where every beacon applies cleanly (registered
    /// impressions, no `(impression, seq)` duplicates) this is
    /// bit-identical to [`Timeline::record`]; on dirty streams it is
    /// *stricter* — orphan and duplicate beacons still count in
    /// `beacons` but can no longer inflate the measured/viewed
    /// cohorts, because the store rejected them.
    pub fn record_outcome(&mut self, beacon: &Beacon, outcome: &crate::ApplyOutcome) {
        let bucket = self.bucket_of(beacon.timestamp_us);
        self.buckets.entry(bucket).or_default().beacons += 1;
        if outcome.newly_measured {
            // The flip happened at this beacon, so its bucket IS the
            // first-measured bucket.
            self.buckets.entry(bucket).or_default().measured += 1;
        }
        if outcome.newly_viewed {
            let first = self.bucket_of(outcome.first_measured_us);
            self.buckets.entry(first).or_default().viewed += 1;
        }
    }

    /// Derives the timeline at a coarser bucket width: `factor`
    /// original buckets per derived bucket (hourly → daily is
    /// `coarsen(24)`). Exact, not approximate: because
    /// `floor(floor(t / w) / k) == floor(t / (w * k))`, every beacon,
    /// cohort entry, and view attribution lands in precisely the
    /// bucket a timeline of width `w * k` fed the same stream would
    /// have chosen — so the durable rollups maintain only the hourly
    /// timeline on the hot path and derive daily on read.
    ///
    /// # Panics
    /// Panics on a zero factor.
    pub fn coarsen(&self, factor: u64) -> Timeline {
        assert!(factor > 0, "coarsen factor must be positive");
        let mut t = Timeline::new(self.bucket_us * factor);
        for (bucket, stats) in &self.buckets {
            let b = t.buckets.entry(bucket / factor).or_default();
            b.beacons += stats.beacons;
            b.measured += stats.measured;
            b.viewed += stats.viewed;
        }
        for (id, bucket) in &self.first_measured {
            t.first_measured.insert(*id, bucket / factor);
        }
        for (id, viewed) in &self.viewed {
            t.viewed.insert(*id, *viewed);
        }
        t
    }

    /// Merges another timeline into this one (merge-on-read for
    /// sharded aggregation). When the two timelines saw *disjoint
    /// impression sets* — the sharded-store guarantee, since an
    /// impression's beacons all hash to one shard — the merge is
    /// bit-identical to one timeline fed the combined stream: bucket
    /// counters are plain sums and the per-impression cohort maps
    /// union without conflicts.
    ///
    /// # Panics
    /// Panics if the bucket widths differ.
    pub fn merge(&mut self, other: &Timeline) {
        assert_eq!(
            self.bucket_us, other.bucket_us,
            "cannot merge timelines with different bucket widths"
        );
        for (bucket, stats) in &other.buckets {
            let b = self.buckets.entry(*bucket).or_default();
            b.beacons += stats.beacons;
            b.measured += stats.measured;
            b.viewed += stats.viewed;
        }
        for (id, bucket) in &other.first_measured {
            debug_assert!(
                !self.first_measured.contains_key(id),
                "impression {id} seen by both timelines — shard routing broken"
            );
            self.first_measured.insert(*id, *bucket);
        }
        for (id, viewed) in &other.viewed {
            self.viewed.insert(*id, *viewed);
        }
    }

    /// Exports the timeline's full state in a deterministic order
    /// (sorted by key everywhere), for snapshot persistence in the
    /// durable backend. [`Timeline::from_state`] round-trips exactly:
    /// the per-impression cohort maps travel too, so a restored
    /// timeline keeps deduplicating and attributing views precisely
    /// where the original would have.
    pub fn export_state(&self) -> TimelineState {
        let mut first_measured: Vec<(u64, u64)> =
            self.first_measured.iter().map(|(k, v)| (*k, *v)).collect();
        first_measured.sort_unstable();
        let mut viewed: Vec<(u64, bool)> = self.viewed.iter().map(|(k, v)| (*k, *v)).collect();
        viewed.sort_unstable();
        let mut buckets: Vec<(u64, BucketStats)> =
            self.buckets.iter().map(|(k, v)| (*k, *v)).collect();
        buckets.sort_unstable_by_key(|(k, _)| *k);
        TimelineState {
            bucket_us: self.bucket_us,
            buckets,
            first_measured,
            viewed,
        }
    }

    /// Rebuilds a timeline from exported state.
    ///
    /// # Panics
    /// Panics on a zero bucket width (a corrupt export).
    pub fn from_state(state: TimelineState) -> Self {
        let mut t = Timeline::new(state.bucket_us);
        t.buckets = state.buckets.into_iter().collect();
        t.first_measured = state.first_measured.into_iter().collect();
        t.viewed = state.viewed.into_iter().collect();
        t
    }

    /// The buckets in time order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &BucketStats)> {
        let mut sorted: Vec<(u64, &BucketStats)> =
            self.buckets.iter().map(|(k, v)| (*k, v)).collect();
        sorted.sort_unstable_by_key(|(k, _)| *k);
        sorted.into_iter()
    }

    /// Total impressions measured across all buckets.
    pub fn total_measured(&self) -> u64 {
        self.buckets.values().map(|b| b.measured).sum()
    }

    /// Total impressions viewed.
    pub fn total_viewed(&self) -> u64 {
        self.buckets.values().map(|b| b.viewed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_wire::{AdFormat, BrowserKind, OsKind, SiteType};

    fn beacon(id: u64, event: EventKind, ts_us: u64) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event,
            timestamp_us: ts_us,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 500,
            exposure_ms: 0,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq: 0,
        }
    }

    const HOUR: u64 = 3_600 * 1_000_000;

    #[test]
    fn impressions_count_once_in_their_first_bucket() {
        let mut t = Timeline::hourly();
        t.record(&beacon(1, EventKind::Measurable, 10));
        t.record(&beacon(1, EventKind::Measurable, HOUR + 10)); // duplicate later
        assert_eq!(t.total_measured(), 1);
        let (first_bucket, stats) = t.buckets().next().unwrap();
        assert_eq!(first_bucket, 0);
        assert_eq!(stats.measured, 1);
    }

    #[test]
    fn views_attribute_to_the_measured_cohort() {
        let mut t = Timeline::hourly();
        t.record(&beacon(1, EventKind::Measurable, 10));
        // The in-view lands two hours later; the cohort stays bucket 0.
        t.record(&beacon(1, EventKind::InView, 2 * HOUR));
        let b0 = t.buckets().find(|(k, _)| *k == 0).unwrap().1;
        assert_eq!(b0.measured, 1);
        assert_eq!(b0.viewed, 1);
        assert!((b0.viewability_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lost_measurable_is_recovered_from_in_view() {
        let mut t = Timeline::hourly();
        t.record(&beacon(5, EventKind::InView, HOUR + 5));
        assert_eq!(t.total_measured(), 1);
        assert_eq!(t.total_viewed(), 1);
    }

    #[test]
    fn duplicate_in_view_does_not_double_count() {
        let mut t = Timeline::hourly();
        t.record(&beacon(1, EventKind::Measurable, 10));
        t.record(&beacon(1, EventKind::InView, 20));
        t.record(&beacon(1, EventKind::InView, 30));
        assert_eq!(t.total_viewed(), 1);
    }

    #[test]
    fn buckets_partition_by_hour() {
        let mut t = Timeline::hourly();
        for h in 0..5u64 {
            t.record(&beacon(h, EventKind::Measurable, h * HOUR + 500));
        }
        let buckets: Vec<u64> = t.buckets().map(|(k, _)| k).collect();
        assert_eq!(buckets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heartbeats_count_as_traffic_only() {
        let mut t = Timeline::hourly();
        t.record(&beacon(1, EventKind::Heartbeat, 10));
        t.record(&beacon(1, EventKind::TagLoaded, 20));
        assert_eq!(t.total_measured(), 0);
        assert_eq!(t.buckets().next().unwrap().1.beacons, 2);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_width_panics() {
        Timeline::new(0);
    }

    /// Per-shard timelines over disjoint impressions merge to exactly
    /// the timeline a single aggregator would have produced.
    #[test]
    fn merging_disjoint_timelines_matches_single_run() {
        let mut reference = Timeline::hourly();
        let mut shard_a = Timeline::hourly();
        let mut shard_b = Timeline::hourly();
        for id in 0..20u64 {
            let events = [
                beacon(id, EventKind::Measurable, id * HOUR / 4),
                beacon(id, EventKind::InView, id * HOUR / 4 + HOUR),
                beacon(id, EventKind::Heartbeat, id * HOUR / 4 + 2 * HOUR),
            ];
            for e in &events {
                reference.record(e);
                if id % 2 == 0 {
                    shard_a.record(e);
                } else {
                    shard_b.record(e);
                }
            }
        }
        shard_a.merge(&shard_b);
        let merged: Vec<(u64, BucketStats)> = shard_a.buckets().map(|(k, v)| (k, *v)).collect();
        let expect: Vec<(u64, BucketStats)> = reference.buckets().map(|(k, v)| (k, *v)).collect();
        assert_eq!(merged, expect);
        assert_eq!(shard_a.total_measured(), reference.total_measured());
        assert_eq!(shard_a.total_viewed(), reference.total_viewed());
    }

    /// Export → import round-trips the full state: buckets, cohort
    /// maps, and dedup sets — further recording behaves identically on
    /// the original and the restored timeline.
    #[test]
    fn state_round_trip_is_exact_and_keeps_deduplicating() {
        let mut original = Timeline::hourly();
        for id in 0..12u64 {
            original.record(&beacon(id, EventKind::Measurable, id * HOUR / 3));
            if id % 3 == 0 {
                original.record(&beacon(id, EventKind::InView, id * HOUR / 3 + HOUR));
            }
        }
        let mut restored = Timeline::from_state(original.export_state());
        assert_eq!(restored.export_state(), original.export_state());
        // Replays of already-seen events must dedup identically.
        for id in 0..12u64 {
            original.record(&beacon(id, EventKind::InView, 5 * HOUR));
            restored.record(&beacon(id, EventKind::InView, 5 * HOUR));
        }
        assert_eq!(restored.export_state(), original.export_state());
        assert_eq!(restored.total_viewed(), original.total_viewed());
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merging_mismatched_widths_panics() {
        let mut a = Timeline::hourly();
        let b = Timeline::daily();
        a.merge(&b);
    }
}
