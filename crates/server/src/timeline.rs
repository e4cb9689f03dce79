//! Time-bucketed measurement trends.
//!
//! The paper's production dataset covers campaigns "that we monitor
//! during a week" (§5). Operators do not read one aggregate number —
//! they watch *trends*: hourly/daily delivery volume and viewability.
//! [`Timeline`] folds the impression store's apply outcomes into
//! fixed-width time buckets and reports both. It holds bucket counters
//! only: which beacon first measured or viewed an impression is the
//! store's dedup state, and each [`ApplyOutcome`] carries the answer.

use crate::ApplyOutcome;
use qtag_wire::Beacon;
use serde::Serialize;
use std::collections::BTreeMap;

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

    fn add(&mut self, other: &BucketStats) {
        self.beacons += other.beacons;
        self.measured += other.measured;
        self.viewed += other.viewed;
    }
}

/// A [`Timeline`]'s complete state in a plain sorted vector — the
/// persistence form used by durable-backend snapshots. Produced by
/// [`Timeline::export_state`], consumed by [`Timeline::from_state`];
/// the round trip is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineState {
    /// Bucket width in microseconds.
    pub bucket_us: u64,
    /// `(bucket index, stats)` in ascending bucket order.
    pub buckets: Vec<(u64, BucketStats)>,
}

/// Fixed-width time-bucket counters over a stream of apply outcomes.
#[derive(Debug, Clone)]
pub struct Timeline {
    bucket_us: u64,
    /// Keyed by bucket index, in time order. The indexes come from the
    /// sender's `timestamp_us`, so the map is ordered rather than
    /// hashed: crafted timestamps cannot collide in a B-tree, and
    /// readers get time order without sorting.
    buckets: BTreeMap<u64, BucketStats>,
}

impl Timeline {
    /// One hour in microseconds: the width of the durable rollups'
    /// timeline, the only width a snapshot may carry.
    pub const HOUR_US: u64 = 3_600 * 1_000_000;

    /// Creates a timeline with the given bucket width in microseconds.
    ///
    /// # Panics
    /// Panics on a zero bucket width.
    pub fn new(bucket_us: u64) -> Self {
        assert!(bucket_us > 0, "bucket width must be positive");
        Timeline {
            bucket_us,
            buckets: BTreeMap::new(),
        }
    }

    /// Hourly buckets.
    pub fn hourly() -> Self {
        Timeline::new(Self::HOUR_US)
    }

    /// Bucket index for a timestamp.
    pub fn bucket_of(&self, timestamp_us: u64) -> u64 {
        timestamp_us / self.bucket_us
    }

    /// Folds one *store-applied* beacon by its [`ApplyOutcome`]. The
    /// store deduplicates (the outcome says whether *this* beacon
    /// crossed the measurable/viewed boundary), so the timeline only
    /// touches bucket counters. Orphan and duplicate beacons still
    /// count in `beacons` but never in the measured/viewed cohorts,
    /// because the store rejected them. A view is charged to the
    /// impression's first-measured bucket so rates stay per-cohort.
    pub fn record_outcome(&mut self, beacon: &Beacon, outcome: &ApplyOutcome) {
        let bucket = self.bucket_of(beacon.timestamp_us);
        let first = outcome
            .newly_viewed
            .then(|| self.bucket_of(outcome.first_measured_us));
        // A stream moves forward in time: try the latest bucket before
        // a search.
        let stats = match self.buckets.last_entry() {
            Some(last) if *last.key() == bucket => last.into_mut(),
            _ => self.buckets.entry(bucket).or_default(),
        };
        stats.beacons += 1;
        // The flip happened at this beacon, so its bucket IS the
        // first-measured bucket.
        stats.measured += u64::from(outcome.newly_measured);
        match first {
            Some(first) if first == bucket => stats.viewed += 1,
            Some(first) => self.buckets.entry(first).or_default().viewed += 1,
            None => {}
        }
    }

    /// Derives the timeline at a coarser bucket width: `factor`
    /// original buckets per derived bucket (hourly → daily is
    /// `coarsen(24)`). Exact, not approximate: because
    /// `floor(floor(t / w) / k) == floor(t / (w * k))`, every beacon
    /// and view attribution lands in precisely the bucket a timeline of
    /// width `w * k` fed the same outcomes would have chosen — so the
    /// durable rollups maintain only the hourly timeline on the hot
    /// path and derive daily on read.
    ///
    /// # Panics
    /// Panics on a zero factor, or if `w * k` overflows `u64`.
    pub fn coarsen(&self, factor: u64) -> Timeline {
        assert!(factor > 0, "coarsen factor must be positive");
        let width = self
            .bucket_us
            .checked_mul(factor)
            .expect("coarsened bucket width overflows u64");
        let mut t = Timeline::new(width);
        for (bucket, stats) in &self.buckets {
            t.buckets.entry(bucket / factor).or_default().add(stats);
        }
        t
    }

    /// Merges another timeline into this one (merge-on-read for
    /// sharded aggregation): bucket counters are plain sums. Shard
    /// stores see disjoint impression sets, so their outcomes are the
    /// ones a single store would have produced, and the merge equals
    /// one timeline fed the combined stream.
    ///
    /// # Panics
    /// Panics if the bucket widths differ.
    pub fn merge(&mut self, other: &Timeline) {
        assert_eq!(
            self.bucket_us, other.bucket_us,
            "cannot merge timelines with different bucket widths"
        );
        for (bucket, stats) in &other.buckets {
            self.buckets.entry(*bucket).or_default().add(stats);
        }
    }

    /// Exports the timeline's full state in ascending bucket order, for
    /// snapshot persistence in the durable backend.
    /// [`Timeline::from_state`] round-trips exactly.
    pub fn export_state(&self) -> TimelineState {
        TimelineState {
            bucket_us: self.bucket_us,
            buckets: self.buckets.iter().map(|(k, v)| (*k, *v)).collect(),
        }
    }

    /// Rebuilds a timeline from exported state.
    ///
    /// # Panics
    /// Panics on a zero bucket width (a corrupt export).
    pub fn from_state(state: TimelineState) -> Self {
        let mut t = Timeline::new(state.bucket_us);
        t.buckets = state.buckets.into_iter().collect();
        t
    }

    /// The buckets in time order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &BucketStats)> {
        self.buckets.iter().map(|(k, v)| (*k, v))
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
    use crate::{ImpressionStore, ServedImpression};
    use proptest::prelude::*;
    use qtag_wire::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};

    fn beacon(id: u64, seq: u16, event: EventKind, ts_us: u64) -> Beacon {
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
            seq,
        }
    }

    /// A store that registered `ids`, so beacons for them apply.
    fn store_with(ids: impl IntoIterator<Item = u64>) -> ImpressionStore {
        let mut st = ImpressionStore::new();
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

    /// Applies `b` to `st` and folds the outcome, as the durable
    /// rollups do.
    fn fold(t: &mut Timeline, st: &mut ImpressionStore, b: &Beacon) {
        let o = st.apply(b);
        t.record_outcome(b, &o);
    }

    const HOUR: u64 = Timeline::HOUR_US;

    #[test]
    fn impressions_count_once_in_their_first_bucket() {
        let (mut t, mut st) = (Timeline::hourly(), store_with([1]));
        fold(&mut t, &mut st, &beacon(1, 0, EventKind::Measurable, 10));
        // duplicate later
        fold(
            &mut t,
            &mut st,
            &beacon(1, 1, EventKind::Measurable, HOUR + 10),
        );
        assert_eq!(t.total_measured(), 1);
        let (first_bucket, stats) = t.buckets().next().unwrap();
        assert_eq!(first_bucket, 0);
        assert_eq!(stats.measured, 1);
    }

    #[test]
    fn views_attribute_to_the_measured_cohort() {
        let (mut t, mut st) = (Timeline::hourly(), store_with([1]));
        fold(&mut t, &mut st, &beacon(1, 0, EventKind::Measurable, 10));
        // The in-view lands two hours later; the cohort stays bucket 0.
        fold(&mut t, &mut st, &beacon(1, 1, EventKind::InView, 2 * HOUR));
        let b0 = t.buckets().find(|(k, _)| *k == 0).unwrap().1;
        assert_eq!(b0.measured, 1);
        assert_eq!(b0.viewed, 1);
        assert!((b0.viewability_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lost_measurable_is_recovered_from_in_view() {
        let (mut t, mut st) = (Timeline::hourly(), store_with([5]));
        fold(&mut t, &mut st, &beacon(5, 0, EventKind::InView, HOUR + 5));
        assert_eq!(t.total_measured(), 1);
        assert_eq!(t.total_viewed(), 1);
    }

    #[test]
    fn duplicate_in_view_does_not_double_count() {
        let (mut t, mut st) = (Timeline::hourly(), store_with([1]));
        fold(&mut t, &mut st, &beacon(1, 0, EventKind::Measurable, 10));
        fold(&mut t, &mut st, &beacon(1, 1, EventKind::InView, 20));
        fold(&mut t, &mut st, &beacon(1, 2, EventKind::InView, 30));
        assert_eq!(t.total_viewed(), 1);
    }

    #[test]
    fn buckets_partition_by_hour() {
        let (mut t, mut st) = (Timeline::hourly(), store_with(0..5));
        for h in 0..5u64 {
            fold(
                &mut t,
                &mut st,
                &beacon(h, 0, EventKind::Measurable, h * HOUR + 500),
            );
        }
        let buckets: Vec<u64> = t.buckets().map(|(k, _)| k).collect();
        assert_eq!(buckets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heartbeats_count_as_traffic_only() {
        let (mut t, mut st) = (Timeline::hourly(), store_with([1]));
        fold(&mut t, &mut st, &beacon(1, 0, EventKind::Heartbeat, 10));
        fold(&mut t, &mut st, &beacon(1, 1, EventKind::TagLoaded, 20));
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
        let (mut reference, mut ref_store) = (Timeline::hourly(), store_with(0..20));
        let (mut shard_a, mut store_a) = (Timeline::hourly(), store_with((0..20).step_by(2)));
        let (mut shard_b, mut store_b) = (Timeline::hourly(), store_with((1..20).step_by(2)));
        for id in 0..20u64 {
            let events = [
                beacon(id, 0, EventKind::Measurable, id * HOUR / 4),
                beacon(id, 1, EventKind::InView, id * HOUR / 4 + HOUR),
                beacon(id, 2, EventKind::Heartbeat, id * HOUR / 4 + 2 * HOUR),
            ];
            for e in &events {
                fold(&mut reference, &mut ref_store, e);
                if id % 2 == 0 {
                    fold(&mut shard_a, &mut store_a, e);
                } else {
                    fold(&mut shard_b, &mut store_b, e);
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

    /// Export → import round-trips the full state, and further folding
    /// behaves identically on the original and the restored timeline
    /// (dedup lives in the store, which both share).
    #[test]
    fn state_round_trip_is_exact_and_keeps_deduplicating() {
        let (mut original, mut st) = (Timeline::hourly(), store_with(0..12));
        for id in 0..12u64 {
            fold(
                &mut original,
                &mut st,
                &beacon(id, 0, EventKind::Measurable, id * HOUR / 3),
            );
            if id % 3 == 0 {
                let b = beacon(id, 1, EventKind::InView, id * HOUR / 3 + HOUR);
                fold(&mut original, &mut st, &b);
            }
        }
        let mut restored = Timeline::from_state(original.export_state());
        assert_eq!(restored.export_state(), original.export_state());
        // Replays of already-seen events must dedup identically.
        for id in 0..12u64 {
            let b = beacon(id, 2, EventKind::InView, 5 * HOUR);
            let o = st.apply(&b);
            original.record_outcome(&b, &o);
            restored.record_outcome(&b, &o);
        }
        assert_eq!(restored.export_state(), original.export_state());
        assert_eq!(restored.total_viewed(), original.total_viewed());
    }

    /// Folds the outcomes of `stream` that `keep` selects (by shard tag)
    /// into a timeline of width `width`. Each element is `(slot, offset,
    /// newly_measured, newly_viewed, first slot, first offset, shard)`,
    /// and a timestamp is `slot * width + offset % width`, so streams
    /// spread over a few hundred buckets whatever the width.
    fn fold_outcomes(
        stream: &[(u64, u64, bool, bool, u64, u64, usize)],
        width: u64,
        stamp_width: u64,
        keep: impl Fn(usize) -> bool,
    ) -> Timeline {
        let mut t = Timeline::new(width);
        for &(slot, off, measured, viewed, first_slot, first_off, shard) in stream {
            if keep(shard) {
                let ts = slot * stamp_width + off % stamp_width;
                let outcome = ApplyOutcome {
                    applied: true,
                    newly_measured: measured,
                    newly_viewed: viewed,
                    first_measured_us: first_slot * stamp_width + first_off % stamp_width,
                };
                t.record_outcome(&beacon(1, 0, EventKind::InView, ts), &outcome);
            }
        }
        t
    }

    proptest! {
        /// Coarsening stays exact: a fold at width `w` then
        /// `coarsen(k)` equals a fold at width `w·k`, and merging
        /// coarsened shard timelines equals coarsening their merge.
        #[test]
        fn coarsening_matches_a_fold_at_the_coarse_width(
            stream in proptest::collection::vec(
                (0..300u64, any::<u64>(), any::<bool>(), any::<bool>(),
                 0..300u64, any::<u64>(), 0..4usize),
                0..200,
            ),
            width in 1..=1u64 << 30,
            k in 1..=48u64,
        ) {
            let fine = fold_outcomes(&stream, width, width, |_| true);
            let coarse = fold_outcomes(&stream, width * k, width, |_| true);
            prop_assert_eq!(fine.coarsen(k).export_state(), coarse.export_state());

            let shards: Vec<Timeline> = (0..4)
                .map(|s| fold_outcomes(&stream, width, width, |x| x == s))
                .collect();
            let mut merged = shards[0].clone();
            let mut merged_coarse = shards[0].coarsen(k);
            for t in &shards[1..] {
                merged.merge(t);
                merged_coarse.merge(&t.coarsen(k));
            }
            prop_assert_eq!(merged.export_state(), fine.export_state());
            prop_assert_eq!(merged_coarse.export_state(), merged.coarsen(k).export_state());
        }
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merging_mismatched_widths_panics() {
        let mut a = Timeline::hourly();
        let b = Timeline::hourly().coarsen(24);
        a.merge(&b);
    }
}
