//! The impression store: joins the ad server's *served* log with the
//! beacon stream.

use crate::idmap::IdMap;
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::collections::hash_map::Entry;

/// One row of the ad server's serving log: the DSP knows every
/// impression it delivered, independent of whether any tag later
/// reported. The *measured rate* denominator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedImpression {
    /// Impression id assigned at serving time.
    pub impression_id: u64,
    /// Campaign.
    pub campaign_id: u32,
    /// Device OS (known from the bid request).
    pub os: OsKind,
    /// Browser/webview (user-agent).
    pub browser: BrowserKind,
    /// Browser page vs in-app.
    pub site_type: SiteType,
    /// Creative format.
    pub ad_format: AdFormat,
}

/// Seqs a [`SeqList`] keeps inline; the eighth moves the list to the
/// heap.
const INLINE_SEQS: usize = 7;

/// Length of an inline [`SeqList`]. An enum rather than a `u8`, so the
/// 248 byte values it never takes are a niche: `SeqList` and
/// [`SeqSeen`] keep their variant tags there, which holds both at
/// 16 bytes.
#[derive(Clone, Copy)]
#[repr(u8)]
enum InlineLen {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
}

impl InlineLen {
    const ALL: [InlineLen; INLINE_SEQS + 1] = [
        InlineLen::L0,
        InlineLen::L1,
        InlineLen::L2,
        InlineLen::L3,
        InlineLen::L4,
        InlineLen::L5,
        InlineLen::L6,
        InlineLen::L7,
    ];
}

#[derive(Clone)]
enum SeqListRepr {
    Inline {
        len: InlineLen,
        seqs: [u16; INLINE_SEQS],
    },
    // Boxed so the variant is one pointer wide: a bare `Vec` would make
    // every list 24 bytes to serve the few impressions past seven seqs.
    #[allow(clippy::box_collection)]
    Heap(Box<Vec<u16>>),
}

/// The sorted seqs of a sparse [`SeqSeen`]: up to seven inline, in the
/// 16 bytes the tracker occupies anyway, and on the heap from the
/// eighth. Derefs to `[u16]`; two lists are equal when they hold the
/// same seqs, wherever they keep them.
#[derive(Clone)]
pub struct SeqList(SeqListRepr);

impl Default for SeqList {
    fn default() -> Self {
        SeqList(SeqListRepr::Inline {
            len: InlineLen::L0,
            seqs: [0; INLINE_SEQS],
        })
    }
}

impl SeqList {
    /// Inserts `seq` at `pos` (where a binary search put it), shifting
    /// the seqs after it right.
    fn insert(&mut self, pos: usize, seq: u16) {
        match &mut self.0 {
            SeqListRepr::Inline { len, seqs } => {
                let n = *len as usize;
                if n < INLINE_SEQS {
                    seqs.copy_within(pos..n, pos + 1);
                    seqs[pos] = seq;
                    *len = InlineLen::ALL[n + 1];
                } else {
                    let mut heap = Vec::with_capacity(2 * (INLINE_SEQS + 1));
                    heap.extend_from_slice(seqs);
                    heap.insert(pos, seq);
                    self.0 = SeqListRepr::Heap(Box::new(heap));
                }
            }
            SeqListRepr::Heap(v) => v.insert(pos, seq),
        }
    }
}

impl std::ops::Deref for SeqList {
    type Target = [u16];

    fn deref(&self) -> &[u16] {
        match &self.0 {
            SeqListRepr::Inline { len, seqs } => &seqs[..*len as usize],
            SeqListRepr::Heap(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a SeqList {
    type Item = &'a u16;
    type IntoIter = std::slice::Iter<'a, u16>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<u16>> for SeqList {
    /// Keeps the seqs in the order given (snapshot decoding hands over
    /// the list as it was written).
    fn from(v: Vec<u16>) -> Self {
        match InlineLen::ALL.get(v.len()) {
            Some(&len) => {
                let mut seqs = [0; INLINE_SEQS];
                seqs[..v.len()].copy_from_slice(&v);
                SeqList(SeqListRepr::Inline { len, seqs })
            }
            None => SeqList(SeqListRepr::Heap(Box::new(v))),
        }
    }
}

impl PartialEq for SeqList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SeqList {}

impl std::fmt::Debug for SeqList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Bounded per-impression duplicate tracker over the `u16` sequence
/// space.
///
/// Retry-based delivery makes duplicates routine, so the dedup
/// structure must stay exact *and* bounded at fleet scale. Because a
/// beacon's sequence number is a `u16`, the full space fits in an
/// 8 KiB bitmap — that is the hard per-impression ceiling. Typical
/// impressions report a handful of beacons, so the tracker starts as
/// a small sorted list ([`SeqList`]: seven seqs inline, then two bytes
/// per seq on the heap) and only promotes itself to the dense bitmap
/// past [`SeqSeen::PROMOTE_AT`] entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqSeen {
    /// Sorted list of seen sequence numbers (small impressions).
    Sparse(SeqList),
    /// Dense bitmap over the whole `u16` space (chatty impressions).
    Dense(Box<[u64; 1024]>),
}

impl Default for SeqSeen {
    fn default() -> Self {
        SeqSeen::Sparse(SeqList::default())
    }
}

impl SeqSeen {
    /// Sparse→dense promotion threshold (entries). 48 entries keep the
    /// sparse form under 100 bytes; beyond that the impression is
    /// chatty enough that the bitmap's fixed 8 KiB is the better deal.
    pub const PROMOTE_AT: usize = 48;

    /// Records `seq`; returns `true` if it was not seen before.
    pub fn insert(&mut self, seq: u16) -> bool {
        match self {
            SeqSeen::Sparse(v) => match v.binary_search(&seq) {
                Ok(_) => false,
                Err(pos) => {
                    if v.len() >= Self::PROMOTE_AT {
                        let mut dense = Box::new([0u64; 1024]);
                        for s in v.iter() {
                            dense[usize::from(*s) / 64] |= 1u64 << (usize::from(*s) % 64);
                        }
                        dense[usize::from(seq) / 64] |= 1u64 << (usize::from(seq) % 64);
                        *self = SeqSeen::Dense(dense);
                    } else {
                        v.insert(pos, seq);
                    }
                    true
                }
            },
            SeqSeen::Dense(bits) => {
                let (word, bit) = (usize::from(seq) / 64, usize::from(seq) % 64);
                let fresh = bits[word] & (1u64 << bit) == 0;
                bits[word] |= 1u64 << bit;
                fresh
            }
        }
    }

    /// `true` if `seq` has been recorded.
    pub fn contains(&self, seq: u16) -> bool {
        match self {
            SeqSeen::Sparse(v) => v.binary_search(&seq).is_ok(),
            SeqSeen::Dense(bits) => {
                bits[usize::from(seq) / 64] & (1u64 << (usize::from(seq) % 64)) != 0
            }
        }
    }

    /// Number of distinct sequence numbers recorded.
    pub fn len(&self) -> usize {
        match self {
            SeqSeen::Sparse(v) => v.len(),
            SeqSeen::Dense(bits) => bits.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        match self {
            SeqSeen::Sparse(v) => v.is_empty(),
            SeqSeen::Dense(bits) => bits.iter().all(|w| *w == 0),
        }
    }
}

/// Measurement state accumulated for one impression from its beacons.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImpressionRecord {
    /// Tag bootstrapped (any beacon arrived).
    pub tag_loaded: bool,
    /// A complete measurement window was reported.
    pub measurable: bool,
    /// The viewability criteria were met.
    pub in_view: bool,
    /// An out-of-view transition was reported after in-view.
    pub out_of_view: bool,
    /// The user clicked the creative at least once.
    pub clicked: bool,
    /// Number of beacons accepted (after dedup).
    pub beacons: u32,
    /// Number of duplicate beacons discarded. `u64`: retry-based
    /// delivery makes duplicates routine, and a long-lived collector
    /// would overflow a narrower counter at fleet scale.
    pub duplicates: u64,
    /// Highest sequence number seen.
    pub max_seq: u16,
    /// Latest reported visible fraction (‰).
    pub last_fraction_milli: u16,
    /// Longest reported qualifying exposure (ms).
    pub best_exposure_ms: u32,
    /// Which sequence numbers have been applied (bounded: at most
    /// 8 KiB per impression, usually a few dozen bytes).
    pub seen: SeqSeen,
    /// Timestamp (µs) of the beacon that first made this impression
    /// measurable (a `Measurable` or `InView` event, whichever arrived
    /// first). Zero until `measurable` is set. Durable rollups use it
    /// to attribute the impression — and any later view — to its
    /// first-measured time bucket without keeping their own
    /// per-impression cohort maps.
    pub first_measured_us: u64,
}

/// What applying one beacon did to the store — the per-beacon facts a
/// caller cannot reconstruct afterwards (whether *this* beacon crossed
/// a dedup boundary). The durable backend's rollups fold these instead
/// of re-deduplicating the stream with maps of their own, which keeps
/// the journal hot path free of per-impression hash lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// The beacon mutated the store (not an orphan, not a duplicate).
    pub applied: bool,
    /// This beacon made the impression measurable for the first time.
    pub newly_measured: bool,
    /// This beacon met the viewability criteria for the first time.
    pub newly_viewed: bool,
    /// The impression's first-measured timestamp (µs) after this
    /// apply. Meaningful whenever the impression is measurable; rollup
    /// attribution reads it on `newly_measured` / `newly_viewed`.
    pub first_measured_us: u64,
}

/// A served row as the table holds it: the [`ServedImpression`]
/// without its id, which is the row's key.
#[derive(Debug, Clone, Copy)]
struct ServedRow {
    campaign_id: u32,
    os: OsKind,
    browser: BrowserKind,
    site_type: SiteType,
    ad_format: AdFormat,
}

impl ServedRow {
    fn of(s: &ServedImpression) -> Self {
        ServedRow {
            campaign_id: s.campaign_id,
            os: s.os,
            browser: s.browser,
            site_type: s.site_type,
            ad_format: s.ad_format,
        }
    }

    fn with_id(self, impression_id: u64) -> ServedImpression {
        ServedImpression {
            impression_id,
            campaign_id: self.campaign_id,
            os: self.os,
            browser: self.browser,
            site_type: self.site_type,
            ad_format: self.ad_format,
        }
    }
}

/// One row of the store: a served impression and, once a beacon for it
/// has been applied, its measurement record — 64 bytes, no heap
/// allocation until an impression reports more than seven seqs.
#[derive(Debug)]
struct Slot {
    served: ServedRow,
    record: Option<ImpressionRecord>,
}

/// In-memory impression store with idempotent beacon application.
///
/// Production would shard this over the DSP's "distributed monitoring
/// infrastructure" (§5); the interface is the same: `record_served` from
/// the ad server, `apply` from the collectors, reports from the
/// analytics layer.
///
/// One table holds both halves of the join, so applying a beacon is one
/// probe: a miss is an orphan and inserts nothing, a hit updates the
/// row's record in place.
#[derive(Debug, Default)]
pub struct ImpressionStore {
    // keys: served impression ids — only `record_served` (the ad
    // server's log) inserts; beacon ids off the wire only look up.
    slots: IdMap<Slot>,
    /// Beacons referencing impressions the ad server never logged
    /// (misconfigured tags, replay noise) — kept out of every rate.
    orphan_beacons: u64,
    /// Unique beacons applied across all impressions.
    unique_beacons: u64,
    /// Duplicate beacons discarded across all impressions.
    total_duplicates: u64,
}

impl ImpressionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ImpressionStore::default()
    }

    /// Registers a served impression (ad-server log entry).
    ///
    /// Registering an id again replaces its served row and keeps its
    /// measurement record.
    pub fn record_served(&mut self, s: ServedImpression) {
        let served = ServedRow::of(&s);
        match self.slots.entry(s.impression_id) {
            Entry::Occupied(mut e) => e.get_mut().served = served,
            Entry::Vacant(e) => {
                e.insert(Slot {
                    served,
                    record: None,
                });
            }
        }
    }

    /// Number of served impressions registered.
    pub fn served_count(&self) -> usize {
        self.slots.len()
    }

    /// Beacons that referenced unknown impressions.
    pub fn orphan_beacons(&self) -> u64 {
        self.orphan_beacons
    }

    /// The served log entry for an impression, rebuilt from its row
    /// (the row does not repeat the id it is keyed by).
    pub fn served(&self, impression_id: u64) -> Option<ServedImpression> {
        self.slots
            .get(&impression_id)
            .map(|s| s.served.with_id(impression_id))
    }

    /// The measurement record for an impression (if any beacon arrived).
    pub fn record(&self, impression_id: u64) -> Option<&ImpressionRecord> {
        self.slots.get(&impression_id)?.record.as_ref()
    }

    /// Iterates `(served, record)` pairs; `record` is `None` when no
    /// beacon ever arrived for the impression. Each served entry is
    /// rebuilt from its row and key, as in [`ImpressionStore::served`].
    pub fn iter_joined(
        &self,
    ) -> impl Iterator<Item = (ServedImpression, Option<&ImpressionRecord>)> {
        self.slots
            .iter()
            .map(|(&id, s)| (s.served.with_id(id), s.record.as_ref()))
    }

    /// Unique beacons applied so far (duplicates excluded). Together
    /// with [`ImpressionStore::total_duplicates`] this is the
    /// store-side half of the retry conservation identity:
    /// `sent == unique_applied + dropped_after_retries`.
    pub fn unique_beacons(&self) -> u64 {
        self.unique_beacons
    }

    /// Duplicate beacons discarded so far (retries that had already
    /// been applied) — counted, never double-applied.
    pub fn total_duplicates(&self) -> u64 {
        self.total_duplicates
    }

    /// `true` if `(impression_id, seq)` has already been applied.
    /// Delivery harnesses use this to audit that a beacon the sender
    /// dropped at the retry cap really never reached an aggregate.
    pub fn contains_seq(&self, impression_id: u64, seq: u16) -> bool {
        self.record(impression_id)
            .is_some_and(|r| r.seen.contains(seq))
    }

    /// Applies one beacon. Duplicate `(impression, seq)` pairs are
    /// counted but otherwise ignored (collectors may receive retries).
    /// Returns what the apply did (see [`ApplyOutcome`]); callers that
    /// only mutate may drop it.
    pub fn apply(&mut self, beacon: &Beacon) -> ApplyOutcome {
        let Some(slot) = self.slots.get_mut(&beacon.impression_id) else {
            self.orphan_beacons += 1;
            return ApplyOutcome::default();
        };
        let rec = slot.record.get_or_insert_with(ImpressionRecord::default);
        if !rec.seen.insert(beacon.seq) {
            rec.duplicates += 1;
            self.total_duplicates += 1;
            return ApplyOutcome {
                first_measured_us: rec.first_measured_us,
                ..ApplyOutcome::default()
            };
        }
        self.unique_beacons += 1;
        rec.beacons += 1;
        rec.max_seq = rec.max_seq.max(beacon.seq);
        rec.last_fraction_milli = beacon.visible_fraction_milli;
        rec.best_exposure_ms = rec.best_exposure_ms.max(beacon.exposure_ms);
        rec.tag_loaded = true;
        let was_measurable = rec.measurable;
        let was_in_view = rec.in_view;
        match beacon.event {
            EventKind::TagLoaded => {}
            EventKind::Measurable => rec.measurable = true,
            EventKind::InView => {
                rec.measurable = true;
                rec.in_view = true;
            }
            EventKind::OutOfView => rec.out_of_view = true,
            EventKind::Heartbeat => {}
            EventKind::Click => rec.clicked = true,
        }
        if rec.measurable && !was_measurable {
            rec.first_measured_us = beacon.timestamp_us;
        }
        ApplyOutcome {
            applied: true,
            newly_measured: rec.measurable && !was_measurable,
            newly_viewed: rec.in_view && !was_in_view,
            first_measured_us: rec.first_measured_us,
        }
    }

    /// Applies many beacons.
    pub fn apply_all<'a>(&mut self, beacons: impl IntoIterator<Item = &'a Beacon>) {
        for b in beacons {
            self.apply(b);
        }
    }

    /// Restores one impression's measurement record verbatim, without
    /// counting it as a fresh beacon. Snapshot recovery in the durable
    /// backend (`qtag-store`) rebuilds a store from persisted records;
    /// the live counters come back separately through
    /// [`ImpressionStore::restore_counters`].
    ///
    /// Returns `false`, and stores nothing, when `impression_id` is not
    /// registered: a record only exists beside its served row.
    pub fn restore_record(&mut self, impression_id: u64, rec: ImpressionRecord) -> bool {
        match self.slots.get_mut(&impression_id) {
            Some(slot) => {
                slot.record = Some(rec);
                true
            }
            None => false,
        }
    }

    /// Restores the store-level counters verbatim (snapshot recovery
    /// companion of [`ImpressionStore::restore_record`]). Overwrites,
    /// never adds: recovery starts from an empty store.
    pub fn restore_counters(
        &mut self,
        orphan_beacons: u64,
        unique_beacons: u64,
        total_duplicates: u64,
    ) {
        self.orphan_beacons = orphan_beacons;
        self.unique_beacons = unique_beacons;
        self.total_duplicates = total_duplicates;
    }

    /// Measurement verdict for an impression: `(measured, viewed)`.
    ///
    /// *Measured* means the solution produced a viewability measurement
    /// (at least one complete window); *viewed* means the criteria were
    /// met. The paper's rates: measured rate = measured / served,
    /// viewability rate = viewed / measured.
    pub fn verdict(&self, impression_id: u64) -> (bool, bool) {
        match self.record(impression_id) {
            Some(r) => (r.measurable, r.in_view),
            None => (false, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(id: u64) -> ServedImpression {
        ServedImpression {
            impression_id: id,
            campaign_id: 1,
            os: OsKind::Android,
            browser: BrowserKind::AndroidWebView,
            site_type: SiteType::App,
            ad_format: AdFormat::Display,
        }
    }

    fn beacon(id: u64, event: EventKind, seq: u16) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event,
            timestamp_us: 0,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 800,
            exposure_ms: 1000,
            os: OsKind::Android,
            browser: BrowserKind::AndroidWebView,
            site_type: SiteType::App,
            seq,
        }
    }

    #[test]
    fn lifecycle_tagloaded_measurable_inview() {
        let mut store = ImpressionStore::new();
        store.record_served(served(1));
        store.apply(&beacon(1, EventKind::TagLoaded, 0));
        assert_eq!(store.verdict(1), (false, false));
        store.apply(&beacon(1, EventKind::Measurable, 1));
        assert_eq!(store.verdict(1), (true, false));
        store.apply(&beacon(1, EventKind::InView, 2));
        assert_eq!(store.verdict(1), (true, true));
    }

    #[test]
    fn in_view_implies_measurable_even_if_measurable_beacon_lost() {
        let mut store = ImpressionStore::new();
        store.record_served(served(2));
        store.apply(&beacon(2, EventKind::InView, 3));
        assert_eq!(store.verdict(2), (true, true));
    }

    #[test]
    fn duplicates_are_ignored_but_counted() {
        let mut store = ImpressionStore::new();
        store.record_served(served(3));
        store.apply(&beacon(3, EventKind::Measurable, 0));
        store.apply(&beacon(3, EventKind::Measurable, 0));
        let rec = store.record(3).unwrap();
        assert_eq!(rec.beacons, 1);
        assert_eq!(rec.duplicates, 1);
    }

    #[test]
    fn orphan_beacons_never_pollute_rates() {
        let mut store = ImpressionStore::new();
        store.apply(&beacon(99, EventKind::InView, 0));
        assert_eq!(store.orphan_beacons(), 1);
        assert_eq!(store.served_count(), 0);
        assert_eq!(store.verdict(99), (false, false));
    }

    #[test]
    fn silent_impression_is_unmeasured() {
        let mut store = ImpressionStore::new();
        store.record_served(served(4));
        assert_eq!(store.verdict(4), (false, false));
        let joined: Vec<_> = store.iter_joined().collect();
        assert_eq!(joined.len(), 1);
        assert!(joined[0].1.is_none());
    }

    #[test]
    fn exposure_and_fraction_track_maxima_and_latest() {
        let mut store = ImpressionStore::new();
        store.record_served(served(5));
        let mut b1 = beacon(5, EventKind::Heartbeat, 0);
        b1.exposure_ms = 400;
        b1.visible_fraction_milli = 900;
        store.apply(&b1);
        let mut b2 = beacon(5, EventKind::Heartbeat, 1);
        b2.exposure_ms = 200;
        b2.visible_fraction_milli = 100;
        store.apply(&b2);
        let rec = store.record(5).unwrap();
        assert_eq!(rec.best_exposure_ms, 400);
        assert_eq!(rec.last_fraction_milli, 100);
    }

    #[test]
    fn seq_tracker_promotes_sparse_to_dense_and_stays_exact() {
        let mut seen = SeqSeen::default();
        // Insert a shuffled-ish pattern well past the promotion point.
        for i in 0..2_000u16 {
            let seq = i.wrapping_mul(7919); // coprime walk over u16
            assert!(seen.insert(seq), "first insert of {seq}");
            assert!(!seen.insert(seq), "second insert of {seq}");
        }
        assert!(matches!(seen, SeqSeen::Dense(_)), "must have promoted");
        assert_eq!(seen.len(), 2_000);
        for i in 0..2_000u16 {
            assert!(seen.contains(i.wrapping_mul(7919)));
        }
        assert!(!seen.contains(3)); // 3 is not a multiple of 7919 mod 2^16 within range
    }

    #[test]
    fn seq_tracker_is_bounded_at_the_u16_space() {
        let mut seen = SeqSeen::default();
        for seq in 0..=u16::MAX {
            assert!(seen.insert(seq));
        }
        for seq in 0..=u16::MAX {
            assert!(!seen.insert(seq), "every re-insert is a duplicate");
        }
        assert_eq!(seen.len(), 65_536);
    }

    #[test]
    fn heavy_retry_duplicates_are_counted_wide_and_never_double_applied() {
        let mut store = ImpressionStore::new();
        store.record_served(served(8));
        // One unique beacon redelivered many times (retry storm).
        for _ in 0..10_000 {
            store.apply(&beacon(8, EventKind::Measurable, 0));
        }
        let rec = store.record(8).unwrap();
        assert_eq!(rec.beacons, 1);
        assert_eq!(rec.duplicates, 9_999);
        assert_eq!(store.unique_beacons(), 1);
        assert_eq!(store.total_duplicates(), 9_999);
        assert!(store.contains_seq(8, 0));
        assert!(!store.contains_seq(8, 1));
    }

    #[test]
    fn row_layout_stays_packed() {
        assert_eq!(std::mem::size_of::<SeqList>(), 16);
        assert_eq!(std::mem::size_of::<SeqSeen>(), 16);
        assert_eq!(std::mem::size_of::<ServedRow>(), 8);
        assert!(std::mem::size_of::<Slot>() <= 64);
    }

    #[test]
    fn seq_list_moves_to_the_heap_at_the_eighth_seq() {
        let mut list = SeqList::default();
        for (i, seq) in [70u16, 10, 50, 30, 60, 20, 40].into_iter().enumerate() {
            let pos = list.binary_search(&seq).unwrap_err();
            list.insert(pos, seq);
            assert_eq!(list.len(), i + 1);
            assert!(matches!(list.0, SeqListRepr::Inline { .. }));
        }
        assert_eq!(*list, [10, 20, 30, 40, 50, 60, 70]);
        list.insert(0, 5);
        assert!(matches!(list.0, SeqListRepr::Heap(_)));
        assert_eq!(*list, [5, 10, 20, 30, 40, 50, 60, 70]);
        // Equality and the snapshot decode path see contents only.
        let rebuilt = SeqList::from(list.to_vec());
        assert_eq!(rebuilt, list);
        let seven = SeqList::from(list[..7].to_vec());
        assert!(matches!(seven.0, SeqListRepr::Inline { .. }));
        assert_ne!(seven, list);
    }

    #[test]
    fn served_rows_are_rebuilt_with_their_key() {
        let mut store = ImpressionStore::new();
        store.record_served(served(7));
        let mut again = served(7);
        again.campaign_id = 9;
        store.record_served(again.clone());
        assert_eq!(store.served(7), Some(again.clone()));
        assert_eq!(store.served(8), None);
        let joined: Vec<_> = store.iter_joined().map(|(s, _)| s).collect();
        assert_eq!(joined, [again]);
    }

    #[test]
    fn out_of_view_is_recorded() {
        let mut store = ImpressionStore::new();
        store.record_served(served(6));
        store.apply(&beacon(6, EventKind::InView, 0));
        store.apply(&beacon(6, EventKind::OutOfView, 1));
        assert!(store.record(6).unwrap().out_of_view);
    }
}
