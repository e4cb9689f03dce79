//! The one-table impression store against a reference model.
//!
//! `ImpressionStore` keeps each served row and its measurement record
//! in one id-hashed slot. The model below keeps the same facts the
//! obvious way — a `BTreeMap` of served rows, a `BTreeMap` of records,
//! a `BTreeSet` of seen sequence numbers — and both are driven through
//! random interleavings of `record_served` (re-registering ids under
//! other campaigns included) and `apply` (registered ids, ids that were
//! never registered, duplicate sequence numbers). After every step,
//! every verdict, record, seen-seq bit, counter and campaign report
//! must agree.

use proptest::prelude::*;
use qtag_server::{
    ApplyOutcome, CampaignReport, ImpressionRecord, ImpressionStore, RateSlice, ReportBuilder,
    ServedImpression, SliceKey,
};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Ids `record_served` may register (and `apply` may reference).
const SERVABLE: std::ops::Range<u64> = 0..24;
/// Ids that are never registered: every beacon for one is an orphan.
const NEVER_SERVED: std::ops::Range<u64> = 1_000..1_016;
/// Sequence numbers drawn per beacon: a small range, so duplicates are
/// common.
const SEQS: std::ops::Range<u16> = 0..6;

#[derive(Debug, Clone)]
enum Op {
    Serve(ServedImpression),
    Apply(Beacon),
}

fn arb_served() -> impl Strategy<Value = ServedImpression> {
    (SERVABLE, 1u32..=3, 0u8..=3, 0u8..=6, 0u8..=1, 0u8..=2).prop_map(
        |(id, campaign, os, browser, site, format)| ServedImpression {
            impression_id: id,
            campaign_id: campaign,
            os: OsKind::from_code(os).unwrap(),
            browser: BrowserKind::from_code(browser).unwrap(),
            site_type: SiteType::from_code(site).unwrap(),
            ad_format: AdFormat::from_code(format).unwrap(),
        },
    )
}

fn arb_beacon(ids: std::ops::Range<u64>) -> impl Strategy<Value = Beacon> {
    (ids, 0u8..=5, SEQS, 0u64..10_000, 0u16..=1000, 0u32..5_000).prop_map(
        |(id, event, seq, ts, frac, exposure)| Beacon {
            impression_id: id,
            campaign_id: 1,
            event: EventKind::from_code(event).unwrap(),
            timestamp_us: ts,
            ad_format: AdFormat::Display,
            visible_fraction_milli: frac,
            exposure_ms: exposure,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::App,
            seq,
        },
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_served().prop_map(Op::Serve),
        arb_beacon(SERVABLE).prop_map(Op::Apply),
        arb_beacon(SERVABLE).prop_map(Op::Apply),
        arb_beacon(SERVABLE).prop_map(Op::Apply),
        arb_beacon(NEVER_SERVED).prop_map(Op::Apply),
    ]
}

/// One impression's measurement state, kept field by field.
#[derive(Debug, Default)]
struct ModelRecord {
    seen: BTreeSet<u16>,
    duplicates: u64,
    max_seq: u16,
    last_fraction_milli: u16,
    best_exposure_ms: u32,
    measurable: bool,
    in_view: bool,
    out_of_view: bool,
    clicked: bool,
    first_measured_us: u64,
}

#[derive(Debug, Default)]
struct Model {
    served: BTreeMap<u64, ServedImpression>,
    records: BTreeMap<u64, ModelRecord>,
    orphans: u64,
    unique: u64,
    duplicates: u64,
}

impl Model {
    fn apply(&mut self, b: &Beacon) -> ApplyOutcome {
        if !self.served.contains_key(&b.impression_id) {
            self.orphans += 1;
            return ApplyOutcome::default();
        }
        let r = self.records.entry(b.impression_id).or_default();
        if !r.seen.insert(b.seq) {
            r.duplicates += 1;
            self.duplicates += 1;
            return ApplyOutcome {
                first_measured_us: r.first_measured_us,
                ..ApplyOutcome::default()
            };
        }
        self.unique += 1;
        r.max_seq = r.max_seq.max(b.seq);
        r.last_fraction_milli = b.visible_fraction_milli;
        r.best_exposure_ms = r.best_exposure_ms.max(b.exposure_ms);
        let (was_measurable, was_in_view) = (r.measurable, r.in_view);
        match b.event {
            EventKind::Measurable => r.measurable = true,
            EventKind::InView => {
                r.measurable = true;
                r.in_view = true;
            }
            EventKind::OutOfView => r.out_of_view = true,
            EventKind::Click => r.clicked = true,
            EventKind::TagLoaded | EventKind::Heartbeat => {}
        }
        if r.measurable && !was_measurable {
            r.first_measured_us = b.timestamp_us;
        }
        ApplyOutcome {
            applied: true,
            newly_measured: r.measurable && !was_measurable,
            newly_viewed: r.in_view && !was_in_view,
            first_measured_us: r.first_measured_us,
        }
    }

    fn per_campaign(&self) -> Vec<CampaignReport> {
        let mut by_campaign: BTreeMap<u32, CampaignReport> = BTreeMap::new();
        for (id, s) in &self.served {
            let (measured, viewed, clicked) = self
                .records
                .get(id)
                .map(|r| (r.measurable, r.in_view, r.clicked))
                .unwrap_or_default();
            let report = by_campaign
                .entry(s.campaign_id)
                .or_insert_with(|| CampaignReport {
                    campaign_id: s.campaign_id,
                    total: RateSlice::default(),
                    slices: HashMap::new(),
                });
            let key = SliceKey {
                site_type: s.site_type,
                os: s.os,
            };
            for slice in [&mut report.total, report.slices.entry(key).or_default()] {
                slice.served += 1;
                slice.measured += u64::from(measured);
                slice.viewed += u64::from(viewed);
                slice.clicked += u64::from(clicked);
            }
        }
        by_campaign.into_values().collect()
    }
}

fn assert_record_matches(id: u64, got: &ImpressionRecord, want: &ModelRecord) {
    assert!(got.tag_loaded, "impression {id}");
    assert_eq!(got.beacons as usize, want.seen.len(), "impression {id}");
    assert_eq!(got.seen.len(), want.seen.len(), "impression {id}");
    assert_eq!(got.duplicates, want.duplicates, "impression {id}");
    assert_eq!(got.max_seq, want.max_seq, "impression {id}");
    assert_eq!(
        got.last_fraction_milli, want.last_fraction_milli,
        "impression {id}"
    );
    assert_eq!(
        got.best_exposure_ms, want.best_exposure_ms,
        "impression {id}"
    );
    assert_eq!(
        (got.measurable, got.in_view, got.out_of_view, got.clicked),
        (
            want.measurable,
            want.in_view,
            want.out_of_view,
            want.clicked
        ),
        "impression {id}"
    );
    assert_eq!(
        got.first_measured_us, want.first_measured_us,
        "impression {id}"
    );
}

/// Every observable of `store` against `model`.
fn assert_agrees(store: &ImpressionStore, model: &Model) {
    assert_eq!(store.served_count(), model.served.len());
    assert_eq!(store.orphan_beacons(), model.orphans);
    assert_eq!(store.unique_beacons(), model.unique);
    assert_eq!(store.total_duplicates(), model.duplicates);
    for id in SERVABLE.chain(NEVER_SERVED) {
        assert_eq!(
            store.served(id),
            model.served.get(&id).cloned(),
            "impression {id}"
        );
        let want = model.records.get(&id);
        match (store.record(id), want) {
            (Some(got), Some(want)) => assert_record_matches(id, got, want),
            (None, None) => {}
            (got, want) => panic!("impression {id}: store {got:?}, model {want:?}"),
        }
        let verdict = want.map_or((false, false), |r| (r.measurable, r.in_view));
        assert_eq!(store.verdict(id), verdict, "impression {id}");
        for seq in SEQS {
            let seen = want.is_some_and(|r| r.seen.contains(&seq));
            assert_eq!(
                store.contains_seq(id, seq),
                seen,
                "impression {id} seq {seq}"
            );
        }
    }
    assert_eq!(store.iter_joined().count(), model.served.len());
    assert_eq!(ReportBuilder::per_campaign(store), model.per_campaign());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings of serving and applying: the store and the
    /// model agree after every step, including on what each apply did.
    #[test]
    fn one_table_store_matches_the_model(ops in prop::collection::vec(arb_op(), 1..160)) {
        let mut store = ImpressionStore::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Serve(s) => {
                    store.record_served(s.clone());
                    model.served.insert(s.impression_id, s.clone());
                }
                Op::Apply(b) => {
                    let got = store.apply(b);
                    prop_assert_eq!(got, model.apply(b), "{:?}", b);
                }
            }
            assert_agrees(&store, &model);
        }
    }
}

fn served(id: u64, campaign: u32) -> ServedImpression {
    ServedImpression {
        impression_id: id,
        campaign_id: campaign,
        os: OsKind::Ios,
        browser: BrowserKind::Safari,
        site_type: SiteType::Browser,
        ad_format: AdFormat::Display,
    }
}

fn beacon(id: u64, event: EventKind, seq: u16) -> Beacon {
    Beacon {
        impression_id: id,
        campaign_id: 1,
        event,
        timestamp_us: 1_000 + u64::from(seq),
        ad_format: AdFormat::Display,
        visible_fraction_milli: 600,
        exposure_ms: 1_200,
        os: OsKind::Ios,
        browser: BrowserKind::Safari,
        site_type: SiteType::Browser,
        seq,
    }
}

#[test]
fn re_registering_an_id_keeps_its_record() {
    let mut store = ImpressionStore::new();
    store.record_served(served(5, 1));
    store.apply(&beacon(5, EventKind::InView, 0));
    store.record_served(served(5, 2));
    assert_eq!(store.served(5).map(|s| s.campaign_id), Some(2));
    assert_eq!(store.verdict(5), (true, true));
    assert_eq!(store.record(5).map(|r| r.beacons), Some(1));
    let reports = ReportBuilder::per_campaign(&store);
    assert_eq!(reports.len(), 1);
    assert_eq!((reports[0].campaign_id, reports[0].total.viewed), (2, 1));
}

/// Beacon ids off the wire only look up: a flood of distinct ids the ad
/// server never registered inserts nothing, however many there are.
/// That is what lets the table use an unkeyed hasher — every key in it
/// came from the served log.
#[test]
fn an_orphan_flood_inserts_nothing() {
    let mut store = ImpressionStore::new();
    for id in 0..100u64 {
        store.record_served(served(id, 1 + (id % 3) as u32));
        if id % 2 == 0 {
            store.apply(&beacon(id, EventKind::Measurable, 0));
        }
    }
    let (served_before, joined_before, orphans_before) = (
        store.served_count(),
        store.iter_joined().count(),
        store.orphan_beacons(),
    );
    let reports_before = ReportBuilder::per_campaign(&store);
    for k in 0..10_000u64 {
        // Spread like hostile input: high bits, low bits, both.
        let id = (k << 32) | (k.wrapping_mul(0x9E37_79B9) & 0xFFFF) | (1 << 20);
        let outcome = store.apply(&beacon(id, EventKind::InView, k as u16));
        assert_eq!(outcome, ApplyOutcome::default(), "orphan {id} applied");
    }
    assert_eq!(store.served_count(), served_before);
    assert_eq!(store.iter_joined().count(), joined_before);
    assert_eq!(store.orphan_beacons(), orphans_before + 10_000);
    assert_eq!(ReportBuilder::per_campaign(&store), reports_before);
}

#[test]
fn a_record_for_an_unregistered_impression_is_not_restored() {
    let mut store = ImpressionStore::new();
    store.record_served(served(1, 1));
    let rec = ImpressionRecord {
        tag_loaded: true,
        measurable: true,
        beacons: 1,
        ..ImpressionRecord::default()
    };
    assert!(store.restore_record(1, rec.clone()));
    assert!(!store.restore_record(2, rec.clone()));
    assert_eq!(store.record(1), Some(&rec));
    assert_eq!(store.record(2), None);
    assert_eq!(store.iter_joined().count(), 1);
}
