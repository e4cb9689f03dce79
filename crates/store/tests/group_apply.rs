//! The shard applier's group apply against one beacon at a time.
//!
//! `ImpressionStore::apply_group` reads every row of a group before it
//! applies the group in order. The read changes nothing, so a store fed
//! groups must end exactly where one fed the same beacons one `apply` at
//! a time ends: the same outcome per beacon, the same rows, records,
//! counters and campaign reports, and the same rollup folded from the
//! outcomes. Groups hold orphans (ids never served), duplicate seqs, one
//! id many times, and impressions whose seq lists outgrow the seven
//! inline slots; served rows are registered and re-registered between
//! groups.

use proptest::prelude::*;
use qtag_server::{ApplyOutcome, ImpressionStore, ReportBuilder, ServedImpression};
use qtag_store::ShardRollup;
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

/// Ids a group may reference; only those below `SERVED` are ever
/// registered, so the rest are orphans.
const IDS: std::ops::Range<u64> = 0..16;
const SERVED: u64 = 12;
/// Seqs per beacon: narrow enough for duplicates, wide enough that an
/// impression's list passes the seven inline seqs.
const SEQS: std::ops::Range<u16> = 0..24;
/// Three days of timestamps, so the rollup fills several hourly
/// buckets.
const SPAN_US: u64 = 3 * 24 * 3_600 * 1_000_000;

#[derive(Debug, Clone)]
enum Step {
    Serve(ServedImpression),
    Group(Vec<Beacon>),
}

fn arb_served() -> impl Strategy<Value = ServedImpression> {
    (0..SERVED, 1u32..=3, 0u8..=3, 0u8..=1).prop_map(|(id, campaign, os, site)| ServedImpression {
        impression_id: id,
        campaign_id: campaign,
        os: OsKind::from_code(os).unwrap(),
        browser: BrowserKind::Chrome,
        site_type: SiteType::from_code(site).unwrap(),
        ad_format: AdFormat::Display,
    })
}

fn arb_beacon() -> impl Strategy<Value = Beacon> {
    (
        IDS,
        0u8..=5,
        SEQS,
        0..SPAN_US,
        0u16..=1000,
        0u32..5_000,
        1u32..=3,
    )
        .prop_map(|(id, event, seq, ts, frac, exposure, campaign)| Beacon {
            impression_id: id,
            campaign_id: campaign,
            event: EventKind::from_code(event).unwrap(),
            timestamp_us: ts,
            ad_format: AdFormat::Display,
            visible_fraction_milli: frac,
            exposure_ms: exposure,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::App,
            seq,
        })
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            arb_served().prop_map(Step::Serve),
            prop::collection::vec(arb_beacon(), 0..=48usize).prop_map(Step::Group),
            prop::collection::vec(arb_beacon(), 0..=48usize).prop_map(Step::Group),
        ],
        1..=12usize,
    )
}

/// One store and the rollup folded from its outcomes.
struct Side {
    store: ImpressionStore,
    rollup: ShardRollup,
    outcomes: Vec<ApplyOutcome>,
}

impl Side {
    fn new() -> Self {
        let mut store = ImpressionStore::new();
        // Every servable id starts registered; `Step::Serve`
        // re-registers one under another campaign or slice.
        for id in 0..SERVED {
            store.record_served(ServedImpression {
                impression_id: id,
                campaign_id: 1,
                os: OsKind::Android,
                browser: BrowserKind::Chrome,
                site_type: SiteType::App,
                ad_format: AdFormat::Display,
            });
        }
        Side {
            store,
            rollup: ShardRollup::new(),
            outcomes: Vec::new(),
        }
    }

    fn fold(&mut self, group: &[Beacon], from: usize) {
        for (b, o) in group.iter().zip(&self.outcomes[from..]) {
            self.rollup.record(b, o);
        }
    }
}

proptest! {
    /// Of the 256 cases, 235 send a group an orphan, 213 apply a
    /// duplicate, 238 repeat an id inside a group, 141 give an
    /// impression an eighth seq, and 204 re-register a served row.
    #[test]
    fn group_apply_equals_one_beacon_at_a_time(steps in arb_steps()) {
        let mut grouped = Side::new();
        let mut single = Side::new();
        for step in &steps {
            match step {
                Step::Serve(s) => {
                    grouped.store.record_served(s.clone());
                    single.store.record_served(s.clone());
                }
                Step::Group(group) => {
                    let from = grouped.outcomes.len();
                    grouped.store.apply_group(group, &mut grouped.outcomes);
                    prop_assert_eq!(grouped.outcomes.len() - from, group.len());
                    grouped.fold(group, from);
                    for b in group {
                        let outcome = single.store.apply(b);
                        single.outcomes.push(outcome);
                    }
                    single.fold(group, from);
                }
            }
        }
        prop_assert_eq!(&grouped.outcomes, &single.outcomes);

        let rows = |st: &ImpressionStore| {
            let mut rows: Vec<_> = st
                .iter_joined()
                .map(|(s, r)| (s, r.cloned()))
                .collect();
            rows.sort_by_key(|(s, _)| s.impression_id);
            rows
        };
        prop_assert_eq!(rows(&grouped.store), rows(&single.store));
        prop_assert_eq!(grouped.store.orphan_beacons(), single.store.orphan_beacons());
        prop_assert_eq!(grouped.store.unique_beacons(), single.store.unique_beacons());
        prop_assert_eq!(
            grouped.store.total_duplicates(),
            single.store.total_duplicates()
        );
        prop_assert_eq!(
            ReportBuilder::per_campaign(&grouped.store),
            ReportBuilder::per_campaign(&single.store)
        );
        prop_assert_eq!(grouped.rollup.export(), single.rollup.export());
    }
}
