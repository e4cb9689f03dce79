//! Retry-delivery properties: beacon sequences pushed through faulty
//! transports with at-least-once retries land in campaign aggregates
//! **exactly once** — for any fault seed, any loss level, and any way
//! the byte stream is chunked — plus a wall-clock e2e of the acked
//! protocol against the real `qtag-collectd` daemon.
//!
//! The invariant under test is the conservation identity the sender
//! and store keep jointly:
//!
//! ```text
//! enqueued == acked + dropped_after_retries + abandoned + pending
//! acked    == store.unique_beacons()          (at quiescence)
//! ```
//!
//! with duplicates forced by lost acks counted separately and never
//! double-applied to an aggregate.

use proptest::prelude::*;
use qtag_collectd::{Collector, CollectorConfig};
use qtag_server::{
    ImpressionStore, ReportBuilder, ServedImpression, ShardedStore, SimCollectorTransport,
    SimFaults,
};
use qtag_wire::framing::{encode_frames, FrameEvent};
use qtag_wire::sender::{encode_ack, AckDecoder, AckKey, BeaconSender, SenderConfig, TcpTransport};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, FrameDecoder, OsKind, SiteType};
use std::time::{Duration, Instant};

fn beacon(impression_id: u64, campaign_id: u32, seq: u16) -> Beacon {
    Beacon {
        impression_id,
        campaign_id,
        event: if seq == 0 {
            EventKind::Measurable
        } else {
            EventKind::Heartbeat
        },
        timestamp_us: 1_000 * u64::from(seq),
        ad_format: AdFormat::Display,
        visible_fraction_milli: 750,
        exposure_ms: 1_200,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        seq,
    }
}

fn served(impression_id: u64, campaign_id: u32) -> ServedImpression {
    ServedImpression {
        impression_id,
        campaign_id,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: AdFormat::Display,
    }
}

/// The full beacon schedule for a small two-campaign fleet.
fn schedule(impressions: u64, seqs: u16) -> Vec<Beacon> {
    (1..=impressions)
        .flat_map(|id| {
            let campaign = if id % 2 == 0 { 2 } else { 1 };
            (0..seqs).map(move |seq| beacon(id, campaign, seq))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any loss level and fault seed, the retry path produces the
    /// *identical* campaign aggregates a fault-free network would:
    /// every beacon applied exactly once, duplicates deduplicated,
    /// conservation exact.
    #[test]
    fn faulty_retry_aggregates_equal_fault_free_aggregates(
        impressions in 1u64..10,
        seqs in 1u16..5,
        loss in 0.0f64..0.35,
        seed in any::<u64>(),
    ) {
        let beacons = schedule(impressions, seqs);

        // Reference: the same schedule applied over a perfect network.
        let mut reference = ImpressionStore::new();
        for id in 1..=impressions {
            reference.record_served(served(id, if id % 2 == 0 { 2 } else { 1 }));
        }
        for b in &beacons {
            reference.apply(b);
        }

        // Retry path: lossy frames, lossy acks, resets, corruption.
        let mut store = ImpressionStore::new();
        for id in 1..=impressions {
            store.record_served(served(id, if id % 2 == 0 { 2 } else { 1 }));
        }
        let faults = SimFaults {
            corrupt_rate: 0.05,
            ..SimFaults::symmetric(loss, 0.0)
        };
        let transport = SimCollectorTransport::new(&mut store, faults, seed);
        let cfg = SenderConfig {
            // Unreachable retry cap: every beacon must eventually land,
            // so the aggregates can be compared exactly.
            max_attempts: 1_000_000,
            seed,
            ..SenderConfig::default()
        };
        let mut sender = BeaconSender::new(transport, cfg);
        let mut now = 0u64;
        for b in &beacons {
            prop_assert!(sender.offer(b, now).unwrap());
        }
        let deadline = 600_000_000u64; // 10 simulated minutes
        while !sender.is_idle() && now < deadline {
            sender.pump(now);
            now += 5_000;
        }
        prop_assert!(sender.is_idle(), "sender did not drain by the virtual deadline");
        let stats = sender.stats();
        prop_assert!(stats.conserves(0), "{stats:?}");
        prop_assert_eq!(stats.dropped_after_retries, 0);
        prop_assert_eq!(stats.acked, beacons.len() as u64);
        prop_assert_eq!(store.unique_beacons(), beacons.len() as u64);
        prop_assert_eq!(store.orphan_beacons(), 0);

        // The headline: aggregates are bit-identical to the fault-free
        // run — retries and duplicates are invisible to reporting.
        let got = ReportBuilder::per_campaign(&store);
        let want = ReportBuilder::per_campaign(&reference);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert_eq!(g.campaign_id, w.campaign_id);
            prop_assert_eq!(g.total, w.total);
        }
    }

    /// Frame decoding is invariant under how the byte stream is split:
    /// any chunking of the encoded stream yields the same beacons, and
    /// applying them yields the same aggregates.
    #[test]
    fn frame_decode_is_chunk_split_invariant(
        impressions in 1u64..8,
        seqs in 1u16..5,
        chunks in prop::collection::vec(1usize..48, 1..12),
    ) {
        let beacons = schedule(impressions, seqs);
        let stream = encode_frames(&beacons).unwrap();

        // One-shot decode.
        let mut whole = FrameDecoder::new();
        whole.extend(&stream);
        let mut want: Vec<Beacon> = Vec::new();
        let mut evs = whole.drain();
        evs.extend(whole.finish());
        for ev in evs {
            if let FrameEvent::Beacon(b) = ev {
                want.push(b);
            }
        }
        prop_assert_eq!(want.len(), beacons.len());

        // Chunked decode: cycle through the arbitrary chunk sizes.
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Beacon> = Vec::new();
        let mut off = 0usize;
        let mut i = 0usize;
        while off < stream.len() {
            let n = chunks[i % chunks.len()].min(stream.len() - off);
            dec.extend(&stream[off..off + n]);
            for ev in dec.drain() {
                if let FrameEvent::Beacon(b) = ev {
                    got.push(b);
                }
            }
            off += n;
            i += 1;
        }
        for ev in dec.finish() {
            if let FrameEvent::Beacon(b) = ev {
                got.push(b);
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Ack decoding is likewise chunk-split invariant: the 10-byte ack
    /// records survive any TCP segmentation.
    #[test]
    fn ack_decode_is_chunk_split_invariant(
        keys in prop::collection::vec((any::<u64>(), any::<u16>()), 1..40),
        chunks in prop::collection::vec(1usize..16, 1..10),
    ) {
        let want: Vec<AckKey> = keys
            .iter()
            .map(|&(impression_id, seq)| AckKey { impression_id, seq })
            .collect();
        let mut stream = Vec::new();
        for k in &want {
            encode_ack(*k, &mut stream);
        }

        let mut dec = AckDecoder::new();
        let mut got: Vec<AckKey> = Vec::new();
        let mut off = 0usize;
        let mut i = 0usize;
        while off < stream.len() {
            let n = chunks[i % chunks.len()].min(stream.len() - off);
            dec.extend(&stream[off..off + n], &mut got);
            off += n;
            i += 1;
        }
        prop_assert_eq!(got, want);
    }
}

/// Wall-clock e2e: the acked protocol against the real daemon. Every
/// beacon offered to a `BeaconSender` over real localhost TCP is acked
/// and lands in the store exactly once, even if conservative ack
/// timeouts force spurious retransmits on a slow machine.
#[test]
fn acked_tcp_delivery_into_real_collector_is_exactly_once() {
    const IMPRESSIONS: u64 = 120;
    const SEQS: u16 = 3;
    let store = ShardedStore::new(1);
    for id in 1..=IMPRESSIONS {
        store.record_served(served(id, if id % 2 == 0 { 2 } else { 1 }));
    }
    let collector = Collector::start_sharded(CollectorConfig::default(), store.clone())
        .expect("start collector");

    let transport = TcpTransport::new(collector.local_addr());
    let cfg = SenderConfig {
        ack_timeout_us: 250_000,
        ..SenderConfig::default()
    };
    let mut sender = BeaconSender::new(transport, cfg);
    let t0 = Instant::now();
    let now = |t0: Instant| t0.elapsed().as_micros() as u64;
    for b in schedule(IMPRESSIONS, SEQS) {
        assert!(sender.offer(&b, now(t0)).unwrap());
        sender.pump(now(t0));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !sender.is_idle() && Instant::now() < deadline {
        sender.pump(now(t0));
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        sender.is_idle(),
        "sender did not drain: {:?}",
        sender.stats()
    );
    let stats = sender.stats();
    let ops = collector.shutdown();

    let total = IMPRESSIONS * u64::from(SEQS);
    assert!(stats.conserves(0), "{stats:?}");
    assert_eq!(stats.acked, total);
    assert_eq!(stats.dropped_after_retries, 0);
    let s = store;
    // Exactly once in the aggregates: spurious wall-clock retransmits
    // (if any) are deduplicated server-side and re-acked.
    assert_eq!(s.unique_beacons(), total);
    assert_eq!(s.orphan_beacons(), 0);
    assert!(ops.collector.acks_sent >= total);
    assert_eq!(ops.collector.acks_sent, stats.acked + s.total_duplicates());
}
