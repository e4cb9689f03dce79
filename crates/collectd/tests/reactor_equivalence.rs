//! Chunk-split and write-granularity invariance of the connection
//! state machine: for ANY session byte stream — acked or plain, clean
//! or corrupted — delivering it in arbitrary read-sized chunks with
//! acks leaving in arbitrary partial writes must produce bit-identical
//! accounting to delivering it in one read with one unbounded write:
//! same decode/corrupt/resync counters, same applied beacons, same
//! store contents, one ack per accepted frame. Both serving modes
//! drive this one machine ([`qtag_collectd::reactor_chunks`] is its
//! socket-free driver) and differ only in how the kernel happens to
//! slice reads and writes for them — which is exactly what this
//! property says cannot matter.
#![cfg(target_os = "linux")]

use proptest::prelude::*;
use qtag_collectd::sync::atomic::AtomicBool;
use qtag_collectd::sync::Arc;
use qtag_collectd::{reactor_chunks, CollectorConfig, CollectorStats, OpsSnapshot};
use qtag_server::{IngestConfig, IngestService, ServedImpression, ShardedStore};
use qtag_wire::framing::encode_frames;
use qtag_wire::sender::{ACK_HELLO, ACK_LEN};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

const IDS: u64 = 16;

fn beacon(id: u64, seq: u16, event: EventKind) -> Beacon {
    Beacon {
        impression_id: id,
        campaign_id: 1,
        event,
        timestamp_us: 1_000 * u64::from(seq),
        ad_format: AdFormat::Display,
        visible_fraction_milli: 800,
        exposure_ms: 1100,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        seq,
    }
}

/// One frame of the generated session: a beacon, possibly damaged
/// after encoding (payload bit-flip: honest header, failing CRC).
#[derive(Debug, Clone)]
struct GenFrame {
    id: u64,
    seq: u16,
    in_view: bool,
    corrupt: bool,
}

fn frame_strategy() -> impl Strategy<Value = GenFrame> {
    // ~15% of frames arrive damaged (the vendored proptest shim has
    // no `bool::weighted`, so roll a percentile instead).
    (1..=IDS, 0u16..4, any::<bool>(), 0u32..100).prop_map(|(id, seq, in_view, roll)| GenFrame {
        id,
        seq,
        in_view,
        corrupt: roll < 15,
    })
}

/// Encodes the session and splits it into chunks at the given
/// fractions of its length (deduplicated, sorted).
fn build_chunks(frames: &[GenFrame], acked: bool, cuts: &[usize]) -> (Vec<Vec<u8>>, u64, u64) {
    let mut stream = if acked { vec![ACK_HELLO] } else { Vec::new() };
    let mut sent = 0u64;
    let mut corrupted = 0u64;
    for f in frames {
        let event = if f.in_view {
            EventKind::InView
        } else {
            EventKind::Measurable
        };
        let mut bytes = encode_frames(&[beacon(f.id, f.seq, event)]).unwrap();
        if f.corrupt {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            corrupted += 1;
        } else {
            sent += 1;
        }
        stream.extend_from_slice(&bytes);
    }
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
    points.push(0);
    points.push(stream.len());
    // Force cut points at least every 96 bytes, so any session longer
    // than that is split across reads however few random cuts it drew.
    points.extend((0..stream.len()).step_by(96));
    points.sort_unstable();
    points.dedup();
    let chunks = points
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| stream[w[0]..w[1]].to_vec())
        .collect();
    (chunks, sent, corrupted)
}

struct Rig {
    service: IngestService,
    store: ShardedStore,
    stats: Arc<CollectorStats>,
    cfg: Arc<CollectorConfig>,
    shutdown: Arc<AtomicBool>,
}

fn rig() -> Rig {
    let store = ShardedStore::new(2);
    for id in 1..=IDS {
        store.record_served(ServedImpression {
            impression_id: id,
            campaign_id: 1,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            ad_format: AdFormat::Display,
        });
    }
    let service = IngestService::start_sharded(
        store.clone(),
        IngestConfig {
            workers: 1,
            batch: 8,
            // Roomy inlet: shedding depends on applier timing, which
            // would make the two runs incomparable. Conservation under
            // shedding is covered by the qtag_check models, where the
            // schedule itself is controlled.
            inlet_capacity: 4096,
            metrics: None,
            journal: None,
        },
    );
    Rig {
        service,
        store,
        stats: Arc::new(CollectorStats::default()),
        cfg: Arc::new(CollectorConfig::default()),
        shutdown: Arc::new(AtomicBool::new(false)),
    }
}

impl Rig {
    /// Drains the ingest service and returns the settled ops snapshot
    /// plus the applied store state. Consumes the rig: `shutdown`
    /// takes the service by value.
    fn settle(self) -> (OpsSnapshot, u64) {
        let ingest = Arc::clone(self.service.stats_arc());
        self.service.shutdown();
        let ops = OpsSnapshot {
            collector: self.stats.snapshot(),
            ingest: ingest.snapshot(),
        };
        (ops, self.store.unique_beacons())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any schedule of frames (some corrupt), any chunking, acked or
    /// not, any ack write granularity: the machine accounts exactly as
    /// it does for the same bytes in one read and one write, and the
    /// store converges to the same state.
    #[test]
    fn accounting_is_invariant_to_chunking_and_write_granularity(
        frames in prop::collection::vec(frame_strategy(), 1..24),
        acked in any::<bool>(),
        cuts in prop::collection::vec(0usize..4096, 0..12),
        write_cap in 1usize..64,
    ) {
        let (chunks, sent, corrupted) = build_chunks(&frames, acked, &cuts);
        let whole = vec![chunks.concat()];

        let rig_w = rig();
        let whole_acks = reactor_chunks(
            Arc::clone(&rig_w.cfg),
            Arc::clone(&rig_w.stats),
            rig_w.service.inlet(),
            Arc::clone(&rig_w.shutdown),
            &whole,
            usize::MAX,
        );
        let (w, w_unique) = rig_w.settle();

        let rig_s = rig();
        let split_acks = reactor_chunks(
            Arc::clone(&rig_s.cfg),
            Arc::clone(&rig_s.stats),
            rig_s.service.inlet(),
            Arc::clone(&rig_s.shutdown),
            &chunks,
            write_cap,
        );
        let (s, s_unique) = rig_s.settle();

        // Decode-side accounting: bit-identical.
        prop_assert_eq!(w.collector.frames_decoded, s.collector.frames_decoded);
        prop_assert_eq!(w.collector.corrupt_frames, s.collector.corrupt_frames);
        prop_assert_eq!(w.collector.corrupt_frame_bytes, s.collector.corrupt_frame_bytes);
        prop_assert_eq!(w.collector.resync_bytes, s.collector.resync_bytes);
        prop_assert_eq!(w.collector.bytes_read, s.collector.bytes_read);
        prop_assert_eq!(w.collector.acked_connections, s.collector.acked_connections);

        // Ingest-side accounting and the store itself agree.
        prop_assert_eq!(w.ingest.beacons, s.ingest.beacons);
        prop_assert_eq!(w.ingest.shed_beacons, 0u64);
        prop_assert_eq!(s.ingest.shed_beacons, 0u64);
        prop_assert_eq!(w_unique, s_unique);

        // Both deliveries conserve the same ground truth.
        prop_assert!(w.conserves(sent + corrupted), "whole: {:?}", w);
        prop_assert!(s.conserves(sent + corrupted), "split: {:?}", s);
        prop_assert_eq!(w.collector.corrupt_frames, corrupted);

        // One ack per accepted frame must have left — in one write, and
        // through whatever partial-write schedule `write_cap` forced.
        for (ops, ack_bytes) in [(&w, &whole_acks), (&s, &split_acks)] {
            if acked {
                prop_assert_eq!(ack_bytes.len() as u64, ops.ingest.beacons * ACK_LEN as u64);
                prop_assert_eq!(ops.collector.acks_sent, ops.ingest.beacons);
            } else {
                prop_assert_eq!(ack_bytes.len(), 0);
            }
        }
    }
}
