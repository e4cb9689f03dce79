//! End-to-end test for the `qtag-collectd` daemon over real localhost
//! TCP: concurrent binary and JSON clients, chunk-split writes, abrupt
//! mid-frame disconnects, graceful shutdown, and the acceptance
//! floor of 100k beacons/sec — all judged by the exact
//! conservation identity
//!
//! ```text
//! beacons sent == beacons applied + corrupt frames + shed beacons
//! ```

use qtag_collectd::{Collector, CollectorConfig};
use qtag_server::{ServedImpression, ShardedStore};
use qtag_wire::framing::encode_frames;
use qtag_wire::{json, AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::io::Write;
use std::net::TcpStream;
use std::time::Instant;

fn beacon(impression_id: u64, seq: u16, event: EventKind) -> Beacon {
    Beacon {
        impression_id,
        campaign_id: 9,
        event,
        timestamp_us: 1_000 * u64::from(seq),
        ad_format: AdFormat::Display,
        visible_fraction_milli: 800,
        exposure_ms: 1500,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        seq,
    }
}

fn served(impression_id: u64) -> ServedImpression {
    ServedImpression {
        impression_id,
        campaign_id: 9,
        os: OsKind::Windows10,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        ad_format: AdFormat::Display,
    }
}

fn start_collector(inlet_capacity: usize) -> Collector {
    let cfg = CollectorConfig {
        inlet_capacity,
        ..CollectorConfig::default()
    };
    Collector::start_sharded(cfg, ShardedStore::new(1)).expect("bind localhost")
}

/// Writes the byte stream in small slices so frames straddle TCP
/// writes — the decoder must reassemble regardless of segmentation.
fn write_chunked(sock: &mut TcpStream, stream: &[u8], chunk: usize) {
    for piece in stream.chunks(chunk) {
        sock.write_all(piece).expect("write");
    }
}

/// The headline scenario from the issue: concurrent binary clients
/// with chunk-split writes, a JSON client (with one garbage line), an
/// abrupt mid-frame disconnect, then a graceful shutdown. Every
/// beacon put on the wire must be accounted for exactly.
#[test]
fn mixed_protocol_clients_with_abrupt_disconnect_conserve_exactly() {
    let collector = start_collector(qtag_server::DEFAULT_INLET_CAPACITY);
    let addr = collector.local_addr();
    collector.sharded_store().record_served(served(500));

    const BINARY_CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 500;

    // Binary clients: each writes its whole stream in 7-byte slices,
    // guaranteeing every frame straddles at least one write boundary.
    let binary: Vec<_> = (0..BINARY_CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let beacons: Vec<Beacon> = (0..PER_CLIENT)
                    .map(|i| beacon((client << 32) | i, i as u16, EventKind::Heartbeat))
                    .collect();
                let stream = encode_frames(&beacons).expect("encode");
                let mut sock = TcpStream::connect(addr).expect("connect");
                write_chunked(&mut sock, &stream, 7);
                PER_CLIENT
            })
        })
        .collect();

    // JSON client: two good beacons for a served impression plus one
    // garbage line, which must count as exactly one corrupt frame.
    let json_client = std::thread::spawn(move || {
        let mut payload = json::encode(&beacon(500, 0, EventKind::Measurable)).unwrap();
        payload.push('\n');
        payload.push_str(&json::encode(&beacon(500, 1, EventKind::InView)).unwrap());
        payload.push_str("\nnot a beacon at all\n");
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(payload.as_bytes()).expect("write");
        3u64 // 2 good + 1 corrupt line, all fully written
    });

    // Abrupt client: one whole frame, then dies mid-way through a
    // second. The partial frame is "never sent" — not corrupt.
    let abrupt_client = std::thread::spawn(move || {
        let whole = encode_frames(&[beacon(600, 0, EventKind::Heartbeat)]).unwrap();
        let mut cut = encode_frames(&[beacon(600, 1, EventKind::Heartbeat)]).unwrap();
        cut.truncate(cut.len() / 2);
        let mut sock = TcpStream::connect(addr).expect("connect");
        sock.write_all(&whole).expect("write");
        sock.write_all(&cut).expect("write");
        1u64 // only the whole frame counts as sent
    });

    let mut sent = 0u64;
    for h in binary {
        sent += h.join().expect("binary client");
    }
    sent += json_client.join().expect("json client");
    sent += abrupt_client.join().expect("abrupt client");

    let ops = collector.shutdown();
    assert!(
        ops.conserves(sent),
        "sent {sent} != applied + corrupt + shed: {ops:?}"
    );
    assert!(ops.decode_accounted(), "{ops:?}");
    assert_eq!(ops.collector.corrupt_frames, 1, "{ops:?}");
    assert_eq!(
        ops.ingest.beacons,
        sent - 1,
        "all but the garbage line applied: {ops:?}"
    );
    assert_eq!(
        ops.collector.connections_accepted,
        BINARY_CLIENTS + 2,
        "{ops:?}"
    );
}

/// Beacons for a served impression must land in the store as a
/// viewability verdict after graceful shutdown.
#[test]
fn graceful_shutdown_drains_beacons_into_store_verdicts() {
    let collector = start_collector(qtag_server::DEFAULT_INLET_CAPACITY);
    let store = collector.sharded_store().clone();
    store.record_served(served(42));

    let stream = encode_frames(&[
        beacon(42, 0, EventKind::Measurable),
        beacon(42, 1, EventKind::InView),
    ])
    .expect("encode");
    let mut sock = TcpStream::connect(collector.local_addr()).expect("connect");
    sock.write_all(&stream).expect("write");
    drop(sock);

    // Shut down immediately: the drain must still deliver both
    // beacons (possibly straight out of the OS accept backlog).
    let ops = collector.shutdown();
    assert!(ops.conserves(2), "{ops:?}");
    assert_eq!(ops.ingest.beacons, 2, "{ops:?}");
    assert_eq!(
        store.verdict(42),
        (true, true),
        "measurable + in-view verdict after drain"
    );
}

/// Acceptance floor: the daemon must sustain >= 100k beacons/sec
/// aggregate over real localhost TCP, with conservation holding
/// exactly, graceful drain included in the clock.
///
/// The 100k floor is enforced in optimized builds (the regime the
/// acceptance is defined for; a release daemon sustains ~1M
/// beacons/s — see EXPERIMENTS.md). Debug builds run
/// the identical scenario against a 10x-reduced floor so unoptimized
/// `cargo test` still catches order-of-magnitude regressions without
/// flaking on slow single-core runners.
#[test]
fn throughput_floor_100k_beacons_per_sec_with_exact_conservation() {
    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 30_000;
    let floor: f64 = if cfg!(debug_assertions) {
        10_000.0
    } else {
        100_000.0
    };
    let collector = start_collector(1 << 20); // no shed: pure throughput run
    let addr = collector.local_addr();

    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let beacons: Vec<Beacon> = (0..PER_CLIENT)
                    .map(|i| beacon((client << 32) | i, i as u16, EventKind::Heartbeat))
                    .collect();
                let stream = encode_frames(&beacons).expect("encode");
                let mut sock = TcpStream::connect(addr).expect("connect");
                write_chunked(&mut sock, &stream, 8192);
                PER_CLIENT
            })
        })
        .collect();
    let sent: u64 = clients.into_iter().map(|h| h.join().expect("client")).sum();
    let ops = collector.shutdown();
    let elapsed = started.elapsed();

    let rate = sent as f64 / elapsed.as_secs_f64();
    eprintln!("collectd e2e throughput: {rate:.0} beacons/s ({sent} in {elapsed:?})");
    assert!(ops.conserves(sent), "{ops:?}");
    assert_eq!(ops.ingest.shed_beacons, 0, "{ops:?}");
    assert!(
        rate >= floor,
        "throughput floor not met: {rate:.0} beacons/s < {floor:.0}"
    );
}
