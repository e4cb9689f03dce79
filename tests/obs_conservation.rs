//! Cross-crate conservation through the metrics registry: the scraped
//! totals must reproduce the exact end-to-end identities the legacy
//! stats structs judge — for a fire-and-forget run,
//!
//! ```text
//! sent == applied + corrupt + shed + rejected_after_shutdown
//! ```
//!
//! and for a retry run through the fault-injecting proxy,
//!
//! ```text
//! enqueued == acked + dropped_after_retries + abandoned + pending
//! ```
//!
//! Each test drives real localhost TCP through the collector daemon,
//! then checks every identity twice: once on the legacy snapshot
//! structs and once on the registry, and asserts the two views agree
//! field by field (they read the same atomic cells, so any divergence
//! is a wiring bug in the registry layer).

use qtag_bench::proxy::{FaultProxy, FaultProxyConfig};
use qtag_collectd::{Collector, CollectorConfig};
use qtag_obs::RegistrySnapshot;
use qtag_server::{ReportBuilder, ServedImpression, ShardedStore};
use qtag_store::{
    replay, wal_path, DurableBackend, DurableConfig, StorageBackend, SyncPolicy, WalRecord,
};
use qtag_wire::framing::encode_frames;
use qtag_wire::sender::{BeaconSender, SenderConfig, SenderMetrics, TcpTransport};
use qtag_wire::{binary, AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn beacon(client: u64, seq_no: u64) -> Beacon {
    Beacon {
        impression_id: (client << 32) | seq_no,
        campaign_id: client as u32 + 1,
        event: EventKind::Heartbeat,
        timestamp_us: seq_no * 50_000,
        ad_format: AdFormat::Display,
        visible_fraction_milli: 700,
        exposure_ms: 1_000,
        os: OsKind::Android,
        browser: BrowserKind::Chrome,
        site_type: SiteType::Browser,
        seq: seq_no as u16,
    }
}

fn get(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.value(name)
        .unwrap_or_else(|| panic!("registry metric {name} missing"))
}

/// Fire-and-forget clients (one of them corrupting a known number of
/// frames) against a sharded daemon: the registry must reproduce
/// `sent == applied + corrupt + shed + rejected` and agree with the
/// legacy ops snapshot on every field it mirrors.
#[test]
fn fire_and_forget_registry_reproduces_collector_identity() {
    const CLIENTS: u64 = 3;
    const PER_CLIENT: u64 = 1_500;
    const CORRUPT_EVERY: u64 = 97; // client 0 flips one byte per stride

    let collector = Collector::start_sharded(CollectorConfig::default(), ShardedStore::new(2))
        .expect("bind localhost");
    let addr = collector.local_addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            std::thread::spawn(move || {
                let frame_len = 2 + binary::ENCODED_LEN;
                let mut stream = Vec::with_capacity(PER_CLIENT as usize * frame_len);
                let mut corrupted = 0u64;
                for seq_no in 0..PER_CLIENT {
                    let mut frame = encode_frames(&[beacon(client, seq_no)]).expect("encode");
                    if client == 0 && seq_no % CORRUPT_EVERY == 0 {
                        // Flip a payload byte past the length prefix and
                        // magic so the daemon counts exactly one corrupt
                        // frame and resynchronises.
                        frame[5] ^= 0x40;
                        corrupted += 1;
                    }
                    stream.extend_from_slice(&frame);
                }
                let mut sock = TcpStream::connect(addr).expect("connect");
                for chunk in stream.chunks(1024) {
                    sock.write_all(chunk).expect("write");
                }
                (PER_CLIENT, corrupted)
            })
        })
        .collect();
    let mut sent = 0u64;
    let mut corrupted = 0u64;
    for h in handles {
        let (s, c) = h.join().expect("client thread");
        sent += s;
        corrupted += c;
    }

    let registry = Arc::clone(collector.registry());
    let ops = collector.shutdown();
    let snap = registry.snapshot();

    // The identity, judged on the registry alone.
    let applied = get(&snap, "qtag_ingest_beacons_total");
    let corrupt = get(&snap, "qtag_collectd_corrupt_frames_total");
    let shed = get(&snap, "qtag_ingest_shed_beacons_total");
    let rejected = get(&snap, "qtag_ingest_rejected_after_shutdown_total");
    assert_eq!(
        sent,
        applied + corrupt + shed + rejected,
        "registry conservation: sent {sent} vs {applied}+{corrupt}+{shed}+{rejected}"
    );
    assert_eq!(corrupt, corrupted, "every injected flip counted once");

    // Decode accounting, registry view: every decoded frame was
    // applied, shed, or rejected at shutdown.
    let decoded = get(&snap, "qtag_collectd_frames_decoded_total");
    assert_eq!(decoded, applied + shed + rejected);

    // The legacy snapshot and the registry read the same cells.
    assert!(ops.conserves(sent), "{ops:?}");
    assert_eq!(applied, ops.ingest.beacons);
    assert_eq!(corrupt, ops.collector.corrupt_frames);
    assert_eq!(shed, ops.ingest.shed_beacons);
    assert_eq!(rejected, ops.ingest.rejected_after_shutdown);
    assert_eq!(decoded, ops.collector.frames_decoded);
    assert_eq!(
        get(&snap, "qtag_collectd_connections_accepted_total"),
        ops.collector.connections_accepted
    );
    assert_eq!(
        get(&snap, "qtag_collectd_bytes_read_total"),
        ops.collector.bytes_read
    );
    assert_eq!(
        get(&snap, "qtag_ingest_beacon_batches_total"),
        ops.ingest.beacon_batches
    );

    // Instrumentation sanity after a drained shutdown. Appliers group-
    // commit: each apply group folds one or more enqueued batches, so
    // the exactly-once identity lives on the merged counter while the
    // latency histogram sees one observation per group.
    let groups = get(&snap, "qtag_ingest_batches_applied_total");
    assert_eq!(
        get(&snap, "qtag_ingest_batches_merged_total"),
        ops.ingest.beacon_batches,
        "every enqueued batch folded into exactly one apply group"
    );
    assert!(groups >= 1 && groups <= ops.ingest.beacon_batches);
    let hist = snap
        .histogram("qtag_ingest_apply_latency_us")
        .expect("apply latency histogram registered");
    assert_eq!(hist.count, groups, "one latency observation per group");
    assert_eq!(get(&snap, "qtag_ingest_queue_depth"), 0, "drained");
    assert_eq!(get(&snap, "qtag_collectd_connections_active"), 0);

    // Both exposition sinks, rendered from this daemon's registry after
    // real traffic: every family an operator scrapes is documented,
    // names come out sorted, and text and JSON agree metric for metric.
    // (Byte-exact formats are pinned by qtag-obs's golden_exposition.)
    let prom = registry.render_prometheus();
    for family in [
        "qtag_collectd_frames_decoded_total",
        "qtag_collectd_corrupt_frames_total",
        "qtag_ingest_beacons_total",
        "qtag_ingest_shed_beacons_total",
        "qtag_ingest_rejected_after_shutdown_total",
        "qtag_ingest_apply_latency_us",
        "qtag_ingest_queue_depth",
    ] {
        assert!(prom.contains(&format!("# HELP {family} ")), "{family}");
        assert!(prom.contains(&format!("# TYPE {family} ")), "{family}");
    }
    let documented: Vec<&str> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# HELP ")?.split(' ').next())
        .collect();
    assert!(documented.windows(2).all(|w| w[0] < w[1]), "name-sorted");
    let samples: HashMap<&str, u64> = prom
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(series, sample)| (series, sample.parse().expect("integer sample")))
        .collect();
    let series = |name: &str| samples.get(name).copied();
    let json = serde_json::from_str_value(&registry.render_json()).expect("JSON sink parses");
    let metrics = json.as_map().expect("JSON sink is one object");
    assert_eq!(
        metrics.len(),
        documented.len(),
        "same metrics in both sinks"
    );
    for (name, metric) in metrics {
        let fields = metric.as_map().expect("metric object");
        let field = |key: &str| match serde::find(fields, key) {
            Some(serde::Value::UInt(v)) => Some(*v),
            _ => None,
        };
        if serde::find(fields, "type").and_then(|t| t.as_str()) == Some("histogram") {
            assert_eq!(series(&format!("{name}_count")), field("count"), "{name}");
            assert_eq!(series(&format!("{name}_sum")), field("sum"), "{name}");
        } else {
            assert!(field("value").is_some(), "{name} has no value");
            assert_eq!(series(name), field("value"), "sink mismatch on {name}");
        }
    }
}

/// Retry clients through the fault-injecting proxy: the registry's
/// sender family must reproduce `enqueued == acked + dropped +
/// abandoned + pending` and agree with the summed legacy SenderStats.
#[test]
fn retry_through_fault_proxy_registry_reproduces_sender_identity() {
    const CLIENTS: u64 = 2;
    const PER_CLIENT: u64 = 600;

    let store = ShardedStore::new(2);
    for client in 0..CLIENTS {
        for seq_no in 0..PER_CLIENT {
            let b = beacon(client, seq_no);
            store.record_served(ServedImpression {
                impression_id: b.impression_id,
                campaign_id: b.campaign_id,
                os: b.os,
                browser: b.browser,
                site_type: b.site_type,
                ad_format: b.ad_format,
            });
        }
    }
    let collector =
        Collector::start_sharded(CollectorConfig::default(), store.clone()).expect("bind");
    let proxy = FaultProxy::start(FaultProxyConfig::soak(collector.local_addr(), 0x0B5C))
        .expect("start proxy");
    let addr = proxy.local_addr();

    let registry = Arc::clone(collector.registry());
    let metrics = SenderMetrics::register(&registry, "qtag_sender");

    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let mut sender = BeaconSender::new(
                    TcpTransport::new(addr),
                    SenderConfig {
                        seed: 0xC0_u64.wrapping_add(client),
                        ack_timeout_us: 250_000,
                        backoff_base_us: 5_000,
                        backoff_max_us: 100_000,
                        reconnect_backoff_us: 10_000,
                        ..SenderConfig::default()
                    },
                );
                sender.attach_metrics(metrics);
                let t0 = Instant::now();
                let now_us = || t0.elapsed().as_micros() as u64;
                for seq_no in 0..PER_CLIENT {
                    let b = beacon(client, seq_no);
                    while !sender.offer(&b, now_us()).expect("encodes") {
                        sender.pump(now_us());
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    if seq_no % 32 == 0 {
                        sender.pump(now_us());
                    }
                }
                let deadline = Duration::from_secs(120);
                while !sender.is_idle() && t0.elapsed() < deadline {
                    sender.pump(now_us());
                    std::thread::sleep(Duration::from_millis(1));
                }
                sender.abandon_pending();
                sender.stats()
            })
        })
        .collect();
    let stats: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("retry client"))
        .collect();
    proxy.shutdown();
    let ops = collector.shutdown();
    let snap = registry.snapshot();

    // The sender identity, judged on the registry alone. After the
    // drain + abandon, pending must be zero and the counters closed.
    let enqueued = get(&snap, "qtag_sender_enqueued_total");
    let acked = get(&snap, "qtag_sender_acked_total");
    let dropped = get(&snap, "qtag_sender_dropped_after_retries_total");
    let abandoned = get(&snap, "qtag_sender_abandoned_unconfirmed_total");
    let pending = get(&snap, "qtag_sender_pending");
    assert_eq!(
        enqueued,
        acked + dropped + abandoned + pending,
        "registry sender conservation"
    );
    assert_eq!(pending, 0, "every frame resolved");
    assert_eq!(abandoned, 0, "the drain finished: nothing left unconfirmed");

    // Registry vs the summed legacy stats, field by field.
    assert_eq!(enqueued, stats.iter().map(|s| s.enqueued).sum::<u64>());
    assert_eq!(acked, stats.iter().map(|s| s.acked).sum::<u64>());
    assert_eq!(
        dropped,
        stats.iter().map(|s| s.dropped_after_retries).sum::<u64>()
    );
    assert_eq!(
        abandoned,
        stats.iter().map(|s| s.abandoned_unconfirmed).sum::<u64>()
    );
    assert_eq!(
        get(&snap, "qtag_sender_retransmits_total"),
        stats.iter().map(|s| s.retransmits).sum::<u64>()
    );

    // Cross-side agreement: acks equal unique applied beacons (the
    // store deduplicates retransmits and the collector re-acks them).
    assert_eq!(acked, store.unique_beacons(), "{ops:?}");
    let hist = snap
        .histogram("qtag_sender_ack_latency_us")
        .expect("ack latency registered");
    assert_eq!(hist.count, acked, "one latency sample per acked frame");
    assert!(
        snap.histogram("qtag_sender_backoff_us").is_some(),
        "backoff histogram registered"
    );
}

/// Kill-and-recover soak (the durability tentpole, end to end): retry
/// clients stream through the fault proxy into a journaled daemon, the
/// proxy hard-kills the stream at a seeded crash point, the collector
/// is crash-stopped (in-flight batches discarded whole, no drain), and
/// the store is recovered from the WAL in a fresh backend. Post-crash:
///
/// * conservation with an in-flight term —
///   `enqueued == applied + in_flight_discarded`, `in_flight >= 0`,
///   and the decode identity still closes on the live registry;
/// * recovery is **bit-identical** to the live post-crash store
///   (records, counters, reports, rollups — journaling and applying
///   happen atomically under the shard lock, so the WAL can neither
///   lead nor trail the store across a crash);
/// * dedup state survives: re-applying an already-acked beacon to the
///   recovered store counts a duplicate, not a new unique.
#[test]
fn kill_and_recover_soak_conserves_and_recovery_is_bit_identical() {
    const CLIENTS: u64 = 2;
    const PER_CLIENT: u64 = 600;
    // The proxy reads ~2 KiB chunks; 1 200 frames of ~40 B coalesce
    // into roughly 25-30 chunks, so this lands inside the first blast
    // with retransmits still pending — a genuinely mid-stream kill.
    const CRASH_AFTER_CHUNKS: u64 = 25;

    // Scratch WAL dir: process id + pid-unique tag, no wall clock.
    let wal_dir = std::env::temp_dir().join(format!("qtag-kill-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create wal dir");
    let open = || {
        DurableBackend::open(DurableConfig {
            dir: wal_dir.clone(),
            shards: 2,
            sync: SyncPolicy::Batch,
        })
    };
    let (backend, fresh) = open().expect("open durable backend");
    assert_eq!(fresh.records_replayed, 0, "fresh dir");

    for client in 0..CLIENTS {
        for seq_no in 0..PER_CLIENT {
            let b = beacon(client, seq_no);
            backend.record_served(ServedImpression {
                impression_id: b.impression_id,
                campaign_id: b.campaign_id,
                os: b.os,
                browser: b.browser,
                site_type: b.site_type,
                ad_format: b.ad_format,
            });
        }
    }

    let collector = Collector::start_sharded_journaled(
        CollectorConfig::default(),
        backend.store().clone(),
        backend.journal(),
    )
    .expect("bind");
    let mut proxy_cfg = FaultProxyConfig::soak(collector.local_addr(), 0xD1ED);
    proxy_cfg.crash_after = Some(CRASH_AFTER_CHUNKS);
    let proxy = FaultProxy::start(proxy_cfg).expect("start proxy");
    let addr = proxy.local_addr();

    let registry = Arc::clone(collector.registry());
    let metrics = SenderMetrics::register(&registry, "qtag_sender");
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let mut sender = BeaconSender::new(
                    TcpTransport::new(addr),
                    SenderConfig {
                        seed: 0xDEAD_u64.wrapping_add(client),
                        ack_timeout_us: 100_000,
                        backoff_base_us: 2_000,
                        backoff_max_us: 40_000,
                        reconnect_backoff_us: 5_000,
                        max_attempts: 4,
                        ..SenderConfig::default()
                    },
                );
                sender.attach_metrics(metrics);
                let t0 = Instant::now();
                let now_us = || t0.elapsed().as_micros() as u64;
                for seq_no in 0..PER_CLIENT {
                    let b = beacon(client, seq_no);
                    let mut spins = 0u32;
                    while !sender.offer(&b, now_us()).expect("encodes") {
                        sender.pump(now_us());
                        std::thread::sleep(Duration::from_micros(500));
                        spins += 1;
                        if spins > 4_000 {
                            // The proxy is dead and the window never
                            // frees up; stop feeding.
                            sender.abandon_pending();
                            return sender.stats();
                        }
                    }
                    if seq_no % 32 == 0 {
                        sender.pump(now_us());
                    }
                }
                let deadline = Duration::from_secs(10);
                while !sender.is_idle() && t0.elapsed() < deadline {
                    sender.pump(now_us());
                    std::thread::sleep(Duration::from_millis(1));
                }
                sender.abandon_pending();
                sender.stats()
            })
        })
        .collect();

    // Wait for the proxy's crash point to fire, then hard-kill the
    // daemon: abort appliers first so queued batches are discarded
    // whole, never half-journaled.
    let t0 = Instant::now();
    while !proxy.has_crashed() && t0.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(proxy.has_crashed(), "crash point must fire mid-stream");
    let ops = collector.crash();
    let stats: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("retry client"))
        .collect();
    let pstats = proxy.stats();
    assert!(
        pstats
            .forwarded_chunks
            .load(std::sync::atomic::Ordering::Relaxed)
            >= CRASH_AFTER_CHUNKS,
        "crash point is a forwarded-chunk threshold"
    );
    assert_eq!(
        pstats.crashes.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "the crash point fires exactly once"
    );
    proxy.shutdown();

    // Sender-side conservation still closes: every enqueued frame is
    // acked, dropped after retries, or abandoned at the kill.
    let enqueued: u64 = stats.iter().map(|s| s.enqueued).sum();
    let acked: u64 = stats.iter().map(|s| s.acked).sum();
    let dropped: u64 = stats.iter().map(|s| s.dropped_after_retries).sum();
    let abandoned: u64 = stats.iter().map(|s| s.abandoned_unconfirmed).sum();
    assert_eq!(enqueued, acked + dropped + abandoned, "sender identity");
    assert!(acked > 0, "crash point must land mid-stream, not before it");

    // Daemon-side conservation with the in-flight term: beacons are
    // counted at enqueue into the shard channels, so the crash leaves
    // `in_flight_discarded = enqueued_into_ingest - applied` batches
    // that were accepted but never journaled or applied.
    let live = backend.store();
    let applied_live = live.unique_beacons() + live.total_duplicates() + live.orphan_beacons();
    assert!(
        ops.ingest.beacons >= applied_live,
        "applied cannot exceed ingest-accepted"
    );
    let in_flight_discarded = ops.ingest.beacons - applied_live;
    let snap = registry.snapshot();
    let decoded = get(&snap, "qtag_collectd_frames_decoded_total");
    let ingested = get(&snap, "qtag_ingest_beacons_total");
    let shed = get(&snap, "qtag_ingest_shed_beacons_total");
    let rejected = get(&snap, "qtag_ingest_rejected_after_shutdown_total");
    assert_eq!(decoded, ingested + shed + rejected, "decode identity");
    assert_eq!(ingested, applied_live + in_flight_discarded, "conservation");
    assert_eq!(live.orphan_beacons(), 0, "every impression was registered");

    // Snapshot the live post-crash state, then recover from disk.
    let live_unique = live.unique_beacons();
    let live_dups = live.total_duplicates();
    let live_served = live.served_count();
    let live_report = ReportBuilder::per_campaign_sharded(live);
    let live_hourly = backend.merged_hourly().export_state();
    let live_daily = backend.merged_daily().export_state();
    let wal_records: u64 = backend.stats().snapshot().records_appended;
    drop(backend);

    let (recovered, report) = open().expect("recover from WAL");
    assert_eq!(report.truncated_tails, 0, "batch appends are whole frames");
    assert_eq!(report.records_replayed, wal_records);
    let store = recovered.store();
    assert_eq!(store.unique_beacons(), live_unique, "uniques recovered");
    assert_eq!(
        store.total_duplicates(),
        live_dups,
        "dup counters recovered"
    );
    assert_eq!(store.served_count(), live_served, "registers recovered");
    assert_eq!(
        ReportBuilder::per_campaign_sharded(store),
        live_report,
        "recovered reports bit-identical to live post-crash reports"
    );
    assert_eq!(recovered.merged_hourly().export_state(), live_hourly);
    assert_eq!(recovered.merged_daily().export_state(), live_daily);

    // Exactly-once survives recovery: a beacon taken from the WAL
    // itself (journaled, therefore applied) re-sent to the recovered
    // store is a duplicate, not a second apply — the SeqSeen dedup
    // state came back with the replay.
    let journaled = (0..2)
        .filter_map(|shard| {
            let log = replay(&wal_path(&wal_dir, shard)).expect("read wal");
            log.records.into_iter().find_map(|r| match r {
                WalRecord::Beacon(b) => Some(b),
                _ => None,
            })
        })
        .next()
        .expect("the crash landed mid-stream, so beacons were journaled");
    recovered.apply(&journaled);
    assert_eq!(recovered.store().unique_beacons(), live_unique);
    assert_eq!(recovered.store().total_duplicates(), live_dups + 1);
    drop(recovered);
    std::fs::remove_dir_all(&wal_dir).unwrap();
}
