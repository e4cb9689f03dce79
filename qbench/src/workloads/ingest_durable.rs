//! `ingest_durable` — closed loop at full speed, two client threads.
//!
//! Each client holds one fire-and-forget binary connection over
//! loopback into an in-process reactor daemon (2 shards, batch 64, 2
//! reactor workers) on the durable backend with batch sync. The corpus
//! is Q-Tag beacon streams captured from simulated sessions in set-up,
//! tiled over fresh impression ids, 99 campaigns and one simulated week,
//! encoded on the fly; 0.5 % of frames get one payload byte flipped and
//! 1 % of beacons are sent twice, so resync and dedupe run. The back
//! half (decode, reactor, inlet hand-off, shard apply, WAL append,
//! fsync, recovery) does all the work and the simulator none.
//!
//! The run repeats fixed-size blocks — fresh WAL directory, fresh
//! daemon, stream, graceful shutdown, flush, then one recovery of the
//! block's WAL — until the time is up, and reports medians over blocks.

use crate::corpus::{self, Templates};
use crate::harness::{repeated_setup, Latency, Report, RunArgs, TAIL_CAP};
use crate::sys::{self, ScratchDir};
use crate::trace::{self, Span, Tracer};
use crate::{stats, workloads};
use bytes::{Buf, BytesMut};
use qtag_collectd::{Collector, OpsSnapshot};
use qtag_server::{CampaignReport, IngestConfig, IngestService, ReportBuilder, TimelineState};
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, SyncPolicy};
use qtag_wire::framing::{encode_frame, FrameEvent};
use qtag_wire::{Beacon, FrameDecoder};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
/// Bytes of a length-prefixed binary frame.
const FRAME_BYTES: usize = 2 + qtag_wire::binary::ENCODED_LEN;
/// A client writes when this much is encoded.
const WRITE_CHUNK: usize = 32 * 1024;
/// How long a block waits for the daemon to read what the clients
/// wrote before it shuts the daemon down anyway (and fails its checks).
const READ_CATCH_UP: Duration = Duration::from_secs(10);
/// Out of 10 000 beacons, this many get a payload byte flipped …
const CORRUPT_PER_10K: u64 = 50;
/// … and this many others are sent twice.
const DUPLICATE_PER_10K: u64 = 100;

struct Scale {
    templates: usize,
    impressions_per_block: u64,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            templates: 60,
            impressions_per_block: 4_000,
        }
    } else {
        // About 550 k beacons, a quarter of a second of streaming; with
        // registration, shutdown, flush and one recovery a block takes
        // under a second, so a run's medians rest on some twenty blocks.
        // One block moves by 10 to 15 % on this box whatever its size
        // (2 cores, 7 threads, a shared disk), and bigger blocks moved
        // more, not less: many small samples are what steadies it.
        Scale {
            templates: 2_000,
            impressions_per_block: 200_000,
        }
    }
}

/// What happens to one beacon on its way out of a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Sent once, intact.
    None,
    /// Sent once with one payload byte flipped.
    Corrupt,
    /// Sent twice, intact.
    Duplicate,
}

/// The fault of beacon number `n` of impression `k`. Deterministic per
/// seed; the two fault kinds never fall on the same beacon.
pub fn fault_of(seed: u64, k: u64, n: u64) -> Fault {
    match corpus::mix(seed, k, n) % 10_000 {
        r if r < CORRUPT_PER_10K => Fault::Corrupt,
        r if r < CORRUPT_PER_10K + DUPLICATE_PER_10K => Fault::Duplicate,
        _ => Fault::None,
    }
}

/// What one generator pass over a range of impressions put on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    /// Frames written (duplicates and corrupted frames included).
    pub frames: u64,
    /// Distinct beacons among them.
    pub distinct: u64,
    /// Frames with a flipped byte.
    pub corrupted: u64,
    /// Beacons sent a second time.
    pub duplicated: u64,
}

impl Sent {
    fn add(&mut self, o: &Sent) {
        self.frames += o.frames;
        self.distinct += o.distinct;
        self.corrupted += o.corrupted;
        self.duplicated += o.duplicated;
    }
}

/// Encodes the impressions `first, first + step, …` below `end` into
/// `sink`, chunk by chunk, applying the fault plan.
pub fn generate(
    templates: &Templates,
    seed: u64,
    (first, end, step): (u64, u64, u64),
    mut sink: impl FnMut(&[u8]),
) -> Sent {
    let mut sent = Sent::default();
    let mut buf = BytesMut::with_capacity(WRITE_CHUNK + 2 * FRAME_BYTES);
    let mut k = first;
    while k < end {
        for (n, beacon) in templates.tile(k).beacons().enumerate() {
            let fault = fault_of(seed, k, n as u64);
            let at = buf.len();
            {
                let _g = trace::span(Span::WireEncode, k);
                encode_frame(&beacon, &mut buf).expect("a captured beacon encodes");
            }
            sent.frames += 1;
            sent.distinct += 1;
            match fault {
                Fault::None => {}
                Fault::Corrupt => {
                    // Past the length prefix and the magic, so the
                    // decoder sees an honest header with a bad checksum:
                    // exactly one corrupt frame, no resync.
                    buf[at + 6 + (k as usize + n) % 30] ^= 0x10;
                    sent.corrupted += 1;
                }
                Fault::Duplicate => {
                    // (The vendored `BytesMut` has no `extend_from_within`.)
                    let mut frame = [0u8; FRAME_BYTES];
                    frame.copy_from_slice(&buf[at..at + FRAME_BYTES]);
                    buf.extend_from_slice(&frame);
                    sent.frames += 1;
                    sent.duplicated += 1;
                }
            }
        }
        if buf.len() >= WRITE_CHUNK {
            sink(&buf);
            let written = buf.len();
            buf.advance(written); // the vendored `BytesMut` has no `clear`
        }
        k += step;
    }
    if !buf.is_empty() {
        sink(&buf);
    }
    sent
}

/// One client thread's report.
struct ClientDone {
    sent: Sent,
    cpu_s: f64,
    wall_s: f64,
    tracer: Tracer,
}

fn client(
    templates: &Templates,
    seed: u64,
    addr: SocketAddr,
    range: (u64, u64, u64),
) -> ClientDone {
    let started = Instant::now();
    let cpu_before = sys::thread_cpu_s();
    let mut sock = TcpStream::connect(addr).expect("the daemon listens on loopback");
    let sent = generate(templates, seed, range, |chunk| {
        let _g = trace::span(Span::CollectdSocketWrite, 0);
        sock.write_all(chunk)
            .expect("the daemon reads what is sent");
    });
    drop(sock);
    ClientDone {
        sent,
        cpu_s: sys::thread_cpu_s() - cpu_before,
        wall_s: started.elapsed().as_secs_f64(),
        tracer: trace::take(),
    }
}

/// What one block measured.
struct Block {
    /// Peak resident memory while this block ran (the high-water mark is
    /// reset when a block starts).
    peak_rss_mb: f64,
    sent: Sent,
    stream_s: f64,
    recover_s: f64,
    drain_ms: f64,
    ops: OpsSnapshot,
    checks_ok: bool,
    check_detail: String,
    busy_share: f64,
    traced: bool,
    layer: Option<BlockLayer>,
}

/// Per-layer readings of a traced block.
struct BlockLayer {
    journal: (u64, u64, u64),
    store: qtag_store::StoreStatsSnapshot,
    apply_sum_us: u64,
    queue_depth_max: u64,
    bytes_per_read: f64,
    duplicates: u64,
    records_replayed: u64,
    tracer: Tracer,
}

fn durable(dir: &Path, sync: SyncPolicy) -> (DurableBackend, qtag_store::RecoveryReport) {
    DurableBackend::open(DurableConfig {
        dir: dir.to_path_buf(),
        shards: workloads::SHARDS,
        sync,
    })
    .expect("the scratch directory is writable")
}

/// What a reader sees: per-campaign reports and the hourly rollup.
fn views(backend: &DurableBackend) -> (Vec<CampaignReport>, TimelineState, u64) {
    (
        ReportBuilder::per_campaign_sharded(backend.store()),
        backend.merged_hourly().export_state(),
        backend.store().unique_beacons(),
    )
}

fn run_block(
    templates: &Templates,
    scratch: &ScratchDir,
    seed: u64,
    block: u64,
    impressions: u64,
    traced: bool,
) -> Block {
    let dir = scratch.sub("wal").expect("scratch sub-directory");
    sys::reset_peak_rss();
    let (backend, _) = durable(&dir, SyncPolicy::Batch);
    // Impression ids are fresh per block: nothing a block sends was ever
    // sent before.
    let first = block * impressions;
    let end = first + impressions;
    for k in first..end {
        backend.record_served(templates.tile(k).served());
    }
    let (journal, timed_journal) = workloads::daemon_journal(&backend, traced);
    let collector = Collector::start_sharded_journaled(
        workloads::daemon_config(),
        backend.store().clone(),
        Some(journal),
    )
    .expect("the daemon binds a loopback port");
    let addr = collector.local_addr();
    let registry = collector.registry().clone();
    let ring = collector.trace().clone();

    trace::set_enabled(traced);
    let stop_polling = AtomicBool::new(false);
    let started = Instant::now();
    let (clients, queue_depth_max) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(templates, seed, addr, (first + c, end, CLIENTS))))
            .collect();
        let poller = traced.then(|| workloads::watch_queue_depth(s, &registry, &stop_polling));
        let clients: Vec<ClientDone> = handles
            .into_iter()
            .map(|h| h.join().expect("a client thread finishes"))
            .collect();
        stop_polling.store(true, Ordering::Relaxed); // ordering: see above
        let depth = poller.map_or(0, |p| p.join().expect("the poller finishes"));
        (clients, depth)
    });
    let clients_done = Instant::now();
    // The reactor's shutdown drain reads each socket until it is quiet,
    // not until end of stream: bytes still in a client's send queue at
    // that moment are lost with the connection. An operator stops a
    // daemon after its producers drained; so does the benchmark.
    let written: u64 = clients.iter().map(|c| c.sent.frames).sum::<u64>() * FRAME_BYTES as u64;
    while collector.ops_snapshot().collector.bytes_read < written
        && clients_done.elapsed() < READ_CATCH_UP
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let ops = {
        let _g = trace::span(Span::CollectdShutdown, block);
        collector.shutdown()
    };
    {
        let _g = trace::span(Span::StoreFlush, block);
        backend.flush().expect("the WAL flushes");
    }
    let stream_s = started.elapsed().as_secs_f64();
    let drain_ms = clients_done.elapsed().as_secs_f64() * 1e3;
    trace::set_enabled(false);

    let mut sent = Sent::default();
    for c in &clients {
        sent.add(&c.sent);
    }
    let (live_reports, live_hourly, live_unique) = views(&backend);
    let store_stats = backend.stats().snapshot();
    let duplicates = backend.store().total_duplicates();
    drop(backend);

    // Recovery of the block's WAL. The file was written a moment ago, so
    // the page cache is warm: this times replay, not the disk.
    let recover_start = Instant::now();
    let (recovered, recovery) = {
        let _g = trace::span(Span::StoreRecover, block);
        durable(&dir, SyncPolicy::Batch)
    };
    let recover_s = recover_start.elapsed().as_secs_f64();
    let (rec_reports, rec_hourly, rec_unique) = views(&recovered);
    drop(recovered);

    let conserved = ops.conserves(sent.frames)
        && ops.collector.corrupt_frames == sent.corrupted
        && ops.ingest.shed_beacons == 0
        && ops.ingest.rejected_after_shutdown == 0;
    let unique_ok = live_unique == sent.distinct - sent.corrupted && duplicates == sent.duplicated;
    let recovered_ok =
        rec_reports == live_reports && rec_hourly == live_hourly && rec_unique == live_unique;
    let check_detail = format!(
        "block {block}: sent {} = applied {} + corrupt {} + shed {} + rejected {}; \
         injected corrupt {}; unique {} of {} distinct; duplicates {} of {}; recovered equal: {}",
        sent.frames,
        ops.ingest.beacons,
        ops.collector.corrupt_frames,
        ops.ingest.shed_beacons,
        ops.ingest.rejected_after_shutdown,
        sent.corrupted,
        live_unique,
        sent.distinct,
        duplicates,
        sent.duplicated,
        recovered_ok
    );

    let busy_share = clients.iter().map(|c| c.cpu_s / c.wall_s).sum::<f64>() / CLIENTS as f64;
    let layer = traced.then(|| {
        let mut tracer = trace::take();
        for c in clients {
            tracer.merge(c.tracer);
        }
        BlockLayer {
            journal: timed_journal.as_ref().map_or((0, 0, 0), |t| t.totals()),
            store: store_stats,
            apply_sum_us: registry
                .snapshot()
                .histogram("qtag_ingest_apply_latency_us")
                .map_or(0, |h| h.sum),
            queue_depth_max,
            bytes_per_read: workloads::bytes_per_read(&ring),
            duplicates,
            records_replayed: recovery.records_replayed,
            tracer,
        }
    });
    scratch.remove(&dir);
    Block {
        peak_rss_mb: sys::peak_rss_mb(),
        sent,
        stream_s,
        recover_s,
        drain_ms,
        ops,
        checks_ok: conserved && unique_ok && recovered_ok,
        check_detail,
        busy_share,
        traced,
        layer,
    }
}

/// What the socket-free pass measured.
struct SocketFree {
    wall_s: f64,
    frames: u64,
    decoded: u64,
    tracer: Tracer,
}

/// The same corpus without sockets or reactor: the two generator threads
/// decode their own bytes and hand the beacons to an ingest service on
/// the same durable configuration through `BeaconInlet::send_batch`.
fn socket_free_pass(
    templates: &Templates,
    scratch: &ScratchDir,
    seed: u64,
    block: u64,
    impressions: u64,
) -> SocketFree {
    let dir = scratch.sub("wal-free").expect("scratch sub-directory");
    let (backend, _) = durable(&dir, SyncPolicy::Batch);
    let first = block * impressions;
    let end = first + impressions;
    for k in first..end {
        backend.record_served(templates.tile(k).served());
    }
    let daemon = workloads::daemon_config();
    let service = IngestService::start_sharded(
        backend.store().clone(),
        IngestConfig {
            workers: 1,
            batch: daemon.batch,
            inlet_capacity: daemon.inlet_capacity,
            metrics: None,
            journal: backend.journal(),
        },
    );
    let started = Instant::now();
    let threads: Vec<(Sent, u64, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let inlet = service.inlet();
                s.spawn(move || {
                    let mut decoder = FrameDecoder::new();
                    let mut batch: Vec<Beacon> = Vec::new();
                    let mut decoded = 0u64;
                    let sent = generate(templates, seed, (first + c, end, CLIENTS), |chunk| {
                        {
                            let _g = trace::span(Span::WireDecode, 0);
                            decoder.extend(chunk);
                            batch.extend(decoder.drain().into_iter().filter_map(|ev| match ev {
                                FrameEvent::Beacon(b) => Some(b),
                                FrameEvent::Corrupt(_) => None,
                            }));
                        }
                        decoded += batch.len() as u64;
                        let _g = trace::span(Span::ServerInlet, 0);
                        let outcome = inlet.send_batch(&batch);
                        assert_eq!(outcome.rejected + outcome.shed, 0, "the service is up");
                        batch.clear();
                    });
                    (sent, decoded, trace::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a generator thread finishes"))
            .collect()
    });
    service.shutdown();
    backend.flush().expect("the WAL flushes");
    let wall_s = started.elapsed().as_secs_f64();
    drop(backend);
    scratch.remove(&dir);
    let mut out = SocketFree {
        wall_s,
        frames: 0,
        decoded: 0,
        tracer: Tracer::new(),
    };
    for (sent, decoded, tracer) in threads {
        out.frames += sent.frames;
        out.decoded += decoded;
        out.tracer.merge(tracer);
    }
    out
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let scale = scale(args.quick);
    let scratch = ScratchDir::create().expect("qbench/out is writable");
    let (templates, setup_s, setups) = repeated_setup(args.quick, || {
        Templates::capture(args.seed, scale.templates)
    });

    let mut blocks: Vec<Block> = Vec::new();
    let started = Instant::now();
    while blocks.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let index = blocks.len() as u64;
        // A traced run alternates blocks without and with the wrappers.
        let traced = args.trace && index % 2 == 1;
        blocks.push(run_block(
            &templates,
            &scratch,
            args.seed,
            index,
            scale.impressions_per_block,
            traced,
        ));
    }
    if args.trace && blocks.len() < 2 {
        let index = blocks.len() as u64;
        blocks.push(run_block(
            &templates,
            &scratch,
            args.seed,
            index,
            scale.impressions_per_block,
            true,
        ));
    }

    let mut report = Report::default();
    let mut total = Sent::default();
    for b in &blocks {
        total.add(&b.sent);
        report.failed += b.ops.ingest.shed_beacons
            + b.ops.ingest.rejected_after_shutdown
            + b.ops.collector.corrupt_frames.abs_diff(b.sent.corrupted);
    }
    report.attempted = total.frames;
    let bad: Vec<&Block> = blocks.iter().filter(|b| !b.checks_ok).collect();
    report.check(
        "conserved_deduped_and_recovered",
        bad.is_empty(),
        match bad.first() {
            Some(b) => b.check_detail.clone(),
            None => format!("{} blocks; e.g. {}", blocks.len(), blocks[0].check_detail),
        },
    );
    let busy = stats::median(&blocks.iter().map(|b| b.busy_share).collect::<Vec<_>>());
    report.check(
        "generator_is_not_the_bottleneck",
        busy <= 0.5,
        format!("gen.busy_share {busy:.3} <= 0.5"),
    );
    report.info("blocks", blocks.len());
    report.info("beacons_per_block", blocks[0].sent.frames);
    report.info("templates", templates.len());
    report.info(
        "beacons_per_impression",
        format!("{:.2}", templates.mean_beacons()),
    );

    if args.trace {
        layer_metrics(
            &mut report,
            &templates,
            &scratch,
            args,
            &scale,
            &mut blocks,
            busy,
        );
        return report;
    }

    let rates = |f: fn(&Block) -> f64| -> Vec<f64> { blocks.iter().map(f).collect() };
    let n = blocks.len() as u64;
    let recover = rates(|b| b.recover_s);
    report.metric("setup_s", setup_s, "s", setups);
    report.metric(
        "impressions_per_s",
        stats::median(&rates(|b| b.sent.frames as f64 / b.stream_s))
            / (total.frames as f64 / (scale.impressions_per_block * n) as f64),
        "1/s",
        n,
    );
    report.metric(
        "beacons_per_s",
        stats::median(&rates(|b| b.sent.frames as f64 / b.stream_s)),
        "1/s",
        n,
    );
    // The wait an operator of this daemon sees: a restart replays the
    // WAL. A run has a few dozen blocks, so no percentile above the
    // median has ten samples beyond it and the tail is the median.
    let lat = Latency::of(&rates(|b| b.recover_s * 1e3), TAIL_CAP);
    report.info(
        "drain_p50_ms",
        format!("{:.3}", stats::median(&rates(|b| b.drain_ms))),
    );
    report.info(
        "latency_tail",
        format!("p{}_median_of_{}_windows", lat.tail_percentile, lat.windows),
    );
    report.metric("latency_p50_ms", lat.p50_ms, "ms", lat.samples);
    report.metric("latency_tail_ms", lat.tail_ms, "ms", lat.samples);
    // Later blocks start on a heap that still holds what the allocator
    // kept of earlier ones, by an amount that differs from run to run
    // (90 MB for the first block, 125 to 190 MB for the twelfth). That
    // only ever adds, so the smallest block peak is what a block needs.
    report.metric(
        "peak_rss_mb",
        rates(|b| b.peak_rss_mb)
            .into_iter()
            .fold(f64::INFINITY, f64::min),
        "MB",
        n,
    );
    report.metric("recover_s", stats::median(&recover), "s", n);
    report
}

fn layer_metrics(
    report: &mut Report,
    templates: &Templates,
    scratch: &ScratchDir,
    args: &RunArgs,
    scale: &Scale,
    blocks: &mut [Block],
    busy: f64,
) {
    let untraced_s: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.traced)
        .map(|b| b.stream_s)
        .collect();
    let traced_s: Vec<f64> = blocks
        .iter()
        .filter(|b| b.traced)
        .map(|b| b.stream_s)
        .collect();

    // Socket-free pass and post-compaction recovery, once, on fresh ids.
    trace::set_enabled(true);
    let next = blocks.len() as u64;
    let free = socket_free_pass(
        templates,
        scratch,
        args.seed,
        next,
        scale.impressions_per_block,
    );
    let (compact_ms, snapshot_ms) = compaction(templates, scratch, scale.impressions_per_block / 4);
    trace::set_enabled(false);
    let mut tracer = trace::take();
    tracer.merge(free.tracer);

    let mut frames = 0u64;
    let mut journal = (0u64, 0u64, 0u64);
    let mut apply_sum_us = 0u64;
    let mut applied = 0u64;
    let mut fsyncs = Vec::new();
    let mut wal_bytes = 0u64;
    let mut wal_records = 0u64;
    let mut depth_max = 0u64;
    let mut bytes_per_read = Vec::new();
    let mut traced_blocks = 0u64;
    let mut last = None;
    for b in blocks.iter_mut() {
        let Some(layer) = b.layer.take() else {
            continue;
        };
        traced_blocks += 1;
        frames += b.sent.frames;
        journal.0 += layer.journal.0;
        journal.1 += layer.journal.1;
        journal.2 += layer.journal.2;
        apply_sum_us += layer.apply_sum_us;
        applied += b.ops.ingest.beacons;
        fsyncs.push(layer.store.fsyncs as f64);
        wal_bytes += layer.store.bytes_appended;
        wal_records += layer.store.records_appended;
        depth_max = depth_max.max(layer.queue_depth_max);
        bytes_per_read.push(layer.bytes_per_read);
        tracer.merge(layer.tracer);
        last = Some((b.ops, layer.duplicates, layer.records_replayed));
    }
    tracer.add(Span::StoreWalAppend, journal.0, journal.2, journal.2);
    let (ops, duplicates, replayed) = last.expect("a traced run has a traced block");
    let tcp_s = stats::median(&traced_s);
    let agg = |s: Span| tracer.agg(s);
    let per = |ns: u64, count: u64| ns as f64 / count.max(1) as f64;
    let mut m = |name, value: f64, unit| report.metric(name, value, unit, traced_blocks);

    m(
        "wire.encode_ns_per_beacon",
        per(agg(Span::WireEncode).total_ns, frames + free.frames),
        "ns",
    );
    m(
        "wire.decode_ns_per_beacon",
        per(agg(Span::WireDecode).total_ns, free.decoded),
        "ns",
    );
    m(
        "collectd.connections_accepted",
        ops.collector.connections_accepted as f64,
        "count",
    );
    m(
        "collectd.bytes_per_read",
        stats::median(&bytes_per_read),
        "bytes",
    );
    m(
        "collectd.shed_beacons",
        ops.ingest.shed_beacons as f64,
        "count",
    );
    m(
        "collectd.corrupt_frames",
        ops.collector.corrupt_frames as f64,
        "count",
    );
    m(
        "collectd.socket_share_pct",
        (1.0 - free.wall_s / tcp_s) * 100.0,
        "%",
    );
    m(
        "server.inlet_ns_per_beacon",
        per(agg(Span::ServerInlet).total_ns, free.decoded),
        "ns",
    );
    m(
        "server.apply_ns_per_beacon",
        per(apply_sum_us * 1_000, applied),
        "ns",
    );
    m(
        "server.beacons_per_batch",
        ops.ingest.beacons as f64 / ops.ingest.beacon_batches.max(1) as f64,
        "count",
    );
    m("server.queue_depth_max", depth_max as f64, "count");
    m("server.duplicates", duplicates as f64, "count");
    m(
        "store.wal_append_ns_per_beacon",
        per(journal.2, journal.1),
        "ns",
    );
    m("store.fsyncs", stats::median(&fsyncs), "count");
    m(
        "store.wal_bytes_per_beacon",
        per(wal_bytes, wal_records),
        "bytes",
    );
    m(
        "store.flush_ms",
        per(agg(Span::StoreFlush).total_ns, agg(Span::StoreFlush).count) / 1e6,
        "ms",
    );
    m("store.compact_ms", compact_ms, "ms");
    m("store.recover_snapshot_ms", snapshot_ms, "ms");
    m("store.records_replayed", replayed as f64, "count");
    m("gen.busy_share", busy, "ratio");
    m(
        "trace_overhead_pct",
        (tcp_s / stats::median(&untraced_s) - 1.0) * 100.0,
        "%",
    );
    let traced_wall_ns = (traced_s.iter().sum::<f64>() * 1e9) as u64;
    report.trace = Some((tracer, traced_wall_ns));
}

/// Compaction of a quarter-block store written directly, and the
/// recovery that then loads the snapshot. Returns both in ms.
fn compaction(templates: &Templates, scratch: &ScratchDir, impressions: u64) -> (f64, f64) {
    let dir = scratch.sub("wal-compact").expect("scratch sub-directory");
    let (backend, _) = durable(&dir, SyncPolicy::Batch);
    // Ids far above any block's, though this store is its own anyway.
    let first = 1 << 40;
    for k in first..first + impressions {
        let tile = templates.tile(k);
        backend.record_served(tile.served());
        for b in tile.beacons() {
            backend.apply(&b);
        }
    }
    backend.flush().expect("the WAL flushes");
    let live = views(&backend);
    let start = Instant::now();
    {
        let _g = trace::span(Span::StoreCompact, 0);
        backend.compact().expect("compaction writes its snapshots");
    }
    let compact_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(backend);
    let start = Instant::now();
    let (recovered, recovery) = {
        let _g = trace::span(Span::StoreRecover, 0);
        durable(&dir, SyncPolicy::Batch)
    };
    let snapshot_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(recovery.records_replayed, 0, "compaction truncated the WAL");
    assert!(views(&recovered) == live, "the snapshot restores the store");
    drop(recovered);
    scratch.remove(&dir);
    (compact_ms, snapshot_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::TimedJournal;
    use qtag_server::ShardJournal;

    #[test]
    fn fault_plan_is_deterministic_exclusive_and_near_its_rates() {
        let (mut corrupt, mut dup) = (0u64, 0u64);
        for k in 0..20_000 {
            for n in 0..5 {
                let f = fault_of(9, k, n);
                assert_eq!(f, fault_of(9, k, n));
                corrupt += u64::from(f == Fault::Corrupt);
                dup += u64::from(f == Fault::Duplicate);
            }
        }
        // 100 000 draws at 0.5 % and 1 %.
        assert!((350..650).contains(&corrupt), "{corrupt}");
        assert!((800..1200).contains(&dup), "{dup}");
    }

    #[test]
    fn generated_stream_decodes_to_its_own_accounting() {
        let templates = Templates::capture(3, 30);
        let mut wire = Vec::new();
        let sent = generate(&templates, 3, (0, 400, 1), |c| wire.extend_from_slice(c));
        assert_eq!(wire.len() as u64, sent.frames * FRAME_BYTES as u64);
        assert_eq!(sent.frames, sent.distinct + sent.duplicated);
        assert!(sent.corrupted > 0 && sent.duplicated > 0, "{sent:?}");
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        let events = dec.drain();
        let corrupt = events
            .iter()
            .filter(|e| matches!(e, FrameEvent::Corrupt(_)))
            .count() as u64;
        assert_eq!(
            corrupt, sent.corrupted,
            "one corrupt event per flipped frame"
        );
        assert_eq!(
            events.len() as u64,
            sent.frames,
            "no resync swallowed a frame"
        );
        assert_eq!(dec.skipped_bytes(), 0);
        // Split across two clients, the same beacons go out.
        let mut halves = Sent::default();
        for c in 0..2 {
            halves.add(&generate(&templates, 3, (c, 400, 2), |_| {}));
        }
        assert_eq!(halves, sent);
    }

    #[test]
    fn timed_journal_writes_a_byte_identical_wal() {
        let scratch = ScratchDir::create().unwrap();
        let templates = Templates::capture(4, 20);
        let write = |name: &str, timed: bool| {
            let dir = scratch.sub(name).unwrap();
            let (backend, _) = durable(&dir, SyncPolicy::NoSync);
            let journal = backend.journal().unwrap();
            let journal: std::sync::Arc<dyn ShardJournal> = if timed {
                TimedJournal::new(journal)
            } else {
                journal
            };
            for k in 0..200 {
                let tile = templates.tile(k);
                backend.record_served(tile.served());
                let batch: Vec<Beacon> = tile.beacons().collect();
                // What a shard applier does: apply under the shard lock,
                // then journal the batch with its outcomes.
                let shard = backend.store().shard_of(tile.impression_id);
                let mut store = backend.store().shard(shard).lock();
                let outcomes: Vec<_> = batch.iter().map(|b| store.apply(b)).collect();
                journal.append_beacons(shard, &batch, &outcomes);
            }
            backend.flush().unwrap();
            drop(backend);
            (0..workloads::SHARDS)
                .map(|s| std::fs::read(qtag_store::wal_path(&dir, s)).unwrap())
                .collect::<Vec<_>>()
        };
        let bare = write("bare", false);
        let timed = write("timed", true);
        assert!(bare.iter().all(|w| !w.is_empty()));
        assert_eq!(bare, timed);
    }
}
