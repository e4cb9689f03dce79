//! The daemon: listener, acceptor thread, connection supervision,
//! graceful shutdown.

use crate::config::CollectorConfig;
use crate::connection::{self, ConnCtx, ConnObs};
#[cfg(target_os = "linux")]
use crate::reactor::{self, NewConn};
use crate::stats::{CollectorStats, OpsSnapshot};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::time::Instant;
use crate::sync::{thread, Arc};
#[cfg(target_os = "linux")]
use crossbeam::channel::{unbounded, Sender};
use qtag_obs::{Registry, TraceRing};
use qtag_server::{
    IngestConfig, IngestMetrics, IngestService, IngestStats, ShardJournal, ShardedStore,
};
use std::io;
use std::net::{SocketAddr, TcpListener};

/// A running collector daemon. Start with [`Collector::start_sharded`], stop
/// with [`Collector::shutdown`] (graceful: drains in-flight frames
/// into the store before returning).
pub struct Collector {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    ingest: Option<IngestService>,
    ingest_stats: Arc<IngestStats>,
    stats: Arc<CollectorStats>,
    store: ShardedStore,
    registry: Arc<Registry>,
    trace: Arc<TraceRing>,
}

impl Collector {
    /// Binds the listener and spawns the acceptor over a sharded
    /// store: one applier thread per shard, connection threads hand
    /// off decoded beacons in per-read-iteration batches routed by
    /// impression-id hash.
    pub fn start_sharded(cfg: CollectorConfig, store: ShardedStore) -> io::Result<Self> {
        Self::start_sharded_journaled(cfg, store, None)
    }

    /// [`Collector::start_sharded`] with a write-ahead journal hook:
    /// when `journal` is `Some`, each shard applier journals every
    /// beacon batch inside the shard's store lock before applying it
    /// (the durable backend from `qtag-store` implements the trait).
    /// `None` is exactly the in-memory daemon.
    pub fn start_sharded_journaled(
        cfg: CollectorConfig,
        store: ShardedStore,
        journal: Option<Arc<dyn ShardJournal>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.bind)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        // One registry + trace ring per daemon: every subsystem
        // (collector sockets, ingest appliers, connection spans)
        // registers into this single observable surface.
        let registry = Arc::new(Registry::new());
        /// Capacity of the daemon's trace-event ring (per-stage spans:
        /// decode → inlet → shard apply → ack). The ring overwrites its
        /// oldest events when full; it never blocks or allocates on the
        /// hot path.
        const TRACE_CAPACITY: usize = 4096;
        let trace = Arc::new(TraceRing::new(TRACE_CAPACITY));
        let metrics = IngestMetrics::new(&registry, Some(Arc::clone(&trace)));

        let ingest = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                // Parser workers serve only the chunk path, which the
                // daemon never feeds: connections decode in-line and use
                // the inlet.
                workers: 1,
                batch: cfg.batch,
                inlet_capacity: cfg.inlet_capacity,
                metrics: Some(Arc::clone(&metrics)),
                journal,
            },
        );
        let ingest_stats = Arc::clone(ingest.stats_arc());
        let stats = Arc::new(CollectorStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));

        stats.register(&registry, "qtag_collectd");
        ingest_stats.register(&registry, "qtag_ingest");
        metrics.register_queue_depth(&registry, &ingest_stats);

        let ctx_proto = ConnCtx {
            cfg: Arc::new(cfg),
            stats: Arc::clone(&stats),
            inlet: ingest.inlet(),
            shutdown: Arc::clone(&shutdown),
            obs: ConnObs {
                trace: Some(Arc::clone(&trace)),
                epoch: Instant::now(),
                conn_id: 0,
            },
        };
        let acceptor = thread::spawn(move || accept_loop(listener, ctx_proto));

        Ok(Collector {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
            ingest: Some(ingest),
            ingest_stats,
            stats,
            store,
            registry,
            trace,
        })
    }

    /// The actually-bound address (useful with a `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live daemon counters.
    pub fn stats(&self) -> &Arc<CollectorStats> {
        &self.stats
    }

    /// The sharded store beacons aggregate into.
    pub fn sharded_store(&self) -> &ShardedStore {
        &self.store
    }

    /// The daemon's metric registry: every collector, ingest, and
    /// apply-path metric in one named surface. Clone the `Arc` to keep
    /// reading after [`Collector::shutdown`] consumes the daemon.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The per-stage trace-event ring (decode → inlet → shard apply →
    /// ack spans).
    pub fn trace(&self) -> &Arc<TraceRing> {
        &self.trace
    }

    /// Prometheus text exposition of the full registry.
    pub fn metrics_text(&self) -> String {
        self.registry.render_prometheus()
    }

    /// JSON exposition of the full registry (pretty-printed).
    pub fn metrics_json(&self) -> String {
        self.registry.render_json()
    }

    /// Combined daemon + ingestion counters at this instant.
    pub fn ops_snapshot(&self) -> OpsSnapshot {
        OpsSnapshot {
            collector: self.stats.snapshot(),
            ingest: self.ingest_stats.snapshot(),
        }
    }

    /// Graceful shutdown, in dependency order: stop accepting, let
    /// every connection thread drain its socket and decoder, drop the
    /// beacon senders, then drain the ingestion service so every
    /// accepted beacon reaches the store. Returns the final counters.
    pub fn shutdown(mut self) -> OpsSnapshot {
        self.stop();
        OpsSnapshot {
            collector: self.stats.snapshot(),
            ingest: self.ingest_stats.snapshot(),
        }
    }

    /// Simulated hard kill for durability testing: stop accepting and
    /// join every thread (a test can't leak them), but *abort* the
    /// ingestion service instead of draining it — batches still in
    /// flight are discarded whole, exactly as if the process had died
    /// between journaling batches. Nothing is flushed. The returned
    /// counters describe what the dying process had accepted; the
    /// durable state on disk is whatever the journal captured.
    pub fn crash(mut self) -> OpsSnapshot {
        // ordering: Release pairs with the Acquire loads in the accept
        // loop and connection readers, same as the graceful path.
        self.shutdown.store(true, Ordering::Release);
        if let Some(ingest) = self.ingest.take() {
            // Abort first: the discard flag is up before the acceptor
            // join lets connection readers push their last batches.
            ingest.abort();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        OpsSnapshot {
            collector: self.stats.snapshot(),
            ingest: self.ingest_stats.snapshot(),
        }
    }

    fn stop(&mut self) {
        // ordering: Release pairs with the Acquire loads in the accept
        // loop and connection readers — a thread that observes the flag
        // also observes everything published before the stop began.
        self.shutdown.store(true, Ordering::Release);
        if let Some(acceptor) = self.acceptor.take() {
            // Joins every connection thread too (the acceptor owns
            // them), and drops the acceptor's inlet clone with it.
            let _ = acceptor.join();
        }
        if let Some(ingest) = self.ingest.take() {
            ingest.shutdown();
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // A dropped (not shut-down) collector must not leak threads.
        self.stop();
    }
}

/// Restores the `connections_active` gauge when a reader thread ends,
/// including when `connection::serve_stream` panics — otherwise a panic would
/// leak the slot against `max_connections` for the daemon's lifetime.
struct ActiveGuard(Arc<CollectorStats>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        // ordering: admission-control gauge; the acceptor's cap check
        // tolerates a momentarily stale value (briefly over-admitting
        // by one), and the final read happens after the joins.
        self.0.connections_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The mode-specific half of connection admission: where an accepted,
/// cap-checked connection goes. The acceptor loop, admission counters,
/// and shutdown drain are shared between modes; only this differs.
enum Admitter {
    /// Classic mode: one blocking reader thread per connection.
    Threaded { handlers: Vec<JoinHandle<()>> },
    /// Reactor mode: round-robin hand-off to epoll worker loops.
    #[cfg(target_os = "linux")]
    Reactor {
        txs: Vec<Sender<NewConn>>,
        workers: Vec<JoinHandle<()>>,
        next: usize,
    },
}

impl Admitter {
    fn threaded() -> Admitter {
        Admitter::Threaded {
            handlers: Vec::new(),
        }
    }

    #[cfg(target_os = "linux")]
    fn reactor(ctx: &ConnCtx) -> Admitter {
        let n = ctx.cfg.reactor_workers.max(1);
        let mut txs = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            let cfg = Arc::clone(&ctx.cfg);
            let shutdown = Arc::clone(&ctx.shutdown);
            workers.push(thread::spawn(move || {
                reactor::run_worker(rx, cfg, shutdown)
            }));
            txs.push(tx);
        }
        Admitter::Reactor {
            txs,
            workers,
            next: 0,
        }
    }

    /// Takes ownership of one admitted connection, already counted in
    /// `connections_accepted` and `connections_active`.
    fn admit(&mut self, stream: std::net::TcpStream, conn_ctx: ConnCtx) {
        match self {
            Admitter::Threaded { handlers } => {
                handlers.push(thread::spawn(move || {
                    let _active = ActiveGuard(Arc::clone(&conn_ctx.stats));
                    connection::serve_stream(stream, conn_ctx);
                }));
            }
            #[cfg(target_os = "linux")]
            Admitter::Reactor { txs, next, .. } => {
                let idx = *next % txs.len();
                *next = next.wrapping_add(1);
                let stats = Arc::clone(&conn_ctx.stats);
                if txs[idx]
                    .send(NewConn {
                        stream,
                        ctx: conn_ctx,
                    })
                    .is_err()
                {
                    // The worker died (epoll setup failure): shed the
                    // connection and restore the gauge it was counted in.
                    // ordering: admission gauge, see ActiveGuard.
                    stats.connections_active.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Reclaims finished per-connection threads (no-op for the
    /// reactor, whose worker count is fixed).
    fn reap(&mut self) {
        if let Admitter::Threaded { handlers } = self {
            handlers.retain(|h| !h.is_finished());
        }
    }

    /// Joins everything the admitter owns. Dropping the reactor
    /// senders is the workers' signal that no more connections come.
    fn finish(self) {
        match self {
            Admitter::Threaded { handlers } => {
                for h in handlers {
                    let _ = h.join();
                }
            }
            #[cfg(target_os = "linux")]
            Admitter::Reactor { txs, workers, .. } => {
                drop(txs);
                for w in workers {
                    let _ = w.join();
                }
            }
        }
    }
}

/// Backoff after a failed `accept(2)`. Running out of file
/// descriptors (EMFILE/ENFILE) cannot be fixed by re-calling accept
/// faster — back off an order of magnitude to give in-flight
/// connections a chance to close and release fds; everything else
/// (e.g. ECONNABORTED) retries at the normal poll cadence.
fn accept_backoff(e: &io::Error, poll_interval: std::time::Duration) -> std::time::Duration {
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    match e.raw_os_error() {
        Some(EMFILE) | Some(ENFILE) => (poll_interval * 10)
            .min(std::time::Duration::from_millis(250))
            .max(poll_interval),
        _ => poll_interval,
    }
}

/// Cap-checks and counts an accepted connection, then hands it to the
/// mode's admitter (reader thread or reactor worker).
fn supervise(stream: std::net::TcpStream, ctx: &ConnCtx, admitter: &mut Admitter) {
    admitter.reap();
    let active = ctx.stats.connections_active.load(Ordering::Relaxed);
    if active >= ctx.cfg.max_connections as u64 {
        // Shed the connection whole: close immediately so the client
        // sees EOF/reset rather than a stalled socket.
        // ordering: monotone stat; exact reads only after join.
        ctx.stats
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
        drop(stream);
        return;
    }
    // ordering: monotone stat; exact reads only after join. The prior
    // value doubles as the connection's trace correlation id.
    let conn_id = ctx
        .stats
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);
    // ordering: admission gauge, only this acceptor thread increments;
    // see ActiveGuard for the decrement rationale.
    ctx.stats.connections_active.fetch_add(1, Ordering::Relaxed);
    let mut conn_ctx = ctx.clone();
    conn_ctx.obs.conn_id = conn_id;
    admitter.admit(stream, conn_ctx);
}

/// Acceptor: non-blocking accept, admission accounting, and graceful
/// backlog drain — shared by both serving modes via [`Admitter`].
fn accept_loop(listener: TcpListener, ctx: ConnCtx) {
    #[cfg(target_os = "linux")]
    let mut admitter = if ctx.cfg.reactor {
        Admitter::reactor(&ctx)
    } else {
        Admitter::threaded()
    };
    #[cfg(not(target_os = "linux"))]
    let mut admitter = Admitter::threaded();
    // ordering: Acquire pairs with the Release store in
    // `Collector::stop`; see the store for the rationale.
    while !ctx.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => supervise(stream, &ctx, &mut admitter),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(ctx.cfg.poll_interval);
            }
            Err(e) => {
                // Failed accept (EMFILE fd exhaustion, ECONNABORTED,
                // ...): count it — a silently respinning acceptor is
                // indistinguishable from a healthy idle one — and
                // back off instead of hammering a condition that
                // re-calling accept cannot clear.
                ctx.stats.accept_errors.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                thread::sleep(accept_backoff(&e, ctx.cfg.poll_interval));
            }
        }
    }
    // Shutdown drain: clients that connected (and possibly already
    // sent and closed) before the flag flipped may still sit in the
    // OS accept backlog. Serve them too — their readers drain any
    // buffered bytes before exiting — so a graceful shutdown never
    // strands data behind an unaccepted connection. The drain is
    // bounded by `DRAIN_GRACE`: without a deadline, clients that keep
    // connecting during shutdown would be accepted forever.
    const DRAIN_GRACE: std::time::Duration = std::time::Duration::from_millis(250);
    let drain_deadline = Instant::now() + DRAIN_GRACE;
    while Instant::now() < drain_deadline {
        match listener.accept() {
            Ok((stream, _peer)) => supervise(stream, &ctx, &mut admitter),
            // Backlog empty: the drain is complete.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            // Any other error (ECONNABORTED, EMFILE, ...) says nothing
            // about the backlog; back off and keep draining until the
            // deadline rather than ending the drain early.
            Err(e) => {
                ctx.stats.accept_errors.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                thread::sleep(accept_backoff(&e, ctx.cfg.poll_interval));
            }
        }
    }
    drop(listener); // stop the OS queueing new connections
    admitter.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_wire::framing::encode_frames;
    use qtag_wire::{json, AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn beacon(id: u64, seq: u16, event: EventKind) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event,
            timestamp_us: 1_000 * u64::from(seq),
            ad_format: AdFormat::Display,
            visible_fraction_milli: 750,
            exposure_ms: 1200,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    fn start(cfg: CollectorConfig) -> Collector {
        Collector::start_sharded(cfg, ShardedStore::new(1)).expect("bind localhost")
    }

    /// Runs a socket-lifecycle scenario once per serving mode, handing
    /// it the default config with `reactor` set. The two modes share
    /// one wire protocol and one accounting, so every assertion must
    /// hold bit-identically in both.
    fn in_both_modes(scenario: impl Fn(CollectorConfig)) {
        for reactor in [false, true] {
            eprintln!("serving mode: reactor={reactor}");
            scenario(CollectorConfig {
                reactor,
                ..CollectorConfig::default()
            });
        }
    }

    /// Polls until `done` holds (bounded at 5 s).
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !done() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn binary_client_round_trips_through_the_daemon() {
        in_both_modes(|cfg| {
            let collector = start(cfg);
            collector.sharded_store().record_served(served(42));
            let mut sock = TcpStream::connect(collector.local_addr()).unwrap();
            let stream = encode_frames(&[
                beacon(42, 0, EventKind::Measurable),
                beacon(42, 1, EventKind::InView),
            ])
            .unwrap();
            sock.write_all(&stream).unwrap();
            drop(sock);
            let ops = collector.shutdown();
            assert_eq!(ops.collector.frames_decoded, 2);
            assert_eq!(ops.ingest.beacons, 2);
            assert!(ops.conserves(2), "{ops:?}");
            assert_eq!(ops.collector.connections_active, 0);
            assert_eq!(ops.collector.accept_errors, 0);
        });
    }

    /// JSON is sniffed per connection, a garbage line costs one corrupt
    /// frame, and a final beacon with no trailing newline still lands.
    #[test]
    fn json_client_is_sniffed_and_decoded() {
        in_both_modes(|cfg| {
            let collector = start(cfg);
            let store = collector.sharded_store().clone();
            store.record_served(served(7));
            let mut sock = TcpStream::connect(collector.local_addr()).unwrap();
            let mut payload = json::encode(&beacon(7, 0, EventKind::Measurable)).unwrap();
            payload.push('\n');
            payload.push_str("this is not json\n");
            // Final beacon: complete JSON, no trailing newline.
            payload.push_str(&json::encode(&beacon(7, 1, EventKind::InView)).unwrap());
            sock.write_all(payload.as_bytes()).unwrap();
            drop(sock);
            let ops = collector.shutdown();
            assert_eq!(ops.collector.frames_decoded, 2, "{ops:?}");
            assert_eq!(ops.collector.corrupt_frames, 1);
            assert!(ops.conserves(3), "{ops:?}");
            assert_eq!(store.verdict(7), (true, true));
        });
    }

    #[test]
    fn connection_cap_rejects_excess_clients() {
        in_both_modes(|cfg| {
            let collector = start(CollectorConfig {
                max_connections: 1,
                ..cfg
            });
            let _first = TcpStream::connect(collector.local_addr()).unwrap();
            // Give the acceptor time to register the first connection.
            std::thread::sleep(Duration::from_millis(100));
            let _second = TcpStream::connect(collector.local_addr()).unwrap();
            let stats = collector.stats();
            wait_until(|| stats.connections_rejected.load(Ordering::Relaxed) != 0);
            let ops = collector.shutdown();
            assert_eq!(ops.collector.connections_accepted, 1);
            assert_eq!(ops.collector.connections_rejected, 1);
            // Every connection is retired by shutdown, so the gauge
            // must be fully restored.
            assert_eq!(ops.collector.connections_active, 0);
        });
    }

    #[test]
    fn idle_connection_is_timed_out() {
        in_both_modes(|cfg| {
            let collector = start(CollectorConfig {
                read_timeout: Duration::from_millis(50),
                poll_interval: Duration::from_millis(10),
                ..cfg
            });
            let _sock = TcpStream::connect(collector.local_addr()).unwrap();
            let stats = collector.stats();
            wait_until(|| stats.connections_timed_out.load(Ordering::Relaxed) != 0);
            let ops = collector.shutdown();
            assert_eq!(ops.collector.connections_timed_out, 1);
            assert_eq!(ops.collector.connections_active, 0);
        });
    }

    #[test]
    fn abrupt_disconnect_mid_frame_loses_only_the_partial_frame() {
        in_both_modes(|cfg| {
            let collector = start(cfg);
            let mut sock = TcpStream::connect(collector.local_addr()).unwrap();
            let stream = encode_frames(&[beacon(1, 0, EventKind::Measurable)]).unwrap();
            let mut cut = encode_frames(&[beacon(1, 1, EventKind::InView)]).unwrap();
            cut.truncate(cut.len() / 2); // die mid-frame
            sock.write_all(&stream).unwrap();
            sock.write_all(&cut).unwrap();
            drop(sock);
            let ops = collector.shutdown();
            // Only the fully-written beacon counts as sent.
            assert_eq!(ops.collector.frames_decoded, 1);
            assert_eq!(ops.collector.corrupt_frames, 0);
            assert!(ops.conserves(1), "{ops:?}");
        });
    }

    #[test]
    fn acked_client_gets_one_ack_per_accepted_frame_including_duplicates() {
        use qtag_wire::sender::{AckDecoder, AckKey, ACK_HELLO};
        in_both_modes(|cfg| {
            let collector = start(cfg);
            collector.sharded_store().record_served(served(42));
            let mut sock = TcpStream::connect(collector.local_addr()).unwrap();
            sock.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            sock.write_all(&[ACK_HELLO]).unwrap();
            // Two distinct beacons plus a retransmit of the first: the
            // duplicate must be re-acked (the store already has it; the
            // honest answer to the retry is "got it").
            let stream = encode_frames(&[
                beacon(42, 0, EventKind::Measurable),
                beacon(42, 1, EventKind::InView),
                beacon(42, 0, EventKind::Measurable),
            ])
            .unwrap();
            sock.write_all(&stream).unwrap();
            sock.shutdown(std::net::Shutdown::Write).unwrap();
            let mut raw = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut chunk = [0u8; 64];
            while raw.len() < 30 && std::time::Instant::now() < deadline {
                match sock.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => raw.extend_from_slice(&chunk[..n]),
                    Err(_) => {}
                }
            }
            let mut dec = AckDecoder::new();
            let mut keys = Vec::new();
            dec.extend(&raw, &mut keys);
            keys.sort();
            let key = |seq| AckKey {
                impression_id: 42,
                seq,
            };
            assert_eq!(keys, vec![key(0), key(0), key(1)], "raw ack bytes: {raw:?}");
            drop(sock);
            let ops = collector.shutdown();
            assert_eq!(ops.collector.acked_connections, 1);
            assert_eq!(ops.collector.acks_sent, 3);
            assert_eq!(ops.collector.frames_decoded, 3);
            assert!(ops.conserves(3), "{ops:?}");
            // Acks are coalesced: one write per read iteration, never one
            // per frame beyond that.
            assert!(
                ops.collector.ack_flushes >= 1
                    && ops.collector.ack_flushes <= ops.collector.acks_sent,
                "{ops:?}"
            );
        });
    }

    /// A daemon over a multi-shard store aggregates every beacon to
    /// the right shard and conserves exactly, end to end over TCP.
    #[test]
    fn sharded_daemon_aggregates_across_shards() {
        in_both_modes(|cfg| {
            let store = ShardedStore::new(4);
            for id in 0..32u64 {
                store.record_served(served(id));
            }
            let collector = Collector::start_sharded(cfg, store.clone()).unwrap();
            let beacons: Vec<Beacon> = (0..32u64)
                .flat_map(|id| {
                    [
                        beacon(id, 0, EventKind::Measurable),
                        beacon(id, 1, EventKind::InView),
                    ]
                })
                .collect();
            let mut sock = TcpStream::connect(collector.local_addr()).unwrap();
            sock.write_all(&encode_frames(&beacons).unwrap()).unwrap();
            drop(sock);
            assert_eq!(collector.sharded_store().shard_count(), 4);
            let ops = collector.shutdown();
            assert_eq!(ops.ingest.beacons, 64);
            assert_eq!(ops.ingest.rejected_after_shutdown, 0);
            assert!(ops.conserves(64), "{ops:?}");
            assert!(ops.decode_accounted(), "{ops:?}");
            // Batched hand-off must have coalesced: far fewer channel ops
            // than beacons even with 4 shards.
            assert!(ops.ingest.beacon_batches < ops.ingest.beacons, "{ops:?}");
            for id in 0..32u64 {
                assert_eq!(store.verdict(id), (true, true), "impression {id}");
            }
            assert_eq!(store.unique_beacons(), 64);
        });
    }

    #[test]
    fn corrupt_frames_earn_no_ack() {
        use qtag_wire::sender::ACK_HELLO;
        in_both_modes(|cfg| {
            let collector = start(cfg);
            collector.sharded_store().record_served(served(9));
            let mut sock = TcpStream::connect(collector.local_addr()).unwrap();
            sock.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            sock.write_all(&[ACK_HELLO]).unwrap();
            let good = encode_frames(&[beacon(9, 0, EventKind::Measurable)]).unwrap();
            let mut bad = encode_frames(&[beacon(9, 1, EventKind::InView)]).unwrap();
            let last = bad.len() - 1;
            bad[last] ^= 0xFF; // fails the CRC, header stays honest
            sock.write_all(&good).unwrap();
            sock.write_all(&bad).unwrap();
            sock.shutdown(std::net::Shutdown::Write).unwrap();
            // Read to EOF: exactly one ack record may come back.
            let mut raw = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut chunk = [0u8; 64];
            while std::time::Instant::now() < deadline {
                match sock.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => raw.extend_from_slice(&chunk[..n]),
                    Err(_) => {
                        if raw.len() >= 10 {
                            break;
                        }
                    }
                }
            }
            assert_eq!(raw.len(), 10, "one ack for the good frame only: {raw:?}");
            drop(sock);
            let ops = collector.shutdown();
            assert_eq!(ops.collector.acks_sent, 1);
            assert_eq!(ops.collector.corrupt_frames, 1);
            assert!(ops.conserves(2), "{ops:?}");
        });
    }

    #[test]
    fn dropping_the_collector_does_not_hang() {
        in_both_modes(|cfg| {
            let collector = start(cfg);
            let _sock = TcpStream::connect(collector.local_addr()).unwrap();
            drop(collector);
        });
    }

    #[test]
    fn accept_backoff_slows_down_on_fd_exhaustion() {
        let poll = Duration::from_millis(10);
        let emfile = io::Error::from_raw_os_error(24);
        let enfile = io::Error::from_raw_os_error(23);
        let aborted = io::Error::from_raw_os_error(103); // ECONNABORTED
        assert_eq!(accept_backoff(&emfile, poll), Duration::from_millis(100));
        assert_eq!(accept_backoff(&enfile, poll), Duration::from_millis(100));
        assert_eq!(accept_backoff(&aborted, poll), poll);
        // The EMFILE backoff is capped, and never below the poll cadence.
        let slow = Duration::from_millis(200);
        assert_eq!(accept_backoff(&emfile, slow), Duration::from_millis(250));
        let zero = Duration::ZERO;
        assert_eq!(accept_backoff(&emfile, zero), zero);
    }

    /// Fleet size for the fan-in test: 5,000 where the soft
    /// `RLIMIT_NOFILE` allows it (CI raises it to 16,384), clamped to
    /// the fd budget otherwise — both socket ends live in this process,
    /// so a connection costs two fds, and 512 are left for the daemon,
    /// the harness and the tests running beside this one. 64 where the
    /// limit cannot be read (`/proc/self/limits` is Linux-only).
    fn fan_in_connections() -> u64 {
        let soft_nofile = std::fs::read_to_string("/proc/self/limits")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("Max open files"))?
                    .split_whitespace()
                    .nth(3)?
                    .parse::<u64>()
                    .ok()
            });
        match soft_nofile {
            Some(limit) => (limit.saturating_sub(512) / 2).clamp(16, 5_000),
            None => 64,
        }
    }

    /// The whole fleet held open at once on a two-worker reactor: paced
    /// openers connect it, one beacon written per socket at connect; the
    /// daemon's active gauge must reach the fleet size with no accept
    /// error; then every socket writes a second beacon and closes;
    /// conservation exact. A listener-backlog collapse or an EMFILE
    /// storm fails it.
    #[test]
    fn reactor_fan_in_conserves_across_many_connections() {
        const OPENERS: u64 = 4;
        let conns = fan_in_connections();
        let store = ShardedStore::new(4);
        for id in 0..conns {
            store.record_served(served(id));
        }
        let collector = Collector::start_sharded(
            CollectorConfig {
                reactor: true,
                reactor_workers: 2,
                max_connections: conns as usize + 64,
                // Roomy, so `unique_beacons` below is deterministic.
                inlet_capacity: 2 * conns as usize,
                // The fleet idles while it assembles; reaping the slow
                // openers would test the opener, not the daemon.
                read_timeout: Duration::from_secs(120),
                ..CollectorConfig::default()
            },
            store.clone(),
        )
        .unwrap();
        let addr = collector.local_addr();
        // Joining the openers is the barrier: every socket is connected
        // and has written its first beacon before the gauge is judged.
        let socks: Vec<(u64, TcpStream)> = std::thread::scope(|scope| {
            let openers: Vec<_> = (0..OPENERS)
                .map(|o| {
                    scope.spawn(move || {
                        let mut socks = Vec::new();
                        for id in (o..conns).step_by(OPENERS as usize) {
                            let mut sock = TcpStream::connect(addr).unwrap();
                            let first = encode_frames(&[beacon(id, 0, EventKind::Measurable)]);
                            sock.write_all(&first.unwrap()).unwrap();
                            socks.push((id, sock));
                            // Pace the fleet below the listener's
                            // 128-entry backlog: an unthrottled burst
                            // overflows it and every dropped SYN costs
                            // a ~1 s retransmit.
                            std::thread::sleep(Duration::from_micros(125 * OPENERS));
                        }
                        socks
                    })
                })
                .collect();
            openers
                .into_iter()
                .flat_map(|o| o.join().unwrap())
                .collect()
        });
        let mut peak_active = 0;
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while peak_active < conns && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            peak_active = peak_active.max(collector.ops_snapshot().collector.connections_active);
        }
        for (id, mut sock) in socks {
            let second = encode_frames(&[beacon(id, 1, EventKind::InView)]);
            sock.write_all(&second.unwrap()).unwrap();
        }
        let ops = collector.shutdown();
        assert!(peak_active >= conns, "fleet never assembled: {ops:?}");
        assert_eq!(ops.collector.connections_accepted, conns);
        assert_eq!(ops.collector.connections_active, 0, "{ops:?}");
        assert_eq!(ops.collector.accept_errors, 0, "{ops:?}");
        assert!(ops.conserves(2 * conns), "{ops:?}");
        assert!(ops.decode_accounted(), "{ops:?}");
        assert_eq!(store.unique_beacons(), 2 * conns);
        // CI greps this line: a run silently clamped below 5,000 must
        // not pass for the 5,000-connection smoke.
        println!("reactor fan-in: held {conns} connections open at once, conservation exact");
    }

    fn served(id: u64) -> qtag_server::ServedImpression {
        qtag_server::ServedImpression {
            impression_id: id,
            campaign_id: 1,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            ad_format: AdFormat::Display,
        }
    }
}
