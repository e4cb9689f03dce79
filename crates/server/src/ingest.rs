//! Multi-worker beacon ingestion over a sharded, batch-applied store.
//!
//! Collectors receive raw byte streams from many tags at once. The
//! service fans chunks out to parser workers over crossbeam channels;
//! each worker runs a streaming [`FrameDecoder`] and routes verified
//! beacons — in *batches*, one channel operation per up-to-`batch`
//! beacons — to the applier thread owning the beacon's store shard.
//! Every shard of the [`ShardedStore`] has exactly one applier, so
//! aggregation scales with shards instead of serialising on a single
//! `Mutex<ImpressionStore>` (the single-aggregator design this
//! replaced). An applier locks its shard once per batch, not once per
//! beacon.
//!
//! Chunks are routed to workers by connection id so that bytes from one
//! tag's stream stay in order on one decoder; beacons of one impression
//! always hash to one shard, so per-impression apply order is preserved
//! end to end and sharded results are bit-identical to a single-store
//! run (see `tests/sharded_equivalence.rs`).

use crate::shard::{shard_of, ShardedStore};
use crate::store::ApplyOutcome;
use crate::sync::atomic::Ordering;
use crate::sync::thread::JoinHandle;
use crate::sync::time::Instant;
use crate::sync::{thread, Arc, Weak};
use crossbeam::channel::{self, Receiver, Sender, TryRecvError, TrySendError};
use qtag_obs::{Counter, Histogram, Registry, Stage, TraceEvent, TraceRing};
use qtag_wire::framing::FrameEvent;
use qtag_wire::{Beacon, FrameDecoder};
use std::collections::HashMap;

/// Default capacity of each shard's batch channel, in *batches*.
/// Parser workers block when a channel fills (backpressure propagates
/// to their chunk queues); [`BeaconInlet::offer_batch`] sheds instead.
pub const DEFAULT_INLET_CAPACITY: usize = 1_024;

/// Default maximum beacons per batch handed to a shard applier. One
/// channel operation and one shard-lock acquisition are amortised over
/// up to this many beacons.
pub const DEFAULT_BATCH: usize = 64;

/// Group-commit cap for shard appliers, in beacons. When batches are
/// already queued behind the one an applier just received, it drains
/// up to this many beacons into a single group so that one shard-lock
/// acquisition — and, when a journal is attached, one WAL append and
/// one fsync — covers the whole backlog. Matters most on filesystems
/// that serialise fsyncs across files (ext3/4 journal commits):
/// per-shard WALs alone cannot parallelise those. Bounds the largest
/// journaled batch; an empty queue adds no latency (the drain never
/// blocks).
pub const GROUP_COMMIT_CAP: usize = 4096;

/// Durability hook threaded into the shard appliers: when present,
/// each applier hands every batch to the journal together with the
/// per-beacon [`ApplyOutcome`]s the store just produced, from the
/// single thread that owns the shard, while still holding the shard's
/// store lock. Per-shard append order therefore equals per-shard
/// apply order, which is what makes journal replay reproduce store
/// state exactly — and the outcomes let the journal's rollups fold
/// measured/viewed cohorts without re-deduplicating the stream (the
/// `qtag-store` durable backend relies on both).
///
/// The journal call sits *after* the applies but inside the same lock
/// acquisition: no other shard-lock holder (reader, compaction) can
/// observe the pair out of step, and since the in-memory store is
/// exactly what a crash erases, apply-then-journal and
/// journal-then-apply leave identical recoverable states.
pub trait ShardJournal: Send + Sync {
    /// Appends one applied shard batch to the journal.
    /// `outcomes[i]` is the store's outcome for `batch[i]`.
    fn append_beacons(&self, shard: usize, batch: &[Beacon], outcomes: &[ApplyOutcome]);
}

/// Tunables for [`IngestService::start_sharded`].
#[derive(Clone)]
pub struct IngestConfig {
    /// Parser worker threads (chunk path).
    pub workers: usize,
    /// Maximum beacons per shard batch (amortisation factor).
    pub batch: usize,
    /// Bounded capacity of each shard's applier channel, in batches.
    pub inlet_capacity: usize,
    /// Observability hooks for the apply hot path (latency histogram,
    /// queue-depth gauge, shard-apply trace spans). `None` runs the
    /// appliers without instrumentation.
    pub metrics: Option<Arc<IngestMetrics>>,
    /// Durable write-ahead hook; `None` (the default) keeps the
    /// in-memory fast path untouched.
    pub journal: Option<Arc<dyn ShardJournal>>,
}

impl std::fmt::Debug for IngestConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestConfig")
            .field("workers", &self.workers)
            .field("batch", &self.batch)
            .field("inlet_capacity", &self.inlet_capacity)
            .field("metrics", &self.metrics.is_some())
            .field("journal", &self.journal.is_some())
            .finish()
    }
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            workers: 1,
            batch: DEFAULT_BATCH,
            inlet_capacity: DEFAULT_INLET_CAPACITY,
            metrics: None,
            journal: None,
        }
    }
}

qtag_obs::counters! {
    /// Counters the service maintains while running. Each field is
    /// read atomically; the set is not a transaction. Exported through
    /// a [`Registry`] under the `qtag_ingest` prefix via
    /// [`IngestStats::register`].
    pub struct IngestStats / IngestStatsSnapshot {
        chunks: counter("Byte chunks accepted."),
        beacons: counter("Beacons parsed and applied (or queued for application)."),
        corrupt_frames: counter("Frames rejected (checksum/decode failures)."),
        shed_beacons: counter("Beacons dropped at the bounded inlet because a shard channel was full (overload shedding, service alive)."),
        rejected_after_shutdown: counter("Beacons handed to an inlet after the service shut down (distinct from shed_beacons so conservation stays exact across shutdown races)."),
        beacon_batches: counter("Batches enqueued to shard appliers (channel operations); beacons / beacon_batches is the amortisation ratio."),
    }
}

/// Observability hooks threaded into the ingest hot path. Create one
/// per service with [`IngestMetrics::new`], hand it to the service via
/// [`IngestConfig::metrics`], then (once the service is running) call
/// [`IngestMetrics::register_queue_depth`] to expose the enqueued −
/// applied backlog.
pub struct IngestMetrics {
    /// Per-batch shard apply latency in microseconds (lock + apply).
    pub apply_latency_us: Arc<Histogram>,
    batches_applied: Counter,
    batches_merged: Counter,
    trace: Option<Arc<TraceRing>>,
}

impl IngestMetrics {
    /// Registers the apply-path metrics (`qtag_ingest_apply_latency_us`,
    /// `qtag_ingest_batches_applied_total`) and keeps a handle on the
    /// trace ring (pass `None` to skip span recording).
    pub fn new(registry: &Registry, trace: Option<Arc<TraceRing>>) -> Arc<IngestMetrics> {
        Arc::new(IngestMetrics {
            apply_latency_us: registry.histogram(
                "qtag_ingest_apply_latency_us",
                "Per-batch shard apply latency: one shard lock plus up to `batch` store applies, in microseconds.",
            ),
            batches_applied: registry.counter(
                "qtag_ingest_batches_applied_total",
                "Apply groups: shard-lock acquisitions that journaled and applied one group-committed run of enqueued batches.",
            ),
            batches_merged: registry.counter(
                "qtag_ingest_batches_merged_total",
                "Enqueued batches folded into apply groups (group commit). Equals batches enqueued once the service drains; batches_merged / batches_applied is the group-commit amortisation ratio.",
            ),
            trace,
        })
    }

    /// Exposes `qtag_ingest_queue_depth`: batches enqueued by workers
    /// and inlets minus batches drained by appliers — the live backlog
    /// across all shard channels.
    pub fn register_queue_depth(self: &Arc<Self>, registry: &Registry, stats: &Arc<IngestStats>) {
        let stats = Arc::clone(stats);
        let merged = self.batches_merged.clone();
        registry.gauge_fn(
            "qtag_ingest_queue_depth",
            "Batches enqueued to shard appliers but not yet applied (live backlog, all shards).",
            move || {
                // ordering: Relaxed — statistic read, no synchronization implied.
                let enqueued = stats.beacon_batches.load(Ordering::Relaxed);
                enqueued.saturating_sub(merged.get())
            },
        );
    }

    /// Records one drained apply group: apply latency, the group and
    /// merged-batch counters, and (when tracing) a
    /// [`Stage::ShardApply`] span. `merged` is how many enqueued
    /// channel batches the group commit folded into this apply.
    fn batch_applied(&self, shard: u64, start_us: u64, end_us: u64, items: u64, merged: u64) {
        let dur_us = end_us.saturating_sub(start_us);
        self.apply_latency_us.record(dur_us);
        self.batches_applied.inc();
        self.batches_merged.add(merged);
        if let Some(ring) = &self.trace {
            ring.record(TraceEvent {
                stage: Stage::ShardApply,
                key: shard,
                start_us,
                dur_us,
                items,
            });
        }
    }
}

impl std::fmt::Debug for IngestMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestMetrics")
            .field("batches_applied", &self.batches_applied.get())
            .field("tracing", &self.trace.is_some())
            .finish()
    }
}

enum WorkerMsg {
    Chunk { conn: u64, bytes: Vec<u8> },
    Shutdown,
}

/// Outcome of a batched inlet hand-off: every input beacon lands in
/// exactly one of the three counters, keeping conservation exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Beacons accepted into a shard channel (counted in `beacons`).
    pub accepted: u64,
    /// Beacons shed because a shard channel was full.
    pub shed: u64,
    /// Beacons rejected because the service has shut down.
    pub rejected: u64,
}

impl BatchOutcome {
    fn merge(&mut self, other: BatchOutcome) {
        self.accepted += other.accepted;
        self.shed += other.shed;
        self.rejected += other.rejected;
    }
}

/// Clonable handle pushing already-decoded beacons straight to the
/// shard appliers, bypassing the parser workers. Transports that
/// decode in their own threads (the collector daemon) use this;
/// [`BeaconInlet::offer_batch`] never blocks, so a slow applier sheds
/// load here instead of stalling connection readers.
///
/// The inlet holds only a weak reference to the shard channels:
/// [`IngestService::shutdown`] severs them, after which every hand-off
/// is counted in `rejected_after_shutdown` and refused. Inlet clones
/// may therefore outlive the service safely.
#[derive(Clone)]
pub struct BeaconInlet {
    txs: Weak<[Sender<Vec<Beacon>>]>,
    shards: usize,
    stats: Arc<IngestStats>,
}

impl BeaconInlet {
    /// Non-blocking batched hand-off: one channel operation per shard
    /// touched. Every offered beacon lands in exactly one counter —
    /// accepted (`beacons`), shed (`shed_beacons`) or refused because
    /// the service is gone (`rejected_after_shutdown`) — which keeps
    /// end-to-end conservation checks exact. `on_accept` runs once per
    /// *accepted* beacon (collectors use it to emit acks); shed and
    /// rejected beacons never reach it. A full shard channel sheds
    /// that shard's whole sub-batch.
    pub fn offer_batch(
        &self,
        beacons: &[Beacon],
        mut on_accept: impl FnMut(&Beacon),
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        if beacons.is_empty() {
            return outcome;
        }
        let Some(txs) = self.txs.upgrade() else {
            outcome.rejected = beacons.len() as u64;
            // ordering: monotone stat; exact reads only after join.
            self.stats
                .rejected_after_shutdown
                .fetch_add(outcome.rejected, Ordering::Relaxed);
            return outcome;
        };
        if self.shards == 1 {
            outcome.merge(Self::offer_group(
                &self.stats,
                &txs[0],
                beacons,
                (0..beacons.len()).collect(),
                &mut on_accept,
            ));
            return outcome;
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards];
        for (i, b) in beacons.iter().enumerate() {
            groups[shard_of(b.impression_id, self.shards)].push(i);
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            outcome.merge(Self::offer_group(
                &self.stats,
                &txs[shard],
                beacons,
                group,
                &mut on_accept,
            ));
        }
        outcome
    }

    /// Blocking batched hand-off for callers that prefer backpressure
    /// to loss. Returns the outcome; `rejected` (counted in
    /// `rejected_after_shutdown`, *not* in `shed_beacons` — this is
    /// not an overload signal) is non-zero only if the service is
    /// gone.
    pub fn send_batch(&self, beacons: &[Beacon]) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        if beacons.is_empty() {
            return outcome;
        }
        let Some(txs) = self.txs.upgrade() else {
            outcome.rejected = beacons.len() as u64;
            // ordering: monotone stat; exact reads only after join.
            self.stats
                .rejected_after_shutdown
                .fetch_add(outcome.rejected, Ordering::Relaxed);
            return outcome;
        };
        let mut groups: Vec<Vec<Beacon>> = vec![Vec::new(); self.shards];
        for b in beacons {
            groups[shard_of(b.impression_id, self.shards)].push(b.clone());
        }
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let n = group.len() as u64;
            match txs[shard].send(group) {
                Ok(()) => {
                    self.stats.beacons.fetch_add(n, Ordering::Relaxed); // ordering: stat, read after join
                    self.stats.beacon_batches.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                    outcome.accepted += n;
                }
                Err(_) => {
                    // ordering: monotone stat; exact reads only after join.
                    self.stats
                        .rejected_after_shutdown
                        .fetch_add(n, Ordering::Relaxed);
                    outcome.rejected += n;
                }
            }
        }
        outcome
    }

    /// Offers the `indices` of `beacons` to one shard channel as a
    /// single batch, updating counters and invoking `on_accept` only
    /// after the channel took the batch.
    fn offer_group(
        stats: &IngestStats,
        tx: &Sender<Vec<Beacon>>,
        beacons: &[Beacon],
        indices: Vec<usize>,
        on_accept: &mut impl FnMut(&Beacon),
    ) -> BatchOutcome {
        let n = indices.len() as u64;
        let group: Vec<Beacon> = indices.iter().map(|&i| beacons[i].clone()).collect();
        match tx.try_send(group) {
            Ok(()) => {
                stats.beacons.fetch_add(n, Ordering::Relaxed); // ordering: stat, read after join
                stats.beacon_batches.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                for &i in &indices {
                    on_accept(&beacons[i]);
                }
                BatchOutcome {
                    accepted: n,
                    ..BatchOutcome::default()
                }
            }
            Err(TrySendError::Full(_)) => {
                stats.shed_beacons.fetch_add(n, Ordering::Relaxed); // ordering: stat, read after join
                BatchOutcome {
                    shed: n,
                    ..BatchOutcome::default()
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                // ordering: monotone stat; exact reads only after join.
                stats
                    .rejected_after_shutdown
                    .fetch_add(n, Ordering::Relaxed);
                BatchOutcome {
                    rejected: n,
                    ..BatchOutcome::default()
                }
            }
        }
    }
}

/// The ingestion service: `workers` parser threads plus one applier
/// thread per store shard.
pub struct IngestService {
    tx: Vec<Sender<WorkerMsg>>,
    workers: Vec<JoinHandle<()>>,
    appliers: Vec<JoinHandle<()>>,
    batch_txs: Option<Arc<[Sender<Vec<Beacon>>]>>,
    store: ShardedStore,
    stats: Arc<IngestStats>,
    /// When set, appliers discard queued batches instead of
    /// journaling/applying them — the crash-simulation teardown path
    /// ([`IngestService::abort`]).
    aborted: Arc<crate::sync::atomic::AtomicBool>,
}

impl IngestService {
    /// Starts the service over a sharded store: one applier thread per
    /// shard, each owning its shard's lock, fed over an independent
    /// bounded batch channel. The shard count comes from `store`.
    pub fn start_sharded(store: ShardedStore, cfg: IngestConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.batch >= 1, "batch size must be positive");
        assert!(cfg.inlet_capacity >= 1, "inlet capacity must be positive");
        let shards = store.shard_count();
        let stats = Arc::new(IngestStats::default());
        let aborted = Arc::new(crate::sync::atomic::AtomicBool::new(false));

        // Appliers: one owner of mutations per shard. Each exits when
        // its channel is drained AND every sender (workers + the
        // service's own handles; inlets hold only weak refs) has
        // dropped — so nothing queued is ever lost, no sentinel
        // counting required.
        let mut batch_txs: Vec<Sender<Vec<Beacon>>> = Vec::with_capacity(shards);
        let mut appliers: Vec<JoinHandle<()>> = Vec::with_capacity(shards);
        for s in 0..shards {
            let (btx, brx): (Sender<Vec<Beacon>>, Receiver<Vec<Beacon>>) =
                channel::bounded(cfg.inlet_capacity);
            let shard = Arc::clone(store.shard(s));
            let metrics = cfg.metrics.clone();
            let journal = cfg.journal.clone();
            let applier_aborted = Arc::clone(&aborted);
            appliers.push(thread::spawn(move || {
                // Span timestamps are µs since this applier started;
                // the metrics layer never reads a clock itself.
                let epoch = Instant::now();
                // Outcome scratch, reused across groups (journal path
                // only — the in-memory path never allocates it).
                let mut outcomes: Vec<ApplyOutcome> = Vec::new();
                while let Ok(batch) = brx.recv() {
                    // ordering: Acquire pairs with the Release store in
                    // `abort` — an applier that sees the flag also sees
                    // the abort decision, and the batch vanishes whole
                    // (neither journaled nor applied), exactly like a
                    // crash between enqueue and apply.
                    if applier_aborted.load(Ordering::Acquire) {
                        continue;
                    }
                    // Group commit: fold already-queued batches into
                    // this one, up to GROUP_COMMIT_CAP beacons. FIFO
                    // order is preserved (single consumer), so WAL
                    // order still equals apply order; the group is
                    // journaled and applied as one unit, exactly like
                    // a single larger batch.
                    let mut batch = batch;
                    let mut merged = 1u64;
                    while batch.len() < GROUP_COMMIT_CAP {
                        match brx.try_recv() {
                            Ok(more) => {
                                batch.extend(more);
                                merged += 1;
                            }
                            Err(_) => break,
                        }
                    }
                    let start_us = metrics.as_ref().map(|_| epoch.elapsed().as_micros() as u64);
                    {
                        // One lock acquisition per batch: the whole point.
                        // The journal call sits INSIDE the shard lock,
                        // after the applies (whose outcomes it needs) —
                        // atomic with them as far as any other
                        // shard-lock holder (reader, compactor) can
                        // observe. Lock order is store shard → journal,
                        // matching the durable backend's compaction
                        // path, so the pair cannot deadlock.
                        let mut store = shard.lock();
                        if let Some(j) = &journal {
                            outcomes.clear();
                            outcomes.extend(batch.iter().map(|b| store.apply(b)));
                            j.append_beacons(s, &batch, &outcomes);
                        } else {
                            for b in &batch {
                                store.apply(b);
                            }
                        }
                    }
                    if let Some(m) = &metrics {
                        let end_us = epoch.elapsed().as_micros() as u64;
                        m.batch_applied(
                            s as u64,
                            start_us.unwrap_or(end_us),
                            end_us,
                            batch.len() as u64,
                            merged,
                        );
                    }
                }
            }));
            batch_txs.push(btx);
        }

        let batch_txs: Arc<[Sender<Vec<Beacon>>]> = batch_txs.into();
        let mut tx = Vec::with_capacity(cfg.workers);
        let mut handles = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (wtx, wrx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = channel::unbounded();
            // Direct sender clones (not the Arc): a worker keeps its
            // shard channels alive until it exits, and workers are
            // joined before the appliers.
            let outs: Vec<Sender<Vec<Beacon>>> = batch_txs.iter().cloned().collect();
            let wstats = Arc::clone(&stats);
            let batch = cfg.batch;
            handles.push(thread::spawn(move || {
                worker_loop(wrx, outs, wstats, shards, batch)
            }));
            tx.push(wtx);
        }

        IngestService {
            tx,
            workers: handles,
            appliers,
            batch_txs: Some(batch_txs),
            store,
            stats,
            aborted,
        }
    }

    /// A new inlet handle for pre-decoded beacons. See [`BeaconInlet`].
    pub fn inlet(&self) -> BeaconInlet {
        BeaconInlet {
            txs: Arc::downgrade(
                self.batch_txs
                    .as_ref()
                    .expect("batch channels open while service running"),
            ),
            shards: self.store.shard_count(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// Submits a byte chunk from connection `conn`. Chunks of one
    /// connection are processed in submission order.
    pub fn submit(&self, conn: u64, bytes: Vec<u8>) {
        let worker = (conn as usize) % self.tx.len();
        self.tx[worker]
            .send(WorkerMsg::Chunk { conn, bytes })
            .expect("worker alive while service running");
    }

    /// Live counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The shared counter handle (clone to keep reading after
    /// [`IngestService::shutdown`] consumes the service).
    pub fn stats_arc(&self) -> &Arc<IngestStats> {
        &self.stats
    }

    /// The sharded store (lock shards to read reports mid-flight).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Graceful shutdown: drains all queued chunks, stops the workers
    /// and the appliers, and returns once every accepted beacon has
    /// been applied to its shard. Each worker processes its whole
    /// queue before seeing the `Shutdown` message (same channel,
    /// FIFO), then flushes its partial batches; each applier drains
    /// its batch channel completely before `recv` reports disconnect,
    /// so no accepted beacon is lost.
    ///
    /// Outstanding [`BeaconInlet`] clones hold only weak references:
    /// they do not delay shutdown, and any hand-off they attempt
    /// afterwards is counted in `rejected_after_shutdown`.
    pub fn shutdown(mut self) {
        for tx in &self.tx {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Severs the inlets: this is the only strong ref to the shard
        // senders (workers dropped their clones on exit). An inlet
        // mid-offer briefly holds an upgraded strong ref; its beacon,
        // if accepted, is still drained by the applier join below.
        drop(self.batch_txs.take());
        for h in self.appliers.drain(..) {
            let _ = h.join();
        }
    }

    /// Crash-simulation teardown: everything still queued is discarded
    /// instead of drained. Batches already journaled/applied stay;
    /// batches in flight vanish whole, exactly as if the process died
    /// between enqueue and apply. Used by durability harnesses to
    /// exercise write-ahead-log recovery; production shutdown is
    /// [`IngestService::shutdown`].
    pub fn abort(mut self) {
        // ordering: Release pairs with the Acquire load in the applier
        // loop — an applier observing the flag observes the abort.
        self.aborted.store(true, Ordering::Release);
        for tx in &self.tx {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        drop(self.batch_txs.take());
        for h in self.appliers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Parser worker: streams chunks through per-connection decoders and
/// routes verified beacons to per-shard batch accumulators. Batches
/// flush when full, when the worker goes idle (no queued chunks), and
/// at shutdown — so batching never strands a beacon.
fn worker_loop(
    wrx: Receiver<WorkerMsg>,
    outs: Vec<Sender<Vec<Beacon>>>,
    stats: Arc<IngestStats>,
    shards: usize,
    batch: usize,
) {
    let mut decoders: HashMap<u64, FrameDecoder> = HashMap::new();
    let mut acc: Vec<Vec<Beacon>> = (0..shards).map(|_| Vec::with_capacity(batch)).collect();

    // Sends one shard's accumulated batch (blocking: parser workers
    // take backpressure rather than shedding). Err means the appliers
    // are gone, i.e. the service is tearing down.
    let flush_shard = |acc: &mut Vec<Beacon>, out: &Sender<Vec<Beacon>>, stats: &IngestStats| {
        if acc.is_empty() {
            return Ok(());
        }
        let full = std::mem::replace(acc, Vec::with_capacity(batch));
        stats.beacon_batches.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
        out.send(full).map_err(drop)
    };
    let flush_all = |acc: &mut Vec<Vec<Beacon>>, stats: &IngestStats| {
        for (s, a) in acc.iter_mut().enumerate() {
            flush_shard(a, &outs[s], stats)?;
        }
        Ok(())
    };

    loop {
        // Batch across chunks while more work is queued; flush the
        // partial batches before blocking so no beacon waits on an
        // idle worker.
        let msg = match wrx.try_recv() {
            Ok(m) => m,
            Err(TryRecvError::Empty) => {
                if flush_all(&mut acc, &stats).is_err() {
                    return;
                }
                match wrx.recv() {
                    Ok(m) => m,
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => return,
        };
        match msg {
            WorkerMsg::Chunk { conn, bytes } => {
                stats.chunks.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                let dec = decoders.entry(conn).or_default();
                dec.extend(&bytes);
                while let Some(ev) = dec.next_event() {
                    match ev {
                        FrameEvent::Beacon(b) => {
                            stats.beacons.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                            let s = shard_of(b.impression_id, shards);
                            acc[s].push(b);
                            if acc[s].len() >= batch
                                && flush_shard(&mut acc[s], &outs[s], &stats).is_err()
                            {
                                return;
                            }
                        }
                        FrameEvent::Corrupt(_) => {
                            // ordering: stat, read after join
                            stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            WorkerMsg::Shutdown => {
                // Connections are closing: flush every decoder's
                // remaining decodable frames, then the accumulators.
                for dec in decoders.values_mut() {
                    for ev in dec.finish() {
                        match ev {
                            FrameEvent::Beacon(b) => {
                                stats.beacons.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                                let s = shard_of(b.impression_id, shards);
                                acc[s].push(b);
                                if acc[s].len() >= batch
                                    && flush_shard(&mut acc[s], &outs[s], &stats).is_err()
                                {
                                    return;
                                }
                            }
                            FrameEvent::Corrupt(_) => {
                                // ordering: stat, read after join
                                stats.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                let _: Result<(), ()> = flush_all(&mut acc, &stats);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServedImpression;
    use crate::LossyLink;
    use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

    fn served(id: u64) -> ServedImpression {
        ServedImpression {
            impression_id: id,
            campaign_id: 1,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            ad_format: AdFormat::Display,
        }
    }

    fn beacon(id: u64, seq: u16, event: EventKind) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event,
            timestamp_us: 0,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 1000,
            exposure_ms: 1000,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    /// A one-shard store and a service over it with `workers` parser
    /// threads.
    fn one_shard(workers: usize) -> (ShardedStore, IngestService) {
        let store = ShardedStore::new(1);
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                workers,
                ..IngestConfig::default()
            },
        );
        (store, service)
    }

    #[test]
    fn parallel_ingestion_applies_every_beacon() {
        let (store, service) = one_shard(4);
        for id in 0..200 {
            store.record_served(served(id));
        }
        let mut link = LossyLink::lossless();
        for id in 0..200u64 {
            let bytes = link
                .transmit(&[
                    beacon(id, 0, EventKind::Measurable),
                    beacon(id, 1, EventKind::InView),
                ])
                .unwrap();
            service.submit(id, bytes);
        }
        service.shutdown();
        for id in 0..200 {
            assert_eq!(store.verdict(id), (true, true), "impression {id}");
        }
    }

    #[test]
    fn sharded_ingestion_applies_every_beacon() {
        let store = ShardedStore::new(8);
        for id in 0..500 {
            store.record_served(served(id));
        }
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                workers: 4,
                batch: 16,
                ..IngestConfig::default()
            },
        );
        let mut link = LossyLink::lossless();
        for id in 0..500u64 {
            let bytes = link
                .transmit(&[
                    beacon(id, 0, EventKind::Measurable),
                    beacon(id, 1, EventKind::InView),
                ])
                .unwrap();
            service.submit(id, bytes);
        }
        let stats = Arc::clone(service.stats_arc());
        service.shutdown();
        for id in 0..500 {
            assert_eq!(store.verdict(id), (true, true), "impression {id}");
        }
        let snap = stats.snapshot();
        assert_eq!(snap.beacons, 1_000);
        assert_eq!(snap.shed_beacons, 0);
        assert_eq!(snap.rejected_after_shutdown, 0);
        // Batching must amortise: far fewer channel ops than beacons.
        assert!(
            snap.beacon_batches < snap.beacons,
            "batches {} vs beacons {}",
            snap.beacon_batches,
            snap.beacons
        );
        assert_eq!(store.unique_beacons(), 1_000);
    }

    #[test]
    fn chunked_streams_reassemble_across_submissions() {
        let (store, service) = one_shard(2);
        store.record_served(served(7));
        let mut link = LossyLink::lossless();
        let bytes = link.transmit(&[beacon(7, 0, EventKind::InView)]).unwrap();
        // Byte-at-a-time on the same connection.
        for b in bytes {
            service.submit(7, vec![b]);
        }
        service.shutdown();
        assert_eq!(store.verdict(7), (true, true));
    }

    #[test]
    fn corrupt_frames_are_counted_not_applied() {
        let (store, service) = one_shard(1);
        store.record_served(served(1));
        let mut link = LossyLink::new(0.0, 1.0, 3);
        let bytes = link.transmit(&[beacon(1, 0, EventKind::InView)]).unwrap();
        service.submit(1, bytes);
        service.shutdown();
        assert_eq!(store.verdict(1), (false, false));
    }

    #[test]
    fn stats_reflect_throughput() {
        let (store, service) = one_shard(3);
        for id in 0..50 {
            store.record_served(served(id));
        }
        let mut link = LossyLink::lossless();
        for id in 0..50u64 {
            let bytes = link
                .transmit(&[beacon(id, 0, EventKind::Measurable)])
                .unwrap();
            service.submit(id, bytes);
        }
        // stats are monotone; snapshot after shutdown is exact
        let stats = Arc::clone(&service.stats);
        service.shutdown();
        assert_eq!(stats.beacons.load(Ordering::Relaxed), 50);
        assert_eq!(stats.chunks.load(Ordering::Relaxed), 50);
        assert_eq!(stats.corrupt_frames.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shutdown_with_no_traffic_terminates() {
        let (_store, service) = one_shard(4);
        service.shutdown(); // must not hang
    }

    /// The graceful-shutdown contract: every chunk queued before
    /// `shutdown()` is fully parsed and applied before the join
    /// returns, even when shutdown races a large backlog across many
    /// workers. Nothing between the Shutdown message and the thread
    /// join may drop queued frames — and no beacon may be rejected,
    /// because the inlets are severed only after the workers drain.
    #[test]
    fn shutdown_drains_entire_queued_backlog() {
        const IMPRESSIONS: u64 = 1_000;
        let store = ShardedStore::new(4);
        for id in 0..IMPRESSIONS {
            store.record_served(served(id));
        }
        // Tiny channel capacity forces workers to block on the
        // appliers mid-drain, exercising the backpressure path during
        // shutdown too.
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                workers: 4,
                batch: 8,
                inlet_capacity: 2,
                metrics: None,
                journal: None,
            },
        );
        let mut link = LossyLink::lossless();
        for id in 0..IMPRESSIONS {
            let bytes = link
                .transmit(&[
                    beacon(id, 0, EventKind::Measurable),
                    beacon(id, 1, EventKind::InView),
                ])
                .unwrap();
            service.submit(id, bytes);
        }
        let stats = Arc::clone(service.stats_arc());
        // Immediately shut down: the whole backlog is still queued.
        service.shutdown();
        let snap = stats.snapshot();
        assert_eq!(snap.beacons, IMPRESSIONS * 2);
        assert_eq!(snap.shed_beacons, 0);
        assert_eq!(
            snap.rejected_after_shutdown, 0,
            "a graceful drain must reject nothing"
        );
        for id in 0..IMPRESSIONS {
            assert_eq!(store.verdict(id), (true, true), "impression {id}");
        }
    }

    #[test]
    fn inlet_beacons_are_applied_and_counted() {
        let (store, service) = one_shard(1);
        store.record_served(served(3));
        let inlet = service.inlet();
        for b in [
            beacon(3, 0, EventKind::Measurable),
            beacon(3, 1, EventKind::InView),
        ] {
            assert_eq!(inlet.offer_batch(&[b], |_| {}).accepted, 1);
        }
        let stats = Arc::clone(service.stats_arc());
        service.shutdown();
        assert_eq!(stats.beacons.load(Ordering::Relaxed), 2);
        assert_eq!(store.verdict(3), (true, true));
    }

    #[test]
    fn inlet_batch_is_applied_with_one_channel_op_per_shard() {
        let store = ShardedStore::new(4);
        for id in 0..64 {
            store.record_served(served(id));
        }
        let service = IngestService::start_sharded(store.clone(), IngestConfig::default());
        let inlet = service.inlet();
        let batch: Vec<Beacon> = (0..64u64)
            .map(|id| beacon(id, 0, EventKind::InView))
            .collect();
        let mut accepted_cb = 0u64;
        let outcome = inlet.offer_batch(&batch, |_| accepted_cb += 1);
        assert_eq!(outcome.accepted, 64);
        assert_eq!(outcome.shed, 0);
        assert_eq!(outcome.rejected, 0);
        assert_eq!(accepted_cb, 64);
        let stats = Arc::clone(service.stats_arc());
        service.shutdown();
        let snap = stats.snapshot();
        assert_eq!(snap.beacons, 64);
        // At most one channel op per shard for the whole batch.
        assert!(snap.beacon_batches <= 4, "{}", snap.beacon_batches);
        for id in 0..64 {
            assert_eq!(store.verdict(id), (true, true));
        }
    }

    /// Overload shedding at the inlet is exact: every offered beacon is
    /// counted either as accepted or as shed, never both, never neither.
    #[test]
    fn inlet_sheds_when_full_and_accounting_is_exact() {
        let store = ShardedStore::new(1);
        store.record_served(served(9));
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                workers: 1,
                inlet_capacity: 2,
                ..IngestConfig::default()
            },
        );
        let inlet = service.inlet();
        // Hold the store lock so the applier stalls on its first
        // apply, guaranteeing the bounded channel eventually fills.
        let mut offered = 0u64;
        let mut accepted = 0u64;
        {
            let _guard = store.shard(0).lock();
            while offered < 1_000 {
                let b = beacon(9, offered as u16, EventKind::Heartbeat);
                if inlet.offer_batch(&[b], |_| {}).accepted == 1 {
                    accepted += 1;
                } else if offered > 16 {
                    // Channel is demonstrably full; stop after proving
                    // at least one shed.
                    offered += 1;
                    break;
                }
                offered += 1;
            }
        }
        assert!(accepted < offered, "expected at least one shed offer");
        let stats = Arc::clone(service.stats_arc());
        service.shutdown();
        let snap = stats.snapshot();
        assert_eq!(snap.beacons, accepted);
        assert_eq!(snap.beacons + snap.shed_beacons, offered);
        assert_eq!(snap.rejected_after_shutdown, 0);
    }

    /// The shutdown race the `rejected_after_shutdown` counter exists
    /// for: a hand-off against a shut-down service is refused and
    /// counted distinctly from overload shedding, so conservation
    /// (`offered == accepted + shed + rejected`) stays exact.
    #[test]
    fn send_after_shutdown_is_rejected_and_counted_distinctly() {
        let (store, service) = one_shard(1);
        store.record_served(served(5));
        let inlet = service.inlet();
        let sent = |b| inlet.send_batch(&[b]).accepted == 1;
        assert!(sent(beacon(5, 0, EventKind::Measurable)));
        let stats = Arc::clone(service.stats_arc());
        // The inlet clone stays alive across shutdown — allowed now.
        service.shutdown();
        assert!(!sent(beacon(5, 1, EventKind::InView)));
        let outcome = inlet.offer_batch(
            &[
                beacon(5, 2, EventKind::Heartbeat),
                beacon(5, 3, EventKind::Heartbeat),
                beacon(5, 4, EventKind::Heartbeat),
            ],
            |_| panic!("no beacon may be accepted after shutdown"),
        );
        assert_eq!(outcome.rejected, 3);
        let snap = stats.snapshot();
        assert_eq!(snap.beacons, 1);
        assert_eq!(snap.shed_beacons, 0, "shutdown rejection is not shedding");
        assert_eq!(snap.rejected_after_shutdown, 4);
        // The pre-shutdown beacon was applied; the rest never were.
        assert_eq!(store.verdict(5), (true, false));
    }

    #[test]
    fn stats_snapshot_is_serializable() {
        let stats = IngestStats::default();
        stats.beacons.fetch_add(7, Ordering::Relaxed);
        stats.shed_beacons.fetch_add(2, Ordering::Relaxed);
        stats
            .rejected_after_shutdown
            .fetch_add(1, Ordering::Relaxed);
        let json = serde_json::to_string(&stats.snapshot()).unwrap();
        assert!(json.contains("\"beacons\":7"), "{json}");
        assert!(json.contains("\"shed_beacons\":2"), "{json}");
        assert!(json.contains("\"rejected_after_shutdown\":1"), "{json}");
    }
}
