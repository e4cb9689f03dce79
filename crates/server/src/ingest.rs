//! Beacon ingestion over a sharded, batch-applied store.
//!
//! Callers decode beacons themselves — the collector daemon per
//! connection, tests and examples with one [`qtag_wire::FrameDecoder`]
//! — and hand them to the service through a [`BeaconInlet`], in
//! *batches*: one channel operation per shard touched. Every shard of
//! the [`ShardedStore`] has exactly one applier thread, so aggregation
//! scales with shards instead of serialising on a single
//! `Mutex<ImpressionStore>`. An applier locks its shard once per
//! batch, not once per beacon.
//!
//! Beacons of one impression always hash to one shard, so
//! per-impression apply order is the caller's hand-off order, and
//! sharded results are bit-identical to a single-store run (see
//! `tests/sharded_equivalence.rs`).

use crate::shard::{shard_of, ShardedStore};
use crate::store::ApplyOutcome;
use crate::sync::atomic::Ordering;
use crate::sync::thread::JoinHandle;
use crate::sync::time::Instant;
use crate::sync::{thread, Arc, Weak};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use qtag_obs::{Counter, Histogram, Registry, Stage, TraceEvent, TraceRing};
use qtag_wire::Beacon;

/// Default capacity of each shard's batch channel, in *batches*.
/// [`BeaconInlet::send_batch`] blocks when a channel fills;
/// [`BeaconInlet::offer_batch`] sheds instead.
pub const DEFAULT_INLET_CAPACITY: usize = 1_024;

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
    /// Has no effect: the service spawns only its shard appliers.
    /// Kept only while the benchmark package still sets it; leave it
    /// at its default.
    pub workers: usize,
    /// Has no effect: a batch is whatever one inlet call hands to a
    /// shard. Kept only while the benchmark package still sets it;
    /// leave it at its default.
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
            batch: 64,
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
        beacons: counter("Beacons accepted into a shard channel (applied, or queued for application)."),
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

    /// Exposes `qtag_ingest_queue_depth`: batches enqueued by inlets
    /// minus batches drained by appliers — the live backlog
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

/// Clonable handle pushing decoded beacons to the shard appliers: the
/// only way into the service. [`BeaconInlet::offer_batch`] never
/// blocks, so a slow applier sheds load here instead of stalling the
/// collector's connection readers; [`BeaconInlet::send_batch`] blocks
/// instead, for callers that prefer backpressure to loss.
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

/// The ingestion service: one applier thread per store shard, fed
/// through [`BeaconInlet`]s.
pub struct IngestService {
    appliers: Vec<JoinHandle<()>>,
    batch_txs: Arc<[Sender<Vec<Beacon>>]>,
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
        assert!(cfg.inlet_capacity >= 1, "inlet capacity must be positive");
        let shards = store.shard_count();
        let stats = Arc::new(IngestStats::default());
        let aborted = Arc::new(crate::sync::atomic::AtomicBool::new(false));

        // Appliers: one owner of mutations per shard. Each exits when
        // its channel is drained AND the service's own senders have
        // dropped (inlets hold only weak refs) — so nothing queued is
        // ever lost, no sentinel counting required.
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
                // Outcome scratch, reused across groups.
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
                        outcomes.clear();
                        store.apply_group(&batch, &mut outcomes);
                        if let Some(j) = &journal {
                            j.append_beacons(s, &batch, &outcomes);
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

        IngestService {
            appliers,
            batch_txs: batch_txs.into(),
            store,
            stats,
            aborted,
        }
    }

    /// A new inlet handle for pre-decoded beacons. See [`BeaconInlet`].
    pub fn inlet(&self) -> BeaconInlet {
        BeaconInlet {
            txs: Arc::downgrade(&self.batch_txs),
            shards: self.store.shard_count(),
            stats: Arc::clone(&self.stats),
        }
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

    /// Graceful shutdown: stops the appliers and returns once every
    /// accepted beacon has been applied to its shard. Each applier
    /// drains its batch channel completely before `recv` reports
    /// disconnect, so no accepted beacon is lost.
    ///
    /// Outstanding [`BeaconInlet`] clones hold only weak references:
    /// they do not delay shutdown, and any hand-off they attempt
    /// afterwards is counted in `rejected_after_shutdown`.
    pub fn shutdown(self) {
        self.close();
    }

    /// Crash-simulation teardown: everything still queued is discarded
    /// instead of drained. Batches already journaled/applied stay;
    /// batches in flight vanish whole, exactly as if the process died
    /// between enqueue and apply. Used by durability harnesses to
    /// exercise write-ahead-log recovery; production shutdown is
    /// [`IngestService::shutdown`].
    pub fn abort(self) {
        // ordering: Release pairs with the Acquire load in the applier
        // loop — an applier observing the flag observes the abort.
        self.aborted.store(true, Ordering::Release);
        self.close();
    }

    /// Severs the inlets — the service holds the only strong ref to
    /// the shard senders — and joins the appliers. An inlet mid-offer
    /// briefly holds an upgraded strong ref; its beacon, if accepted,
    /// is still drained before its applier's join returns.
    fn close(self) {
        drop(self.batch_txs);
        for h in self.appliers {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServedImpression;
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

    /// A one-shard store and a service over it.
    fn one_shard() -> (ShardedStore, IngestService) {
        let store = ShardedStore::new(1);
        let service = IngestService::start_sharded(store.clone(), IngestConfig::default());
        (store, service)
    }

    #[test]
    fn shutdown_with_no_traffic_terminates() {
        let (_store, service) = one_shard();
        service.shutdown(); // must not hang
    }

    /// The graceful-shutdown contract: every beacon an inlet accepted
    /// before `shutdown()` is applied before the join returns, even
    /// when shutdown races a backlog still queued in the shard
    /// channels. Nothing between severing the inlets and the applier
    /// joins may drop a queued batch.
    #[test]
    fn shutdown_drains_entire_queued_backlog() {
        const IMPRESSIONS: u64 = 1_000;
        let store = ShardedStore::new(4);
        for id in 0..IMPRESSIONS {
            store.record_served(served(id));
        }
        // Tiny channel capacity makes the senders block on the
        // appliers, so a backlog is queued when they finish.
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                inlet_capacity: 2,
                ..IngestConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for parity in 0..2u64 {
                let inlet = service.inlet();
                scope.spawn(move || {
                    let ids: Vec<u64> = (0..IMPRESSIONS).filter(|id| id % 2 == parity).collect();
                    for group in ids.chunks(4) {
                        let batch: Vec<Beacon> = group
                            .iter()
                            .flat_map(|&id| {
                                [
                                    beacon(id, 0, EventKind::Measurable),
                                    beacon(id, 1, EventKind::InView),
                                ]
                            })
                            .collect();
                        assert_eq!(inlet.send_batch(&batch).accepted, batch.len() as u64);
                    }
                });
            }
        });
        let stats = Arc::clone(service.stats_arc());
        // Immediately shut down: the queued backlog is still unapplied.
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
        let (store, service) = one_shard();
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
        let (store, service) = one_shard();
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
