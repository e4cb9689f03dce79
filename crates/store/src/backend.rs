//! The [`StorageBackend`] trait and its implementation, the
//! WAL-backed durable backend.
//!
//! ## Journal discipline
//!
//! The durable backend guarantees *WAL order equals apply order* per
//! shard: every mutation (register, beacon batch, direct apply)
//! journals and applies inside the owning shard's store lock — applies
//! first, because the journal's rollups fold the per-beacon
//! [`ApplyOutcome`]s the store produces. The order inside the lock is
//! unobservable (no other shard-lock holder can see the pair out of
//! step) and irrelevant to recovery: the in-memory store is exactly
//! what a crash erases, so apply-then-journal and journal-then-apply
//! leave identical recoverable states. Replaying a shard's WAL
//! therefore reproduces the shard's store — records, `SeqSeen` dedup
//! trackers, counters — and, by re-deriving outcomes from the replay
//! applies, its rollup aggregates exactly, no matter where in the
//! record stream a crash cut the log.
//!
//! ## Batch sync: the flusher
//!
//! Under [`SyncPolicy::Batch`] appends never block on the device:
//! each journaled group marks its shard dirty and a per-backend
//! flusher thread turns dirty marks into `sync_data` calls, coalescing
//! bursts into few fsyncs (on filesystems whose journal serialises
//! fsyncs across files, fewer and larger syncs are the only lever).
//! The loss window on a *machine* crash is one flusher sweep; a
//! process crash loses nothing either way (the page cache survives),
//! and graceful shutdown still ends with a synchronous
//! [`StorageBackend::flush`]. Under `--cfg qtag_check` the flusher is
//! compiled out and Batch syncs inline, keeping model runs
//! deterministic.
//!
//! ## Lock order
//!
//! Store shard lock → journal (WAL + rollup) lock, everywhere: the
//! ingest appliers and direct writers take the shard lock and journal
//! inside it; compaction takes the shard lock, then the journal lock,
//! then snapshots both. No path acquires them in the other order, so
//! the pair cannot deadlock, and because appends and compaction both
//! hold the shard lock, a snapshot can never miss a journaled-but-
//! unapplied batch.
//!
//! ## IO errors
//!
//! A failed journal write is counted (`io_errors`), reported on
//! stderr, and *not* propagated into the apply path: the in-memory
//! store stays correct and serving, durability degrades. Panicking in
//! a shard applier would instead wedge the ingest service's shutdown
//! drain — availability-first, like the rest of the pipeline. The
//! writer rewinds a failed write to its last whole frame, so later
//! batches still replay; a writer that cannot rewind is poisoned, and
//! the records of every batch it then refuses are counted
//! (`records_unjournaled`) until compaction replaces its log. A
//! compaction that puts its snapshot in place but cannot replace the
//! log poisons the writer the same way (and counts one `io_errors`):
//! recovery would discard that log as stale.

use crate::record::{encode_ack, encode_beacon, encode_served, WalRecord};
use crate::rollup::{ShardRollup, HOURS_PER_DAY};
use crate::snapshot::{place_snapshot, read_snapshot, ShardSnapshot};
use crate::sync::atomic::Ordering;
use crate::sync::{thread, Arc, Mutex};
use crate::wal::{served_hint, sync_dir, wal_path, SyncPolicy, WalStream, WalWriter};
use crate::StoreStats;
use qtag_obs::HistogramSnapshot;
use qtag_server::{
    shard_of, ApplyOutcome, ImpressionStore, ServedImpression, ShardJournal, ShardedStore, Timeline,
};
use qtag_wire::Beacon;
use std::io;
use std::path::{Path, PathBuf};

/// The surface of a store the bench pipelines program against: the
/// sharded in-memory store every read serves from, plus what makes it
/// durable. A backend changes durability, never observable analytics.
pub trait StorageBackend: Send + Sync {
    /// The sharded in-memory store every read path serves from.
    fn store(&self) -> &ShardedStore;

    /// Journal hook to thread into [`qtag_server::IngestConfig`] so
    /// shard appliers write ahead; `None` for a backend that keeps no
    /// log.
    fn journal(&self) -> Option<Arc<dyn ShardJournal>>;

    /// Registers a served impression (journaled when durable).
    fn record_served(&self, s: ServedImpression);

    /// Applies one beacon outside the ingest service (journaled when
    /// durable). Test harnesses and replay drivers use this; the hot
    /// path goes through the ingest appliers and [`Self::journal`].
    fn apply(&self, beacon: &Beacon);

    /// Journals an ack confirmation (no store effect; the durable log
    /// keeps the full conversation for audit).
    fn append_ack(&self, impression_id: u64, seq: u16);

    /// Forces everything journaled so far to stable storage.
    fn flush(&self) -> io::Result<()>;

    /// Snapshots every shard and truncates its WAL.
    fn compact(&self) -> io::Result<()>;
}

/// Configuration for [`DurableBackend::open`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Directory holding `shard-NNN.wal` / `shard-NNN.snap` files
    /// (created if absent).
    pub dir: PathBuf,
    /// Shard count; must match across restarts of the same directory
    /// ([`DurableBackend::open`] refuses a mismatch).
    pub shards: usize,
    /// When appended records reach stable storage.
    pub sync: SyncPolicy,
}

impl DurableConfig {
    /// Batch-sync config for `shards` shards under `dir`.
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> Self {
        DurableConfig {
            dir: dir.into(),
            shards,
            sync: SyncPolicy::Batch,
        }
    }
}

/// What recovery found on open: how much state came back and from
/// where. All counts are summed across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards opened.
    pub shards: usize,
    /// Snapshots loaded (≤ shards).
    pub snapshots_loaded: u64,
    /// Total WAL records replayed on top of snapshots.
    pub records_replayed: u64,
    /// Of those, beacon records.
    pub beacons_replayed: u64,
    /// Of those, served-register records.
    pub served_replayed: u64,
    /// Of those, ack records (audit-only, no store effect).
    pub acks_replayed: u64,
    /// Shards whose WAL ended in a torn/corrupt tail that recovery
    /// truncated.
    pub truncated_tails: u64,
    /// WALs discarded because their epoch predated the shard's
    /// snapshot (compaction crash window; contents already snapshot).
    pub stale_wals_discarded: u64,
}

impl RecoveryReport {
    fn add(&mut self, other: &RecoveryReport) {
        self.shards += other.shards;
        self.snapshots_loaded += other.snapshots_loaded;
        self.records_replayed += other.records_replayed;
        self.beacons_replayed += other.beacons_replayed;
        self.served_replayed += other.served_replayed;
        self.acks_replayed += other.acks_replayed;
        self.truncated_tails += other.truncated_tails;
        self.stale_wals_discarded += other.stale_wals_discarded;
    }
}

/// One shard's journal: WAL writer + rollup + encode scratch, mutated
/// together. Locked only while the owning shard's store lock is held
/// (see module docs).
struct ShardJournalState {
    writer: WalWriter,
    rollup: ShardRollup,
    /// Reused frame-encoding buffer: group appends encode into this
    /// instead of allocating (and page-faulting) a fresh buffer per
    /// group on the hot path.
    scratch: Vec<u8>,
}

struct DurableInner {
    store: ShardedStore,
    journals: Vec<Mutex<ShardJournalState>>,
    stats: Arc<StoreStats>,
    dir: PathBuf,
    sync: SyncPolicy,
    /// Per-shard dirty marks for the flusher thread (Batch policy).
    #[cfg(not(qtag_check))]
    dirty: Vec<crate::sync::atomic::AtomicBool>,
}

impl DurableInner {
    /// Journals one record on shard `shard`: `encode` frames it into
    /// the journal's reused scratch buffer (and may fold it into the
    /// rollup), then the frame is appended and the stats settled.
    /// Caller holds the shard's store lock.
    fn journal_one(&self, shard: usize, encode: impl FnOnce(&mut Vec<u8>, &mut ShardRollup)) {
        let mut j = self.journals[shard].lock();
        let mut framed = std::mem::take(&mut j.scratch);
        framed.clear();
        encode(&mut framed, &mut j.rollup);
        self.journal_locked(&mut j, shard, &framed, 1);
        j.scratch = framed;
    }

    /// Journals a pre-framed buffer of `records` records on shard
    /// `shard` and settles the stats, with the journal lock held.
    fn journal_locked(
        &self,
        j: &mut ShardJournalState,
        shard: usize,
        framed: &[u8],
        records: usize,
    ) {
        if j.writer.is_poisoned() {
            // ordering: Relaxed — monotone counter.
            self.stats
                .records_unjournaled
                .fetch_add(records as u64, Ordering::Relaxed);
            return;
        }
        let syncs = j.writer.syncs_for(records);
        match j.writer.append(framed, records) {
            Ok(()) => {
                if self.sync == SyncPolicy::Batch {
                    // Real build: hand the device round trip to the
                    // flusher thread. Model build: sync inline so the
                    // checker never schedules a foreign IO thread.
                    #[cfg(not(qtag_check))]
                    // ordering: Release pairs with the flusher's
                    // AcqRel swap — the mark is observed only after
                    // the append above.
                    self.dirty[shard].store(true, Ordering::Release);
                    #[cfg(qtag_check)]
                    match j.writer.sync() {
                        Ok(()) => {
                            // ordering: Relaxed — monotone counter.
                            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // ordering: Relaxed — monotone counter.
                            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // ordering: Relaxed — monotone statistics; readers see
                // them through snapshots, no memory is published.
                self.stats
                    .records_appended
                    .fetch_add(records as u64, Ordering::Relaxed);
                // ordering: Relaxed — same counter-only reasoning.
                self.stats.batches_appended.fetch_add(1, Ordering::Relaxed);
                // ordering: Relaxed — same counter-only reasoning.
                self.stats
                    .bytes_appended
                    .fetch_add(framed.len() as u64, Ordering::Relaxed);
                // ordering: Relaxed — same counter-only reasoning.
                self.stats.fsyncs.fetch_add(syncs, Ordering::Relaxed);
            }
            Err(e) => {
                // ordering: Relaxed — error tally, read via snapshots.
                self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("qtag-store: shard {shard} WAL append failed: {e}");
            }
        }
    }
}

impl ShardJournal for DurableInner {
    fn append_beacons(&self, shard: usize, batch: &[Beacon], outcomes: &[ApplyOutcome]) {
        if batch.is_empty() {
            return;
        }
        debug_assert_eq!(batch.len(), outcomes.len());
        let mut j = self.journals[shard].lock();
        let mut framed = std::mem::take(&mut j.scratch);
        framed.clear();
        for (b, o) in batch.iter().zip(outcomes) {
            encode_beacon(b, &mut framed);
            j.rollup.record(b, o);
        }
        self.journal_locked(&mut j, shard, &framed, batch.len());
        j.scratch = framed;
    }
}

/// WAL-backed store: per-shard append-only logs, snapshot compaction,
/// rollup-served timelines. Clones share the backend (`Arc` inside).
#[derive(Clone)]
pub struct DurableBackend {
    inner: Arc<DurableInner>,
}

impl std::fmt::Debug for DurableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableBackend")
            .field("dir", &self.inner.dir)
            .field("shards", &self.inner.journals.len())
            .finish()
    }
}

impl DurableBackend {
    /// Opens (and recovers) a durable store under `config.dir`.
    ///
    /// Recovery per shard: load the snapshot if one exists, then
    /// replay the WAL on top — unless the WAL's epoch predates the
    /// snapshot (compaction crash window), in which case the WAL's
    /// contents are already inside the snapshot and the log is
    /// discarded. A WAL epoch *newer* than the snapshot means the
    /// snapshot file was lost after compaction — unrecoverable without
    /// inventing data, so it is a hard error. Torn tails are truncated
    /// and counted. A WAL is streamed and applied a few hundred records
    /// at a time, so recovery holds the store and a read buffer, never
    /// the log.
    ///
    /// Shards recover in parallel on `min(shards, cores)` workers, the
    /// calling thread among them. Each worker returns its shards'
    /// reports and rollups; they are folded in shard order after the
    /// join, and the lowest-numbered failing shard's error is the one
    /// returned — the outcome of recovering the shards one by one.
    ///
    /// A directory written with another shard count is refused with
    /// `InvalidData` — a `shard-NNN` file with NNN ≥ `config.shards`, a
    /// WAL or snapshot header naming another shard than its file, or a
    /// served impression that does not route to the shard holding it —
    /// because loading it would strand verdicts on shards their beacons
    /// never reach. A snapshot record for an impression the snapshot
    /// does not register is refused the same way: the store keeps a
    /// record only beside its served row. Every shard is recovered
    /// before any file is opened for writing, so a refused directory is
    /// left as it was found.
    pub fn open(config: DurableConfig) -> io::Result<(DurableBackend, RecoveryReport)> {
        assert!(config.shards >= 1, "shard count must be positive");
        std::fs::create_dir_all(&config.dir)?;
        check_shard_files(&config.dir, config.shards)?;

        // One worker per core, the calling thread among them; worker
        // `w` recovers shards `w`, `w + workers`, … in order, each into
        // a store of its own that is installed after the join.
        let shards = config.shards;
        let workers = shards.min(crate::sync::available_parallelism());
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                let dir = config.dir.clone();
                thread::spawn(move || recover_strided(&dir, shards, w, workers))
            })
            .collect();
        let mut outcomes = recover_strided(&config.dir, shards, 0, workers);
        for h in helpers {
            outcomes.extend(
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        // A worker stops at its first error, so every shard below the
        // lowest failed one is here: the fold returns that shard's
        // error, as recovering the shards in turn would.
        outcomes.sort_by_key(|(shard, _)| *shard);
        let store = ShardedStore::new(shards);
        let mut report = RecoveryReport::default();
        let mut recovered = Vec::with_capacity(shards);
        for (shard, outcome) in outcomes {
            let r = outcome?;
            report.add(&r.report);
            *store.shard(shard).lock() = r.store;
            recovered.push((r.epoch, r.append_at, r.rollup));
        }
        debug_assert_eq!(report.shards, config.shards);
        let stats = Arc::new(StoreStats::new());
        // ordering: Relaxed — recovery-time statistic, published with
        // the backend's `Arc`.
        stats
            .snapshots_loaded
            .fetch_add(report.snapshots_loaded, Ordering::Relaxed);
        // ordering: Relaxed — same.
        stats
            .truncated_records
            .fetch_add(report.truncated_tails, Ordering::Relaxed);
        // ordering: Relaxed — same.
        stats
            .records_recovered
            .fetch_add(report.records_replayed, Ordering::Relaxed);

        let mut journals = Vec::with_capacity(config.shards);
        for (shard, (epoch, append_at, rollup)) in recovered.into_iter().enumerate() {
            let writer = WalWriter::open(&config.dir, shard, epoch, append_at, config.sync)?;
            journals.push(Mutex::new(ShardJournalState {
                writer,
                rollup,
                scratch: Vec::new(),
            }));
        }

        let inner = Arc::new(DurableInner {
            store,
            journals,
            stats,
            dir: config.dir,
            sync: config.sync,
            #[cfg(not(qtag_check))]
            dirty: (0..config.shards)
                .map(|_| crate::sync::atomic::AtomicBool::new(false))
                .collect(),
        });
        #[cfg(not(qtag_check))]
        if config.sync == SyncPolicy::Batch {
            let weak = Arc::downgrade(&inner);
            thread::spawn(move || flusher_loop(weak));
        }
        Ok((DurableBackend { inner }, report))
    }

    /// The backend's counters (append volume, fsyncs, recovery,
    /// compactions). Register under `qtag_store` on a metrics
    /// registry.
    pub fn stats(&self) -> &Arc<StoreStats> {
        &self.inner.stats
    }

    /// Hourly rollup timeline merged across shards. Bit-identical to a
    /// timeline fed every journaled beacon (per-shard impression
    /// disjointness; see `tests/sharded_equivalence.rs`).
    pub fn merged_hourly(&self) -> Timeline {
        let mut it = self.inner.journals.iter();
        let first = it.next().expect("at least one shard");
        let mut merged = first.lock().rollup.hourly.clone();
        for j in it {
            merged.merge(&j.lock().rollup.hourly);
        }
        merged
    }

    /// Daily rollup timeline merged across shards, derived exactly
    /// from the merged hourly buckets (see [`Timeline::coarsen`]).
    pub fn merged_daily(&self) -> Timeline {
        self.merged_hourly().coarsen(HOURS_PER_DAY)
    }

    /// Exposure-duration histogram (ms) merged across shards.
    pub fn merged_exposure(&self) -> HistogramSnapshot {
        self.merged_hist(|r| &r.exposure)
    }

    /// Visible-fraction histogram (‰) merged across shards.
    pub fn merged_fraction(&self) -> HistogramSnapshot {
        self.merged_hist(|r| &r.fraction)
    }

    fn merged_hist(&self, pick: impl Fn(&ShardRollup) -> &HistogramSnapshot) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for j in &self.inner.journals {
            merged = merged.merge(pick(&j.lock().rollup));
        }
        merged
    }

    /// Snapshots shard `shard` and truncates its WAL. Holds the shard
    /// store lock throughout, so concurrent appliers are excluded and
    /// the snapshot/WAL pair stays consistent.
    pub fn compact_shard(&self, shard: usize) -> io::Result<()> {
        let inner = &self.inner;
        let st = inner.store.shard(shard).lock();
        let mut j = inner.journals[shard].lock();
        let epoch = j.writer.epoch() + 1;

        let mut served: Vec<ServedImpression> = st.iter_joined().map(|(s, _)| s).collect();
        served.sort_by_key(|s| s.impression_id);
        let mut records: Vec<(u64, qtag_server::ImpressionRecord)> = st
            .iter_joined()
            .filter_map(|(s, r)| r.map(|r| (s.impression_id, r.clone())))
            .collect();
        records.sort_by_key(|(id, _)| *id);
        let (hourly, exposure, fraction) = j.rollup.export();
        let snap = ShardSnapshot {
            epoch,
            orphan_beacons: st.orphan_beacons(),
            unique_beacons: st.unique_beacons(),
            total_duplicates: st.total_duplicates(),
            served,
            records,
            hourly,
            exposure,
            fraction,
        };
        place_snapshot(&inner.dir, shard, &snap)?;
        if let Err(e) = sync_dir(&inner.dir).and_then(|()| j.writer.reset_to_epoch(epoch)) {
            // The epoch-`epoch` snapshot is in place, so recovery will
            // discard the old log as stale: nothing appended to it can
            // come back. Poison it, so every later record is counted
            // in `records_unjournaled` until a compaction succeeds.
            // (Had the directory sync failed and power been lost, the
            // old snapshot could come back instead; the records would
            // be lost all the same.)
            j.writer.poison();
            // ordering: Relaxed — error tally, read via snapshots.
            inner.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // ordering: Relaxed — monotone statistic.
        inner.stats.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Bytes currently in shard `shard`'s WAL (header included) —
    /// the compaction trigger input.
    pub fn wal_len(&self, shard: usize) -> u64 {
        self.inner.journals[shard].lock().writer.len()
    }
}

impl StorageBackend for DurableBackend {
    fn store(&self) -> &ShardedStore {
        &self.inner.store
    }

    fn journal(&self) -> Option<Arc<dyn ShardJournal>> {
        Some(Arc::clone(&self.inner) as Arc<dyn ShardJournal>)
    }

    fn record_served(&self, s: ServedImpression) {
        let inner = &self.inner;
        let shard = inner.store.shard_of(s.impression_id);
        let mut st = inner.store.shard(shard).lock();
        inner.journal_one(shard, |framed, _| encode_served(&s, framed));
        st.record_served(s);
    }

    fn apply(&self, beacon: &Beacon) {
        let inner = &self.inner;
        let shard = inner.store.shard_of(beacon.impression_id);
        let mut st = inner.store.shard(shard).lock();
        let outcome = st.apply(beacon);
        inner.journal_one(shard, |framed, rollup| {
            encode_beacon(beacon, framed);
            rollup.record(beacon, &outcome);
        });
    }

    fn append_ack(&self, impression_id: u64, seq: u16) {
        let inner = &self.inner;
        let shard = inner.store.shard_of(impression_id);
        let _st = inner.store.shard(shard).lock();
        inner.journal_one(shard, |framed, _| encode_ack(impression_id, seq, framed));
    }

    fn flush(&self) -> io::Result<()> {
        for (shard, j) in self.inner.journals.iter().enumerate() {
            let _st = self.inner.store.shard(shard).lock();
            j.lock().writer.sync()?;
        }
        Ok(())
    }

    fn compact(&self) -> io::Result<()> {
        for shard in 0..self.inner.journals.len() {
            self.compact_shard(shard)?;
        }
        Ok(())
    }
}

/// Applies a full WAL record stream to a bare [`ImpressionStore`] —
/// the reference "full replay" the rollup/recovery equivalence tests
/// compare against.
pub fn replay_into(store: &mut ImpressionStore, records: &[WalRecord]) {
    for rec in records {
        match rec {
            WalRecord::Served(s) => store.record_served(s.clone()),
            WalRecord::Beacon(b) => {
                store.apply(b);
            }
            WalRecord::Ack { .. } => {}
        }
    }
}

/// Refuses a directory holding a `shard-NNN.{wal,snap}` file with
/// NNN ≥ `shards`: opening it would silently drop that shard's state.
fn check_shard_files(dir: &Path, shards: usize) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some((idx, ext)) = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|n| n.split_once('.'))
        else {
            continue;
        };
        if matches!(ext, "wal" | "snap") && idx.parse::<usize>().is_ok_and(|i| i >= shards) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: store was written with more than {shards} shards",
                    dir.join(&name).display()
                ),
            ));
        }
    }
    Ok(())
}

/// Refuses a served impression recovered into a shard it does not
/// route to under the configured shard count.
fn check_route(shards: usize, shard: usize, impression_id: u64) -> io::Result<()> {
    let owner = shard_of(impression_id, shards);
    if owner == shard {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "shard {shard} holds impression {impression_id}, which routes to shard {owner} \
             of {shards}: store was written with another shard count"
        ),
    ))
}

/// Records recovery decodes before it applies them. On a 2-core Xeon
/// VM a 2-shard `ingest_durable` log recovered about twice as fast
/// decoding a run of frames and then applying it as when decode and
/// apply alternate per record (each loop, it seems, keeps its own
/// tables in cache). The batch is 256 records (some 10 KB), whatever
/// the log's length.
const APPLY_BATCH: usize = 256;

/// What recovery rebuilt for one shard, for [`DurableBackend::open`]
/// to fold in shard order.
struct ShardRecovery {
    store: ImpressionStore,
    epoch: u64,
    /// Where the writer resumes; `None` starts a fresh log.
    append_at: Option<u64>,
    rollup: ShardRollup,
    /// This shard's counts (`shards == 1`).
    report: RecoveryReport,
}

/// One recovery worker over a `shards`-shard directory: shards
/// `first`, `first + step`, … in order, stopping after the first that
/// fails.
fn recover_strided(
    dir: &Path,
    shards: usize,
    first: usize,
    step: usize,
) -> Vec<(usize, io::Result<ShardRecovery>)> {
    let mut out = Vec::new();
    for shard in (first..shards).step_by(step) {
        let outcome = recover_shard(dir, shards, shard);
        let failed = outcome.is_err();
        out.push((shard, outcome));
        if failed {
            break;
        }
    }
    out
}

/// Recovers shard `shard` of `shards`: the snapshot, if any, then the
/// WAL streamed on top (see [`DurableBackend::open`]).
fn recover_shard(dir: &Path, shards: usize, shard: usize) -> io::Result<ShardRecovery> {
    let mut st = ImpressionStore::new();
    let mut report = RecoveryReport {
        shards: 1,
        ..RecoveryReport::default()
    };
    let mut epoch = 0;
    let mut rollup = ShardRollup::new();
    if let Some(snap) = read_snapshot(dir, shard)? {
        epoch = snap.epoch;
        st.reserve(snap.served.len());
        for s in snap.served {
            check_route(shards, shard, s.impression_id)?;
            st.record_served(s);
        }
        for (id, rec) in snap.records {
            if !st.restore_record(id, rec) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("shard {shard}: snapshot record for unregistered impression {id}"),
                ));
            }
        }
        st.restore_counters(
            snap.orphan_beacons,
            snap.unique_beacons,
            snap.total_duplicates,
        );
        rollup = ShardRollup::restore(snap.hourly, &snap.exposure, &snap.fraction);
        report.snapshots_loaded = 1;
    }

    let path = wal_path(dir, shard);
    let append_at = if path.exists() {
        let mut wal = WalStream::open(&path)?;
        let header = wal.header();
        if header.shard != shard as u16 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: WAL header names shard {}",
                    path.display(),
                    header.shard
                ),
            ));
        }
        if header.epoch < epoch {
            // Stale log from the compaction crash window: its records
            // are inside the snapshot already, so none is decoded.
            report.stale_wals_discarded = 1;
            None
        } else if header.epoch > epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard {shard}: WAL epoch {} but snapshot epoch {epoch} — \
                     snapshot lost after compaction",
                    header.epoch
                ),
            ));
        } else {
            // Sized once from a pass over the length prefixes, so
            // replay never grows the table by doubling (see
            // `wal::served_hint` for how far the hint can over-count).
            st.reserve(served_hint(&path)?);
            let mut batch = Vec::with_capacity(APPLY_BATCH);
            while wal.next_records(&mut batch, APPLY_BATCH)? > 0 {
                report.records_replayed += batch.len() as u64;
                // The batch's beacon rows are read before any of it is
                // replayed, as the shard applier does per group (see
                // `ImpressionStore::apply_group`).
                st.read_ahead(batch.iter().filter_map(|rec| match rec {
                    WalRecord::Beacon(b) => Some(b.impression_id),
                    _ => None,
                }));
                for rec in batch.drain(..) {
                    match rec {
                        WalRecord::Served(s) => {
                            check_route(shards, shard, s.impression_id)?;
                            report.served_replayed += 1;
                            st.record_served(s);
                        }
                        WalRecord::Beacon(b) => {
                            report.beacons_replayed += 1;
                            let outcome = st.apply(&b);
                            rollup.record(&b, &outcome);
                        }
                        WalRecord::Ack { .. } => report.acks_replayed += 1,
                    }
                }
            }
            let tail = wal.finish()?;
            if tail.torn.is_some() {
                report.truncated_tails = 1;
            }
            Some(tail.valid_len)
        }
    } else {
        None
    };
    Ok(ShardRecovery {
        store: st,
        epoch,
        append_at,
        rollup,
        report,
    })
}

/// The Batch-policy flusher: turns per-shard dirty marks into
/// `sync_data` calls on a dedicated thread, so appliers never wait on
/// the device. Each sweep clones the current log's file handle under
/// the journal lock (microseconds) and fsyncs *outside* it (the
/// device round trip) — concurrent appends keep flowing, and a WAL
/// rotated by compaction mid-sync just gets a harmless fsync of the
/// retired file. Holds only a `Weak` so the backend can die; the
/// thread notices within one idle sleep and exits.
#[cfg(not(qtag_check))]
fn flusher_loop(inner: crate::sync::Weak<DurableInner>) {
    use crate::sync::time::Duration;
    loop {
        let Some(inner) = inner.upgrade() else { break };
        let mut any = false;
        for (shard, dirty) in inner.dirty.iter().enumerate() {
            // ordering: AcqRel pairs with the Release store in
            // `journal_locked` — clearing the mark happens-after the
            // append it covers, so the handle cloned below sees those
            // bytes.
            if dirty.swap(false, Ordering::AcqRel) {
                any = true;
                let handle = inner.journals[shard].lock().writer.sync_handle();
                match handle.and_then(|f| f.sync_data()) {
                    Ok(()) => {
                        // ordering: Relaxed — monotone counter.
                        inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // ordering: Relaxed — monotone counter.
                        inner.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        drop(inner); // release the Arc before sleeping
        if !any {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use qtag_wire::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};

    fn served(id: u64) -> ServedImpression {
        ServedImpression {
            impression_id: id,
            campaign_id: 3,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            ad_format: AdFormat::Display,
        }
    }

    fn beacon(id: u64, seq: u16) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 3,
            event: EventKind::Measurable,
            timestamp_us: 1_000 * u64::from(seq),
            ad_format: AdFormat::Display,
            visible_fraction_milli: 700,
            exposure_ms: 1_100,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    #[test]
    fn a_poisoned_log_counts_what_it_refuses_until_compaction() {
        let dir = test_dir("backend_poisoned");
        let config = DurableConfig {
            dir: dir.clone(),
            shards: 1,
            sync: SyncPolicy::NoSync,
        };
        let (backend, _) = DurableBackend::open(config.clone()).unwrap();
        backend.record_served(served(1));
        backend.apply(&beacon(1, 0));
        {
            let mut j = backend.inner.journals[0].lock();
            j.writer.tear_next_write = Some(5);
            j.writer.fail_next_rewind = true;
        }
        backend.apply(&beacon(1, 1));
        journal_group(&backend, &[beacon(1, 2), beacon(1, 3)]);
        let stats = backend.stats().snapshot();
        assert_eq!(stats.io_errors, 1, "the torn append");
        assert_eq!(stats.records_unjournaled, 2, "the group refused after it");
        assert_eq!(stats.records_appended, 2);
        assert_eq!(
            backend.store().unique_beacons(),
            4,
            "the store kept serving"
        );

        // Compaction snapshots all four beacons and replaces the log.
        backend.compact().unwrap();
        backend.apply(&beacon(1, 4));
        assert_eq!(backend.stats().snapshot().records_unjournaled, 2);
        drop(backend);
        let (recovered, report) = DurableBackend::open(config).unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(recovered.store().unique_beacons(), 5);
        assert_eq!(recovered.store().verdict(1), (true, false));
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction whose snapshot lands but whose log reset fails
    /// (here: a directory squats on the reset's temp path) leaves the
    /// old log behind a newer snapshot, so recovery discards it as
    /// stale. Every record appended after the failure is lost on
    /// restart, so each must be counted, not journaled in silence.
    #[test]
    fn a_compaction_that_cannot_reset_its_log_counts_what_follows() {
        compaction_failure_counts_what_follows("backend_failed_reset", |dir| {
            std::fs::create_dir(wal_path(dir, 0).with_extension("wal.tmp")).unwrap();
        });
    }

    /// The same when the snapshot is renamed into place but the
    /// directory sync after the rename fails: the old log is stale
    /// once the new snapshot is read, so the writer is poisoned.
    #[test]
    fn a_compaction_whose_directory_sync_fails_counts_what_follows() {
        compaction_failure_counts_what_follows("backend_failed_dir_sync", |_| {
            crate::wal::FAIL_NEXT_DIR_SYNC.with(|fail| fail.set(true));
        });
    }

    /// Journals 10 impressions, plants a failure with `plant`, compacts
    /// (which must fail), journals 10 more, and checks the tallies and
    /// what a reopen recovers.
    fn compaction_failure_counts_what_follows(tag: &str, plant: impl FnOnce(&Path)) {
        let dir = test_dir(tag);
        let config = DurableConfig {
            dir: dir.clone(),
            shards: 1,
            sync: SyncPolicy::NoSync,
        };
        let (backend, _) = DurableBackend::open(config.clone()).unwrap();
        for id in 0..10 {
            backend.record_served(served(id));
            backend.apply(&beacon(id, 0));
        }
        plant(&dir);
        assert!(backend.compact().is_err());
        for id in 10..20 {
            backend.record_served(served(id));
            backend.apply(&beacon(id, 0));
        }
        backend.flush().unwrap();
        let stats = backend.stats().snapshot();
        assert!(stats.io_errors >= 1, "{stats:?}");
        assert_eq!(stats.compactions, 0, "{stats:?}");
        assert_eq!(stats.records_unjournaled, 20, "10 served + 10 beacons");
        assert_eq!(
            backend.store().unique_beacons(),
            20,
            "the store kept serving"
        );
        drop(backend);

        let (recovered, report) = DurableBackend::open(config).unwrap();
        assert_eq!(report.stale_wals_discarded, 1, "{report:?}");
        let store = recovered.store();
        assert_eq!(store.served_count(), 10);
        assert_eq!(store.unique_beacons(), 10);
        let shard = store.shard(0).lock();
        for id in 0..20 {
            assert_eq!(shard.served(id).is_some(), id < 10, "impression {id}");
        }
        drop(shard);
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Applies and journals `group` on shard 0 as an ingest applier
    /// does.
    fn journal_group(backend: &DurableBackend, group: &[Beacon]) {
        let mut st = backend.store().shard(0).lock();
        let mut outcomes = Vec::new();
        st.apply_group(group, &mut outcomes);
        backend
            .journal()
            .unwrap()
            .append_beacons(0, group, &outcomes);
    }
}
