//! Schedule-exploration models for the durable store, built only under
//! `--cfg qtag_check`:
//!
//! ```text
//! RUSTFLAGS="--cfg qtag_check" cargo test -p qtag-store --test check_models
//! ```
//!
//! Two families:
//!
//! 1. The Batch-policy **flusher dirty-mark protocol**. The real
//!    `flusher_loop` is compiled out under `qtag_check` (it free-runs
//!    against a wall-clock idle sleep), so these models replicate its
//!    handshake over the same facade primitives: appenders append under
//!    the journal lock then `store(true, Release)` a dirty mark, the
//!    flusher `swap(false, AcqRel)`s the mark and reads the journal
//!    under the lock. The passing model proves the invariant the real
//!    thread relies on ("clearing the mark happens-after the append it
//!    covers"); the must-fail twins revert the append/mark order and
//!    downgrade the mark to `Relaxed`, and the checker must catch both
//!    (the latter via the happens-before race detector).
//!
//! 2. The **real `DurableBackend`** scheduled by the checker:
//!    concurrent appliers journal to per-shard WALs on disk, and every
//!    schedule must conserve counts and recover bit-identically.
#![cfg(qtag_check)]

use qtag_check::sync::thread;
use qtag_check::{Builder, FailureKind};
use qtag_server::ServedImpression;
use qtag_store::sync::atomic::{AtomicBool, Ordering};
use qtag_store::sync::{Arc, Mutex};
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, SyncPolicy};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

/// Miniature of `backend.rs`'s Batch flusher handshake. Appenders push
/// one record each and set the dirty mark; a one-sweep flusher races
/// them; the main thread runs the final drain sweep after joining (the
/// real system's shutdown `flush`). The invariant: a final clear mark
/// means every append was covered by some flush.
///
/// `mark_after_append` selects the real protocol (append under lock,
/// *then* mark) or the buggy inversion. `release_mark` selects the real
/// orderings (`Release` store / `AcqRel` swap) or fully `Relaxed` ones.
fn flusher_protocol(
    mark_after_append: bool,
    release_mark: bool,
) -> impl Fn() + Send + Sync + 'static {
    move || {
        let (store_ord, swap_ord) = if release_mark {
            (Ordering::Release, Ordering::AcqRel)
        } else {
            (Ordering::Relaxed, Ordering::Relaxed)
        };
        let wal = Arc::new(Mutex::new(Vec::new()));
        let dirty = Arc::new(AtomicBool::new(false));
        let appenders: Vec<_> = (0..2u64)
            .map(|i| {
                let wal = Arc::clone(&wal);
                let dirty = Arc::clone(&dirty);
                thread::spawn(move || {
                    if mark_after_append {
                        wal.lock().push(i);
                        dirty.store(true, store_ord);
                    } else {
                        // The bug: a sweep between the mark and the
                        // append clears the mark without covering the
                        // record, and nothing re-marks it.
                        dirty.store(true, store_ord);
                        wal.lock().push(i);
                    }
                })
            })
            .collect();
        let flusher = {
            let wal = Arc::clone(&wal);
            let dirty = Arc::clone(&dirty);
            thread::spawn(move || {
                let mut flushed = 0;
                if dirty.swap(false, swap_ord) {
                    flushed = wal.lock().len();
                }
                flushed
            })
        };
        for a in appenders {
            a.join().unwrap();
        }
        let mut flushed = flusher.join().unwrap();
        // Shutdown drain: one last sweep from the main thread.
        if dirty.swap(false, swap_ord) {
            flushed = wal.lock().len();
        }
        assert_eq!(
            flushed, 2,
            "mark clear without covering every append that preceded it"
        );
    }
}

#[test]
fn flusher_dirty_mark_never_loses_an_append() {
    // The unbounded 4-thread tree runs to ~43k schedules even reduced;
    // with a preemption bound of 2 (every real flusher bug here needs
    // at most one mid-append sweep) sleep sets collapse it to a few
    // hundred, well inside the budget.
    let report = Builder {
        max_schedules: 8_192,
        ..Builder::bounded(2)
    }
    .check(flusher_protocol(true, true));
    assert!(report.complete, "schedules: {}", report.schedules);
    assert!(report.schedules > 1);
}

#[test]
fn mark_before_append_loses_a_flush() {
    let failure = Builder::default()
        .try_check(flusher_protocol(false, true))
        .expect_err("the inverted protocol must lose an append in some schedule");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(
        failure.message.contains("without covering every append"),
        "{}",
        failure.message
    );
}

#[test]
fn relaxed_dirty_mark_is_flagged_as_a_race() {
    // Downgrade the load-bearing Release/AcqRel pair to Relaxed: the
    // mark store and the flusher's swap become conflicting accesses
    // unordered by happens-before, and the detector must name both
    // sites (both live in this file).
    let failure = Builder::default()
        .try_check(flusher_protocol(true, false))
        .expect_err("a Relaxed handshake must be reported as a data race");
    assert_eq!(failure.kind, FailureKind::Race);
    assert_eq!(
        failure
            .message
            .matches("crates/store/tests/check_models.rs")
            .count(),
        2,
        "both access sites must be named: {}",
        failure.message
    );
}

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

fn beacon(id: u64, seq: u16) -> Beacon {
    Beacon {
        impression_id: id,
        campaign_id: 1,
        event: EventKind::InView,
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

/// This process's root for [`scratch_dir`]: one directory to remove
/// once the check ends, whatever the executions it abandoned left.
fn scratch_root() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qtag-store-model-{}", std::process::id()))
}

/// Fresh scratch directory per execution (the checker re-runs the
/// closure once per schedule; a process-wide std counter is invisible
/// to the scheduler, so directory names never perturb exploration).
/// Whatever already sits at the path — left by an earlier process that
/// had the same pid — is removed first, so every execution opens an
/// empty directory.
fn scratch_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_root().join(n.to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn concurrent_appliers_conserve_and_recover() {
    // The real backend under the checker: two appliers journal one
    // beacon each to *different* shards (ids 0 and 1 route apart on a
    // 2-shard store), so their store/journal locks never contend and
    // sleep sets collapse most interleavings. The shared `StoreStats`
    // counters are genuine Relaxed RMW conflicts — the workspace's
    // "monotone statistic" pattern — so the model allowlists
    // `backend.rs` and asserts the allowlist is load-bearing.
    let report = Builder {
        max_schedules: 8_192,
        ..Builder::default()
    }
    .allow_race("crates/store/src/backend.rs")
    .check(|| {
        let dir = scratch_dir();
        let (backend, recovery) = DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards: 2,
            sync: SyncPolicy::NoSync,
        })
        .expect("open fresh store");
        assert_eq!(recovery.records_replayed, 0);
        // Register the impressions before racing the appliers, so the
        // applied beacons join to served records (not orphans).
        backend.record_served(served(0));
        backend.record_served(served(1));
        let backend = Arc::new(backend);
        let handles: Vec<_> = [0u64, 1u64]
            .into_iter()
            .map(|id| {
                let backend = Arc::clone(&backend);
                thread::spawn(move || backend.apply(&beacon(id, 0)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = backend.stats().snapshot();
        // 2 served registrations + 2 applied beacons, one batch each.
        assert_eq!(snap.records_appended, 4, "every record journaled");
        assert_eq!(snap.batches_appended, 4);
        assert_eq!(backend.store().unique_beacons(), 2);
        backend.flush().expect("flush");
        // Close the WAL handles before reopening the directory.
        drop(Arc::try_unwrap(backend).expect("all appliers joined"));
        let (reopened, recovery) = DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards: 2,
            sync: SyncPolicy::NoSync,
        })
        .expect("recover");
        assert_eq!(recovery.beacons_replayed, 2, "recovery replays both");
        assert_eq!(reopened.store().unique_beacons(), 2);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    });
    // Executions the checker abandoned mid-schedule never reached the
    // removal above.
    let _ = std::fs::remove_dir_all(scratch_root());
    assert!(report.complete, "schedules: {}", report.schedules);
    assert!(
        report.races > 0,
        "the backend.rs allowlist should be load-bearing (Relaxed stat counters)"
    );
}
