//! The four workloads, and the daemon configuration the two back-half
//! workloads share.

pub mod campaign_replay;
pub mod ingest_durable;
pub mod live_serving;
pub mod resident_fleet;

use crate::harness::{Report, RunArgs};
use crate::stats;
use crate::timed::TimedJournal;
use qtag_collectd::CollectorConfig;
use qtag_obs::{Registry, Stage, TraceRing};
use qtag_server::ShardJournal;
use qtag_store::{DurableBackend, StorageBackend};
use qtag_wire::sender::SenderStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

/// Store shards of the daemon under test.
pub const SHARDS: usize = 2;

/// ROADMAP's "reactor collectd with the durable batch-sync backend":
/// epoll reactor with two workers, two shards, batches of 64. The inlet
/// is deep enough that nothing is shed: a shed beacon is a failed
/// operation, and the workloads are sized so that none fails.
pub fn daemon_config() -> CollectorConfig {
    CollectorConfig {
        reactor: true,
        reactor_workers: 2,
        batch: 64,
        inlet_capacity: 1 << 20,
        ..CollectorConfig::default()
    }
}

/// Bytes the daemon decoded per socket read, from its own trace ring:
/// the median frames per decode span among the last few thousand spans
/// the ring still holds, times the frame size.
pub fn bytes_per_read(ring: &TraceRing) -> f64 {
    let frames: Vec<f64> = ring
        .snapshot()
        .iter()
        .filter(|e| e.stage == Stage::Decode && e.items > 0)
        .map(|e| e.items as f64)
        .collect();
    stats::median(&frames) * (2 + qtag_wire::binary::ENCODED_LEN) as f64
}

/// The journal to hand the daemon: the backend's own, or in a traced
/// run a [`TimedJournal`] around it (returned as well, for its totals).
pub fn daemon_journal(
    backend: &DurableBackend,
    timed: bool,
) -> (Arc<dyn ShardJournal>, Option<Arc<TimedJournal>>) {
    let journal = backend.journal().expect("the durable backend journals");
    if timed {
        let wrapped = TimedJournal::new(journal);
        (wrapped.clone(), Some(wrapped))
    } else {
        (journal, None)
    }
}

/// Spawns a thread that samples the daemon's ingest backlog every 2 ms
/// until `stop` is set and returns the deepest it saw. It sleeps between
/// samples; it is not a load thread.
pub fn watch_queue_depth<'scope>(
    scope: &'scope Scope<'scope, '_>,
    registry: &'scope Registry,
    stop: &'scope AtomicBool,
) -> ScopedJoinHandle<'scope, u64> {
    scope.spawn(move || {
        let mut max = 0;
        // ordering: Relaxed — a stop flag, no data published.
        while !stop.load(Ordering::Relaxed) {
            max = max.max(registry.get("qtag_ingest_queue_depth").unwrap_or(0));
            std::thread::sleep(Duration::from_millis(2));
        }
        max
    })
}

/// Adds one sender's counters to a running total.
pub fn add_sender_stats(into: &mut SenderStats, s: &SenderStats) {
    into.enqueued += s.enqueued;
    into.rejected_queue_full += s.rejected_queue_full;
    into.frames_written += s.frames_written;
    into.retransmits += s.retransmits;
    into.acked += s.acked;
    into.ack_timeouts += s.ack_timeouts;
    into.dropped_after_retries += s.dropped_after_retries;
    into.abandoned_unconfirmed += s.abandoned_unconfirmed;
    into.reconnects += s.reconnects;
    into.reconnect_failures += s.reconnect_failures;
}

/// Runs the named workload; `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Report> {
    Some(match name {
        "campaign_replay" => campaign_replay::run(args),
        "resident_fleet" => resident_fleet::run(args),
        "ingest_durable" => ingest_durable::run(args),
        "live_serving" => live_serving::run(args),
        _ => return None,
    })
}
