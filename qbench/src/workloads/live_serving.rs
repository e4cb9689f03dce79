//! `live_serving` — open loop, two load threads, against the same daemon
//! configuration as `ingest_durable`, pre-loaded in set-up.
//!
//! Thread A: impressions arrive on a fixed schedule of 25 per second.
//! Each is a fresh acked-binary connection (`BeaconSender<TcpTransport>`,
//! default `SenderConfig`) that offers its template's beacons at the due
//! time and is pumped until idle, then dropped. Impressions are handled
//! in arrival order and timed from the due time, so a stall of the
//! generator or of an earlier impression counts against the later ones.
//! Thread B: a dashboard reader on a fixed 5 Hz schedule that builds the
//! per-campaign reports and reads the hourly and daily rollups.
//!
//! Same `wire`/`collectd`/`server`/`store` layers as `ingest_durable`,
//! used for latency, connection churn, acks and reads beside writes
//! instead of streaming throughput: a throughput gain bought with
//! coarser locks, bigger batches or lazier acks shows up here as a loss.

use crate::corpus::{self, Templates};
use crate::harness::{repeated_setup, Latency, Report, RunArgs, TAIL_CAP};
use crate::sys::{self, ScratchDir};
use crate::timed::TimedJournal;
use crate::trace::{self, Span, Tracer};
use crate::{stats, workloads};
use qtag_collectd::Collector;
use qtag_server::ReportBuilder;
use qtag_store::{DurableBackend, DurableConfig, StorageBackend, StoreStatsSnapshot};
use qtag_wire::sender::{BeaconSender, SenderConfig, SenderStats, TcpTransport};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Impressions per second on thread A's schedule. A fresh connection
/// costs about 18 ms at the median on this daemon (the acceptor polls
/// every 10 ms), and impressions are served one at a time, so 25 per
/// second keeps the loop near half load; at 50 the backlog grows
/// whenever a report read holds the shard locks.
const ARRIVALS_HZ: u64 = 25;
/// Arrivals are due up to this much after their nominal time: one poll
/// period of the daemon's acceptor (see [`schedule`]).
const ARRIVAL_JITTER: Duration = Duration::from_millis(10);
/// Reads per second on thread B's schedule.
const READS_HZ: u64 = 5;
/// An impression whose beacons are not all acknowledged this long after
/// it was started is abandoned; it counts as failed.
const GIVE_UP: Duration = Duration::from_secs(2);

struct Scale {
    templates: usize,
    preload_impressions: u64,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            templates: 60,
            preload_impressions: 2_000,
        }
    } else {
        Scale {
            templates: 500,
            preload_impressions: 100_000,
        }
    }
}

/// The serving system as set-up leaves it.
struct Live {
    templates: Templates,
    backend: DurableBackend,
    collector: Collector,
    timed_journal: Option<Arc<TimedJournal>>,
    /// Impression ids from here on are registered as served but have
    /// sent nothing yet; the timed section uses them in order.
    first_fresh: u64,
    fresh: u64,
}

fn set_up(args: &RunArgs, scale: &Scale, scratch: &ScratchDir) -> Live {
    let templates = Templates::capture(args.seed, scale.templates);
    let dir = scratch.sub("wal").expect("scratch sub-directory");
    let (backend, _) = DurableBackend::open(DurableConfig::new(dir, workloads::SHARDS))
        .expect("the scratch directory is writable");
    for k in 0..scale.preload_impressions {
        let tile = templates.tile(k);
        backend.record_served(tile.served());
        for b in tile.beacons() {
            backend.apply(&b);
        }
    }
    // The ad server logs an impression before its tag reports: register
    // every impression the schedule can reach, with room to spare.
    let fresh = (args.seconds.ceil() as u64 + 2) * ARRIVALS_HZ;
    for k in scale.preload_impressions..scale.preload_impressions + fresh {
        backend.record_served(templates.tile(k).served());
    }
    backend.flush().expect("the WAL flushes");
    let (journal, timed_journal) = workloads::daemon_journal(&backend, args.trace);
    let collector = Collector::start_sharded_journaled(
        workloads::daemon_config(),
        backend.store().clone(),
        Some(journal),
    )
    .expect("the daemon binds a loopback port");
    Live {
        templates,
        backend,
        collector,
        timed_journal,
        first_fresh: scale.preload_impressions,
        fresh,
    }
}

/// Due-time accounting of one arrival of an open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// How late the generator itself was: from the moment the arrival
    /// could start (its due time, or the end of the arrival before it
    /// if that came later) to the moment the loop got to it, ms.
    pub generator_late_ms: f64,
    /// Due time to the arrival served, ms. Includes the wait behind an
    /// earlier arrival that was still being served.
    pub latency_ms: f64,
}

/// The due times of a `hz` schedule as offsets from its start. Arrival
/// `i` is due at `i / hz` seconds plus a seeded jitter below `jitter`:
/// the daemon polls on fixed 10 ms periods, and a strictly periodic
/// schedule would sample one phase of them for a whole run.
pub fn schedule(count: u64, hz: u64, jitter: Duration, seed: u64) -> Vec<Duration> {
    (0..count)
        .map(|i| {
            let nominal = Duration::from_nanos(i * 1_000_000_000 / hz);
            let extra = match jitter.as_nanos() as u64 {
                0 => 0,
                span => corpus::mix(seed, i, 0x11E7) % span,
            };
            nominal + Duration::from_nanos(extra)
        })
        .collect()
}

/// Serves the arrivals of `schedule` (offsets from `start`), in order,
/// one at a time. An arrival is timed from when it was due, not from
/// when the loop got to it: if an earlier arrival or the generator
/// stalls, the ones queued behind it are charged for the wait.
pub fn open_loop(start: Instant, schedule: &[Duration], mut serve: impl FnMut(u64)) -> Vec<Timing> {
    let mut free_at = start;
    schedule
        .iter()
        .zip(0u64..)
        .map(|(offset, i)| {
            let due = start + *offset;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let generator_late_ms = due.max(free_at).elapsed().as_secs_f64() * 1e3;
            serve(i);
            free_at = Instant::now();
            Timing {
                generator_late_ms,
                latency_ms: (free_at - due).as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// One impression as thread A saw it.
struct Delivery {
    timing: Timing,
    stats: SenderStats,
    traced: bool,
}

struct SenderDone {
    deliveries: Vec<Delivery>,
    wall_s: f64,
    tracer: Tracer,
}

fn sender_loop(
    templates: &Templates,
    addr: SocketAddr,
    start: Instant,
    (first, count): (u64, u64),
    args: &RunArgs,
) -> SenderDone {
    let mut sent: Vec<(SenderStats, bool)> = Vec::with_capacity(count as usize);
    let arrivals = schedule(count, ARRIVALS_HZ, ARRIVAL_JITTER, args.seed);
    let timings = open_loop(start, &arrivals, |i| {
        let begun = Instant::now();
        // A traced run alternates seconds without and with spans; the
        // reader thread follows the same flag.
        let traced = args.trace && (i / ARRIVALS_HZ) % 2 == 1;
        if args.trace {
            trace::set_enabled(traced);
        }
        let tile = templates.tile(first + i);
        let id = tile.impression_id;
        let mut sender = BeaconSender::new(
            TcpTransport::new(addr),
            SenderConfig {
                seed: corpus::mix(args.seed, i, 0x5EED),
                ..SenderConfig::default()
            },
        );
        {
            let _g = trace::span(Span::WireSenderOffer, id);
            let now_us = trace::now_ns() / 1_000;
            for b in tile.beacons() {
                sender.offer(&b, now_us).expect("a captured beacon encodes");
            }
        }
        {
            let _g = trace::span(Span::WireSenderPump, id);
            while !sender.is_idle() && begun.elapsed() < GIVE_UP {
                sender.pump(trace::now_ns() / 1_000);
            }
            sender.abandon_pending();
        }
        sent.push((sender.stats(), traced));
    });
    trace::set_enabled(false);
    SenderDone {
        deliveries: timings
            .into_iter()
            .zip(sent)
            .map(|(timing, (stats, traced))| Delivery {
                timing,
                stats,
                traced,
            })
            .collect(),
        wall_s: start.elapsed().as_secs_f64(),
        tracer: trace::take(),
    }
}

struct ReaderDone {
    latencies_ms: Vec<f64>,
    monotone: bool,
    tracer: Tracer,
}

fn reader_loop(backend: &DurableBackend, start: Instant, reads: u64) -> ReaderDone {
    let mut last = (0u64, 0u64, 0u64, 0u64);
    let mut monotone = true;
    let timings = open_loop(start, &schedule(reads, READS_HZ, Duration::ZERO, 0), |j| {
        let reports = {
            let _g = trace::span(Span::ServerReport, j);
            let reports = ReportBuilder::per_campaign_sharded(backend.store());
            std::hint::black_box(ReportBuilder::summary(&reports));
            reports
        };
        let (hourly, daily) = {
            let _g = trace::span(Span::StoreRollupRead, j);
            (backend.merged_hourly(), backend.merged_daily())
        };
        let seen = (
            reports.iter().map(|r| r.total.measured).sum(),
            reports.iter().map(|r| r.total.viewed).sum(),
            hourly.total_measured(),
            daily.total_viewed(),
        );
        monotone &= seen.0 >= last.0 && seen.1 >= last.1 && seen.2 >= last.2 && seen.3 >= last.3;
        last = seen;
    });
    ReaderDone {
        latencies_ms: timings.iter().map(|t| t.latency_ms).collect(),
        monotone,
        tracer: trace::take(),
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let scale = scale(args.quick);
    let scratch = ScratchDir::create().expect("qbench/out is writable");
    let (live, setup_s, setups) = repeated_setup(args.quick, || set_up(args, &scale, &scratch));
    let Live {
        templates,
        backend,
        collector,
        timed_journal,
        first_fresh,
        fresh,
    } = live;

    let arrivals = ((args.seconds * ARRIVALS_HZ as f64) as u64).clamp(1, fresh);
    let reads = ((args.seconds * READS_HZ as f64) as u64).max(1);
    let addr = collector.local_addr();
    let registry = collector.registry().clone();
    let ring = collector.trace().clone();
    let unique_before = backend.store().unique_beacons();
    let duplicates_before = backend.store().total_duplicates();
    let store_before = backend.stats().snapshot();

    let stop_polling = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(20);
    let (sent, read, queue_depth_max) = std::thread::scope(|s| {
        let a = s.spawn(|| sender_loop(&templates, addr, start, (first_fresh, arrivals), args));
        let b = s.spawn(|| reader_loop(&backend, start, reads));
        let poller = args
            .trace
            .then(|| workloads::watch_queue_depth(s, &registry, &stop_polling));
        let sent = a.join().expect("the sender thread finishes");
        let read = b.join().expect("the reader thread finishes");
        stop_polling.store(true, Ordering::Relaxed); // ordering: see above
        let depth = poller.map_or(0, |p| p.join().expect("the poller finishes"));
        (sent, read, depth)
    });
    let ops = collector.shutdown();
    let flush_start = Instant::now();
    backend.flush().expect("the WAL flushes");
    let flush_ms = flush_start.elapsed().as_secs_f64() * 1e3;

    let mut totals = SenderStats::default();
    let mut unacked_impressions = 0u64;
    for d in &sent.deliveries {
        workloads::add_sender_stats(&mut totals, &d.stats);
        unacked_impressions += u64::from(d.stats.acked != d.stats.enqueued);
    }
    let applied = backend.store().unique_beacons() - unique_before;
    // Every beacon of a fully acknowledged impression is in the store.
    let acked_present = sent.deliveries.iter().enumerate().all(|(i, d)| {
        d.stats.acked != d.stats.enqueued || {
            let tile = templates.tile(first_fresh + i as u64);
            let all_present = tile
                .beacons()
                .all(|b| backend.store().contains_seq(b.impression_id, b.seq));
            all_present
        }
    });

    let mut report = Report {
        attempted: arrivals + reads,
        failed: unacked_impressions,
        ..Report::default()
    };
    report.check(
        "sender_conserves",
        totals.enqueued
            == totals.acked + totals.dropped_after_retries + totals.abandoned_unconfirmed,
        format!(
            "enqueued {} == acked {} + dropped {} + abandoned {}",
            totals.enqueued,
            totals.acked,
            totals.dropped_after_retries,
            totals.abandoned_unconfirmed
        ),
    );
    report.check(
        "applied_equals_acked",
        acked_present
            && applied >= totals.acked
            && applied <= totals.acked + totals.abandoned_unconfirmed,
        format!(
            "{applied} unique beacons applied, {} acked, {} abandoned unconfirmed",
            totals.acked, totals.abandoned_unconfirmed
        ),
    );
    report.check(
        "reports_monotone",
        read.monotone,
        format!("{} reads", read.latencies_ms.len()),
    );
    report.check(
        "daemon_shed_nothing",
        ops.ingest.shed_beacons == 0 && ops.collector.corrupt_frames == 0,
        format!(
            "shed {}, corrupt {}",
            ops.ingest.shed_beacons, ops.collector.corrupt_frames
        ),
    );
    let latencies: Vec<f64> = sent
        .deliveries
        .iter()
        .map(|d| d.timing.latency_ms)
        .collect();
    let deliver = Latency::of(&latencies, TAIL_CAP);
    let mut late: Vec<f64> = sent
        .deliveries
        .iter()
        .map(|d| d.timing.generator_late_ms)
        .collect();
    let late_p99 = stats::percentile(stats::sorted(&mut late), 99.0);
    report.check(
        "generator_kept_its_schedule",
        late_p99 <= deliver.p50_ms,
        format!(
            "gen.late_p99_ms {late_p99:.3} <= deliver p50 {:.3}",
            deliver.p50_ms
        ),
    );
    report.info("arrivals", arrivals);
    report.info("reads", reads);
    report.info("preloaded_impressions", first_fresh);
    report.info(
        "latency_tail",
        format!(
            "p{}_median_of_{}_windows",
            deliver.tail_percentile, deliver.windows
        ),
    );

    if args.trace {
        let store_after = backend.stats().snapshot();
        let apply_sum_us = registry
            .snapshot()
            .histogram("qtag_ingest_apply_latency_us")
            .map_or(0, |h| h.sum);
        let mut tracer = sent.tracer;
        tracer.merge(read.tracer);
        let journal = timed_journal.as_ref().map_or((0, 0, 0), |t| t.totals());
        tracer.add(Span::StoreWalAppend, journal.0, journal.2, journal.2);
        let traced_ms: Vec<f64> = sent
            .deliveries
            .iter()
            .filter(|d| d.traced)
            .map(|d| d.timing.latency_ms)
            .collect();
        let untraced_ms: Vec<f64> = sent
            .deliveries
            .iter()
            .filter(|d| !d.traced)
            .map(|d| d.timing.latency_ms)
            .collect();
        let overhead = if traced_ms.is_empty() || untraced_ms.is_empty() {
            0.0
        } else {
            (stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0) * 100.0
        };
        layer_metrics(
            &mut report,
            &LayerInputs {
                tracer: &tracer,
                ops: &ops,
                totals: &totals,
                store_delta: delta(&store_before, &store_after),
                journal,
                apply_sum_us,
                queue_depth_max,
                bytes_per_read: workloads::bytes_per_read(&ring),
                duplicates: backend.store().total_duplicates() - duplicates_before,
                flush_ms,
                late_p99,
                overhead,
            },
        );
        let traced_wall_ns = (sent.wall_s * 1e9 / 2.0) as u64;
        report.trace = Some((tracer, traced_wall_ns));
        return report;
    }

    let reads_lat = {
        let mut v = read.latencies_ms.clone();
        let s = stats::sorted(&mut v);
        (stats::percentile(s, 50.0), stats::percentile(s, 90.0))
    };
    let acked_impressions = arrivals - unacked_impressions;
    report.metric("setup_s", setup_s, "s", setups);
    report.metric(
        "impressions_per_s",
        acked_impressions as f64 / sent.wall_s,
        "1/s",
        arrivals,
    );
    report.metric(
        "beacons_per_s",
        totals.acked as f64 / sent.wall_s,
        "1/s",
        arrivals,
    );
    report.metric("latency_p50_ms", deliver.p50_ms, "ms", deliver.samples);
    report.metric("latency_tail_ms", deliver.tail_ms, "ms", deliver.samples);
    report.metric("peak_rss_mb", sys::peak_rss_mb(), "MB", 1);
    report.metric("report_read_p50_ms", reads_lat.0, "ms", reads);
    report.metric("report_read_p90_ms", reads_lat.1, "ms", reads);
    report.info("gen_late_p99_ms", format!("{late_p99:.3}"));
    report
}

fn delta(before: &StoreStatsSnapshot, after: &StoreStatsSnapshot) -> (u64, u64, u64) {
    (
        after.fsyncs - before.fsyncs,
        after.bytes_appended - before.bytes_appended,
        after.records_appended - before.records_appended,
    )
}

struct LayerInputs<'a> {
    tracer: &'a Tracer,
    ops: &'a qtag_collectd::OpsSnapshot,
    totals: &'a SenderStats,
    /// `(fsyncs, WAL bytes, WAL records)` of the timed section.
    store_delta: (u64, u64, u64),
    journal: (u64, u64, u64),
    apply_sum_us: u64,
    queue_depth_max: u64,
    bytes_per_read: f64,
    duplicates: u64,
    flush_ms: f64,
    late_p99: f64,
    overhead: f64,
}

fn layer_metrics(report: &mut Report, x: &LayerInputs<'_>) {
    let agg = |s: Span| x.tracer.agg(s);
    let mean = |s: Span| agg(s).total_ns as f64 / agg(s).count.max(1) as f64;
    let n = agg(Span::WireSenderPump).count;
    let mut m = |name, value: f64, unit| report.metric(name, value, unit, n);
    m(
        "wire.sender_offer_us_per_imp",
        mean(Span::WireSenderOffer) / 1e3,
        "us",
    );
    m(
        "wire.sender_pump_us_per_imp",
        mean(Span::WireSenderPump) / 1e3,
        "us",
    );
    m("wire.retransmits", x.totals.retransmits as f64, "count");
    m("wire.reconnects", x.totals.reconnects as f64, "count");
    m(
        "wire.dropped_after_retries",
        x.totals.dropped_after_retries as f64,
        "count",
    );
    m(
        "wire.abandoned",
        x.totals.abandoned_unconfirmed as f64,
        "count",
    );
    m(
        "collectd.connections_accepted",
        x.ops.collector.connections_accepted as f64,
        "count",
    );
    m("collectd.bytes_per_read", x.bytes_per_read, "bytes");
    m(
        "collectd.acks_per_flush",
        x.ops.collector.acks_sent as f64 / x.ops.collector.ack_flushes.max(1) as f64,
        "count",
    );
    m(
        "collectd.shed_beacons",
        x.ops.ingest.shed_beacons as f64,
        "count",
    );
    m(
        "collectd.corrupt_frames",
        x.ops.collector.corrupt_frames as f64,
        "count",
    );
    m(
        "server.apply_ns_per_beacon",
        x.apply_sum_us as f64 * 1e3 / x.ops.ingest.beacons.max(1) as f64,
        "ns",
    );
    m(
        "server.beacons_per_batch",
        x.ops.ingest.beacons as f64 / x.ops.ingest.beacon_batches.max(1) as f64,
        "count",
    );
    m("server.queue_depth_max", x.queue_depth_max as f64, "count");
    m("server.duplicates", x.duplicates as f64, "count");
    m("server.report_ms", mean(Span::ServerReport) / 1e6, "ms");
    m(
        "store.wal_append_ns_per_beacon",
        x.journal.2 as f64 / x.journal.1.max(1) as f64,
        "ns",
    );
    m("store.fsyncs", x.store_delta.0 as f64, "count");
    m(
        "store.wal_bytes_per_beacon",
        x.store_delta.1 as f64 / x.store_delta.2.max(1) as f64,
        "bytes",
    );
    m("store.flush_ms", x.flush_ms, "ms");
    m(
        "store.rollup_read_us",
        mean(Span::StoreRollupRead) / 1e3,
        "us",
    );
    m("gen.late_p99_ms", x.late_p99, "ms");
    m("trace_overhead_pct", x.overhead, "%");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_fixed_by_rate_seed_and_jitter() {
        let ms = Duration::from_millis;
        assert_eq!(schedule(3, 50, Duration::ZERO, 1), [ms(0), ms(20), ms(40)]);
        assert_eq!(schedule(4, 5, Duration::ZERO, 1)[3], ms(600));
        let jittered = schedule(200, 25, ms(10), 7);
        assert_eq!(jittered, schedule(200, 25, ms(10), 7));
        assert_ne!(jittered, schedule(200, 25, ms(10), 8));
        for (i, due) in jittered.iter().enumerate() {
            let nominal = ms(40 * i as u64);
            assert!(*due >= nominal && *due < nominal + ms(10), "{i}: {due:?}");
        }
        // The jitter spreads over the whole poll period.
        let late: Vec<_> = jittered
            .iter()
            .enumerate()
            .map(|(i, d)| (*d - ms(40 * i as u64)).as_millis())
            .collect();
        assert!(late.iter().any(|l| *l < 2) && late.iter().any(|l| *l >= 8));
    }

    /// Arrival 2 of a 50 Hz schedule stalls for 70 ms. Handled in order,
    /// arrivals 3 to 5 were due 50, 30 and 10 ms before the loop was
    /// free for them, and their latency from the due time includes that
    /// wait — while the generator itself was not late for any of them. A
    /// sleep lasts at least as long as asked, so the waits are lower
    /// bounds.
    #[test]
    fn a_stall_is_charged_to_the_arrivals_queued_behind_it() {
        let stall = Duration::from_millis(70);
        let timings = open_loop(Instant::now(), &schedule(7, 50, Duration::ZERO, 0), |i| {
            if i == 2 {
                std::thread::sleep(stall);
            }
        });
        assert_eq!(timings.len(), 7);
        assert!(timings[2].latency_ms >= 70.0, "{:?}", timings[2]);
        for (i, floor) in [(3, 50.0), (4, 30.0), (5, 10.0)] {
            assert!(
                timings[i].latency_ms >= floor,
                "arrival {i}: {:?}",
                timings[i]
            );
            // Queueing is not the generator's lateness: that clock starts
            // when the loop is free, so the two add up to the latency at
            // most.
            assert!(
                timings[i].generator_late_ms + floor <= timings[i].latency_ms,
                "arrival {i}: {:?}",
                timings[i]
            );
        }
    }
}
