//! The daemon's connection serving: a few epoll worker loops, each
//! owning a slab of non-blocking connections.
//!
//! ```text
//!   acceptor thread ──round-robin──▶ worker 0 ─┐ epoll loop over a slab of
//!        (collector.rs accept_loop) ▶ worker 1 ─┤ ConnState machines, one per
//!                                   ▶ worker N ─┘ non-blocking socket
//! ```
//!
//! Each worker owns its connections for life: a slab (`Vec<Option<..>>`
//! plus free list) of [`ConnState`] machines keyed by the epoll token,
//! no migration and no cross-worker locking. The machine lives in
//! `crate::connection`; this file only decides *when* it is called,
//! one wakeup at a time through [`serve_event`].
//!
//! Backpressure rules:
//!
//! - **Reads**: level-triggered readiness with a per-event read budget
//!   ([`MAX_READS_PER_EVENT`]); a firehose connection yields the loop
//!   and its event re-fires, so thousands of peers share one worker
//!   fairly.
//! - **Ack writes**: acks queue in a per-connection buffer flushed
//!   with non-blocking writes; a partial write parks the rest behind
//!   `WRITABLE` interest. When the backlog exceeds
//!   `CollectorConfig::ack_buffer_cap` the connection's *reads* pause
//!   until the client drains its acks — a slow ack reader throttles
//!   its own sender instead of growing daemon memory.
//! - **Idle**: a periodic sweep closes connections whose last byte is
//!   older than `read_timeout`, measured on the connection's own
//!   facade-clock idle timer.
//! - **Shutdown**: once a worker sees the shutdown flag, it reads every
//!   connection to EOF — pauses lifted, quiet sockets kept registered —
//!   and closes each as it ends. Whatever is still open
//!   [`DRAIN_GRACE`] after the flag gets one last read and is closed.
//!
//! Blocking calls (socket timeouts, `write_all`, sleeps) are design
//! bugs on an event loop; `qtag-lint` rule R5 keeps them out of this
//! file and out of `connection.rs`.

use crate::collector::DRAIN_GRACE;
use crate::config::CollectorConfig;
use crate::connection::{ConnCtx, ConnObs, ConnState, ReadOutcome};
use crate::stats::CollectorStats;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::time::Instant;
use crate::sync::Arc;
use crossbeam::channel::{Receiver, TryRecvError};
use mio::{Events, Interest, Poll, Token};
use qtag_server::BeaconInlet;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Reads one connection may consume per readiness event before
/// yielding the loop. Level-triggered polling re-delivers the event,
/// so the cap trades per-connection syscall batching for cross-
/// connection fairness without losing data.
const MAX_READS_PER_EVENT: usize = 16;

/// A connection handed from the acceptor to a worker. The context
/// already carries the connection's trace correlation id.
pub(crate) struct NewConn {
    pub(crate) stream: TcpStream,
    pub(crate) ctx: ConnCtx,
}

/// One slab slot: the socket, its state machine, its per-connection
/// context (trace id), and the interest set currently registered.
struct Slot {
    stream: TcpStream,
    state: ConnState,
    ctx: ConnCtx,
    interest: Interest,
}

fn desired_interest(state: &ConnState) -> Interest {
    if state.wants_writable() {
        if state.reads_paused() {
            // Reads are paused: only the drain matters.
            Interest::WRITABLE
        } else {
            Interest::READABLE | Interest::WRITABLE
        }
    } else {
        Interest::READABLE
    }
}

/// Idle sweep cadence: fine-grained enough to enforce `read_timeout`
/// with useful resolution, coarse enough that sweeping tens of
/// thousands of slots stays off the hot path.
fn sweep_cadence(cfg: &CollectorConfig) -> Duration {
    (cfg.read_timeout / 4)
        .min(Duration::from_secs(1))
        .max(cfg.poll_interval)
}

/// Serves one wakeup of one connection and says whether to close it:
/// the step the epoll worker and the socket-free driver share. Writes
/// go first: a full ack flush can lift a read pause, letting the read
/// make progress at once. While `draining` for shutdown, the read pause
/// is lifted for good, and a socket that has gone quiet stays open like
/// any other: only EOF or an error closes it (the worker's drain
/// deadline closes the rest).
fn serve_event(
    state: &mut ConnState,
    io: &mut (impl Read + Write),
    ctx: &ConnCtx,
    scratch: &mut [u8],
    readable: bool,
    writable: bool,
    draining: bool,
) -> bool {
    if draining {
        state.start_drain();
    }
    if writable && state.wants_writable() && state.on_writable(io, ctx).is_err() {
        return true;
    }
    readable
        && !matches!(
            state.on_readable(io, ctx, scratch, MAX_READS_PER_EVENT),
            Ok(ReadOutcome::Open)
        )
}

/// One worker's epoll instance and the connections registered with it.
struct Worker {
    poll: Poll,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    live: usize,
    scratch: Vec<u8>,
}

/// One reactor worker: owns an epoll instance and every connection
/// the acceptor hands it, until shutdown drains them all.
pub(crate) fn run_worker(
    rx: Receiver<NewConn>,
    cfg: Arc<CollectorConfig>,
    shutdown: Arc<AtomicBool>,
) {
    let poll = match Poll::new() {
        Ok(p) => p,
        Err(_) => {
            // No epoll instance (fd exhaustion at startup): refuse
            // every hand-off so the gauge stays honest. A blocking
            // drain is fine here — this worker owns no sockets, so
            // there is nothing a stall could starve (the R5 lint bans
            // blocking waits only because they'd freeze live
            // connections).
            for nc in rx {
                // ordering: admission gauge, see `supervise` in collector.rs.
                nc.ctx
                    .stats
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }
    };
    let mut w = Worker {
        poll,
        slots: Vec::new(),
        free: Vec::new(),
        live: 0,
        scratch: vec![0u8; 64 * 1024],
    };
    let mut events = Events::with_capacity(1024);
    let sweep_every = sweep_cadence(&cfg);
    let mut last_sweep = Instant::now();
    let mut rx_open = true;
    // Set when this worker first sees the shutdown flag.
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // Admit pending hand-offs (bounded only by what the acceptor
        // queued; each admit is O(1)).
        while rx_open {
            match rx.try_recv() {
                Ok(nc) => w.admit(nc),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => rx_open = false,
            }
        }

        // ordering: Acquire pairs with the Release store in
        // `Collector::stop`; a worker that sees the flag also sees
        // everything published before the stop began.
        if drain_deadline.is_none() && shutdown.load(Ordering::Acquire) {
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            // Read every connection once now: this lifts read pauses
            // (and the WRITABLE-only interest that came with them),
            // and closes the ones already at EOF.
            for idx in 0..w.slots.len() {
                w.serve(idx, true, false, true);
            }
        }
        let mut timeout = cfg.poll_interval;
        if let Some(deadline) = drain_deadline {
            match deadline.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => timeout = timeout.min(left),
                _ => {
                    // Grace spent: one last read, then close. Hand-offs
                    // still arriving from the acceptor's own drain get
                    // the same.
                    for idx in 0..w.slots.len() {
                        w.serve(idx, true, false, true);
                        w.close(idx);
                    }
                }
            }
        }
        if !rx_open && w.live == 0 {
            break;
        }

        match w.poll.poll(&mut events, Some(timeout)) {
            // EINTR: the wait was interrupted, nothing was lost.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A broken epoll fd is unrecoverable; teardown below
            // closes the remaining connections.
            Err(_) => break,
            Ok(_) => {}
        }
        for ev in events.iter() {
            w.serve(
                ev.token().0,
                ev.is_readable(),
                ev.is_writable(),
                drain_deadline.is_some(),
            );
        }

        if last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            w.close_idle();
        }
    }

    // Teardown: close whatever survived (epoll failure path).
    for idx in 0..w.slots.len() {
        w.close(idx);
    }
}

impl Worker {
    fn admit(&mut self, nc: NewConn) {
        let NewConn { stream, ctx } = nc;
        let ready = stream
            .set_nonblocking(true)
            .and_then(|()| {
                let idx = self.free.last().copied().unwrap_or(self.slots.len());
                self.poll.register(&stream, Token(idx), Interest::READABLE)
            })
            .is_ok();
        if !ready {
            // Registration failed (fd pressure): shed the connection
            // whole rather than serving it half-registered.
            ctx.stats.accept_errors.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
            ctx.stats.connections_active.fetch_sub(1, Ordering::Relaxed); // ordering: admission gauge, see `supervise` in collector.rs
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[idx] = Some(Slot {
            stream,
            state: ConnState::new(),
            ctx,
            interest: Interest::READABLE,
        });
        self.live += 1;
    }

    /// Serves one wakeup of slot `idx` (if it is open), then closes it
    /// or brings its registered interest up to date.
    fn serve(&mut self, idx: usize, readable: bool, writable: bool, draining: bool) {
        let Some(slot) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
            return; // already closed
        };
        let close = serve_event(
            &mut slot.state,
            &mut slot.stream,
            &slot.ctx,
            &mut self.scratch,
            readable,
            writable,
            draining,
        );
        let want = desired_interest(&slot.state);
        let keep = !close
            && (want == slot.interest
                || self.poll.reregister(&slot.stream, Token(idx), want).is_ok());
        if keep {
            slot.interest = want;
        } else {
            self.close(idx);
        }
    }

    /// Closes slot `idx` if it is open: flushes the engine into the
    /// store, releases the epoll registration, restores the admission
    /// gauge, and returns the slot to the free list.
    fn close(&mut self, idx: usize) {
        let Some(mut slot) = self.slots[idx].take() else {
            return;
        };
        let _ = self.poll.deregister(&slot.stream);
        slot.state.finish(&mut slot.stream, &slot.ctx);
        // ordering: admission gauge, see `supervise` in collector.rs.
        slot.ctx
            .stats
            .connections_active
            .fetch_sub(1, Ordering::Relaxed);
        self.free.push(idx);
        self.live -= 1;
    }

    /// Closes every connection silent for its `read_timeout`.
    fn close_idle(&mut self) {
        for idx in 0..self.slots.len() {
            let Some(slot) = &self.slots[idx] else {
                continue;
            };
            if slot.state.idle_for() >= slot.ctx.cfg.read_timeout {
                // ordering: monotone stat; exact reads only after join.
                slot.ctx
                    .stats
                    .connections_timed_out
                    .fetch_add(1, Ordering::Relaxed);
                self.close(idx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Socket-free drivers (model checking and equivalence testing)
// ---------------------------------------------------------------------------

/// Scripted non-blocking IO for the socket-free driver. Each chunk
/// arrives on its own wakeup: a read serves the next chunk, the read
/// after it finds the socket quiet (`WouldBlock`), and after the last
/// chunk the peer closes (EOF). Writes accept at most `write_cap` bytes
/// per call and return `WouldBlock` on every other attempt, exercising
/// the partial-write cursor and the read-pause backpressure path
/// deterministically.
struct ScriptedIo<'a> {
    chunks: &'a [Vec<u8>],
    next: usize,
    quiet: bool,
    write_cap: usize,
    stall_next_write: bool,
    written: Vec<u8>,
}

impl<'a> ScriptedIo<'a> {
    fn new(chunks: &'a [Vec<u8>], write_cap: usize) -> Self {
        ScriptedIo {
            chunks,
            next: 0,
            quiet: false,
            write_cap: write_cap.max(1),
            stall_next_write: false,
            written: Vec::new(),
        }
    }
}

impl Read for ScriptedIo<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::mem::take(&mut self.quiet) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        match self.chunks.get(self.next) {
            Some(chunk) => {
                assert!(
                    chunk.len() <= buf.len(),
                    "driver chunks must fit one read buffer"
                );
                buf[..chunk.len()].copy_from_slice(chunk);
                self.next += 1;
                self.quiet = true;
                Ok(chunk.len())
            }
            None => Ok(0), // peer closed after the last chunk
        }
    }
}

impl Write for ScriptedIo<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.stall_next_write {
            self.stall_next_write = false;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.stall_next_write = true;
        let n = buf.len().min(self.write_cap);
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Drives one session through the [`ConnState`] machine over in-memory
/// chunks, one [`serve_event`] per wakeup as a worker does — minus the
/// socket (whose blocking calls the qtag-check scheduler cannot
/// preempt). Like a worker, it drains once it sees the shutdown flag.
/// The chunk-split and write-granularity invariance property runs it
/// twice over one byte stream, and the qtag-check models interleave it
/// against the shard appliers.
///
/// `write_cap` bounds each scripted ack write (small values force
/// partial flushes and read pauses). Returns the ack bytes the client
/// would have received.
#[doc(hidden)]
pub fn reactor_chunks(
    cfg: Arc<CollectorConfig>,
    stats: Arc<CollectorStats>,
    inlet: BeaconInlet,
    shutdown: Arc<AtomicBool>,
    chunks: &[Vec<u8>],
    write_cap: usize,
) -> Vec<u8> {
    let ctx = ConnCtx {
        cfg,
        stats,
        inlet,
        shutdown,
        obs: ConnObs::disabled(),
    };
    let mut io = ScriptedIo::new(chunks, write_cap);
    let mut state = ConnState::new();
    // Each chunk plays one read, so the read buffer holds the longest.
    let mut scratch = vec![0u8; chunks.iter().map(Vec::len).max().unwrap_or(0)];
    loop {
        // ordering: Acquire, as the worker's load of the same flag.
        let draining = ctx.shutdown.load(Ordering::Acquire);
        if serve_event(
            &mut state,
            &mut io,
            &ctx,
            &mut scratch,
            true,
            false,
            draining,
        ) {
            break;
        }
        // One "writable event" whenever a flush is parked; the
        // scripted writer guarantees progress every other call, so
        // the pause always lifts.
        while state.wants_writable() {
            if state.on_writable(&mut io, &ctx).is_err() {
                break;
            }
        }
    }
    state.finish(&mut io, &ctx);
    io.written
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_server::{IngestConfig, IngestService, ServedImpression, ShardedStore};
    use qtag_wire::framing::encode_frames;
    use qtag_wire::sender::{ACK_HELLO, ACK_LEN};
    use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

    fn beacon(id: u64, seq: u16) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event: EventKind::InView,
            timestamp_us: 0,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 900,
            exposure_ms: 1500,
            os: OsKind::Windows10,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    struct Rig {
        service: IngestService,
        store: ShardedStore,
        stats: Arc<CollectorStats>,
        cfg: Arc<CollectorConfig>,
        shutdown: Arc<AtomicBool>,
    }

    fn rig() -> Rig {
        let store = ShardedStore::new(1);
        for id in 1..=64u64 {
            store.record_served(ServedImpression {
                impression_id: id,
                campaign_id: 1,
                os: OsKind::Windows10,
                browser: BrowserKind::Chrome,
                site_type: SiteType::Browser,
                ad_format: AdFormat::Display,
            });
        }
        let service = IngestService::start_sharded(
            store.clone(),
            IngestConfig {
                inlet_capacity: 1024, // roomy: no nondeterministic shedding
                ..IngestConfig::default()
            },
        );
        Rig {
            service,
            store,
            stats: Arc::new(CollectorStats::default()),
            cfg: Arc::new(CollectorConfig::default()),
            shutdown: Arc::new(AtomicBool::new(false)),
        }
    }

    fn acked_stream(ids: &[u64]) -> Vec<u8> {
        let beacons: Vec<Beacon> = ids.iter().map(|&id| beacon(id, 0)).collect();
        let mut bytes = vec![ACK_HELLO];
        bytes.extend_from_slice(&encode_frames(&beacons).unwrap());
        bytes
    }

    /// A tiny write cap plus a tiny ack buffer forces the
    /// backpressure path: reads pause, the pause is counted, and —
    /// because the flush eventually drains — every ack still arrives.
    #[test]
    fn slow_ack_reader_pauses_reads_then_recovers() {
        let stream = acked_stream(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        let chunks: Vec<Vec<u8>> = stream.chunks(64).map(|c| c.to_vec()).collect();
        let r = rig();
        let cfg = CollectorConfig {
            ack_buffer_cap: ACK_LEN, // more than one pending ack pauses reads
            ..CollectorConfig::default()
        };
        let acks = reactor_chunks(
            Arc::new(cfg),
            Arc::clone(&r.stats),
            r.service.inlet(),
            Arc::clone(&r.shutdown),
            &chunks,
            3, // never a full ack per write
        );
        r.service.shutdown();
        let snap = r.stats.snapshot();
        assert_eq!(acks.len(), 12 * ACK_LEN, "{snap:?}");
        assert_eq!(snap.acks_sent, 12, "{snap:?}");
        assert!(
            snap.ack_backpressure_pauses >= 1,
            "the capped writer must have paused reads at least once: {snap:?}"
        );
        assert_eq!(r.store.unique_beacons(), 12);
    }

    /// An unacked binary session through the reactor machine: no ack
    /// bytes, full conservation.
    #[test]
    fn plain_binary_session_conserves() {
        let beacons: Vec<Beacon> = (1..=20).map(|id| beacon(id, 0)).collect();
        let stream = encode_frames(&beacons).unwrap();
        let chunks: Vec<Vec<u8>> = stream.chunks(13).map(|c| c.to_vec()).collect();
        let r = rig();
        let acks = reactor_chunks(
            Arc::clone(&r.cfg),
            Arc::clone(&r.stats),
            r.service.inlet(),
            Arc::clone(&r.shutdown),
            &chunks,
            64,
        );
        let ingest = r.service.stats_arc().snapshot();
        r.service.shutdown();
        assert!(acks.is_empty());
        let snap = r.stats.snapshot();
        assert_eq!(snap.frames_decoded, 20, "{snap:?}");
        assert_eq!(snap.acked_connections, 0);
        assert_eq!(ingest.beacons + ingest.shed_beacons, 20);
        assert_eq!(r.store.unique_beacons(), 20);
    }

    /// The shutdown drain reads to EOF. With the flag already up, a
    /// session whose frames arrive across quiet spells (every chunk is
    /// followed by a `WouldBlock` read) lands whole; a drain that closed
    /// the connection the first time its socket went quiet kept only
    /// the first frame.
    #[test]
    fn shutdown_drain_reads_past_quiet_spells_to_eof() {
        let r = rig();
        r.shutdown.store(true, Ordering::Release);
        let chunks: Vec<Vec<u8>> = (1..=3)
            .map(|id| encode_frames(&[beacon(id, 0)]).unwrap())
            .collect();
        reactor_chunks(
            Arc::clone(&r.cfg),
            Arc::clone(&r.stats),
            r.service.inlet(),
            Arc::clone(&r.shutdown),
            &chunks,
            64,
        );
        r.service.shutdown();
        let snap = r.stats.snapshot();
        assert_eq!(snap.frames_decoded, 3, "{snap:?}");
        assert_eq!(r.store.unique_beacons(), 3);
    }

    /// A line nested far past the JSON parser's depth limit, under a
    /// line cap that admits it, is one corrupt frame: the connection
    /// survives it and applies the next valid line.
    #[test]
    fn deeply_nested_json_line_is_one_corrupt_frame() {
        let line = |b: &Beacon| qtag_wire::json::encode(b).unwrap() + "\n";
        let mut stream = line(&beacon(1, 0));
        stream.push_str(&"[".repeat(60_000));
        stream.push('\n');
        stream.push_str(&line(&beacon(2, 0)));
        let chunks: Vec<Vec<u8>> = stream.as_bytes().chunks(4096).map(<[u8]>::to_vec).collect();
        let r = rig();
        let cfg = CollectorConfig {
            max_line_len: 65_536,
            ..CollectorConfig::default()
        };
        reactor_chunks(
            Arc::new(cfg),
            Arc::clone(&r.stats),
            r.service.inlet(),
            Arc::clone(&r.shutdown),
            &chunks,
            64,
        );
        r.service.shutdown();
        let snap = r.stats.snapshot();
        assert_eq!(snap.corrupt_frames, 1, "{snap:?}");
        assert_eq!(snap.frames_decoded, 2, "{snap:?}");
        assert_eq!(r.store.verdict(2), (true, true));
        assert_eq!(r.store.unique_beacons(), 2);
    }

    /// The idle clock starts at admission and refreshes on data.
    #[test]
    fn conn_state_idle_clock_tracks_last_data() {
        let r = rig();
        let ctx = ConnCtx {
            cfg: Arc::clone(&r.cfg),
            stats: Arc::clone(&r.stats),
            inlet: r.service.inlet(),
            shutdown: Arc::clone(&r.shutdown),
            obs: ConnObs::disabled(),
        };
        let chunks = vec![encode_frames(&[beacon(1, 0)]).unwrap()];
        let mut io = ScriptedIo::new(&chunks, 64);
        let mut state = ConnState::new();
        std::thread::sleep(Duration::from_millis(15));
        assert!(state.idle_for() >= Duration::from_millis(10));
        let mut scratch = vec![0u8; 4096];
        assert_eq!(
            state.on_readable(&mut io, &ctx, &mut scratch, 1).unwrap(),
            ReadOutcome::Open
        );
        assert!(
            state.idle_for() < Duration::from_millis(10),
            "receiving a chunk must reset the idle clock"
        );
        state.finish(&mut io, &ctx);
        r.service.shutdown();
    }

    #[test]
    fn sweep_cadence_is_bounded() {
        let cfg = CollectorConfig::default(); // 30s timeout, 10ms poll
        assert_eq!(sweep_cadence(&cfg), Duration::from_secs(1));
        let quick = CollectorConfig {
            read_timeout: Duration::from_millis(20),
            poll_interval: Duration::from_millis(10),
            ..CollectorConfig::default()
        };
        assert_eq!(sweep_cadence(&quick), Duration::from_millis(10));
    }
}
