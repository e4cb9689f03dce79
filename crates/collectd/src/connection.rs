//! The connection: protocol sniffing, decoding, batching and ack
//! generation ([`ProtoEngine`]) inside the one per-connection state
//! machine ([`ConnState`]: read loop, `EINTR` retry, idle clock, ack
//! flush cursor, backpressure pause). The two serving modes differ only
//! in who calls [`ConnState::on_readable`]: a dedicated thread blocked
//! in [`serve_stream`], or an epoll wakeup in `crate::reactor`.
//!
//! `ConnState` runs on the reactor's event loop, so `qtag-lint` rule R5
//! keeps blocking calls out of this file; [`serve_stream`], which owns
//! its thread, is the one exempt function.

use crate::config::CollectorConfig;
use crate::stats::CollectorStats;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::time::Instant;
use crate::sync::Arc;
use qtag_obs::{Stage, TraceEvent, TraceRing};
use qtag_server::BeaconInlet;
use qtag_wire::framing::FrameEvent;
use qtag_wire::sender::{encode_ack, AckKey, ACK_HELLO, ACK_LEN};
use qtag_wire::{json, Beacon, FrameDecoder};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-connection observability: the shared trace ring, the daemon's
/// span epoch, and this connection's correlation id. When `trace` is
/// `None` the span helpers never read the clock, so the socket-free
/// model driver stays deterministic.
#[derive(Clone)]
pub(crate) struct ConnObs {
    pub(crate) trace: Option<Arc<TraceRing>>,
    pub(crate) epoch: Instant,
    pub(crate) conn_id: u64,
}

impl ConnObs {
    /// An observability context that records nothing.
    pub(crate) fn disabled() -> ConnObs {
        ConnObs {
            trace: None,
            epoch: Instant::now(),
            conn_id: 0,
        }
    }

    /// Span-start timestamp (µs since the daemon's epoch), or 0 when
    /// tracing is off.
    fn now_us(&self) -> u64 {
        if self.trace.is_some() {
            self.epoch.elapsed().as_micros() as u64
        } else {
            0
        }
    }

    /// Records a completed span covering `items` items.
    fn span(&self, stage: Stage, start_us: u64, items: u64) {
        if let Some(ring) = &self.trace {
            let end_us = self.epoch.elapsed().as_micros() as u64;
            ring.record(TraceEvent {
                stage,
                key: self.conn_id,
                start_us,
                dur_us: end_us.saturating_sub(start_us),
                items,
            });
        }
    }
}

/// Everything a connection (thread or reactor slot) needs; one clone
/// per connection.
#[derive(Clone)]
pub(crate) struct ConnCtx {
    pub(crate) cfg: Arc<CollectorConfig>,
    pub(crate) stats: Arc<CollectorStats>,
    pub(crate) inlet: BeaconInlet,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) obs: ConnObs,
}

/// Wire protocol of one connection, fixed by its first byte.
enum Protocol {
    /// `qtag-wire` length-prefixed binary frames.
    Binary(FrameDecoder),
    /// Binary frames with per-frame acknowledgements written back
    /// (opted in by a leading [`ACK_HELLO`] byte). Only frames the
    /// inlet *accepts* are acked — a shed frame earns no ack, turning
    /// server backpressure into client retry pressure. Duplicates are
    /// re-acked: the store already holds the beacon, so the honest
    /// answer to "did you get it?" is yes.
    BinaryAcked(FrameDecoder),
    /// Newline-delimited JSON beacons.
    Json(JsonLines),
}

/// Accumulates JSON lines with a length cap.
struct JsonLines {
    line: Vec<u8>,
    /// The current line blew the cap; swallow until its newline and
    /// count the line corrupt once.
    overflowing: bool,
}

impl JsonLines {
    fn new() -> Self {
        JsonLines {
            line: Vec::new(),
            overflowing: false,
        }
    }

    fn feed(&mut self, bytes: &[u8], ctx: &ConnCtx, batch: &mut Vec<Beacon>) {
        for &b in bytes {
            if b == b'\n' {
                if self.overflowing {
                    ctx.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                    self.overflowing = false;
                } else {
                    self.finish_line(ctx, batch);
                }
                self.line.clear();
            } else if self.overflowing {
                // discard until newline
            } else if self.line.len() >= ctx.cfg.max_line_len {
                self.overflowing = true;
                self.line.clear();
            } else {
                self.line.push(b);
            }
        }
    }

    fn finish_line(&mut self, ctx: &ConnCtx, batch: &mut Vec<Beacon>) {
        let trimmed: &[u8] = {
            let mut s = self.line.as_slice();
            while let [b' ' | b'\t' | b'\r', rest @ ..] = s {
                s = rest;
            }
            while let [rest @ .., b' ' | b'\t' | b'\r'] = s {
                s = rest;
            }
            s
        };
        if trimmed.is_empty() {
            return; // blank keep-alive line, not a frame
        }
        let parsed = std::str::from_utf8(trimmed)
            .ok()
            .and_then(|s| json::decode(s).ok());
        match parsed {
            Some(beacon) => {
                ctx.stats.frames_decoded.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                batch.push(beacon);
            }
            None => {
                ctx.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
            }
        }
    }

    /// End-of-stream tail handling: a complete JSON beacon whose peer
    /// closed without a trailing `\n` is still a fully-sent beacon —
    /// parse and account it exactly like a newline-terminated line
    /// (applied if valid, corrupt if garbage), instead of silently
    /// dropping it and breaking conservation for JSON peers.
    fn finish(&mut self, ctx: &ConnCtx, batch: &mut Vec<Beacon>) {
        if self.overflowing {
            // The overlong line was already a damaged frame; EOF just
            // ends it without its newline.
            ctx.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
            self.overflowing = false;
        } else {
            self.finish_line(ctx, batch);
        }
        self.line.clear();
    }
}

/// Drains decoded events into `batch` (corrupt frames are counted and
/// dropped here). The caller hands the whole batch to the inlet once
/// per read iteration — one channel operation per shard touched,
/// instead of one per frame.
fn drain_binary(dec: &mut FrameDecoder, ctx: &ConnCtx, batch: &mut Vec<Beacon>) {
    while let Some(ev) = dec.next_event() {
        match ev {
            FrameEvent::Beacon(b) => {
                ctx.stats.frames_decoded.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                batch.push(b);
            }
            FrameEvent::Corrupt(_) => {
                ctx.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
            }
        }
    }
}

/// Offers one read iteration's decoded beacons to the inlet as a
/// batch. When `acks` is `Some`, each inlet-*accepted* beacon appends
/// one encoded ack record; shed frames append nothing (the client
/// will retry them). The batch buffer is cleared for reuse.
fn offer_collected(ctx: &ConnCtx, batch: &mut Vec<Beacon>, acks: Option<&mut Vec<u8>>) {
    if batch.is_empty() {
        return;
    }
    let items = batch.len() as u64;
    let start_us = ctx.obs.now_us();
    match acks {
        Some(out) => {
            ctx.inlet
                .offer_batch(batch, |b| encode_ack(AckKey::from(b), out));
        }
        None => {
            ctx.inlet.offer_batch(batch, |_| {});
        }
    }
    batch.clear();
    ctx.obs.span(Stage::Inlet, start_us, items);
}

/// End-of-stream decoder accounting shared by every driver: flushes
/// the decoder's remaining complete frames into `batch` and accounts
/// resync/corrupt byte totals.
fn finish_binary(dec: &mut FrameDecoder, ctx: &ConnCtx, batch: &mut Vec<Beacon>) {
    for ev in dec.finish() {
        match ev {
            FrameEvent::Beacon(b) => {
                ctx.stats.frames_decoded.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                batch.push(b);
            }
            FrameEvent::Corrupt(_) => {
                ctx.stats.corrupt_frames.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
            }
        }
    }
    // ordering: monotone stats; exact reads only after join.
    ctx.stats
        .resync_bytes
        .fetch_add(dec.skipped_bytes(), Ordering::Relaxed);
    // ordering: monotone stat; exact reads only after join.
    ctx.stats
        .corrupt_frame_bytes
        .fetch_add(dec.corrupt_bytes(), Ordering::Relaxed);
}

/// The transport-agnostic half of a connection: protocol sniffing,
/// decoding, per-read batched inlet hand-off and ack generation.
/// Owned and fed by [`ConnState`] only.
struct ProtoEngine {
    proto: Option<Protocol>,
    batch: Vec<Beacon>,
}

impl ProtoEngine {
    fn new() -> ProtoEngine {
        ProtoEngine {
            proto: None,
            batch: Vec::new(),
        }
    }

    /// Feeds one read's worth of bytes: sniffs the protocol on the
    /// first byte, decodes, counts corrupt frames, and offers every
    /// decoded beacon to the inlet in one batch. Ack records for
    /// inlet-accepted frames append to `acks` (acked protocol only);
    /// flushing them is [`ConnState::flush`]'s job.
    fn on_bytes(&mut self, bytes: &[u8], ctx: &ConnCtx, acks: &mut Vec<u8>) {
        if bytes.is_empty() {
            return;
        }
        // First byte fixes the protocol; the acked-binary hello byte
        // is consumed here, not fed to the decoder.
        let mut start = 0;
        let p = match self.proto.as_mut() {
            Some(p) => p,
            None => {
                let chosen = if bytes[0] == b'{' {
                    Protocol::Json(JsonLines::new())
                } else if bytes[0] == ACK_HELLO {
                    start = 1;
                    ctx.stats.acked_connections.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
                    Protocol::BinaryAcked(FrameDecoder::new())
                } else {
                    Protocol::Binary(FrameDecoder::new())
                };
                self.proto.insert(chosen)
            }
        };
        let decode_start_us = ctx.obs.now_us();
        match p {
            Protocol::Binary(dec) => {
                dec.extend(&bytes[start..]);
                drain_binary(dec, ctx, &mut self.batch);
                ctx.obs
                    .span(Stage::Decode, decode_start_us, self.batch.len() as u64);
                offer_collected(ctx, &mut self.batch, None);
            }
            Protocol::BinaryAcked(dec) => {
                dec.extend(&bytes[start..]);
                drain_binary(dec, ctx, &mut self.batch);
                ctx.obs
                    .span(Stage::Decode, decode_start_us, self.batch.len() as u64);
                offer_collected(ctx, &mut self.batch, Some(acks));
            }
            Protocol::Json(lines) => {
                lines.feed(&bytes[start..], ctx, &mut self.batch);
                ctx.obs
                    .span(Stage::Decode, decode_start_us, self.batch.len() as u64);
                offer_collected(ctx, &mut self.batch, None);
            }
        }
    }

    /// End-of-stream flush: a truncated binary tail frame stays
    /// buffered in the decoder (the sender never completed it — not
    /// corrupt, not applied); a JSON tail missing only its newline is
    /// parsed and accounted (see [`JsonLines::finish`]). Idempotent —
    /// a second call observes an empty engine and does nothing.
    fn finish(&mut self, ctx: &ConnCtx, acks: &mut Vec<u8>) {
        match self.proto.take() {
            Some(Protocol::Binary(mut dec)) => {
                finish_binary(&mut dec, ctx, &mut self.batch);
                offer_collected(ctx, &mut self.batch, None);
            }
            Some(Protocol::BinaryAcked(mut dec)) => {
                finish_binary(&mut dec, ctx, &mut self.batch);
                offer_collected(ctx, &mut self.batch, Some(acks));
            }
            Some(Protocol::Json(mut lines)) => {
                lines.finish(ctx, &mut self.batch);
                offer_collected(ctx, &mut self.batch, None);
            }
            None => {}
        }
    }
}

/// Why [`ConnState::on_readable`] wants the connection closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Keep the connection; nothing more to read right now.
    Open,
    /// Peer closed its write half (orderly EOF) or the socket erred;
    /// either way the stream is over and the engine must be flushed.
    Closed,
}

/// The per-connection state machine: the [`ProtoEngine`] plus the
/// socket lifecycle around it (pending-ack write buffer with cursor,
/// pause flag, idle clock). Transport-agnostic — a reader thread
/// drives it over a blocking socket, a reactor worker over a
/// non-blocking one, the model/property drivers over scripted
/// in-memory IO.
pub(crate) struct ConnState {
    engine: ProtoEngine,
    /// Ack bytes generated but not yet fully written. `cursor` marks
    /// how far writes have progressed; the buffer is cleared (and
    /// counted) only when fully drained, so every ack is counted
    /// exactly once.
    acks: Vec<u8>,
    cursor: usize,
    /// Reads paused because the un-drained ack backlog exceeded
    /// `ack_buffer_cap`. Cleared on full drain.
    paused: bool,
    /// Facade-clock instant of the last byte received (idle budget).
    /// Measured from the clock, NOT accumulated per wakeup: a timed
    /// read that wakes early (signal, spurious wakeup) must not count
    /// as idle time.
    last_data: Instant,
}

// `on_writable` and the pause accessors are called by the epoll
// worker only.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
impl ConnState {
    pub(crate) fn new() -> ConnState {
        ConnState {
            engine: ProtoEngine::new(),
            acks: Vec::new(),
            cursor: 0,
            paused: false,
            last_data: Instant::now(),
        }
    }

    fn pending(&self) -> usize {
        self.acks.len() - self.cursor
    }

    /// Whether an ack write is parked: the reactor watches the
    /// connection for `WRITABLE`; the reader thread, whose writes
    /// already waited out the write timeout, gives the client up.
    pub(crate) fn wants_writable(&self) -> bool {
        self.pending() > 0
    }

    /// Whether reads are paused behind the ack backlog.
    pub(crate) fn reads_paused(&self) -> bool {
        self.paused
    }

    /// How long since the peer last sent a byte.
    pub(crate) fn idle_for(&self) -> Duration {
        self.last_data.elapsed()
    }

    /// Reads up to `budget` chunks, feeding the engine and flushing
    /// acks opportunistically. `EINTR` retries the read; a socket with
    /// nothing to read right now, or an exhausted budget, returns
    /// [`ReadOutcome::Open`] and waits for the next call.
    pub(crate) fn on_readable(
        &mut self,
        io: &mut (impl Read + Write),
        ctx: &ConnCtx,
        scratch: &mut [u8],
        budget: usize,
    ) -> io::Result<ReadOutcome> {
        if self.paused {
            // Backpressured: the ack backlog must drain (on_writable)
            // before more frames are accepted. Level-triggered polling
            // re-delivers the readable event after resume.
            return Ok(ReadOutcome::Open);
        }
        let mut reads = 0;
        loop {
            match io.read(scratch) {
                Ok(0) => return Ok(ReadOutcome::Closed),
                Ok(n) => {
                    self.last_data = Instant::now();
                    ctx.stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed); // ordering: stat, read after join
                    self.engine.on_bytes(&scratch[..n], ctx, &mut self.acks);
                    if self.pending() > 0 {
                        self.flush(io, ctx)?;
                        if self.pending() > ctx.cfg.ack_buffer_cap {
                            self.paused = true;
                            // ordering: monotone stat; exact reads only after join.
                            ctx.stats
                                .ack_backpressure_pauses
                                .fetch_add(1, Ordering::Relaxed);
                            return Ok(ReadOutcome::Open);
                        }
                    }
                    reads += 1;
                    if reads >= budget {
                        return Ok(ReadOutcome::Open);
                    }
                }
                // A signal landing mid-read (EINTR) says nothing about
                // the connection — retry instead of tearing down a
                // healthy peer and forcing a full client retry cycle.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // `TimedOut` is how some platforms spell an expired
                // read timeout on a blocking socket; a non-blocking
                // one never reports it.
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadOutcome::Open)
                }
                // Abrupt disconnect (reset mid-stream): everything
                // already read still gets flushed by `finish`.
                Err(e) => return Err(e),
            }
        }
    }

    /// Handles a writable event: resumes the parked ack flush.
    pub(crate) fn on_writable(&mut self, io: &mut impl Write, ctx: &ConnCtx) -> io::Result<()> {
        self.flush(io, ctx)
    }

    /// Ack flush. Partial progress advances `cursor`; a full drain
    /// counts the acks (`acks_sent` per record, `ack_flushes` per
    /// drained buffer — on a blocking socket that is one per read
    /// that produced acks), resets the buffer, and lifts a read pause.
    /// A write that would block — at once on a non-blocking socket,
    /// after the write timeout on a blocking one — parks the rest.
    fn flush(&mut self, io: &mut impl Write, ctx: &ConnCtx) -> io::Result<()> {
        if self.acks.is_empty() {
            return Ok(());
        }
        let start_us = ctx.obs.now_us();
        while self.cursor < self.acks.len() {
            match io.write(&self.acks[self.cursor..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.cursor += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.cursor == self.acks.len() {
            let n = (self.acks.len() / ACK_LEN) as u64;
            ctx.stats.acks_sent.fetch_add(n, Ordering::Relaxed); // ordering: stat, read after join
            ctx.stats.ack_flushes.fetch_add(1, Ordering::Relaxed); // ordering: stat, read after join
            self.acks.clear();
            self.cursor = 0;
            self.paused = false;
            ctx.obs.span(Stage::Ack, start_us, n);
        }
        Ok(())
    }

    /// End-of-stream: flushes the engine (a truncated binary tail
    /// stays unsent; an unterminated JSON tail is parsed) and makes
    /// one best-effort attempt at the final acks. A peer that is gone,
    /// or whose socket buffer is full while closing, loses only acks —
    /// its retry layer covers them.
    pub(crate) fn finish(&mut self, io: &mut impl Write, ctx: &ConnCtx) {
        self.engine.finish(ctx, &mut self.acks);
        let _ = self.flush(io, ctx);
    }

    /// Clears a backpressure pause (shutdown drain reads regardless:
    /// the daemon is about to close the socket either way, and the
    /// buffered frames must reach the store).
    pub(crate) fn unpause_for_drain(&mut self) {
        self.paused = false;
    }
}

/// The blocking-socket surface [`serve_stream`] needs, implemented by
/// `TcpStream` and by the test shims that inject `EINTR`, early
/// wakeups and stalled writes (the connection-lifecycle regression
/// suite).
pub(crate) trait ConnStream: Read + Write {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

impl ConnStream for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, dur)
    }
}

/// Serves one connection to completion on a dedicated thread: drives
/// a [`ConnState`] over a blocking socket. Returns when the peer
/// closes, the read-timeout budget is exhausted, the client stops
/// taking its acks, or the daemon is shutting down and the socket has
/// gone quiet — always flushing whatever the decoder still holds so
/// in-flight frames are never dropped.
pub(crate) fn serve_stream(mut stream: impl ConnStream, ctx: ConnCtx) {
    // Poll-interval read timeout: bounds both idle detection
    // granularity and shutdown latency. The write timeout bounds ack
    // writes to a stalled client so this thread cannot hang forever.
    let _ = stream.set_read_timeout(Some(ctx.cfg.poll_interval));
    let _ = stream.set_write_timeout(Some(ctx.cfg.read_timeout));
    let mut state = ConnState::new();
    let mut buf = vec![0u8; 16 * 1024];
    // Unbudgeted: this thread has nobody to yield to, so `Open` means
    // the socket went quiet for a poll interval (or reads paused).
    while let Ok(ReadOutcome::Open) = state.on_readable(&mut stream, &ctx, &mut buf, usize::MAX) {
        if state.wants_writable() {
            // An ack write outlasted the write timeout. Nobody will
            // deliver a writable event here, and a paused state would
            // return at once forever: give the client up, its ack
            // timeouts force a retry cycle over a fresh connection.
            break;
        }
        // ordering: Acquire pairs with the Release store in
        // `Collector::stop` — reader threads that see the flag also
        // see everything the stopping thread published before
        // flipping it.
        if ctx.shutdown.load(Ordering::Acquire) {
            // Draining for shutdown and the socket is quiet: nothing
            // more will be waited for.
            break;
        }
        if state.idle_for() >= ctx.cfg.read_timeout {
            // ordering: monotone stat; exact reads only after join.
            ctx.stats
                .connections_timed_out
                .fetch_add(1, Ordering::Relaxed);
            break;
        }
    }
    state.finish(&mut stream, &ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_server::{IngestConfig, IngestService, ShardedStore};
    use qtag_wire::framing::encode_frames;
    use qtag_wire::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};
    use std::collections::VecDeque;

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

    struct Rig {
        service: IngestService,
        store: ShardedStore,
        ctx: ConnCtx,
    }

    fn rig(cfg: CollectorConfig) -> Rig {
        let store = ShardedStore::new(1);
        for id in 1..=8u64 {
            store.record_served(qtag_server::ServedImpression {
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
                inlet_capacity: 64,
                ..IngestConfig::default()
            },
        );
        let ctx = ConnCtx {
            cfg: Arc::new(cfg),
            stats: Arc::new(CollectorStats::default()),
            inlet: service.inlet(),
            shutdown: Arc::new(AtomicBool::new(false)),
            obs: ConnObs::disabled(),
        };
        Rig {
            service,
            store,
            ctx,
        }
    }

    /// One scripted read result for the shim stream.
    enum Step {
        Data(Vec<u8>),
        Err(io::ErrorKind),
        /// Not a read: from here on every write waits out the write
        /// timeout and takes nothing (`WouldBlock`), like a client
        /// that stopped reading its acks.
        StallWrites,
        Eof,
    }

    /// A scripted [`ConnStream`]: each `read` plays the next step,
    /// writes are swallowed (or stalled, after [`Step::StallWrites`]).
    /// Lets the regression tests inject `EINTR`, early wakeups and
    /// write timeouts that a real socket cannot produce
    /// deterministically.
    struct ShimStream {
        steps: VecDeque<Step>,
        writes_stalled: bool,
    }

    impl ShimStream {
        fn new(steps: Vec<Step>) -> Self {
            ShimStream {
                steps: steps.into(),
                writes_stalled: false,
            }
        }
    }

    impl Read for ShimStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                Some(Step::Data(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script chunk fits the read buf");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Step::Err(kind)) => Err(io::Error::from(kind)),
                Some(Step::StallWrites) => {
                    self.writes_stalled = true;
                    self.read(buf)
                }
                Some(Step::Eof) | None => Ok(0),
            }
        }
    }

    impl Write for ShimStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.writes_stalled {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl ConnStream for ShimStream {
        fn set_read_timeout(&self, _dur: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn set_write_timeout(&self, _dur: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    /// Regression (EINTR teardown): an `Interrupted` read used to hit
    /// the catch-all `Err(_) => break` and tear down a healthy
    /// connection, losing everything the peer sent afterwards. The
    /// read must be retried: every beacon around the signal is
    /// applied.
    #[test]
    fn eintr_mid_stream_is_retried_not_fatal() {
        let r = rig(CollectorConfig::default());
        let first = encode_frames(&[beacon(1, 0)]).unwrap();
        let second = encode_frames(&[beacon(2, 0)]).unwrap();
        let stream = ShimStream::new(vec![
            Step::Data(first),
            Step::Err(io::ErrorKind::Interrupted),
            Step::Err(io::ErrorKind::Interrupted),
            Step::Data(second),
            Step::Eof,
        ]);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(
            snap.frames_decoded, 2,
            "the beacon after the EINTR must not be lost: {snap:?}"
        );
        assert_eq!(snap.connections_timed_out, 0);
        assert_eq!(r.store.unique_beacons(), 2);
    }

    /// Regression (idle-clock drift): the idle budget used to be
    /// accumulated as `poll_interval` per `WouldBlock` wakeup, so a
    /// storm of early wakeups (here: 500 back-to-back, far more than
    /// read_timeout / poll_interval) timed out a connection that had
    /// been idle for almost no wall time. Measured against the facade
    /// clock, the connection survives and its final beacon lands.
    #[test]
    fn early_wakeups_do_not_exhaust_the_idle_budget() {
        let cfg = CollectorConfig {
            read_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(100),
            ..CollectorConfig::default()
        };
        let r = rig(cfg);
        let mut steps = vec![Step::Data(encode_frames(&[beacon(1, 0)]).unwrap())];
        for _ in 0..500 {
            steps.push(Step::Err(io::ErrorKind::WouldBlock));
        }
        steps.push(Step::Data(encode_frames(&[beacon(2, 0)]).unwrap()));
        steps.push(Step::Eof);
        let stream = ShimStream::new(steps);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(
            snap.connections_timed_out, 0,
            "early wakeups must not count as idle time: {snap:?}"
        );
        assert_eq!(snap.frames_decoded, 2, "{snap:?}");
        assert_eq!(r.store.unique_beacons(), 2);
    }

    /// A genuinely idle shim stream still times out: the wall-accurate
    /// clock keeps the timeout working, it only stops over-counting.
    #[test]
    fn genuine_idle_still_times_out() {
        let cfg = CollectorConfig {
            read_timeout: Duration::from_millis(20),
            poll_interval: Duration::from_millis(1),
            ..CollectorConfig::default()
        };
        let r = rig(cfg);
        /// A stream that sleeps `poll_interval`-ish per read and
        /// returns `WouldBlock`, like a real timed-out socket read.
        struct IdleStream;
        impl Read for IdleStream {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                std::thread::sleep(Duration::from_millis(2));
                Err(io::Error::from(io::ErrorKind::WouldBlock))
            }
        }
        impl Write for IdleStream {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl ConnStream for IdleStream {
            fn set_read_timeout(&self, _d: Option<Duration>) -> io::Result<()> {
                Ok(())
            }
            fn set_write_timeout(&self, _d: Option<Duration>) -> io::Result<()> {
                Ok(())
            }
        }
        serve_stream(IdleStream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.connections_timed_out, 1, "{snap:?}");
    }

    /// An expired read timeout is spelled `TimedOut`, not `WouldBlock`,
    /// on some platforms. Either way it is a quiet poll: the
    /// connection stays up and the beacon after the quiet spell lands.
    #[test]
    fn timed_out_read_is_a_quiet_poll_not_a_teardown() {
        let r = rig(CollectorConfig::default());
        let stream = ShimStream::new(vec![
            Step::Data(encode_frames(&[beacon(1, 0)]).unwrap()),
            Step::Err(io::ErrorKind::TimedOut),
            Step::Err(io::ErrorKind::TimedOut),
            Step::Data(encode_frames(&[beacon(2, 0)]).unwrap()),
            Step::Eof,
        ]);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.frames_decoded, 2, "{snap:?}");
        assert_eq!(snap.connections_timed_out, 0, "{snap:?}");
        assert_eq!(r.store.unique_beacons(), 2);
    }

    fn acked(beacons: &[Beacon]) -> Vec<u8> {
        let mut bytes = vec![ACK_HELLO];
        bytes.extend_from_slice(&encode_frames(beacons).unwrap());
        bytes
    }

    /// An acked client that stops taking its acks: the write comes
    /// back from the state machine parked, not failed, and a reader
    /// thread has no writable event to wait for — it must close the
    /// connection the first time the machine hands control back, and
    /// never call a paused machine again (it would return at once,
    /// forever; this test would hang). Only acks are lost: every
    /// frame read before the close is in the store.
    #[test]
    fn stalled_ack_writer_is_closed_not_spun_on() {
        // (ack_buffer_cap, frames read before the close): over the cap
        // the machine pauses after the first read; under it the thread
        // reads on until the socket goes quiet.
        for (ack_buffer_cap, read_before_close) in [(0, 1), (64 * 1024, 2)] {
            let r = rig(CollectorConfig {
                ack_buffer_cap,
                ..CollectorConfig::default()
            });
            let stream = ShimStream::new(vec![
                Step::StallWrites,
                Step::Data(acked(&[beacon(1, 0)])),
                Step::Data(encode_frames(&[beacon(2, 0)]).unwrap()),
                Step::Err(io::ErrorKind::WouldBlock),
                Step::Data(encode_frames(&[beacon(3, 0)]).unwrap()),
                Step::Eof,
            ]);
            serve_stream(stream, r.ctx.clone());
            r.service.shutdown();
            let snap = r.ctx.stats.snapshot();
            assert_eq!(snap.frames_decoded, read_before_close, "{snap:?}");
            assert_eq!(r.store.unique_beacons(), read_before_close, "{snap:?}");
            assert_eq!(snap.acks_sent, 0, "{snap:?}");
            assert_eq!(snap.ack_flushes, 0, "{snap:?}");
            assert_eq!(snap.connections_timed_out, 0, "{snap:?}");
        }
    }

    /// `ack_flushes` counts drained ack buffers. A blocking socket
    /// drains the buffer inside the read iteration that filled it, so
    /// a reader thread reports one flush per read that produced acks —
    /// the number the hand-written threaded loop reported — and none
    /// for a read that completed no frame.
    #[test]
    fn reader_thread_ack_flushes_equal_ack_producing_reads() {
        let r = rig(CollectorConfig::default());
        let split = encode_frames(&[beacon(4, 0)]).unwrap();
        let (head, tail) = split.split_at(split.len() / 2);
        let stream = ShimStream::new(vec![
            Step::Data(acked(&[beacon(1, 0), beacon(2, 0)])),
            Step::Data(encode_frames(&[beacon(3, 0)]).unwrap()),
            Step::Data(head.to_vec()), // no complete frame: no acks, no flush
            Step::Data(tail.to_vec()),
            Step::Eof,
        ]);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.acks_sent, 4, "{snap:?}");
        assert_eq!(snap.ack_flushes, 3, "{snap:?}");
        assert_eq!(r.store.unique_beacons(), 4);
    }

    /// Regression (unterminated JSON tail): a complete, valid JSON
    /// beacon whose stream ends without a trailing newline used to be
    /// dropped with no accounting — the sender counted it sent, the
    /// daemon counted nothing, and conservation broke for JSON peers.
    /// It must be applied; a garbage tail must count corrupt.
    #[test]
    fn json_tail_without_newline_is_applied() {
        let r = rig(CollectorConfig::default());
        let mut payload = json::encode(&beacon(1, 0)).unwrap();
        payload.push('\n');
        payload.push_str(&json::encode(&beacon(2, 0)).unwrap());
        // No trailing newline: the peer closed right after the body.
        let stream = ShimStream::new(vec![Step::Data(payload.into_bytes()), Step::Eof]);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(
            snap.frames_decoded, 2,
            "the unterminated tail beacon must be applied: {snap:?}"
        );
        assert_eq!(snap.corrupt_frames, 0);
        assert_eq!(r.store.unique_beacons(), 2);
    }

    #[test]
    fn json_garbage_tail_counts_corrupt() {
        let r = rig(CollectorConfig::default());
        let mut payload = json::encode(&beacon(1, 0)).unwrap();
        payload.push('\n');
        payload.push_str("{\"truncated\": tra"); // cut mid-token, no newline
        let stream = ShimStream::new(vec![Step::Data(payload.into_bytes()), Step::Eof]);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.frames_decoded, 1, "{snap:?}");
        assert_eq!(
            snap.corrupt_frames, 1,
            "a garbage tail is a damaged frame, not a silent drop: {snap:?}"
        );
    }

    /// Whitespace-only and empty tails stay non-frames (keep-alive
    /// padding), exactly like their newline-terminated form.
    #[test]
    fn json_blank_tail_is_not_a_frame() {
        let r = rig(CollectorConfig::default());
        let mut payload = json::encode(&beacon(1, 0)).unwrap();
        payload.push('\n');
        payload.push_str("  \t ");
        let stream = ShimStream::new(vec![Step::Data(payload.into_bytes()), Step::Eof]);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.frames_decoded, 1, "{snap:?}");
        assert_eq!(snap.corrupt_frames, 0, "{snap:?}");
    }

    /// An overlong JSON line cut off by EOF (cap blown, newline never
    /// arrived) is still exactly one corrupt frame.
    #[test]
    fn json_overflowing_tail_counts_corrupt_once() {
        let r = rig(CollectorConfig {
            max_line_len: 16,
            ..CollectorConfig::default()
        });
        let payload = b"{\"way\": \"over the sixteen byte cap".to_vec();
        let stream = ShimStream::new(vec![Step::Data(payload), Step::Eof]);
        serve_stream(stream, r.ctx.clone());
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.corrupt_frames, 1, "{snap:?}");
        assert_eq!(snap.frames_decoded, 0, "{snap:?}");
    }
}
