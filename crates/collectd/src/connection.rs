//! The connection: protocol sniffing, decoding, batching and ack
//! generation ([`ProtoEngine`]) inside the one per-connection state
//! machine ([`ConnState`]: read loop, `EINTR` retry, idle clock, ack
//! flush cursor, backpressure pause, shutdown drain). An epoll wakeup in
//! `crate::reactor` calls it; the socket-free drivers call it over
//! scripted IO.
//!
//! `ConnState` runs on the reactor's event loop, so `qtag-lint` rule R5
//! keeps blocking calls out of this file.

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

/// Everything a connection needs; one clone per connection.
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
/// pause flag, idle clock, drain flag). Transport-agnostic — a reactor
/// worker drives it over a non-blocking socket, the model/property
/// drivers over scripted in-memory IO.
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
    /// Shutdown drain: reads never pause, whatever the ack backlog.
    /// The daemon closes the socket either way, and the buffered frames
    /// must reach the store.
    draining: bool,
    /// Facade-clock instant of the last byte received (idle budget).
    /// Measured from the clock, NOT accumulated per wakeup: a wakeup
    /// that finds nothing to read (signal, spurious wakeup) must not
    /// count as idle time.
    last_data: Instant,
}

impl ConnState {
    pub(crate) fn new() -> ConnState {
        ConnState {
            engine: ProtoEngine::new(),
            acks: Vec::new(),
            cursor: 0,
            paused: false,
            draining: false,
            last_data: Instant::now(),
        }
    }

    fn pending(&self) -> usize {
        self.acks.len() - self.cursor
    }

    /// Whether an ack write is parked: the reactor watches the
    /// connection for `WRITABLE`.
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
                        if self.pending() > ctx.cfg.ack_buffer_cap && !self.draining {
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
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadOutcome::Open),
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
    /// drained buffer), resets the buffer, and lifts a read pause. A
    /// write that would block parks the rest.
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

    /// Enters the shutdown drain: lifts a backpressure pause, and reads
    /// never pause again (see `draining`). Idempotent.
    pub(crate) fn start_drain(&mut self) {
        self.draining = true;
        self.paused = false;
    }
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
        Eof,
    }

    /// Scripted IO: each `read` plays the next step, writes are
    /// swallowed. Lets the regression tests inject `EINTR` and early
    /// wakeups that a real socket cannot produce deterministically.
    struct ShimStream {
        steps: VecDeque<Step>,
    }

    impl ShimStream {
        fn new(steps: Vec<Step>) -> Self {
            ShimStream {
                steps: steps.into(),
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
                Some(Step::Eof) | None => Ok(0),
            }
        }
    }

    impl Write for ShimStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Serves `io` to its end on one [`ConnState`], one read per wakeup,
    /// judging the idle budget after every wakeup that leaves the
    /// connection open, as the reactor's idle sweep does. Returns
    /// whether the connection timed out.
    fn serve(mut io: impl Read + Write, ctx: &ConnCtx) -> bool {
        let mut state = ConnState::new();
        let mut buf = vec![0u8; 16 * 1024];
        let mut timed_out = false;
        while let Ok(ReadOutcome::Open) = state.on_readable(&mut io, ctx, &mut buf, 1) {
            if state.idle_for() >= ctx.cfg.read_timeout {
                timed_out = true;
                break;
            }
        }
        state.finish(&mut io, ctx);
        timed_out
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
        assert!(!serve(stream, &r.ctx));
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(
            snap.frames_decoded, 2,
            "the beacon after the EINTR must not be lost: {snap:?}"
        );
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
        assert!(
            !serve(ShimStream::new(steps), &r.ctx),
            "early wakeups must not count as idle time"
        );
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.frames_decoded, 2, "{snap:?}");
        assert_eq!(r.store.unique_beacons(), 2);
    }

    /// A genuinely idle stream still times out: the wall-accurate
    /// clock keeps the timeout working, it only stops over-counting.
    #[test]
    fn genuine_idle_still_times_out() {
        let cfg = CollectorConfig {
            read_timeout: Duration::from_millis(20),
            poll_interval: Duration::from_millis(1),
            ..CollectorConfig::default()
        };
        let r = rig(cfg);
        /// A stream whose every wakeup comes `poll_interval`-ish after
        /// the last and finds nothing to read.
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
        assert!(serve(IdleStream, &r.ctx));
        r.service.shutdown();
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
        serve(stream, &r.ctx);
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
        serve(stream, &r.ctx);
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
        serve(stream, &r.ctx);
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
        serve(stream, &r.ctx);
        r.service.shutdown();
        let snap = r.ctx.stats.snapshot();
        assert_eq!(snap.corrupt_frames, 1, "{snap:?}");
        assert_eq!(snap.frames_decoded, 0, "{snap:?}");
    }
}
