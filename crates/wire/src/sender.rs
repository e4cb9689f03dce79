//! Reliable at-least-once beacon delivery.
//!
//! Fire-and-forget beacons vanish whenever the network hiccups — the
//! paper's measured-rate gap (Fig. 3) is exactly that loss made
//! visible. This module closes the loop: the collector acknowledges
//! every beacon it accepts, and [`BeaconSender`] keeps each frame in a
//! bounded in-memory queue until the ack arrives, retrying
//! failed/timed-out sends with deterministic seeded exponential
//! backoff + jitter.
//!
//! ## The acked-binary protocol
//!
//! A client opts in by writing [`ACK_HELLO`] (`b'A'`) as the first
//! byte of the connection, then streams ordinary length-prefixed
//! binary frames ([`crate::framing`]). For every frame the collector
//! *accepts into its pipeline* it writes back one fixed-size ack
//! record ([`ACK_LEN`] bytes: `impression_id` ‖ `seq`, big-endian) on
//! the same connection. No ack is written for corrupt frames or
//! frames shed at the collector's bounded inlet — the sender simply
//! retries those, so backpressure becomes retry pressure instead of
//! silent loss.
//!
//! ## The at-least-once invariant
//!
//! The sender distinguishes two kinds of failure:
//!
//! * a frame that was **never fully written** to any connection
//!   (connect refused, write error mid-frame) cannot have been
//!   applied by the collector — a partial frame never decodes. Such
//!   frames are dropped once the retry cap is hit and counted in
//!   [`SenderStats::dropped_after_retries`].
//! * a frame that **was fully written at least once** but never acked
//!   (ack lost to a reset, frame silently dropped in transit) *might*
//!   have been applied. The sender never silently forgets such a
//!   frame: it keeps retrying at the maximum backoff until the ack
//!   arrives (the collector re-acks duplicates) or the caller
//!   explicitly [`BeaconSender::abandon_pending`]s it into the
//!   separate `abandoned_unconfirmed` counter.
//!
//! This split is what makes the end-to-end conservation identity
//!
//! ```text
//! enqueued == acked + dropped_after_retries + abandoned + pending
//! ```
//!
//! *exact* rather than probabilistic: `acked` equals the number of
//! unique beacons the store applied (duplicates are deduplicated
//! server-side and re-acked), and a `dropped_after_retries` frame is
//! provably absent from every aggregate.

use crate::{framing, Beacon, WireError};
use qtag_obs::{Counter, Gauge, Histogram, Registry};
use serde::Serialize;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// First byte of a connection that wants per-frame acknowledgements
/// from the collector (the acked-binary protocol). Chosen to collide
/// with neither plain binary framing (whose first byte is `0x00`, the
/// high byte of a small length prefix) nor JSON lines (`b'{'`).
pub const ACK_HELLO: u8 = b'A';

/// Size of one ack record on the wire: `u64` impression id followed by
/// `u16` sequence number, both big-endian.
pub const ACK_LEN: usize = 10;

/// Identity of one beacon for acknowledgement purposes. The server
/// deduplicates on exactly this pair, so it is the natural retry key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct AckKey {
    /// Impression the beacon belongs to.
    pub impression_id: u64,
    /// Per-impression sequence number.
    pub seq: u16,
}

impl From<&Beacon> for AckKey {
    fn from(b: &Beacon) -> Self {
        AckKey {
            impression_id: b.impression_id,
            seq: b.seq,
        }
    }
}

/// Encodes one ack record into `out`.
pub fn encode_ack(key: AckKey, out: &mut Vec<u8>) {
    out.extend_from_slice(&key.impression_id.to_be_bytes());
    out.extend_from_slice(&key.seq.to_be_bytes());
}

/// Streaming decoder for ack records: feed arbitrary byte chunks,
/// get whole [`AckKey`]s out. A partial trailing record stays buffered
/// until its remaining bytes arrive (or [`AckDecoder::reset`] discards
/// it when the connection it belonged to dies).
#[derive(Debug, Default)]
pub struct AckDecoder {
    buf: Vec<u8>,
}

impl AckDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        AckDecoder::default()
    }

    /// Appends raw bytes and pushes every complete ack onto `out`.
    pub fn extend(&mut self, bytes: &[u8], out: &mut Vec<AckKey>) {
        self.buf.extend_from_slice(bytes);
        let whole = self.buf.len() / ACK_LEN;
        for i in 0..whole {
            let rec = &self.buf[i * ACK_LEN..(i + 1) * ACK_LEN];
            out.push(AckKey {
                impression_id: u64::from_be_bytes(rec[0..8].try_into().expect("8 bytes")),
                seq: u16::from_be_bytes(rec[8..10].try_into().expect("2 bytes")),
            });
        }
        self.buf.drain(..whole * ACK_LEN);
    }

    /// Discards any buffered partial record (call when the underlying
    /// connection is replaced — the tail will never complete).
    pub fn reset(&mut self) {
        self.buf.clear();
    }
}

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The connection is (now) closed; [`Transport::reopen`] may
    /// bring it back.
    Closed,
    /// The transport could not (re)connect.
    Unreachable,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Unreachable => write!(f, "collector unreachable"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A point-to-point channel to the collector that can fail.
///
/// [`BeaconSender`] is generic over this so the same retry state
/// machine drives a real TCP socket ([`TcpTransport`]), the simulated
/// lossy links of the bench pipeline, and the scripted transports of
/// the unit tests.
pub trait Transport {
    /// Writes one encoded frame. `Ok` means the frame was handed to
    /// the transport *whole* (it may still be lost downstream);
    /// `Err` means the frame was **not** fully written — a receiver
    /// can at most have seen an undecodable prefix.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Collects any acknowledgements that have arrived, without
    /// blocking (beyond a transport-chosen short poll).
    fn poll_acks(&mut self, out: &mut Vec<AckKey>) -> Result<(), TransportError>;

    /// (Re)establishes the connection after a failure.
    fn reopen(&mut self) -> Result<(), TransportError>;
}

/// Tunables for [`BeaconSender`].
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Maximum frames held in the retry queue; `offer` rejects beyond
    /// it (the caller sees the rejection — nothing is silently lost).
    pub queue_capacity: usize,
    /// How long after a successful write to wait for the ack before
    /// scheduling a retransmit.
    pub ack_timeout_us: u64,
    /// Retry cap: a frame that was never fully written is dropped
    /// (counted in [`SenderStats::dropped_after_retries`]) once it has
    /// consumed this many attempts.
    pub max_attempts: u32,
    /// First backoff step after a failed attempt.
    pub backoff_base_us: u64,
    /// Ceiling for the exponential backoff.
    pub backoff_max_us: u64,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by a
    /// deterministic pseudo-random factor in `[1, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter stream (determinism per seed).
    pub seed: u64,
    /// Backoff between reconnect attempts when the transport is down.
    pub reconnect_backoff_us: u64,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            queue_capacity: 4096,
            ack_timeout_us: 50_000,
            max_attempts: 6,
            backoff_base_us: 10_000,
            backoff_max_us: 400_000,
            jitter: 0.25,
            seed: 0x5EED_BEAC,
            reconnect_backoff_us: 20_000,
        }
    }
}

/// Monotone counters describing everything the sender has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SenderStats {
    /// Beacons accepted into the queue (`offer` returned `true`).
    pub enqueued: u64,
    /// Beacons rejected at the queue bound (`offer` returned `false`).
    pub rejected_queue_full: u64,
    /// Frames fully written to the transport (first sends and
    /// retransmits both).
    pub frames_written: u64,
    /// Retransmissions (frames_written minus first attempts).
    pub retransmits: u64,
    /// Beacons confirmed by the collector and released.
    pub acked: u64,
    /// Ack-wait windows that expired and triggered a retry.
    pub ack_timeouts: u64,
    /// Beacons dropped at the retry cap, *never* having been fully
    /// written — provably absent from every server aggregate.
    pub dropped_after_retries: u64,
    /// Maybe-delivered beacons the caller explicitly abandoned via
    /// [`BeaconSender::abandon_pending`].
    pub abandoned_unconfirmed: u64,
    /// Successful transport (re)opens.
    pub reconnects: u64,
    /// Failed transport (re)opens.
    pub reconnect_failures: u64,
}

impl SenderStats {
    /// The sender-side conservation identity (see module docs). Holds
    /// at every instant; `pending` is [`BeaconSender::pending`].
    pub fn conserves(&self, pending: u64) -> bool {
        self.enqueued
            == self.acked + self.dropped_after_retries + self.abandoned_unconfirmed + pending
    }
}

/// Registry-backed mirror of the sender's hot counters plus the two
/// timing distributions the ad-hoc [`SenderStats`] struct cannot hold:
/// write→ack latency and the backoff the retry schedule actually chose
/// (base × jitter stretch, capped). Shared across senders — the load
/// generator registers one block and attaches it to every client, so
/// the scraped totals are fleet-wide.
///
/// Purely additive: [`SenderStats`] stays the source of truth for the
/// conservation identity; the conservation test suite asserts the two
/// agree.
#[derive(Debug)]
pub struct SenderMetrics {
    /// Microseconds from a frame's most recent full write to its ack,
    /// on the caller's clock as passed to each pump: an ack drained by
    /// the pump that wrote its frame records 0.
    pub ack_latency_us: Arc<Histogram>,
    /// Backoff delays (µs) the retry schedule produced, post-jitter.
    pub backoff_us: Arc<Histogram>,
    enqueued: Counter,
    acked: Counter,
    retransmits: Counter,
    dropped_after_retries: Counter,
    abandoned_unconfirmed: Counter,
    pending: Gauge,
}

impl SenderMetrics {
    /// Registers the sender metric family under `prefix` (e.g.
    /// `qtag_sender`) and returns the shared block. Calling twice with
    /// the same prefix on the same registry reuses the same cells.
    pub fn register(registry: &Registry, prefix: &str) -> Arc<Self> {
        Arc::new(SenderMetrics {
            ack_latency_us: registry.histogram(
                &format!("{prefix}_ack_latency_us"),
                "Microseconds from a frame's last full write to its acknowledgement.",
            ),
            backoff_us: registry.histogram(
                &format!("{prefix}_backoff_us"),
                "Retry backoff delays chosen by the sender, in microseconds (post-jitter).",
            ),
            enqueued: registry.counter(
                &format!("{prefix}_enqueued_total"),
                "Beacons accepted into the retry queue.",
            ),
            acked: registry.counter(
                &format!("{prefix}_acked_total"),
                "Beacons confirmed by the collector and released.",
            ),
            retransmits: registry.counter(
                &format!("{prefix}_retransmits_total"),
                "Frame writes beyond each frame's first attempt.",
            ),
            dropped_after_retries: registry.counter(
                &format!("{prefix}_dropped_after_retries_total"),
                "Never-written beacons dropped at the retry cap.",
            ),
            abandoned_unconfirmed: registry.counter(
                &format!("{prefix}_abandoned_unconfirmed_total"),
                "Maybe-delivered beacons explicitly abandoned by the caller.",
            ),
            pending: registry.gauge(
                &format!("{prefix}_pending"),
                "Frames currently queued or awaiting an ack.",
            ),
        })
    }
}

#[derive(Debug)]
enum FrameState {
    /// Waiting (or backing off) to be written; due at the given time.
    Queued { due_us: u64 },
    /// Fully written; waiting for the collector's ack.
    AwaitingAck { deadline_us: u64 },
}

#[derive(Debug)]
struct PendingFrame {
    bytes: Vec<u8>,
    attempts: u32,
    ever_written: bool,
    /// Clock reading (`now_us`) of the most recent full write; the
    /// write→ack latency sample is measured from here.
    sent_at_us: u64,
    state: FrameState,
}

/// Deterministic 64-bit xorshift* stream for backoff jitter — no
/// external RNG dependency, stable across platforms.
#[derive(Debug)]
struct JitterRng(u64);

impl JitterRng {
    fn new(seed: u64) -> Self {
        JitterRng(seed | 1)
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The delay before attempt `attempts` of a frame: exponential from
/// `cfg.backoff_base_us`, capped at `cfg.backoff_max_us`, stretched by
/// up to `cfg.jitter` of itself. A function of the sender's fields
/// rather than a method, so a caller can hold a pending frame while
/// it draws the next jitter value.
fn backoff_us(
    cfg: &SenderConfig,
    jitter: &mut JitterRng,
    metrics: Option<&SenderMetrics>,
    attempts: u32,
) -> u64 {
    let exp = attempts.saturating_sub(1).min(16);
    let base = cfg
        .backoff_base_us
        .saturating_mul(1u64 << exp)
        .min(cfg.backoff_max_us);
    let stretch = 1.0 + cfg.jitter * jitter.next_f64();
    let chosen = (base as f64 * stretch) as u64;
    if let Some(m) = metrics {
        m.backoff_us.record(chosen);
    }
    chosen
}

/// The reliable sender: a bounded retry queue in front of a
/// [`Transport`].
///
/// The sender is clock-agnostic: every method takes `now_us`, so the
/// simulated pipeline drives it with virtual time and the TCP load
/// generator drives it with wall time. Call [`BeaconSender::offer`] to
/// enqueue and [`BeaconSender::pump`] regularly to make progress.
pub struct BeaconSender<T: Transport> {
    transport: T,
    cfg: SenderConfig,
    pending: HashMap<AckKey, PendingFrame>,
    /// FIFO of keys to keep write order roughly arrival order.
    order: Vec<AckKey>,
    connected: bool,
    reconnect_due_us: u64,
    stats: SenderStats,
    metrics: Option<Arc<SenderMetrics>>,
    jitter: JitterRng,
    ack_buf: Vec<AckKey>,
}

impl<T: Transport> BeaconSender<T> {
    /// Creates a sender over `transport` (assumed not yet connected;
    /// the first [`BeaconSender::pump`] opens it).
    pub fn new(transport: T, cfg: SenderConfig) -> Self {
        let jitter = JitterRng::new(cfg.seed);
        BeaconSender {
            transport,
            cfg,
            pending: HashMap::new(),
            order: Vec::new(),
            connected: false,
            reconnect_due_us: 0,
            stats: SenderStats::default(),
            metrics: None,
            jitter,
            ack_buf: Vec::new(),
        }
    }

    /// Attaches a registry-backed metrics block; every subsequent
    /// state transition is mirrored into it. The same block may be
    /// shared by many senders (the counters are atomic).
    pub fn attach_metrics(&mut self, metrics: Arc<SenderMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Counters so far.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Frames currently queued or awaiting ack.
    pub fn pending(&self) -> u64 {
        self.pending.len() as u64
    }

    /// `true` when nothing is queued or awaiting an ack.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Consumes the sender, returning its transport (tests use this to
    /// inspect scripted transports).
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// Enqueues one beacon for reliable delivery. Returns `false`
    /// (and counts the rejection) when the bounded queue is full —
    /// the caller decides whether to shed or to apply backpressure.
    /// A beacon whose `(impression_id, seq)` is already pending is
    /// accepted as a no-op duplicate (the queue key is the dedup key).
    pub fn offer(&mut self, beacon: &Beacon, now_us: u64) -> Result<bool, WireError> {
        if self.pending.len() >= self.cfg.queue_capacity {
            self.stats.rejected_queue_full += 1;
            return Ok(false);
        }
        let key = AckKey::from(beacon);
        if self.pending.contains_key(&key) {
            return Ok(true);
        }
        let bytes = framing::encode_frames(std::slice::from_ref(beacon))?;
        self.pending.insert(
            key,
            PendingFrame {
                bytes,
                attempts: 0,
                ever_written: false,
                sent_at_us: now_us,
                state: FrameState::Queued { due_us: now_us },
            },
        );
        self.order.push(key);
        self.stats.enqueued += 1;
        if let Some(m) = &self.metrics {
            m.enqueued.inc();
            m.pending.inc();
        }
        Ok(true)
    }

    /// Drives the state machine: reconnects, expires ack waits, writes
    /// due frames, then drains acks. Writing before waiting means the
    /// transport's poll (which may block briefly) waits for replies to
    /// frames already sent, never for acks that cannot exist yet. Call
    /// it often (each simulation tick, or every few milliseconds of
    /// wall time). Returns the number of frames written during this
    /// pump.
    pub fn pump(&mut self, now_us: u64) -> u64 {
        if !self.connected && now_us >= self.reconnect_due_us {
            match self.transport.reopen() {
                Ok(()) => {
                    self.connected = true;
                    self.stats.reconnects += 1;
                }
                Err(_) => {
                    self.stats.reconnect_failures += 1;
                    self.reconnect_due_us = now_us + self.cfg.reconnect_backoff_us;
                }
            }
        }

        // Expire ack waits (clock-driven, works even while offline).
        let metrics = self.metrics.as_deref();
        for frame in self.pending.values_mut() {
            if matches!(frame.state, FrameState::AwaitingAck { deadline_us } if deadline_us <= now_us)
            {
                self.stats.ack_timeouts += 1;
                // A fully-written frame is never dropped at the cap: it
                // might have been applied, so forgetting it would break
                // the exact conservation identity. It retries at the
                // backoff ceiling until acked or abandoned.
                let backoff = backoff_us(
                    &self.cfg,
                    &mut self.jitter,
                    metrics,
                    frame.attempts.saturating_add(1),
                );
                frame.state = FrameState::Queued {
                    due_us: now_us + backoff,
                };
            }
        }

        // Write due frames in arrival order. Offline, frames coming due
        // still consume attempts, so the retry cap can fire for
        // never-written frames while the collector is unreachable.
        let mut written = 0u64;
        let mut send_failed = false;
        for key in &self.order {
            let Some(frame) = self.pending.get_mut(key) else {
                continue;
            };
            if !matches!(frame.state, FrameState::Queued { due_us } if due_us <= now_us) {
                continue;
            }
            frame.attempts += 1;
            if self.connected {
                if frame.attempts > 1 {
                    self.stats.retransmits += 1;
                    if let Some(m) = metrics {
                        m.retransmits.inc();
                    }
                }
                if self.transport.send_frame(&frame.bytes).is_ok() {
                    written += 1;
                    self.stats.frames_written += 1;
                    frame.ever_written = true;
                    frame.sent_at_us = now_us;
                    frame.state = FrameState::AwaitingAck {
                        deadline_us: now_us + self.cfg.ack_timeout_us,
                    };
                    continue;
                }
                send_failed = true;
            }
            // A failed attempt: requeue after a backoff, or drop a
            // frame that was never fully written once it hits the cap.
            if frame.attempts >= self.cfg.max_attempts && !frame.ever_written {
                self.pending.remove(key);
                self.stats.dropped_after_retries += 1;
                if let Some(m) = metrics {
                    m.dropped_after_retries.inc();
                    m.pending.dec();
                }
            } else {
                let backoff = backoff_us(
                    &self.cfg,
                    &mut self.jitter,
                    metrics,
                    frame.attempts.saturating_add(1),
                );
                frame.state = FrameState::Queued {
                    due_us: now_us + backoff,
                };
            }
            if send_failed {
                break;
            }
        }
        if send_failed {
            self.mark_disconnected(now_us);
        }

        if self.connected {
            self.ack_buf.clear();
            match self.transport.poll_acks(&mut self.ack_buf) {
                Ok(()) => {
                    for key in &self.ack_buf {
                        if let Some(frame) = self.pending.remove(key) {
                            self.stats.acked += 1;
                            if let Some(m) = &self.metrics {
                                m.acked.inc();
                                m.pending.dec();
                                if frame.ever_written {
                                    m.ack_latency_us
                                        .record(now_us.saturating_sub(frame.sent_at_us));
                                }
                            }
                        }
                    }
                }
                Err(_) => self.mark_disconnected(now_us),
            }
        }

        self.order.retain(|k| self.pending.contains_key(k));
        written
    }

    fn mark_disconnected(&mut self, now_us: u64) {
        if self.connected {
            self.connected = false;
            self.reconnect_due_us = now_us + self.cfg.reconnect_backoff_us;
        }
    }

    /// Abandons everything still pending (maybe-delivered frames
    /// included), counting it in `abandoned_unconfirmed`. Only for
    /// callers that must terminate while the collector is gone;
    /// ordinary shutdown should pump to idle instead.
    pub fn abandon_pending(&mut self) -> u64 {
        let n = self.pending.len() as u64;
        self.stats.abandoned_unconfirmed += n;
        if let Some(m) = &self.metrics {
            m.abandoned_unconfirmed.add(n);
            for _ in 0..n {
                m.pending.dec();
            }
        }
        self.pending.clear();
        self.order.clear();
        n
    }

    /// The keys still in flight (queued or awaiting ack), in arrival
    /// order. Harnesses use this to audit exactly which beacons are
    /// unresolved.
    pub fn pending_keys(&self) -> Vec<AckKey> {
        self.order.clone()
    }
}

/// [`Transport`] over a real TCP connection speaking the acked-binary
/// protocol to `qtag-collectd` (hello byte, frames out, ack records
/// back on the same socket).
pub struct TcpTransport {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    decoder: AckDecoder,
    connect_timeout: Duration,
    /// `SO_RCVTIMEO` of the socket: the longest one `poll_acks` waits
    /// for its first ack bytes. Set to 1 ms, but the kernel counts the
    /// timeout in scheduler ticks: on a 2-core KVM guest with a 4 ms
    /// tick (HZ=250) an expired read took 8.0 ms at the median on an
    /// idle loopback socket, and about 6.7 ms per wait under qbench's
    /// `live_serving` load. Because the sender writes due frames
    /// before it polls, and the poll returns as soon as what arrived is
    /// drained, the wait is paid only while acks are owed and none has
    /// arrived yet (or, with nothing in flight, as the caller's pump
    /// loop pacing).
    read_poll: Duration,
}

impl TcpTransport {
    /// Creates a transport for the collector at `addr` (not yet
    /// connected — the sender's first pump opens it).
    pub fn new(addr: SocketAddr) -> Self {
        TcpTransport {
            addr,
            stream: None,
            decoder: AckDecoder::new(),
            connect_timeout: Duration::from_secs(2),
            read_poll: Duration::from_millis(1),
        }
    }

    fn drop_stream(&mut self) {
        self.stream = None;
        self.decoder.reset();
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        let stream = self.stream.as_mut().ok_or(TransportError::Closed)?;
        match stream.write_all(frame) {
            Ok(()) => Ok(()),
            Err(_) => {
                self.drop_stream();
                Err(TransportError::Closed)
            }
        }
    }

    fn poll_acks(&mut self, out: &mut Vec<AckKey>) -> Result<(), TransportError> {
        let stream = self.stream.as_mut().ok_or(TransportError::Closed)?;
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => {
                    self.drop_stream();
                    return Err(TransportError::Closed);
                }
                Ok(n) => {
                    self.decoder.extend(&buf[..n], out);
                    // A short read emptied the receive queue: return
                    // what arrived instead of blocking for more.
                    if n < buf.len() {
                        return Ok(());
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(())
                }
                Err(_) => {
                    self.drop_stream();
                    return Err(TransportError::Closed);
                }
            }
        }
    }

    fn reopen(&mut self) -> Result<(), TransportError> {
        self.drop_stream();
        let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
            .map_err(|_| TransportError::Unreachable)?;
        stream
            .set_read_timeout(Some(self.read_poll))
            .map_err(|_| TransportError::Unreachable)?;
        let _ = stream.set_nodelay(true);
        let mut stream = stream;
        stream
            .write_all(&[ACK_HELLO])
            .map_err(|_| TransportError::Unreachable)?;
        self.stream = Some(stream);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};
    use std::collections::VecDeque;

    fn beacon(seq: u16) -> Beacon {
        Beacon {
            impression_id: 7,
            campaign_id: 1,
            event: EventKind::Heartbeat,
            timestamp_us: u64::from(seq) * 1_000,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 500,
            exposure_ms: 0,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    /// What a scripted transport does with the next frame write.
    #[derive(Debug, Clone, Copy)]
    enum Script {
        /// Deliver: frame decodes server-side, ack queued.
        Deliver,
        /// Silent drop: write succeeds, nothing arrives.
        Vanish,
        /// Write error mid-frame: frame definitively not delivered.
        WriteError,
    }

    #[derive(Default)]
    struct ScriptedTransport {
        script: VecDeque<Script>,
        acks: VecDeque<AckKey>,
        delivered: Vec<AckKey>,
        refuse_reopen: bool,
        alive: bool,
    }

    impl ScriptedTransport {
        fn scripted(script: Vec<Script>) -> Self {
            ScriptedTransport {
                script: script.into(),
                alive: false,
                ..Default::default()
            }
        }
    }

    impl Transport for ScriptedTransport {
        fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
            if !self.alive {
                return Err(TransportError::Closed);
            }
            let action = self.script.pop_front().unwrap_or(Script::Deliver);
            match action {
                Script::Deliver => {
                    let mut dec = crate::FrameDecoder::new();
                    dec.extend(frame);
                    for ev in dec.drain() {
                        if let crate::framing::FrameEvent::Beacon(b) = ev {
                            let key = AckKey::from(&b);
                            self.delivered.push(key);
                            self.acks.push_back(key);
                        }
                    }
                    Ok(())
                }
                Script::Vanish => Ok(()),
                Script::WriteError => {
                    self.alive = false;
                    Err(TransportError::Closed)
                }
            }
        }

        fn poll_acks(&mut self, out: &mut Vec<AckKey>) -> Result<(), TransportError> {
            if !self.alive {
                return Err(TransportError::Closed);
            }
            out.extend(self.acks.drain(..));
            Ok(())
        }

        fn reopen(&mut self) -> Result<(), TransportError> {
            if self.refuse_reopen {
                return Err(TransportError::Unreachable);
            }
            self.alive = true;
            Ok(())
        }
    }

    fn run_to_idle(
        sender: &mut BeaconSender<ScriptedTransport>,
        mut now: u64,
        limit_us: u64,
    ) -> u64 {
        let deadline = now + limit_us;
        while !sender.is_idle() && now < deadline {
            sender.pump(now);
            now += 1_000;
        }
        now
    }

    #[test]
    fn happy_path_delivers_and_acks() {
        let mut s = BeaconSender::new(ScriptedTransport::scripted(vec![]), SenderConfig::default());
        for seq in 0..10 {
            assert!(s.offer(&beacon(seq), 0).unwrap());
        }
        run_to_idle(&mut s, 0, 1_000_000);
        let stats = s.stats();
        assert!(s.is_idle());
        assert_eq!(stats.acked, 10);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(stats.dropped_after_retries, 0);
        assert!(stats.conserves(0));
    }

    #[test]
    fn one_pump_writes_then_collects_instant_acks() {
        let mut s = BeaconSender::new(ScriptedTransport::scripted(vec![]), SenderConfig::default());
        for seq in 0..10 {
            assert!(s.offer(&beacon(seq), 0).unwrap());
        }
        assert_eq!(s.pump(0), 10);
        assert!(s.is_idle(), "acks for this pump's writes are drained by it");
        assert_eq!(s.stats().acked, 10);
        assert!(s.stats().conserves(0));
    }

    /// A peer that acks each frame as soon as it reads it. With a 2 s
    /// read timeout, the sender must neither wait for acks before its
    /// first write nor wait out the timeout after the ack arrived.
    #[test]
    fn tcp_pump_waits_only_for_acks_owed() {
        use std::net::TcpListener;
        use std::time::Instant;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut hello = [0u8; 1];
            conn.read_exact(&mut hello).unwrap();
            assert_eq!(hello[0], ACK_HELLO);
            let mut dec = crate::FrameDecoder::new();
            let mut buf = [0u8; 256];
            loop {
                let n = conn.read(&mut buf).unwrap();
                if n == 0 {
                    return;
                }
                dec.extend(&buf[..n]);
                let mut acks = Vec::new();
                for ev in dec.drain() {
                    if let crate::framing::FrameEvent::Beacon(b) = ev {
                        encode_ack(AckKey::from(&b), &mut acks);
                    }
                }
                conn.write_all(&acks).unwrap();
            }
        });

        let mut transport = TcpTransport::new(addr);
        transport.read_poll = Duration::from_secs(2);
        let mut s = BeaconSender::new(transport, SenderConfig::default());
        assert!(s.offer(&beacon(0), 0).unwrap());
        let start = Instant::now();
        while !s.is_idle() && start.elapsed() < Duration::from_secs(10) {
            s.pump(start.elapsed().as_micros() as u64);
        }
        let took = start.elapsed();
        assert!(s.is_idle(), "{:?}", s.stats());
        assert_eq!(s.stats().acked, 1);
        assert!(took < Duration::from_secs(1), "pumped to idle in {took:?}");
        drop(s);
        peer.join().unwrap();
    }

    #[test]
    fn silent_drop_is_retried_until_delivered() {
        let mut s = BeaconSender::new(
            ScriptedTransport::scripted(vec![Script::Vanish, Script::Vanish]),
            SenderConfig::default(),
        );
        assert!(s.offer(&beacon(0), 0).unwrap());
        run_to_idle(&mut s, 0, 10_000_000);
        let stats = s.stats();
        assert!(s.is_idle(), "third attempt must deliver");
        assert_eq!(stats.acked, 1);
        assert_eq!(stats.ack_timeouts, 2);
        assert_eq!(stats.retransmits, 2);
        assert_eq!(stats.dropped_after_retries, 0);
        assert!(stats.conserves(0));
    }

    #[test]
    fn write_error_then_reconnect_recovers() {
        let mut s = BeaconSender::new(
            ScriptedTransport::scripted(vec![Script::WriteError]),
            SenderConfig::default(),
        );
        assert!(s.offer(&beacon(0), 0).unwrap());
        run_to_idle(&mut s, 0, 10_000_000);
        let stats = s.stats();
        assert!(s.is_idle());
        assert_eq!(stats.acked, 1);
        assert!(stats.reconnects >= 2, "initial open plus one reconnect");
        assert!(stats.conserves(0));
    }

    #[test]
    fn unreachable_collector_drops_at_the_cap_exactly() {
        let mut transport = ScriptedTransport::scripted(vec![]);
        transport.refuse_reopen = true;
        let cfg = SenderConfig {
            max_attempts: 3,
            ..SenderConfig::default()
        };
        let mut s = BeaconSender::new(transport, cfg);
        for seq in 0..5 {
            assert!(s.offer(&beacon(seq), 0).unwrap());
        }
        let mut now = 0;
        for _ in 0..20_000 {
            s.pump(now);
            now += 1_000;
            if s.is_idle() {
                break;
            }
        }
        let stats = s.stats();
        assert!(s.is_idle(), "all frames must resolve");
        assert_eq!(stats.dropped_after_retries, 5);
        assert_eq!(stats.acked, 0);
        assert_eq!(stats.reconnects, 0);
        assert!(
            stats.reconnect_failures > 0,
            "every open attempt must be refused: {stats:?}"
        );
        assert!(stats.conserves(0));
    }

    #[test]
    fn maybe_delivered_frames_are_never_cap_dropped() {
        // Every write succeeds but nothing ever acks (pathological
        // blackhole): the frames were fully written, so they must stay
        // pending, not be counted dropped.
        let script = vec![Script::Vanish; 64];
        let cfg = SenderConfig {
            max_attempts: 2,
            ..SenderConfig::default()
        };
        let mut s = BeaconSender::new(ScriptedTransport::scripted(script), cfg);
        assert!(s.offer(&beacon(0), 0).unwrap());
        let mut now = 0;
        for _ in 0..40 {
            s.pump(now);
            now += 100_000;
        }
        let stats = s.stats();
        assert_eq!(stats.dropped_after_retries, 0);
        assert_eq!(s.pending(), 1, "maybe-delivered frame stays queued");
        assert!(stats.conserves(1));
        assert_eq!(s.abandon_pending(), 1);
        assert_eq!(s.stats().abandoned_unconfirmed, 1);
        assert!(s.stats().conserves(0));
    }

    #[test]
    fn registry_metrics_mirror_sender_stats() {
        let registry = Registry::new();
        let metrics = SenderMetrics::register(&registry, "qtag_sender");

        // A retrying run: two silent drops force retransmits with
        // backoff, then delivery.
        let mut s = BeaconSender::new(
            ScriptedTransport::scripted(vec![Script::Vanish, Script::Vanish]),
            SenderConfig::default(),
        );
        s.attach_metrics(Arc::clone(&metrics));
        assert!(s.offer(&beacon(0), 0).unwrap());
        run_to_idle(&mut s, 0, 10_000_000);
        let stats = s.stats();
        assert!(s.is_idle());

        // A second sender sharing the same block: a never-written
        // frame dropped at the cap, plus an abandoned pending frame.
        let mut unreachable = ScriptedTransport::scripted(vec![]);
        unreachable.refuse_reopen = true;
        let mut s2 = BeaconSender::new(
            unreachable,
            SenderConfig {
                max_attempts: 2,
                ..SenderConfig::default()
            },
        );
        s2.attach_metrics(Arc::clone(&metrics));
        assert!(s2.offer(&beacon(1), 0).unwrap());
        assert!(s2.offer(&beacon(2), 0).unwrap());
        let mut now = 0;
        while s2.pending() > 1 && now < 10_000_000 {
            s2.pump(now);
            now += 1_000;
        }
        // Stop one frame short of resolution by abandoning the rest.
        let abandoned = s2.abandon_pending();
        let stats2 = s2.stats();

        let get = |name: &str| registry.get(name).expect(name);
        assert_eq!(
            get("qtag_sender_enqueued_total"),
            stats.enqueued + stats2.enqueued
        );
        assert_eq!(get("qtag_sender_acked_total"), stats.acked + stats2.acked);
        assert_eq!(
            get("qtag_sender_retransmits_total"),
            stats.retransmits + stats2.retransmits
        );
        assert_eq!(
            get("qtag_sender_dropped_after_retries_total"),
            stats.dropped_after_retries + stats2.dropped_after_retries
        );
        assert_eq!(get("qtag_sender_abandoned_unconfirmed_total"), abandoned);
        assert_eq!(get("qtag_sender_pending"), 0);

        // Timing distributions observed real samples.
        assert_eq!(metrics.ack_latency_us.count(), stats.acked + stats2.acked);
        assert!(
            metrics.backoff_us.count() >= stats.ack_timeouts,
            "every retry scheduled a backoff"
        );
    }

    #[test]
    fn queue_bound_rejects_and_counts() {
        let cfg = SenderConfig {
            queue_capacity: 2,
            ..SenderConfig::default()
        };
        let mut transport = ScriptedTransport::scripted(vec![]);
        transport.refuse_reopen = true; // nothing drains
        let mut s = BeaconSender::new(transport, cfg);
        assert!(s.offer(&beacon(0), 0).unwrap());
        assert!(s.offer(&beacon(1), 0).unwrap());
        assert!(!s.offer(&beacon(2), 0).unwrap());
        assert_eq!(s.stats().rejected_queue_full, 1);
        assert_eq!(s.stats().enqueued, 2);
    }

    #[test]
    fn duplicate_offer_of_pending_key_is_a_noop() {
        let mut transport = ScriptedTransport::scripted(vec![]);
        transport.refuse_reopen = true;
        let mut s = BeaconSender::new(transport, SenderConfig::default());
        assert!(s.offer(&beacon(0), 0).unwrap());
        assert!(s.offer(&beacon(0), 0).unwrap());
        assert_eq!(s.stats().enqueued, 1);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_exponential() {
        let seq = |seed: u64| {
            let transport = ScriptedTransport::scripted(vec![]);
            let mut s = BeaconSender::new(
                transport,
                SenderConfig {
                    seed,
                    ..SenderConfig::default()
                },
            );
            (1..8)
                .map(|a| backoff_us(&s.cfg, &mut s.jitter, None, a))
                .collect::<Vec<_>>()
        };
        let a = seq(1);
        let b = seq(1);
        let c = seq(2);
        assert_eq!(a, b, "same seed, same jitter");
        assert_ne!(a, c, "different seed, different jitter");
        // Exponential shape up to the ceiling, jitter ≤ 25 %.
        for (i, v) in a.iter().enumerate() {
            let base = (10_000u64 << i).min(400_000);
            assert!(
                *v >= base && *v as f64 <= base as f64 * 1.25 + 1.0,
                "{v} vs {base}"
            );
        }
    }

    #[test]
    fn ack_codec_round_trips_across_chunk_splits() {
        let keys: Vec<AckKey> = (0..50)
            .map(|i| AckKey {
                impression_id: 1 << (i % 60),
                seq: i as u16,
            })
            .collect();
        let mut bytes = Vec::new();
        for k in &keys {
            encode_ack(*k, &mut bytes);
        }
        for split in [1usize, 3, 7, 10, 23] {
            let mut dec = AckDecoder::new();
            let mut out = Vec::new();
            for chunk in bytes.chunks(split) {
                dec.extend(chunk, &mut out);
            }
            assert_eq!(out, keys, "split {split}");
        }
    }
}
