//! Daemon tunables.

use std::time::Duration;

/// Configuration for [`crate::Collector`].
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Listen address, e.g. `127.0.0.1:4050`. Use port `0` to let the
    /// OS pick (tests do; read it back via
    /// [`crate::Collector::local_addr`]).
    pub bind: String,
    /// Hard cap on concurrently served connections; connections beyond
    /// it are accepted, counted as rejected, and immediately closed.
    pub max_connections: usize,
    /// How long a connection may stay silent before the daemon drops
    /// it, enforced by the reactor's periodic idle sweep.
    pub read_timeout: Duration,
    /// Granularity of the daemon's waits (the acceptor's idle sleep and
    /// the reactor workers' epoll timeout). Bounds shutdown latency per
    /// thread.
    pub poll_interval: Duration,
    /// Longest accepted JSON line (bytes, newline excluded). Overlong
    /// lines are discarded and counted as one corrupt frame each; the
    /// binary path is already bounded by the wire format's
    /// [`qtag_wire::framing::MAX_FRAME_LEN`].
    pub max_line_len: usize,
    /// Capacity of each store shard's bounded batch channel between
    /// the reactor workers and that shard's applier, counted in
    /// *batches*. When full, beacons are shed and counted rather than
    /// stalling connection reads.
    pub inlet_capacity: usize,
    /// Has no effect: connections batch naturally, one hand-off per
    /// socket read. Kept only while the benchmark package still sets
    /// it; leave it at its default.
    pub batch: usize,
    /// Has no effect: the epoll reactor is the daemon's only serving
    /// mode. Kept only while the benchmark package still sets it;
    /// leave it at its default.
    pub reactor: bool,
    /// Reactor event-loop threads. Connections are spread
    /// round-robin at accept time; each worker owns its connections
    /// for life (no migration, no cross-worker locking).
    pub reactor_workers: usize,
    /// Per-connection cap, in bytes, on acks buffered towards a slow
    /// acked client. Above the cap the connection's *reads* are paused
    /// until the client drains its ack backlog — backpressure flows to
    /// the sender instead of into daemon memory.
    pub ack_buffer_cap: usize,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            bind: "127.0.0.1:0".to_string(),
            max_connections: 256,
            read_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(10),
            max_line_len: 1024,
            inlet_capacity: qtag_server::DEFAULT_INLET_CAPACITY,
            batch: 64,
            reactor: false,
            reactor_workers: 2,
            ack_buffer_cap: 64 * 1024,
        }
    }
}
