//! `qtag-collectd`: the beacon-collector daemon.
//!
//! The paper's measurement pipeline ends at a collector that tags POST
//! their beacons to (§4). This crate is that collector as a real
//! network daemon: a TCP listener accepting the `qtag-wire`
//! length-prefixed binary protocol and the newline-delimited JSON
//! protocol on the same port, feeding decoded beacons into
//! [`qtag_server::IngestService`] through its bounded inlet.
//!
//! One acceptor thread hands each connection, round-robin, to a few
//! epoll worker loops (`reactor.rs`); each worker owns a slab of
//! per-connection state machines (`connection.rs`: protocol engine,
//! read loop, idle clock, ack flush, shutdown drain) over non-blocking
//! sockets. That is what lets one daemon hold tens of thousands of
//! mostly-idle sockets without ten thousand stacks, and it is the only
//! serving mode. The daemon is Linux-only: the vendored `mio` poller
//! is a thin shim over epoll.
//!
//! Every hand-off is a crossbeam channel; overload is shed at the
//! bounded inlet and *counted*, never silently dropped, so the
//! end-to-end conservation identity
//!
//! ```text
//! beacons sent == beacons applied + corrupt frames + shed beacons
//! ```
//!
//! is exact, and asserted over real sockets by `tests/collectd_e2e.rs`
//! and `tests/obs_conservation.rs`.
//!
//! Protocol sniffing: the first byte of a connection decides its
//! protocol for the whole connection — `{` means JSON lines, anything
//! else is treated as binary framing (a well-formed binary frame always
//! starts with `0x00`, the high byte of a length that fits in
//! [`qtag_wire::framing::MAX_FRAME_LEN`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("qtag-collectd serves connections on epoll, so it builds only for Linux");

mod collector;
mod config;
mod connection;
mod reactor;
mod stats;
pub mod sync;

pub use collector::Collector;
pub use config::CollectorConfig;
pub use stats::{CollectorStats, CollectorStatsSnapshot, IngestMetrics, IngestStats, OpsSnapshot};

// Socket-free driver of the connection state machine for the
// qtag_check schedule-exploration models (`tests/check_models.rs`) and
// the chunking-invariance property suite; not part of the supported
// API.
#[doc(hidden)]
pub use reactor::reactor_chunks;
