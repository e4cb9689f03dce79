//! `qtag-collectd`: the beacon-collector daemon.
//!
//! The paper's measurement pipeline ends at a collector that tags POST
//! their beacons to (§4). This crate is that collector as a real
//! network daemon: a TCP listener accepting the `qtag-wire`
//! length-prefixed binary protocol and the newline-delimited JSON
//! protocol on the same port, feeding decoded beacons into
//! [`qtag_server::IngestService`] through its bounded inlet.
//!
//! One per-connection state machine (`connection.rs`: protocol
//! engine, read loop, idle clock, ack flush) behind one acceptor, with
//! two drivers that differ only in who calls it:
//!
//! - **Threaded** (default): the acceptor supervises one OS thread per
//!   connection, blocked in reads-with-timeout — the simplest correct
//!   shape while connection counts are modest (no async runtime in
//!   the dependency tree), and the only one without epoll.
//! - **Reactor** ([`CollectorConfig::reactor`]): a few epoll worker
//!   loops call the same machine on readiness events (`reactor.rs`),
//!   which is what lets one daemon hold tens of thousands of
//!   mostly-idle sockets without ten thousand stacks.
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

mod collector;
mod config;
mod connection;
#[cfg(target_os = "linux")]
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
#[cfg(target_os = "linux")]
pub use reactor::reactor_chunks;
