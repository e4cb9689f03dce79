//! # qtag-wire
//!
//! The wire protocol between a deployed measurement tag and the DSP's
//! monitoring infrastructure, plus the shared *reporting vocabulary*
//! (ad formats, browsers, operating systems, site types) every layer of
//! the pipeline speaks.
//!
//! The paper's Q-Tag "sends the collected information to a server for its
//! subsequent analysis" (§3). This crate defines that contract precisely:
//!
//! * [`Beacon`] — one tracking event (tag loaded, measurable, in-view,
//!   out-of-view, heartbeat) with the impression/campaign identifiers and
//!   the measured quantities;
//! * a **compact binary codec** ([`binary`]) with magic, version and a
//!   CRC-16 integrity check — what a bandwidth-conscious tag would emit;
//! * the pipeline's checksums ([`crc`]): that CRC-16, and the CRC-32
//!   framing `qtag-store`'s write-ahead log and snapshots;
//! * a **JSON codec** ([`json`]) for the interoperability path (many ad
//!   tags report JSON over HTTP) and for human inspection;
//! * **length-prefixed framing** with a streaming, resynchronising
//!   decoder ([`framing`]) in the style of the Tokio framing chapter: feed
//!   arbitrary byte chunks, get whole beacons out, survive truncation and
//!   corruption;
//! * a **reliable delivery layer** ([`sender`]): a per-frame ack
//!   protocol and [`BeaconSender`], a bounded retry queue with
//!   per-send timeouts and seeded exponential backoff that turns the
//!   fire-and-forget beacon path into at-least-once delivery (the
//!   server's `(impression, seq)` dedup makes it exactly-once in every
//!   aggregate).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod beacon;
pub mod binary;
pub mod crc;
pub mod error;
pub mod framing;
pub mod json;
pub mod sender;
pub mod types;

pub use beacon::{Beacon, EventKind};
pub use error::WireError;
pub use framing::FrameDecoder;
pub use sender::{
    AckKey, BeaconSender, SenderConfig, SenderMetrics, SenderStats, TcpTransport, Transport,
};
pub use types::{AdFormat, BrowserKind, OsKind, SiteType};
