//! # qtag — transparent ad-viewability measurement
//!
//! A full-system Rust reproduction of *"Q-Tag: a transparent solution to
//! measure ads viewability rate in online advertising campaigns"*
//! (CoNEXT 2019): the Q-Tag measurement algorithm, the browser
//! compositor substrate it exploits, the programmatic-advertising
//! pipeline it deploys through, the monitoring backend it reports to, a
//! commercial-verifier baseline, a synthetic audience, and the
//! certification harness that validates it all.
//!
//! This facade crate re-exports every subsystem under one roof:
//!
//! ```
//! use qtag::core::{QTag, QTagConfig};
//! use qtag::render::{Engine, EngineConfig};
//!
//! // Q-Tag's default deployment: 25 monitoring pixels in the paper's
//! // X layout, a 20 fps visibility threshold, 10 Hz bookkeeping.
//! let cfg = QTagConfig::new(1, 1, qtag::geometry::Rect::new(0.0, 0.0, 300.0, 250.0));
//! assert_eq!(cfg.pixel_count, 25);
//! let _tag = QTag::new(cfg);
//! let _bench = EngineConfig::default_desktop();
//! ```
//!
//! See the repository `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the binaries regenerating every table and
//! figure of the paper.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// Geometric primitives (rects, regions, viewport algebra).
pub mod geometry {
    pub use qtag_geometry::*;
}

/// Page/frame/window model with Same-Origin Policy enforcement.
pub mod dom {
    pub use qtag_dom::*;
}

/// The deterministic browser compositor simulator.
pub mod render {
    pub use qtag_render::*;
}

/// The Q-Tag algorithm: layouts, fps threshold, viewability machine.
pub mod core {
    pub use qtag_core::*;
}

/// Beacon wire protocol (binary + JSON codecs, framing).
pub mod wire {
    pub use qtag_wire::*;
}

/// The monitoring backend (transport, ingestion, reports).
pub mod server {
    pub use qtag_server::*;
}

/// The beacon-collector daemon (epoll reactor workers, Linux only).
pub mod collectd {
    pub use qtag_collectd::*;
}

/// Durable impression storage (per-shard WAL, snapshots, rollups).
pub mod store {
    pub use qtag_store::*;
}

/// Programmatic advertising substrate (auctions, DSP, markup, blockers).
pub mod adtech {
    pub use qtag_adtech::*;
}

/// The commercial-verifier baseline.
pub mod verifier {
    pub use qtag_verifier::*;
}

/// The synthetic audience (population, pages, behaviour, sessions).
pub mod user {
    pub use qtag_user::*;
}

/// The ABC/JICWEBS certification harness and §4.3 lab tests.
pub mod certify {
    pub use qtag_certify::*;
}
