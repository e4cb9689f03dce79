//! Synchronization facade for the durable store — a re-export of
//! [`qtag_server::sync`], so a `Collector`, its `IngestService` and its
//! `DurableBackend` always share one set of primitive types and swap to
//! the qtag-check model-checker shims together under `--cfg qtag_check`.
//! `qtag-lint` rule R4 enforces that no other file in this crate names
//! `std::sync`/`parking_lot`/`std::thread` primitives directly.

pub use qtag_server::sync::*;
