//! Synchronization facade for the durable store — a re-export of
//! [`qtag_server::sync`], so a `Collector`, its `IngestService` and its
//! `DurableBackend` always share one set of primitive types and swap to
//! the qtag-check model-checker shims together under `--cfg qtag_check`
//! — plus [`available_parallelism`], which sizes recovery's worker pool.
//! `qtag-lint` rule R4 enforces that no other file in this crate names
//! `std::sync`/`parking_lot`/`std::thread` primitives directly.

pub use qtag_server::sync::*;

/// Cores recovery may spread shards over: the platform's
/// `available_parallelism`, or 1 when it cannot say. Under
/// `--cfg qtag_check` a fixed 2, so a model's schedule count does not
/// depend on the machine that explores it.
pub fn available_parallelism() -> usize {
    if cfg!(qtag_check) {
        2
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}
