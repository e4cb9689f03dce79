//! Timing wrappers around the two hooks whose callers live inside the
//! crates: the tag script an [`qtag_render::Engine`] drives, and the
//! journal a shard applier writes through. Both forward every call
//! unchanged; the unit tests hold them to byte-identical output.

use crate::trace::{self, Span};
use qtag_render::{ScriptCtx, TagScript};
use qtag_server::{ApplyOutcome, ShardJournal};
use qtag_wire::Beacon;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A tag script whose callbacks are recorded as `core.tag` spans, which
/// makes them children of the `render.tick` span the engine runs under.
pub struct Timed<T> {
    inner: T,
    session: u64,
}

impl<T: TagScript> Timed<T> {
    /// Wraps `inner`; `session` labels the sampled span records.
    pub fn new(inner: T, session: u64) -> Timed<T> {
        Timed { inner, session }
    }
}

impl<T: TagScript> TagScript for Timed<T> {
    fn on_attach(&mut self, ctx: &mut ScriptCtx<'_>) {
        let _g = trace::span(Span::CoreTag, self.session);
        self.inner.on_attach(ctx);
    }
    fn on_animation_frame(&mut self, ctx: &mut ScriptCtx<'_>) {
        let _g = trace::span(Span::CoreTag, self.session);
        self.inner.on_animation_frame(ctx);
    }
    fn on_timer(&mut self, ctx: &mut ScriptCtx<'_>) {
        let _g = trace::span(Span::CoreTag, self.session);
        self.inner.on_timer(ctx);
    }
    fn on_click(&mut self, ctx: &mut ScriptCtx<'_>) {
        let _g = trace::span(Span::CoreTag, self.session);
        self.inner.on_click(ctx);
    }
}

/// A journal that times `append_beacons`. Shard appliers are the
/// daemon's own threads, so the totals are atomics read after shutdown
/// instead of a thread-local tracer.
pub struct TimedJournal {
    inner: Arc<dyn ShardJournal>,
    calls: AtomicU64,
    beacons: AtomicU64,
    total_ns: AtomicU64,
}

impl TimedJournal {
    /// Wraps a backend's journal.
    pub fn new(inner: Arc<dyn ShardJournal>) -> Arc<TimedJournal> {
        Arc::new(TimedJournal {
            inner,
            calls: AtomicU64::new(0),
            beacons: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        })
    }

    /// `(append calls, beacons appended, total ns)` so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        // ordering: Relaxed — statistics, read after the appliers joined.
        (
            self.calls.load(Ordering::Relaxed),
            self.beacons.load(Ordering::Relaxed),
            self.total_ns.load(Ordering::Relaxed),
        )
    }
}

impl ShardJournal for TimedJournal {
    fn append_beacons(&self, shard: usize, batch: &[Beacon], outcomes: &[ApplyOutcome]) {
        let start = trace::now_ns();
        self.inner.append_beacons(shard, batch, outcomes);
        let dur = trace::now_ns().saturating_sub(start);
        // ordering: Relaxed — statistics only, no data published.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.beacons
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.total_ns.fetch_add(dur, Ordering::Relaxed);
    }
}
