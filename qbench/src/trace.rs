//! Spans recorded from outside the program under test.
//!
//! Every span is opened and closed in `qbench`'s own code, around a call
//! into a crate's public function. A thread keeps per-name aggregates
//! (count, total, self = total − time covered by child spans) and a
//! 1-in-1024 sample of full span records. Tracing is off unless a run
//! asks for it: an untraced run pays one relaxed atomic load per span
//! site and reads no clock.

use serde::Serialize;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One in this many closed spans is kept as a full record.
pub const SAMPLE_EVERY: u64 = 1024;

macro_rules! spans {
    ($($variant:ident => $name:literal,)*) => {
        /// Every span site in the benchmark; the name is `layer.operation`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span { $($variant,)* }

        impl Span {
            /// All spans, in declaration order.
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            /// `layer.operation`.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }
        }
    };
}

spans! {
    Timed => "qbench.timed_section",
    AdtechAuction => "adtech.auction",
    UserSample => "user.sample",
    UserSession => "user.session",
    DomPageBuild => "dom.page_build",
    DomScroll => "dom.scroll",
    RenderBuild => "render.build",
    RenderTick => "render.tick",
    RenderDrain => "render.drain_outbox",
    CoreTagBuild => "core.tag_build",
    CoreTag => "core.tag",
    WireEncode => "wire.encode",
    WireDecode => "wire.decode",
    WireSenderOffer => "wire.sender_offer",
    WireSenderPump => "wire.sender_pump",
    CollectdSocketWrite => "collectd.socket_write",
    CollectdShutdown => "collectd.shutdown",
    ServerInlet => "server.inlet",
    ServerApply => "server.apply",
    ServerReport => "server.report",
    StoreWalAppend => "store.wal_append",
    StoreFlush => "store.flush",
    StoreCompact => "store.compact",
    StoreRecover => "store.recover",
    StoreRollupRead => "store.rollup_read",
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the part child spans covered, ns.
    pub self_ns: u64,
}

/// One sampled span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Record {
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, ns since the process-wide trace epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Name of the span that was open when this one started.
    pub parent: Option<&'static str>,
    /// Impression or session id the span worked for (0 when none).
    pub id: u64,
}

struct Open {
    span: Span,
    start_ns: u64,
    child_ns: u64,
    id: u64,
}

/// One thread's span state.
pub struct Tracer {
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    closed: u64,
    samples: Vec<Record>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            stack: Vec::new(),
            aggs: vec![Agg::default(); Span::ALL.len()],
            closed: 0,
            samples: Vec::new(),
        }
    }
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Opens a span at `now_ns`.
    pub fn enter_at(&mut self, span: Span, id: u64, now_ns: u64) {
        self.stack.push(Open {
            span,
            start_ns: now_ns,
            child_ns: 0,
            id,
        });
    }

    /// Closes the innermost open span at `now_ns`.
    pub fn exit_at(&mut self, now_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = now_ns.saturating_sub(open.start_ns);
        self.add(open.span, 1, dur, dur.saturating_sub(open.child_ns));
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.span.name()
        });
        if self.closed.is_multiple_of(SAMPLE_EVERY) {
            self.samples.push(Record {
                name: open.span.name(),
                start_ns: open.start_ns,
                end_ns: now_ns,
                parent,
                id: open.id,
            });
        }
        self.closed += 1;
    }

    /// Adds time measured elsewhere (a wrapper's own atomics) as if it
    /// were `count` closed spans with no children.
    pub fn add(&mut self, span: Span, count: u64, total_ns: u64, self_ns: u64) {
        let a = &mut self.aggs[span as usize];
        a.count += count;
        a.total_ns += total_ns;
        a.self_ns += self_ns;
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (span, agg) in Span::ALL.iter().zip(&other.aggs) {
            self.add(*span, agg.count, agg.total_ns, agg.self_ns);
        }
        self.samples.extend(other.samples);
    }

    /// Totals of one span name.
    pub fn agg(&self, span: Span) -> Agg {
        self.aggs[span as usize]
    }

    /// Sampled records.
    pub fn samples(&self) -> &[Record] {
        &self.samples
    }

    /// Sum of self times over every span, ns. With one root span around
    /// the timed section this equals the root's total.
    pub fn self_sum_ns(&self) -> u64 {
        self.aggs.iter().map(|a| a.self_ns).sum()
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Nanoseconds since the first clock read of the process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    // ordering: Relaxed — the flag publishes no data; a span site that
    // reads a stale value records or skips one span.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    // ordering: Relaxed — see `set_enabled`.
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct SpanGuard {
    active: bool,
}

/// Opens `span` on the calling thread; it closes when the guard drops.
/// `id` is the impression or session the work is for.
#[inline]
pub fn span(span: Span, id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: false };
    }
    let now = now_ns();
    TRACER.with(|t| t.borrow_mut().enter_at(span, id, now));
    SpanGuard { active: true }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            let now = now_ns();
            TRACER.with(|t| t.borrow_mut().exit_at(now));
        }
    }
}

/// Takes the calling thread's tracer, leaving an empty one.
pub fn take() -> Tracer {
    TRACER.with(|t| std::mem::replace(&mut *t.borrow_mut(), Tracer::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::new();
        // tick [0, 100] holds two sibling tag spans [10, 30] and
        // [40, 45]; the first tag span holds an encode span [12, 20].
        t.enter_at(Span::RenderTick, 1, 0);
        t.enter_at(Span::CoreTag, 1, 10);
        t.enter_at(Span::WireEncode, 1, 12);
        t.exit_at(20);
        t.exit_at(30);
        t.enter_at(Span::CoreTag, 1, 40);
        t.exit_at(45);
        t.exit_at(100);

        let tick = t.agg(Span::RenderTick);
        assert_eq!((tick.count, tick.total_ns, tick.self_ns), (1, 100, 75));
        let tag = t.agg(Span::CoreTag);
        // 20 + 5 in total; the grandchild only reduces the first tag
        // span's self time, never the tick's a second time.
        assert_eq!((tag.count, tag.total_ns, tag.self_ns), (2, 25, 17));
        let enc = t.agg(Span::WireEncode);
        assert_eq!((enc.count, enc.total_ns, enc.self_ns), (1, 8, 8));
        // Self times partition the root's interval.
        assert_eq!(t.self_sum_ns(), 100);
    }

    #[test]
    fn first_closed_span_is_sampled_with_its_parent() {
        let mut t = Tracer::new();
        t.enter_at(Span::RenderTick, 7, 0);
        t.enter_at(Span::CoreTag, 7, 1);
        t.exit_at(2);
        t.exit_at(3);
        assert_eq!(
            t.samples(),
            &[Record {
                name: "core.tag",
                start_ns: 1,
                end_ns: 2,
                parent: Some("render.tick"),
                id: 7,
            }]
        );
        for i in 0..SAMPLE_EVERY {
            t.enter_at(Span::CoreTag, i, 10);
            t.exit_at(11);
        }
        assert_eq!(t.samples().len(), 2, "one more record after 1024 spans");
    }

    #[test]
    fn merge_adds_aggregates() {
        let mut a = Tracer::new();
        a.enter_at(Span::ServerInlet, 0, 0);
        a.exit_at(10);
        let mut b = Tracer::new();
        b.enter_at(Span::ServerInlet, 0, 5);
        b.exit_at(25);
        b.add(Span::StoreWalAppend, 3, 30, 30);
        a.merge(b);
        assert_eq!(a.agg(Span::ServerInlet).total_ns, 30);
        assert_eq!(a.agg(Span::ServerInlet).count, 2);
        assert_eq!(a.agg(Span::StoreWalAppend).count, 3);
    }

    #[test]
    fn span_names_are_unique_and_name_their_layer() {
        assert!(Span::ALL.iter().all(|s| s.name().contains('.')));
        let mut names: Vec<_> = Span::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Span::ALL.len(), "span names are unique");
    }
}
