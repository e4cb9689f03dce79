//! Globally-unique mutation epochs.
//!
//! The render layer caches scene-derived state (probe projections,
//! composite states, visible sets) and needs a cheap, *sound* way to
//! notice that a [`crate::Page`] or [`crate::Screen`] it looked at
//! last frame has changed since. Per-object counters are not
//! enough: a cached `(window, tab)` slot can have its whole `Page`
//! swapped for a different one whose private counter happens to hold
//! the same value, silently validating a stale cache.
//!
//! So every epoch value is drawn from one process-wide monotone
//! counter: two *different* mutation events — on any page or screen,
//! ever — can never carry the same stamp. Equal stamps therefore prove
//! "nothing observable changed": either it is literally the same
//! object state, or an unmutated clone of it (clones copy stamps, and
//! an unmutated clone is content-identical by construction).
//!
//! Stamps are identity tokens, not a schedule: run-to-run absolute
//! values may differ (construction order across threads is not pinned),
//! but simulation output never depends on them — they only gate *when*
//! a cache recomputes, and recomputation is pure.

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh, process-unique epoch stamp (monotone, never zero —
/// zero is reserved as the "never validated" sentinel in caches).
pub(crate) fn next_epoch() -> u64 {
    // ordering: monotone uniqueness counter; only distinctness matters,
    // no other memory is published with the stamp.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_are_unique_and_nonzero() {
        let a = next_epoch();
        let b = next_epoch();
        let c = next_epoch();
        assert!(a != b && b != c && a != c);
        assert!(a > 0 && b > 0 && c > 0);
    }
}
