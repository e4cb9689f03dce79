//! Satellite: soundness guards for the sleep-set reduction.
//!
//! 1. **Equivalence property** (proptest over seeds at two threads,
//!    the three-thread trees once): reduced and unreduced exploration
//!    must agree on the verdict — both pass, or both fail with the same
//!    failure kind (deadlock stays deadlock, race stays race). Sleep
//!    sets only drop interleavings that permute independent operations,
//!    so no failure class can become unreachable; the reduced run may
//!    visit fewer schedules, never more.
//!
//! 2. **Budget regression**: pruned (sleep-set-redundant) and aborted
//!    executions must not burn `max_schedules` budget — a tree whose
//!    completed-schedule count equals the cap still reports
//!    `complete: true` even though pruned executions also ran.

use proptest::prelude::*;
use qtag_check::{models, Builder};

/// Large enough that every model here exhausts its tree even without
/// reduction — the comparison is meaningless against a capped run.
const EXHAUSTIVE: u64 = 1_000_000;

fn reduced(seed: u64) -> Builder {
    Builder {
        seed,
        dpor: true,
        max_schedules: EXHAUSTIVE,
        ..Builder::default()
    }
}

fn unreduced(seed: u64) -> Builder {
    Builder {
        seed,
        dpor: false,
        max_schedules: EXHAUSTIVE,
        ..Builder::default()
    }
}

/// Runs the model under both modes and asserts verdict equivalence.
fn assert_equivalent<F, G>(seed: u64, make: G)
where
    G: Fn() -> F,
    F: Fn() + Send + Sync + 'static,
{
    let r = reduced(seed).try_check(make());
    let u = unreduced(seed).try_check(make());
    match (&r, &u) {
        (Ok(rr), Ok(ur)) => {
            assert!(
                rr.schedules <= ur.schedules,
                "reduction must never explore more: {} > {}",
                rr.schedules,
                ur.schedules
            );
            assert_eq!(rr.complete, ur.complete);
        }
        (Err(rf), Err(uf)) => {
            assert_eq!(
                rf.kind, uf.kind,
                "both modes must find the same failure class"
            );
        }
        (Ok(_), Err(uf)) => panic!(
            "UNSOUND: unreduced DFS found a {} the reduced exploration missed",
            uf.kind
        ),
        (Err(rf), Ok(_)) => panic!(
            "reduction invented a failure the full tree does not contain: {}",
            rf.kind
        ),
    }
}

proptest! {
    // Each case explores two full decision trees per model; keep the
    // models small and the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn passing_models_agree(seed in any::<u64>()) {
        assert_equivalent(seed, || models::mutex_counter(2, 1));
        assert_equivalent(seed, || models::independent_counters(2));
        assert_equivalent(seed, models::condvar_handoff);
    }

    #[test]
    fn failing_models_agree(seed in any::<u64>()) {
        assert_equivalent(seed, models::abba_deadlock);
        assert_equivalent(seed, || models::mini_channel_last_sender_drop(false));
        assert_equivalent(seed, || models::relaxed_counter_handoff(false));
    }
}

/// The explored tree depends only on the thread count (the seed merely
/// orders the DFS), so the three-thread trees are walked once rather
/// than once per proptest case. `independent_counters(3)` is held to
/// the same verdict by the test below, which already walks its
/// 293k-schedule unreduced tree next to the reduced one.
#[test]
fn passing_models_agree_at_three_threads() {
    assert_equivalent(0x51AD_C0DE, || models::mutex_counter(3, 1));
}

#[test]
fn reduction_prunes_independent_interleavings_at_least_5x() {
    // The headline claim on a model made of commuting operations:
    // schedule count drops by at least 5× with identical verdicts.
    let r = reduced(0x51AD_C0DE).check(models::independent_counters(3));
    let u = unreduced(0x51AD_C0DE).check(models::independent_counters(3));
    assert!(r.complete && u.complete);
    assert!(
        r.schedules * 5 <= u.schedules,
        "expected ≥5× reduction, got {} vs {}",
        r.schedules,
        u.schedules
    );
    assert!(r.pruned > 0, "the reduction must actually have pruned");
}

#[test]
fn pruned_runs_do_not_burn_schedule_budget() {
    // Establish how many completed schedules the reduced tree has,
    // then re-run with the budget set exactly there: the pruned
    // executions interleaved through the DFS must not push the run
    // over budget, so exploration still completes.
    let full = reduced(7).check(models::independent_counters(3));
    assert!(full.complete && full.pruned > 0);
    let tight = Builder {
        max_schedules: full.schedules,
        ..reduced(7)
    }
    .check(models::independent_counters(3));
    assert!(
        tight.complete,
        "{} pruned executions burned schedule budget",
        tight.pruned
    );
    assert_eq!(tight.schedules, full.schedules);
    assert_eq!(tight.pruned, full.pruned);
}
