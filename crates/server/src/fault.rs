//! One seeded fault plan for every faulty network in the repository.
//!
//! A [`FaultDice`] rolls each unit's [`Fate`] from a [`FaultPlan`] in a
//! fixed order (reset → loss → corrupt → stall, first hit wins), rolls
//! ack loss once per ack, and counts every outcome in [`FaultStats`]. A
//! fault with probability 0 takes no draw. The carriers (`LossyLink`,
//! `SimCollectorTransport`, `qtag-bench`'s `FaultProxy`) only carry the
//! fates out, and refuse a fault they cannot express.

use crate::sync::atomic::Ordering;
use crate::sync::Arc;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Probability of every fault, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// A unit's connection is reset before the unit is through.
    pub reset_rate: f64,
    /// A unit silently vanishes.
    pub loss_rate: f64,
    /// A unit arrives damaged.
    pub corrupt_rate: f64,
    /// A unit is held back for `stall` before it moves on.
    pub stall_rate: f64,
    /// Length of one stall.
    pub stall: Duration,
    /// The ack of a delivered unit is lost on the way back.
    pub ack_loss_rate: f64,
}

impl FaultPlan {
    /// A perfect network: injects nothing and draws nothing.
    pub const NONE: FaultPlan = FaultPlan {
        reset_rate: 0.0,
        loss_rate: 0.0,
        corrupt_rate: 0.0,
        stall_rate: 0.0,
        stall: Duration::ZERO,
        ack_loss_rate: 0.0,
    };

    /// Beacons and acks cross the same lossy network: `loss` on both
    /// paths, a reset for every four losses, and `corrupt_rate` damage.
    pub fn symmetric(loss: f64, corrupt_rate: f64) -> Self {
        FaultPlan {
            reset_rate: loss * 0.25,
            loss_rate: loss,
            corrupt_rate,
            ack_loss_rate: loss,
            ..FaultPlan::NONE
        }
    }
}

/// What the network does with one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The unit goes through untouched.
    Deliver,
    /// The connection dies; the unit is at most partly through.
    Reset,
    /// The unit is accepted and silently never arrives.
    Lost,
    /// The unit arrives damaged.
    Corrupt,
    /// The unit goes through after [`FaultPlan::stall`].
    Stall,
}

qtag_obs::counters! {
    /// What a faulty network did: each unit rolled by [`FaultDice::fate`]
    /// is counted in exactly one of the first five fields.
    pub struct FaultStats / FaultStatsSnapshot {
        delivered: counter("Units that went through untouched"),
        resets: counter("Units whose connection was reset"),
        lost: counter("Units that silently vanished"),
        corrupted: counter("Units that arrived damaged"),
        stalled: counter("Units that went through after a stall"),
        acks_lost: counter("Acks lost on the way back"),
        acks_reset: counter("Acks that died buffered on a reset connection"),
    }
}

/// A [`FaultPlan`] with its seeded random stream: the one place a
/// unit's fate is drawn.
#[derive(Debug)]
pub struct FaultDice {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    stats: Arc<FaultStats>,
}

impl FaultDice {
    /// Rolls `plan` from `seed`, counting into `stats`.
    ///
    /// # Panics
    /// Panics if a rate is not a probability.
    pub fn new(plan: FaultPlan, seed: u64, stats: Arc<FaultStats>) -> Self {
        let check = |name: &str, p: f64| assert!((0.0..=1.0).contains(&p), "{name} out of range");
        check("reset_rate", plan.reset_rate);
        check("loss_rate", plan.loss_rate);
        check("corrupt_rate", plan.corrupt_rate);
        check("stall_rate", plan.stall_rate);
        check("ack_loss_rate", plan.ack_loss_rate);
        FaultDice {
            plan,
            rng: ChaCha8Rng::seed_from_u64(seed),
            stats,
        }
    }

    /// The counters this dice adds to.
    pub fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// Draws the fate of one unit and counts it.
    pub fn fate(&mut self) -> Fate {
        let (fate, counter) = if self.hit(self.plan.reset_rate) {
            (Fate::Reset, &self.stats.resets)
        } else if self.hit(self.plan.loss_rate) {
            (Fate::Lost, &self.stats.lost)
        } else if self.hit(self.plan.corrupt_rate) {
            (Fate::Corrupt, &self.stats.corrupted)
        } else if self.hit(self.plan.stall_rate) {
            (Fate::Stall, &self.stats.stalled)
        } else {
            (Fate::Deliver, &self.stats.delivered)
        };
        // ordering: monotone stat, read after the carrier is done.
        counter.fetch_add(1, Ordering::Relaxed);
        fate
    }

    /// Draws (and counts) whether the ack of one delivered unit is lost.
    pub fn ack_lost(&mut self) -> bool {
        let lost = self.hit(self.plan.ack_loss_rate);
        if lost {
            // ordering: monotone stat, read after the carrier is done.
            self.stats.acks_lost.fetch_add(1, Ordering::Relaxed);
        }
        lost
    }

    /// The stream a carrier draws a fate's details from (which bit to
    /// flip, where to cut), so a seed reproduces the whole run.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    fn hit(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dice(plan: FaultPlan, seed: u64) -> FaultDice {
        FaultDice::new(plan, seed, Arc::default())
    }

    #[test]
    fn an_empty_plan_draws_nothing_and_delivers_everything() {
        let mut d = dice(FaultPlan::NONE, 5);
        for _ in 0..100 {
            assert_eq!((d.fate(), d.ack_lost()), (Fate::Deliver, false));
        }
        // The stream is untouched: its next value is the seed's first.
        assert_eq!(
            d.rng().gen::<u64>(),
            ChaCha8Rng::seed_from_u64(5).gen::<u64>()
        );
        let s = d.stats().snapshot();
        assert_eq!((s.delivered, s.acks_lost), (100, 0));
    }

    #[test]
    fn fates_are_rolled_in_order_and_the_first_hit_wins() {
        let mut p = FaultPlan {
            reset_rate: 1.0,
            loss_rate: 1.0,
            corrupt_rate: 1.0,
            stall_rate: 1.0,
            ack_loss_rate: 1.0,
            ..FaultPlan::NONE
        };
        assert_eq!(dice(p, 1).fate(), Fate::Reset);
        p.reset_rate = 0.0;
        assert_eq!(dice(p, 1).fate(), Fate::Lost);
        p.loss_rate = 0.0;
        assert_eq!(dice(p, 1).fate(), Fate::Corrupt);
        p.corrupt_rate = 0.0;
        let mut d = dice(p, 1);
        assert_eq!((d.fate(), d.ack_lost()), (Fate::Stall, true));
        let s = d.stats().snapshot();
        assert_eq!((s.stalled, s.acks_lost), (1, 1));
    }
}
