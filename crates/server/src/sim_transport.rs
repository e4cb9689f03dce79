//! A simulated collector behind a faulty network, speaking the
//! acked-binary contract of [`qtag_wire::sender`] in virtual time.
//! Deterministic per seed, so the retry ablation and the property tests
//! assert conservation exactly.

use crate::fault::{Fate, FaultDice, FaultPlan, FaultStatsSnapshot};
use crate::store::ImpressionStore;
use crate::sync::atomic::Ordering;
use crate::sync::Arc;
use qtag_wire::framing::FrameEvent;
use qtag_wire::sender::{AckKey, Transport, TransportError};
use qtag_wire::FrameDecoder;

/// The fault profile of a [`SimCollectorTransport`], without stalls.
pub type SimFaults = FaultPlan;

/// A [`Transport`] that *is* the collector: frames that survive the
/// fault plan land directly in the wrapped [`ImpressionStore`].
pub struct SimCollectorTransport<'a> {
    store: &'a mut ImpressionStore,
    dice: FaultDice,
    pending_acks: Vec<AckKey>,
    open: bool,
}

impl<'a> SimCollectorTransport<'a> {
    /// Wraps `store` behind a network rolling `faults` from `seed`.
    ///
    /// # Panics
    /// Panics on a plan with stalls: virtual time only moves when the
    /// sender pumps, so there is no clock to hold a frame against.
    pub fn new(store: &'a mut ImpressionStore, faults: SimFaults, seed: u64) -> Self {
        assert!(
            faults.stall_rate == 0.0,
            "SimCollectorTransport cannot carry stalls"
        );
        SimCollectorTransport {
            store,
            dice: FaultDice::new(faults, seed, Arc::default()),
            pending_acks: Vec::new(),
            open: false,
        }
    }

    /// What the simulated network did so far.
    pub fn stats(&self) -> FaultStatsSnapshot {
        self.dice.stats().snapshot()
    }

    /// Drops the acks buffered on the connection, which just died.
    fn kill_acks(&mut self) {
        let died = self.pending_acks.len() as u64;
        let stats = self.dice.stats();
        // ordering: monotone stat, read by the owner after the run.
        stats.acks_reset.fetch_add(died, Ordering::Relaxed);
        self.pending_acks.clear();
    }
}

impl Transport for SimCollectorTransport<'_> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if !self.open {
            return Err(TransportError::Closed);
        }
        match self.dice.fate() {
            Fate::Reset => {
                // Connection dies mid-write: the frame is provably not
                // applied, and the acks buffered on it are gone.
                self.open = false;
                self.kill_acks();
                return Err(TransportError::Closed);
            }
            // Written whole, then silently gone, or counted corrupt by
            // the collector: the maybe-delivered case, with no ack.
            Fate::Lost | Fate::Corrupt => return Ok(()),
            // Applied (the store deduplicates), acked unless ack loss
            // eats the ack.
            Fate::Deliver | Fate::Stall => {}
        }
        let mut dec = FrameDecoder::new();
        dec.extend(frame);
        for ev in dec.finish() {
            if let FrameEvent::Beacon(b) = ev {
                self.store.apply(&b);
                if !self.dice.ack_lost() {
                    self.pending_acks.push(AckKey::from(&b));
                }
            }
        }
        Ok(())
    }

    fn poll_acks(&mut self, out: &mut Vec<AckKey>) -> Result<(), TransportError> {
        if !self.open {
            return Err(TransportError::Closed);
        }
        out.append(&mut self.pending_acks);
        Ok(())
    }

    fn reopen(&mut self) -> Result<(), TransportError> {
        self.open = true;
        self.kill_acks();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ServedImpression;
    use proptest::prelude::*;
    use qtag_wire::framing::encode_frames;
    use qtag_wire::sender::{BeaconSender, SenderConfig};
    use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

    fn beacon(id: u64, seq: u16) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event: EventKind::Heartbeat,
            timestamp_us: u64::from(seq) * 1_000,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 700,
            exposure_ms: 400,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    fn served(id: u64) -> ServedImpression {
        ServedImpression {
            impression_id: id,
            campaign_id: 1,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            ad_format: AdFormat::Display,
        }
    }

    /// Drives a sender over the sim transport to idle in virtual time.
    fn deliver(
        store: &mut ImpressionStore,
        n: u16,
        faults: SimFaults,
        seed: u64,
    ) -> (u64, u64, FaultStatsSnapshot) {
        let transport = SimCollectorTransport::new(store, faults, seed);
        let mut sender = BeaconSender::new(transport, SenderConfig::default());
        let mut now = 0u64;
        for seq in 0..n {
            sender.offer(&beacon(1, seq), now).unwrap();
        }
        let deadline = 600_000_000u64; // 10 simulated minutes
        while !sender.is_idle() && now < deadline {
            sender.pump(now);
            now += 5_000;
        }
        let stats = sender.stats();
        assert!(stats.conserves(sender.pending()), "{stats:?}");
        let sim = sender.into_transport().stats();
        (stats.acked, stats.dropped_after_retries, sim)
    }

    #[test]
    fn clean_network_delivers_everything_once() {
        let mut store = ImpressionStore::new();
        store.record_served(served(1));
        let (acked, dropped, sim) = deliver(&mut store, 40, SimFaults::NONE, 3);
        assert_eq!(acked, 40);
        assert_eq!(dropped, 0);
        // A healthy network injects nothing at all.
        assert_eq!(sim.lost, 0);
        assert_eq!(sim.corrupted, 0);
        assert_eq!(sim.acks_lost, 0);
        assert_eq!(sim.acks_reset, 0);
        assert_eq!(sim.resets, 0);
        assert_eq!(store.unique_beacons(), 40);
        assert_eq!(store.total_duplicates(), 0);
    }

    #[test]
    fn heavy_faults_still_conserve_exactly() {
        let mut store = ImpressionStore::new();
        store.record_served(served(1));
        let faults = SimFaults {
            reset_rate: 0.10,
            loss_rate: 0.30,
            corrupt_rate: 0.05,
            ack_loss_rate: 0.30,
            ..SimFaults::NONE
        };
        let (acked, dropped, sim) = deliver(&mut store, 60, faults, 99);
        // Everything resolved: acked beacons are exactly the store's
        // unique set; dropped frames are provably absent.
        assert_eq!(acked + dropped, 60);
        assert_eq!(store.unique_beacons(), acked);
        // The profile is hot enough that faults of some class fired.
        let injected = sim.resets + sim.lost + sim.corrupted + sim.acks_lost + sim.acks_reset;
        assert!(injected > 0, "no faults at this seed: {sim:?}");
        assert!(
            store.total_duplicates() > 0,
            "30 % ack loss must force at least one duplicate delivery"
        );
    }

    #[test]
    fn fault_stream_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut store = ImpressionStore::new();
            store.record_served(served(1));
            let out = deliver(&mut store, 50, SimFaults::symmetric(0.2, 0.01), seed);
            (out, store.unique_beacons(), store.total_duplicates())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seed, different fault path");
    }

    /// Rates that often sit on the edges: off (no draw) or certain.
    fn rate() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0]
    }

    proptest! {
        /// Frames written straight into the transport, reopening after
        /// each failed write: every frame meets exactly one fate, the
        /// store holds exactly the delivered beacons, and each of their
        /// acks is polled, lost, or dies with a reset connection.
        #[test]
        fn every_frame_meets_exactly_one_fate(
            reset in rate(),
            loss in rate(),
            corrupt in rate(),
            ack_loss in rate(),
            seed in any::<u64>(),
            n in 0u16..200,
            poll_every in 1u16..16,
        ) {
            let plan = SimFaults {
                reset_rate: reset,
                loss_rate: loss,
                corrupt_rate: corrupt,
                ack_loss_rate: ack_loss,
                ..SimFaults::NONE
            };
            let mut store = ImpressionStore::new();
            store.record_served(served(1));
            let mut sim = SimCollectorTransport::new(&mut store, plan, seed);
            sim.reopen().unwrap();
            let (mut failed, mut acks) = (0, Vec::new());
            for seq in 0..n {
                if sim.send_frame(&encode_frames(&[beacon(1, seq)]).unwrap()).is_err() {
                    failed += 1;
                    sim.reopen().unwrap();
                }
                if seq % poll_every == 0 {
                    sim.poll_acks(&mut acks).unwrap();
                }
            }
            sim.poll_acks(&mut acks).unwrap();
            let s = sim.stats();
            prop_assert_eq!(s.delivered + s.resets + s.lost + s.corrupted, u64::from(n));
            prop_assert_eq!(s.resets, failed);
            prop_assert_eq!(store.unique_beacons(), s.delivered);
            prop_assert_eq!(acks.len() as u64 + s.acks_lost + s.acks_reset, s.delivered);
        }
    }

    #[test]
    #[should_panic(expected = "SimCollectorTransport cannot carry stalls")]
    fn the_simulated_collector_refuses_stalls() {
        let mut store = ImpressionStore::new();
        let stalls = SimFaults {
            stall_rate: 0.1,
            stall: std::time::Duration::from_millis(80),
            ..SimFaults::NONE
        };
        SimCollectorTransport::new(&mut store, stalls, 0);
    }
}
