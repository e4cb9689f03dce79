//! The network between tag and collection endpoint.

use crate::fault::{Fate, FaultDice, FaultPlan, FaultStatsSnapshot};
use crate::sync::Arc;
use qtag_wire::{framing, Beacon, WireError};
use rand::Rng;

/// How a corrupted frame is damaged in transit. Each kind exercises a
/// different decoder recovery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// One payload bit flipped: the CRC reports one corrupt frame.
    PayloadFlip,
    /// One length-prefix bit flipped: noise the decoder resyncs past.
    PrefixFlip,
    /// Cut after a random prefix: the stream goes on (or ends) mid-frame.
    Truncate,
}

impl CorruptionKind {
    /// Every kind, the mix a corrupt beacon's damage is drawn from.
    pub const ALL: [CorruptionKind; 3] = [
        CorruptionKind::PayloadFlip,
        CorruptionKind::PrefixFlip,
        CorruptionKind::Truncate,
    ];

    /// Damages one encoded frame (2-byte length prefix, then payload)
    /// in place, drawing the bit or the cut from `rng`.
    pub fn damage(self, frame: &mut Vec<u8>, rng: &mut impl Rng) {
        match self {
            CorruptionKind::PayloadFlip => {
                let idx = rng.gen_range(2..frame.len());
                frame[idx] ^= 1u8 << rng.gen_range(0..8u32);
            }
            CorruptionKind::PrefixFlip => {
                let idx = rng.gen_range(0..2usize);
                frame[idx] ^= 1u8 << rng.gen_range(0..8u32);
            }
            CorruptionKind::Truncate => {
                let keep = rng.gen_range(1..frame.len());
                frame.truncate(keep);
            }
        }
    }
}

/// A lossy, corrupting link carrying fire-and-forget beacons: sent from
/// a page being torn down or over a congested radio, some vanish or
/// arrive damaged (one [`CorruptionKind`] drawn uniformly). Each
/// beacon's fate comes from a [`FaultDice`]; deterministic per seed.
#[derive(Debug)]
pub struct LossyLink {
    dice: FaultDice,
}

impl LossyLink {
    /// Creates a link with the given beacon loss and corruption
    /// probabilities (each in `[0, 1]`).
    pub fn new(loss_rate: f64, corruption_rate: f64, seed: u64) -> Self {
        LossyLink::with_plan(
            FaultPlan {
                loss_rate,
                corrupt_rate: corruption_rate,
                ..FaultPlan::NONE
            },
            seed,
        )
    }

    /// Creates a link rolling `plan` from `seed`.
    ///
    /// # Panics
    /// Panics on resets, stalls or ack loss: a fire-and-forget beacon
    /// has no connection, no clock and no ack.
    pub fn with_plan(plan: FaultPlan, seed: u64) -> Self {
        assert!(
            plan.reset_rate == 0.0 && plan.stall_rate == 0.0 && plan.ack_loss_rate == 0.0,
            "LossyLink cannot carry resets, stalls or ack loss"
        );
        LossyLink {
            dice: FaultDice::new(plan, seed, Arc::default()),
        }
    }

    /// A perfect link.
    pub fn lossless() -> Self {
        LossyLink::with_plan(FaultPlan::NONE, 0)
    }

    /// Transmits a batch of beacons; returns the byte stream as it
    /// arrives at the collector (lost beacons omitted, corrupt damaged).
    pub fn transmit(&mut self, beacons: &[Beacon]) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(beacons.len() * 40);
        for b in beacons {
            let fate = self.dice.fate();
            if fate == Fate::Lost {
                continue;
            }
            let mut frame = framing::encode_frames(std::slice::from_ref(b))?;
            if fate == Fate::Corrupt {
                let rng = self.dice.rng();
                let kind = CorruptionKind::ALL[rng.gen_range(0..CorruptionKind::ALL.len())];
                kind.damage(&mut frame, rng);
            }
            out.extend_from_slice(&frame);
        }
        Ok(out)
    }

    /// What the link did to every beacon so far.
    pub fn stats(&self) -> FaultStatsSnapshot {
        self.dice.stats().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qtag_wire::{AdFormat, BrowserKind, EventKind, FrameDecoder, OsKind, SiteType};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn beacon(seq: u16) -> Beacon {
        Beacon {
            impression_id: 5,
            campaign_id: 1,
            event: EventKind::Heartbeat,
            timestamp_us: 0,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 0,
            exposure_ms: 0,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    /// `n` frames, each damaged by `kind`.
    fn damaged(kind: CorruptionKind, n: u16, seed: u64) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        for seq in 0..n {
            let mut frame = framing::encode_frames(&[beacon(seq)]).unwrap();
            kind.damage(&mut frame, &mut rng);
            out.extend_from_slice(&frame);
        }
        out
    }

    fn decode_all(bytes: &[u8]) -> usize {
        let mut dec = FrameDecoder::new();
        dec.extend(bytes);
        dec.drain()
            .into_iter()
            .filter(|e| matches!(e, qtag_wire::framing::FrameEvent::Beacon(_)))
            .count()
    }

    #[test]
    fn lossless_link_delivers_everything() {
        let mut link = LossyLink::lossless();
        let beacons: Vec<_> = (0..100).map(beacon).collect();
        let bytes = link.transmit(&beacons).unwrap();
        assert_eq!(decode_all(&bytes), 100);
        assert_eq!(link.stats().lost, 0);
        assert_eq!(
            link.stats().delivered,
            100,
            "the empty plan injects nothing"
        );
    }

    /// Rates that often sit on the edges: off (no draw) or certain.
    fn rate() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0]
    }

    proptest! {
        /// Every beacon meets exactly one fate, and the bytes that
        /// arrive agree with the counts: a delivered frame arrives
        /// whole, a corrupt one at most whole, a lost one not at all.
        #[test]
        fn every_beacon_meets_exactly_one_fate(
            loss in rate(),
            corrupt in rate(),
            seed in any::<u64>(),
            n in 0u16..200,
        ) {
            let mut link = LossyLink::new(loss, corrupt, seed);
            let bytes = link.transmit(&(0..n).map(beacon).collect::<Vec<_>>()).unwrap();
            let (s, len) = (link.stats(), bytes.len() as u64);
            let frame = 2 + qtag_wire::binary::ENCODED_LEN as u64;
            prop_assert_eq!(s.delivered + s.lost + s.corrupted, u64::from(n));
            prop_assert_eq!(s.resets + s.stalled, 0);
            prop_assert!(frame * s.delivered <= len);
            prop_assert!(len <= frame * (s.delivered + s.corrupted));
            if s.corrupted == 0 {
                prop_assert_eq!(decode_all(&bytes) as u64, s.delivered);
            }
        }
    }

    #[test]
    fn full_loss_delivers_nothing() {
        let mut link = LossyLink::new(1.0, 0.0, 1);
        let beacons: Vec<_> = (0..50).map(beacon).collect();
        let bytes = link.transmit(&beacons).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(link.stats().lost, 50);
    }

    #[test]
    fn partial_loss_is_near_the_configured_rate() {
        let mut link = LossyLink::new(0.2, 0.0, 42);
        let beacons: Vec<_> = (0..2000).map(|i| beacon(i as u16)).collect();
        let bytes = link.transmit(&beacons).unwrap();
        let delivered = decode_all(&bytes);
        assert!((1500..=1700).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn payload_corruption_is_caught_by_checksum() {
        let bytes = damaged(CorruptionKind::PayloadFlip, 20, 7);
        // All frames damaged → none decodes as a valid beacon. (The CRC
        // rejects every single-bit flip.)
        assert_eq!(decode_all(&bytes), 0);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let corrupt = dec
            .drain()
            .iter()
            .filter(|e| matches!(e, qtag_wire::framing::FrameEvent::Corrupt(_)))
            .count();
        assert_eq!(corrupt, 20);
    }

    #[test]
    fn full_corruption_mix_yields_no_valid_beacons() {
        // Prefix flips and truncations damage the stream structure
        // itself, not just payload bytes; none of it may decode.
        let mut link = LossyLink::new(0.0, 1.0, 7);
        let beacons: Vec<_> = (0..60).map(beacon).collect();
        let bytes = link.transmit(&beacons).unwrap();
        assert_eq!(decode_all(&bytes), 0);
        let stats = link.stats();
        assert_eq!(stats.corrupted, 60);
        assert_eq!(
            stats.delivered + stats.lost,
            0,
            "every beacon meets one fate"
        );
        // Seed 7 over 60 frames cuts some frames short and flips some
        // prefixes: the decoder had to resync bytewise.
        let frame_len = framing::encode_frames(&[beacon(0)]).unwrap().len();
        assert!(bytes.len() < 60 * frame_len, "no frame was truncated");
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        dec.drain();
        assert!(dec.skipped_bytes() > 0, "no bytewise resync");
    }

    #[test]
    fn prefix_corruption_exercises_bytewise_resync() {
        let mut bytes = damaged(CorruptionKind::PrefixFlip, 10, 11);
        // A clean frame after the damage must still be recovered.
        bytes.extend_from_slice(&framing::encode_frames(&[beacon(77)]).unwrap());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let decoded: Vec<u16> = dec
            .drain()
            .into_iter()
            .filter_map(|e| match e {
                qtag_wire::framing::FrameEvent::Beacon(b) => Some(b.seq),
                _ => None,
            })
            .collect();
        assert_eq!(decoded, vec![77], "only the clean trailing frame decodes");
        assert!(dec.skipped_bytes() > 0, "resync path must have run");
    }

    #[test]
    fn truncation_keeps_a_strict_nonempty_prefix() {
        let whole = framing::encode_frames(&[beacon(1)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let mut frame = whole.clone();
            CorruptionKind::Truncate.damage(&mut frame, &mut rng);
            assert!(!frame.is_empty() && frame.len() < whole.len());
            assert_eq!(frame[..], whole[..frame.len()]);
        }
    }

    #[test]
    fn mid_stream_truncation_resyncs_to_a_later_frame() {
        // frame1 cut off after 10 bytes, frames 2 and 3 intact. The
        // decoder mis-frames across the cut (frame1's honest header
        // swallows frame2's leading bytes), reports corruption, and
        // must recover by frame3 at the latest.
        let mut bytes = framing::encode_frames(&[beacon(1)]).unwrap();
        bytes.truncate(10);
        bytes.extend_from_slice(&framing::encode_frames(&[beacon(2), beacon(3)]).unwrap());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let events = dec.drain();
        let decoded: Vec<u16> = events
            .iter()
            .filter_map(|e| match e {
                qtag_wire::framing::FrameEvent::Beacon(b) => Some(b.seq),
                _ => None,
            })
            .collect();
        assert!(decoded.contains(&3), "decoder must recover: {decoded:?}");
        assert!(!decoded.contains(&1), "the truncated frame is gone");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, qtag_wire::framing::FrameEvent::Corrupt(_)))
                || dec.skipped_bytes() > 0,
            "the damage is visible in the decoder's accounting"
        );
    }

    #[test]
    fn tail_truncation_strands_only_the_cut_frame() {
        let mut link = LossyLink::new(0.0, 0.0, 0);
        let bytes = link.transmit(&[beacon(1), beacon(2)]).unwrap();
        // Cut the stream mid-way through the second frame.
        let cut = bytes.len() - 15;
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..cut]);
        let events = dec.finish();
        let decoded: Vec<u16> = events
            .iter()
            .filter_map(|e| match e {
                qtag_wire::framing::FrameEvent::Beacon(b) => Some(b.seq),
                _ => None,
            })
            .collect();
        assert_eq!(decoded, vec![1]);
        assert!(dec.buffered() > 0, "the cut tail stays buffered, uncounted");
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed| {
            let mut link = LossyLink::new(0.5, 0.1, seed);
            let beacons: Vec<_> = (0..100).map(beacon).collect();
            link.transmit(&beacons).unwrap()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "loss_rate out of range")]
    fn invalid_rate_panics() {
        LossyLink::new(1.5, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "LossyLink cannot carry resets, stalls or ack loss")]
    fn a_link_refuses_ack_loss() {
        LossyLink::with_plan(
            FaultPlan {
                ack_loss_rate: 0.1,
                ..FaultPlan::NONE
            },
            0,
        );
    }
}
