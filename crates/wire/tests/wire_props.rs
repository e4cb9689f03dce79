//! Property tests: every structurally valid beacon survives both codecs,
//! and the streaming decoder recovers all frames from arbitrary chunking
//! and interleaved noise, and survives hostile input without a panic or
//! an unaccounted byte. The ack decoder does the same for the return
//! path.

use proptest::prelude::*;
use qtag_wire::framing::{encode_frames, FrameDecoder, FrameEvent};
use qtag_wire::sender::{encode_ack, AckDecoder, AckKey, ACK_LEN};
use qtag_wire::{binary, json, AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

fn arb_beacon() -> impl Strategy<Value = Beacon> {
    (
        any::<u64>(),
        any::<u32>(),
        0u8..=5,
        any::<u64>(),
        0u8..=2,
        0u16..=1000,
        any::<u32>(),
        0u8..=3,
        0u8..=6,
        0u8..=1,
        any::<u16>(),
    )
        .prop_map(
            |(imp, camp, ev, ts, fmt, frac, exp, os, br, st, seq)| Beacon {
                impression_id: imp,
                campaign_id: camp,
                event: EventKind::from_code(ev).unwrap(),
                timestamp_us: ts,
                ad_format: AdFormat::from_code(fmt).unwrap(),
                visible_fraction_milli: frac,
                exposure_ms: exp,
                os: OsKind::from_code(os).unwrap(),
                browser: BrowserKind::from_code(br).unwrap(),
                site_type: SiteType::from_code(st).unwrap(),
                seq,
            },
        )
}

proptest! {
    #[test]
    fn binary_round_trip(b in arb_beacon()) {
        let bytes = binary::encode_to_vec(&b).unwrap();
        prop_assert_eq!(binary::decode(&bytes).unwrap(), b);
    }

    #[test]
    fn json_round_trip(b in arb_beacon()) {
        let s = json::encode(&b).unwrap();
        prop_assert_eq!(json::decode(&s).unwrap(), b);
    }

    #[test]
    fn encoded_len_is_constant(b in arb_beacon()) {
        prop_assert_eq!(binary::encode_to_vec(&b).unwrap().len(), binary::ENCODED_LEN);
    }

    /// Any single corrupted byte in the payload (excluding a lucky CRC
    /// collision, which CRC-16 prevents for 1-byte flips) is detected.
    #[test]
    fn single_byte_corruption_detected(b in arb_beacon(), pos in 0usize..binary::ENCODED_LEN, flip in 1u8..=255) {
        let mut bytes = binary::encode_to_vec(&b).unwrap();
        bytes[pos] ^= flip;
        prop_assert!(binary::decode(&bytes).is_err());
    }

    /// Frames survive arbitrary re-chunking of the byte stream.
    #[test]
    fn streaming_decoder_handles_any_chunking(
        beacons in prop::collection::vec(arb_beacon(), 1..8),
        chunk_size in 1usize..64,
    ) {
        let stream = encode_frames(&beacons).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(chunk_size) {
            dec.extend(chunk);
            for ev in dec.drain() {
                if let FrameEvent::Beacon(b) = ev {
                    got.push(b);
                }
            }
        }
        prop_assert_eq!(got, beacons);
    }

    /// Chunking invariance, exhaustively: the same stream fed whole,
    /// split in two at *every* possible boundary, and byte-by-byte
    /// yields the identical event sequence (beacons and corrupt-frame
    /// reports alike). The stream includes a corrupted frame so the
    /// invariance covers the resynchronisation path, not just the happy
    /// path.
    #[test]
    fn every_split_point_yields_identical_events(
        beacons in prop::collection::vec(arb_beacon(), 1..6),
        corrupt_at in any::<u16>(),
        flip in 1u8..=255,
    ) {
        let mut stream = encode_frames(&beacons).unwrap();
        // Corrupt one non-magic payload byte of one frame (offsets 4..40
        // within the frame skip the length prefix and the magic), so the
        // decoder must report exactly one corrupt frame.
        let frame_len = 2 + binary::ENCODED_LEN;
        let victim = corrupt_at as usize % beacons.len();
        let offset = victim * frame_len + 4 + (corrupt_at as usize / beacons.len()) % (frame_len - 4);
        stream[offset] ^= flip;

        let decode_with_chunks = |chunks: &[&[u8]]| -> Vec<FrameEvent> {
            let mut dec = FrameDecoder::new();
            let mut events = Vec::new();
            for chunk in chunks {
                dec.extend(chunk);
                events.extend(dec.drain());
            }
            events.extend(dec.finish());
            events
        };

        let whole = decode_with_chunks(&[&stream]);
        let corrupt_count = whole.iter().filter(|e| matches!(e, FrameEvent::Corrupt(_))).count();
        prop_assert_eq!(corrupt_count, 1, "expected exactly one corrupt frame, got {:?}", &whole);
        let beacon_count = whole.iter().filter(|e| matches!(e, FrameEvent::Beacon(_))).count();
        prop_assert_eq!(beacon_count, beacons.len() - 1);

        for split in 0..=stream.len() {
            let (a, b) = stream.split_at(split);
            let two = decode_with_chunks(&[a, b]);
            prop_assert_eq!(&two, &whole, "split at {} diverged", split);
        }

        let single_bytes: Vec<&[u8]> = stream.chunks(1).collect();
        let bytewise = decode_with_chunks(&single_bytes);
        prop_assert_eq!(&bytewise, &whole, "byte-by-byte feed diverged");
    }

    /// Noise injected before the stream never prevents later frames from
    /// being recovered.
    #[test]
    fn decoder_resynchronises_after_leading_noise(
        beacons in prop::collection::vec(arb_beacon(), 1..4),
        noise in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut stream = noise.clone();
        stream.extend(encode_frames(&beacons).unwrap());
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        let mut events = dec.drain();
        events.extend(dec.finish()); // transport closed: flush the tail
        let got: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e {
                FrameEvent::Beacon(b) => Some(b),
                _ => None,
            })
            .collect();
        // All original beacons appear, in order, as a subsequence of the
        // decoded output (noise may coincidentally decode, but cannot
        // suppress real frames).
        let mut it = got.iter();
        for b in &beacons {
            prop_assert!(it.any(|g| g == b), "lost beacon {:?}", b);
        }
    }

    /// Hostile input: arbitrary bytes in arbitrary chunks never panic
    /// the decoder, and every byte is accounted for exactly once — as
    /// a beacon frame, a corrupt frame, a noise byte, or the buffered
    /// tail.
    #[test]
    fn decoder_accounts_for_every_byte_of_noise(
        noise in prop::collection::vec(any::<u8>(), 0..512),
        chunk_size in 1usize..96,
    ) {
        decode_conserving(&noise, chunk_size);
    }

    /// Hostile input: a valid stream with random byte flips and a cut
    /// tail never panics the decoder, keeps the byte accounting exact,
    /// and loses no frame the damage did not touch.
    #[test]
    fn decoder_survives_flips_and_truncation(
        beacons in prop::collection::vec(arb_beacon(), 1..8),
        flips in prop::collection::vec((any::<u16>(), 1u8..=255), 0..4),
        cut in any::<u16>(),
        chunk_size in 1usize..96,
    ) {
        let mut stream = encode_frames(&beacons).unwrap();
        let frame_len = 2 + binary::ENCODED_LEN;
        let mut damaged = vec![false; beacons.len()];
        for (at, flip) in &flips {
            let pos = *at as usize % stream.len();
            stream[pos] ^= flip;
            damaged[pos / frame_len] = true;
        }
        let keep = cut as usize % (stream.len() + 1);
        stream.truncate(keep);
        let got = decode_conserving(&stream, chunk_size);
        // Every frame that is whole and untouched still decodes, in
        // order (a damaged neighbour may resync through it but cannot
        // swallow it whole: the decoder only skips a frame it verified
        // the header of).
        let mut it = got.iter();
        for (i, b) in beacons.iter().enumerate() {
            if !damaged[i] && (i + 1) * frame_len <= keep {
                prop_assert!(it.any(|g| g == b), "lost untouched beacon {}", i);
            }
        }
    }

    /// Hostile input on the ack path: any byte string split at any
    /// point yields the same keys as one whole-buffer call, exactly
    /// `len / ACK_LEN` of them. The short tail stays buffered until it
    /// is completed, and `reset` discards it.
    #[test]
    fn ack_decoder_handles_any_bytes_at_any_split(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        split in any::<u16>(),
        next_id in any::<u64>(),
        next_seq in any::<u16>(),
    ) {
        let split = split as usize % (bytes.len() + 1);
        let mut whole = Vec::new();
        AckDecoder::new().extend(&bytes, &mut whole);
        prop_assert_eq!(whole.len(), bytes.len() / ACK_LEN);

        let mut dec = AckDecoder::new();
        let mut keys = Vec::new();
        dec.extend(&bytes[..split], &mut keys);
        dec.extend(&bytes[split..], &mut keys);
        prop_assert_eq!(&keys, &whole);

        // Completing the buffered tail yields exactly one more key,
        // built from the tail's bytes.
        let tail = &bytes[bytes.len() - bytes.len() % ACK_LEN..];
        let mut record = tail.to_vec();
        record.resize(ACK_LEN, 0);
        let mut more = Vec::new();
        dec.extend(&record[tail.len()..], &mut more);
        let mut expect = Vec::new();
        AckDecoder::new().extend(&record, &mut expect);
        prop_assert_eq!(more, expect);

        // After a reset the tail is gone: a fresh record decodes whole.
        let mut dec = AckDecoder::new();
        dec.extend(&bytes, &mut Vec::new());
        dec.reset();
        let key = AckKey { impression_id: next_id, seq: next_seq };
        let mut fresh = Vec::new();
        encode_ack(key, &mut fresh);
        let mut after = Vec::new();
        dec.extend(&fresh, &mut after);
        prop_assert_eq!(after, vec![key]);
    }
}

/// Feeds `stream` to a fresh decoder `chunk_size` bytes at a time,
/// asserts the decoder's byte accounting is exact, and returns the
/// beacons it yielded.
fn decode_conserving(stream: &[u8], chunk_size: usize) -> Vec<Beacon> {
    let mut dec = FrameDecoder::new();
    let mut events = Vec::new();
    for chunk in stream.chunks(chunk_size) {
        dec.extend(chunk);
        events.extend(dec.drain());
    }
    events.extend(dec.finish());
    let beacons: Vec<Beacon> = events
        .into_iter()
        .filter_map(|e| match e {
            FrameEvent::Beacon(b) => Some(b),
            FrameEvent::Corrupt(_) => None,
        })
        .collect();
    let accounted = (beacons.len() * (2 + binary::ENCODED_LEN)) as u64
        + dec.corrupt_bytes()
        + dec.skipped_bytes()
        + dec.buffered() as u64;
    assert_eq!(accounted, stream.len() as u64, "bytes unaccounted for");
    beacons
}
