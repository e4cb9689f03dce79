//! Length-prefixed framing with a resynchronising streaming decoder.
//!
//! A tag's transport may deliver beacons in arbitrary chunks: several per
//! datagram, one split across reads, or with corrupted bytes in between.
//! [`FrameDecoder`] is fed raw bytes and yields whole, checksum-verified
//! beacons, skipping forward to the next plausible frame boundary after
//! corruption — the classic streaming-decode pattern from the Tokio
//! framing chapter, implemented poll-style without an async runtime.
//!
//! Frame format: `u16 length ‖ payload`, where `length` is the payload
//! size in bytes and the payload is one [`crate::binary`] beacon.

use crate::{binary, Beacon, WireError};
use bytes::{Buf, BufMut, BytesMut};

/// Maximum payload length a well-formed frame may declare. The decoder
/// itself is stricter — only [`binary::ENCODED_LEN`] can hold a valid
/// beacon, so any other declared length triggers resynchronisation —
/// but transports use this bound to reject oversized frames before
/// buffering them. Kept tight because a too-generous bound lets a noise
/// byte masquerade as a huge length prefix and stall a naive reader
/// waiting for bytes that will never come.
pub const MAX_FRAME_LEN: usize = 64;

/// Encodes a beacon as one length-prefixed frame appended to `buf`.
/// A beacon that fails validation leaves `buf` untouched.
pub fn encode_frame(beacon: &Beacon, buf: &mut BytesMut) -> Result<(), WireError> {
    let payload = binary::encode_array(beacon)?;
    buf.reserve(2 + binary::ENCODED_LEN);
    buf.put_u16(binary::ENCODED_LEN as u16);
    buf.put_slice(&payload);
    Ok(())
}

/// Encodes a batch of beacons into a single buffer.
pub fn encode_frames(beacons: &[Beacon]) -> Result<Vec<u8>, WireError> {
    let mut buf = BytesMut::with_capacity(beacons.len() * (2 + binary::ENCODED_LEN));
    for b in beacons {
        encode_frame(b, &mut buf)?;
    }
    Ok(buf.to_vec())
}

/// Outcome of one decoded frame (good or bad); corrupt frames are
/// reported, not silently dropped, so the server can count them.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameEvent {
    /// A verified beacon.
    Beacon(Beacon),
    /// A frame was skipped: the payload failed to decode.
    Corrupt(WireError),
}

/// Streaming frame decoder.
///
/// Feed bytes with [`FrameDecoder::extend`]; drain decoded events with
/// [`FrameDecoder::next_event`] (or iterate [`FrameDecoder::drain`]).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
    /// Noise bytes discarded one at a time during resynchronisation.
    skipped_bytes: u64,
    /// Bytes discarded as whole corrupt frames (the full `2 + len` of
    /// each honest-header frame that failed verification).
    corrupt_bytes: u64,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw transport bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Noise bytes dropped so far while hunting for a frame boundary.
    /// Does not include corrupt frames, which are discarded whole and
    /// counted in [`FrameDecoder::corrupt_bytes`].
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped_bytes
    }

    /// Bytes consumed so far by frames reported as
    /// [`FrameEvent::Corrupt`] (header and payload both).
    pub fn corrupt_bytes(&self) -> u64 {
        self.corrupt_bytes
    }

    /// Bytes currently buffered (useful to assert drains in tests).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to decode the next frame. Returns `None` when more bytes
    /// are needed.
    ///
    /// Event accounting is exact for honest frame headers: a frame that
    /// declares the one valid payload size ([`binary::ENCODED_LEN`])
    /// *and* opens with the beacon magic, yet fails verification
    /// (checksum/version/field), is skipped *whole* and reported as
    /// exactly one [`FrameEvent::Corrupt`]. Everything else — an
    /// implausible length, or a plausible length whose payload lacks
    /// the magic — can only be noise, so the decoder resyncs one byte
    /// at a time, counting [`FrameDecoder::skipped_bytes`] but emitting
    /// no events. This keeps `beacons + corrupt frames + noise bytes` a
    /// conserved decomposition of the input stream, which the collector
    /// daemon relies on for its end-to-end conservation check.
    ///
    /// The emitted event sequence depends only on the byte stream, not
    /// on how it was chunked across [`FrameDecoder::extend`] calls:
    /// every decision here reads a fixed-size prefix of the buffer.
    pub fn next_event(&mut self) -> Option<FrameEvent> {
        loop {
            if self.buf.len() < 2 {
                return None;
            }
            let len = u16::from_be_bytes([self.buf[0], self.buf[1]]) as usize;
            if len != binary::ENCODED_LEN {
                // No other payload size can decode; the prefix is noise
                // (or a corrupted length, indistinguishable from noise).
                // Resynchronise by skipping one byte, silently.
                self.buf.advance(1);
                self.skipped_bytes += 1;
                continue;
            }
            if self.buf.len() < 2 + len {
                return None;
            }
            let payload = &self.buf[2..2 + len];
            match binary::decode(payload) {
                Ok(beacon) => {
                    self.buf.advance(2 + len);
                    return Some(FrameEvent::Beacon(beacon));
                }
                Err(WireError::BadMagic(_)) => {
                    // A plausible length followed by non-beacon bytes is
                    // a noise pair that happened to read as ENCODED_LEN,
                    // not a damaged frame. Resync silently so a fake
                    // length can't swallow a real frame behind it.
                    self.buf.advance(1);
                    self.skipped_bytes += 1;
                    continue;
                }
                Err(e) => {
                    // Honest header (length + magic) but the payload
                    // doesn't verify: drop the whole declared frame and
                    // report it exactly once. Advancing past the full
                    // frame lands on the next frame boundary, which is
                    // what makes per-frame corruption accounting exact.
                    self.buf.advance(2 + len);
                    self.corrupt_bytes += (2 + len) as u64;
                    return Some(FrameEvent::Corrupt(e));
                }
            }
        }
    }

    /// Drains every currently decodable event.
    pub fn drain(&mut self) -> Vec<FrameEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.next_event() {
            out.push(ev);
        }
        out
    }

    /// End-of-stream flush: the transport closed, so no more bytes are
    /// coming. Drains every decodable event; whatever stays buffered is
    /// a truncated tail frame (a valid length prefix whose payload was
    /// cut off mid-send). The tail is deliberately *not* counted as
    /// corrupt — a sender that died mid-frame never completed that
    /// beacon, so conservation accounting treats it as never sent.
    /// Inspect [`FrameDecoder::buffered`] to see how much was left.
    pub fn finish(&mut self) -> Vec<FrameEvent> {
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};

    fn sample(seq: u16) -> Beacon {
        Beacon {
            impression_id: 99,
            campaign_id: 5,
            event: EventKind::Heartbeat,
            timestamp_us: 1_000 * u64::from(seq),
            ad_format: AdFormat::Display,
            visible_fraction_milli: 500,
            exposure_ms: 0,
            os: OsKind::Windows10,
            browser: BrowserKind::Firefox,
            site_type: SiteType::Browser,
            seq,
        }
    }

    #[test]
    fn single_frame_round_trip() {
        let bytes = encode_frames(&[sample(1)]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.drain(), vec![FrameEvent::Beacon(sample(1))]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn split_delivery_reassembles() {
        let bytes = encode_frames(&[sample(1), sample(2)]).unwrap();
        let mut dec = FrameDecoder::new();
        // deliver one byte at a time
        let mut got = Vec::new();
        for b in &bytes {
            dec.extend(&[*b]);
            got.extend(dec.drain());
        }
        assert_eq!(
            got,
            vec![FrameEvent::Beacon(sample(1)), FrameEvent::Beacon(sample(2))]
        );
    }

    #[test]
    fn garbage_between_frames_is_skipped() {
        let mut bytes = encode_frames(&[sample(1)]).unwrap();
        bytes.extend_from_slice(&[0x00, 0xFF, 0x13]); // noise
        bytes.extend_from_slice(&encode_frames(&[sample(2)]).unwrap());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let events = dec.drain();
        let beacons: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                FrameEvent::Beacon(b) => Some(b.seq),
                _ => None,
            })
            .collect();
        assert_eq!(beacons, vec![1, 2]);
        assert!(dec.skipped_bytes() > 0);
    }

    #[test]
    fn corrupted_payload_reported_then_recovers() {
        let mut bytes = encode_frames(&[sample(1)]).unwrap();
        bytes[10] ^= 0xA5; // corrupt inside first frame's payload
        bytes.extend_from_slice(&encode_frames(&[sample(2)]).unwrap());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let events = dec.drain();
        assert!(events.iter().any(|e| matches!(e, FrameEvent::Corrupt(_))));
        assert!(events
            .iter()
            .any(|e| matches!(e, FrameEvent::Beacon(b) if b.seq == 2)));
        // The corrupt frame is accounted whole, and separately from
        // noise resync skips.
        assert_eq!(dec.corrupt_bytes(), (2 + crate::binary::ENCODED_LEN) as u64);
        assert_eq!(dec.skipped_bytes(), 0);
    }

    #[test]
    fn zero_length_prefix_resyncs() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0, 0, 0, 0]);
        dec.extend(&encode_frames(&[sample(7)]).unwrap());
        let events = dec.drain();
        assert_eq!(events.last(), Some(&FrameEvent::Beacon(sample(7))));
    }

    #[test]
    fn invalid_beacon_leaves_the_buffer_untouched() {
        let mut buf = BytesMut::new();
        encode_frame(&sample(1), &mut buf).unwrap();
        let mut bad = sample(2);
        bad.visible_fraction_milli = 2000;
        assert!(encode_frame(&bad, &mut buf).is_err());
        assert_eq!(buf.len(), 2 + crate::binary::ENCODED_LEN);
        assert_eq!(buf.to_vec(), encode_frames(&[sample(1)]).unwrap());
    }

    #[test]
    fn empty_decoder_yields_nothing() {
        let mut dec = FrameDecoder::new();
        assert!(dec.next_event().is_none());
    }
}
