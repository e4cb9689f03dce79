//! WAL record codec: length+checksum framed register/beacon/ack
//! events.
//!
//! Every record travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length (big-endian u32)
//! 4       4     CRC-32/IEEE over the payload (big-endian u32)
//! 8       len   payload; payload[0] is the record kind
//! ```
//!
//! Payload layouts (big-endian throughout):
//!
//! * kind 1 — **Served** (ad-server register event), 17 bytes:
//!   kind, impression id (8), campaign id (4), os code, browser code,
//!   site-type code, ad-format code;
//! * kind 2 — **Beacon**, 39 bytes: kind followed by the 38-byte
//!   `qtag-wire` binary encoding (which carries its own CRC-16 — the
//!   frame CRC-32 guards it a second time, so a torn write can never
//!   masquerade as a valid beacon);
//! * kind 3 — **Ack** (collector confirmed `(impression, seq)` back to
//!   a sender), 11 bytes: kind, impression id (8), seq (2).
//!
//! Decoding is strict: unknown kinds, wrong lengths and CRC mismatches
//! all produce [`RecordError`], which recovery treats as the start of
//! a torn tail (see `wal.rs`) — never as data.

use qtag_server::ServedImpression;
use qtag_wire::crc::crc32;
use qtag_wire::{binary, AdFormat, Beacon, BrowserKind, OsKind, SiteType};

/// Record kind byte for a served-impression register event.
pub const KIND_SERVED: u8 = 1;
/// Record kind byte for a beacon event.
pub const KIND_BEACON: u8 = 2;
/// Record kind byte for an ack event.
pub const KIND_ACK: u8 = 3;

/// Frame header size: u32 length + u32 CRC.
pub const FRAME_HEADER_LEN: usize = 8;
/// Largest payload a frame may declare. Real payloads are ≤ 39 bytes;
/// the cap keeps a corrupt length field from driving a giant
/// allocation during recovery.
pub const MAX_PAYLOAD_LEN: usize = 256;

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Ad-server register event: the impression was served.
    Served(ServedImpression),
    /// A beacon accepted by the ingest pipeline.
    Beacon(Beacon),
    /// The collector confirmed `(impression, seq)` back to a sender.
    Ack {
        /// Impression the confirmed beacon belonged to.
        impression_id: u64,
        /// Sequence number confirmed.
        seq: u16,
    },
}

/// Why a record failed to decode. Recovery maps every variant to
/// "torn tail starts here".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Fewer bytes than the frame header or declared payload.
    Truncated,
    /// Declared payload length is zero or exceeds [`MAX_PAYLOAD_LEN`].
    BadLength(u32),
    /// Frame CRC-32 mismatch.
    BadChecksum,
    /// Unknown record kind byte.
    BadKind(u8),
    /// Payload body malformed (wrong size for its kind, or the inner
    /// beacon/served encoding failed to decode).
    BadPayload,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "truncated frame"),
            RecordError::BadLength(n) => write!(f, "implausible payload length {n}"),
            RecordError::BadChecksum => write!(f, "frame checksum mismatch"),
            RecordError::BadKind(k) => write!(f, "unknown record kind {k}"),
            RecordError::BadPayload => write!(f, "malformed record payload"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Opens a frame in `out`: reserves the `[len][crc]` header and returns
/// the offset where [`end_frame`] must patch it once the payload has
/// been appended. The encoders write payloads straight into `out` — no
/// per-record heap allocation; they run per beacon inside the shard
/// journal's critical section.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let header_at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    header_at
}

/// Seals the frame opened at `header_at`: patches the payload length
/// and CRC over everything appended since.
fn end_frame(out: &mut [u8], header_at: usize) {
    let payload_at = header_at + FRAME_HEADER_LEN;
    let payload_len = out.len() - payload_at;
    debug_assert!(payload_len > 0 && payload_len <= MAX_PAYLOAD_LEN);
    let crc = crc32(&out[payload_at..]);
    out[header_at..header_at + 4].copy_from_slice(&(payload_len as u32).to_be_bytes());
    out[header_at + 4..payload_at].copy_from_slice(&crc.to_be_bytes());
}

/// Appends the framed encoding of a served-impression record to `out`.
pub fn encode_served(s: &ServedImpression, out: &mut Vec<u8>) {
    let frame = begin_frame(out);
    out.push(KIND_SERVED);
    out.extend_from_slice(&s.impression_id.to_be_bytes());
    out.extend_from_slice(&s.campaign_id.to_be_bytes());
    out.push(s.os.code());
    out.push(s.browser.code());
    out.push(s.site_type.code());
    out.push(s.ad_format.code());
    end_frame(out, frame);
}

/// Appends the framed encoding of a beacon record to `out`.
///
/// # Panics
/// Panics if the beacon violates wire-field ranges — beacons reaching
/// the journal already passed wire decoding or validation, so an
/// unencodable beacon is a logic error, not an IO condition.
pub fn encode_beacon(b: &Beacon, out: &mut Vec<u8>) {
    let frame = begin_frame(out);
    out.push(KIND_BEACON);
    binary::encode(b, out).expect("journaled beacon encodes");
    end_frame(out, frame);
}

/// Appends the framed encoding of an ack record to `out`.
pub fn encode_ack(impression_id: u64, seq: u16, out: &mut Vec<u8>) {
    let frame = begin_frame(out);
    out.push(KIND_ACK);
    out.extend_from_slice(&impression_id.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    end_frame(out, frame);
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, RecordError> {
    match payload.first().copied() {
        Some(KIND_SERVED) => {
            if payload.len() != 17 {
                return Err(RecordError::BadPayload);
            }
            let impression_id = u64::from_be_bytes(payload[1..9].try_into().unwrap());
            let campaign_id = u32::from_be_bytes(payload[9..13].try_into().unwrap());
            let os = OsKind::from_code(payload[13]).map_err(|_| RecordError::BadPayload)?;
            let browser =
                BrowserKind::from_code(payload[14]).map_err(|_| RecordError::BadPayload)?;
            let site_type =
                SiteType::from_code(payload[15]).map_err(|_| RecordError::BadPayload)?;
            let ad_format =
                AdFormat::from_code(payload[16]).map_err(|_| RecordError::BadPayload)?;
            Ok(WalRecord::Served(ServedImpression {
                impression_id,
                campaign_id,
                os,
                browser,
                site_type,
                ad_format,
            }))
        }
        Some(KIND_BEACON) => {
            if payload.len() != 1 + binary::ENCODED_LEN {
                return Err(RecordError::BadPayload);
            }
            binary::decode(&payload[1..])
                .map(WalRecord::Beacon)
                .map_err(|_| RecordError::BadPayload)
        }
        Some(KIND_ACK) => {
            if payload.len() != 11 {
                return Err(RecordError::BadPayload);
            }
            Ok(WalRecord::Ack {
                impression_id: u64::from_be_bytes(payload[1..9].try_into().unwrap()),
                seq: u16::from_be_bytes(payload[9..11].try_into().unwrap()),
            })
        }
        Some(k) => Err(RecordError::BadKind(k)),
        None => Err(RecordError::Truncated),
    }
}

/// Decodes one frame from the front of `data`.
///
/// Returns the record and the total frame size consumed. Every failure
/// mode — short header, implausible length, short payload, checksum
/// mismatch, undecodable payload — maps to an error the caller treats
/// as the start of a torn tail.
pub fn decode_frame(data: &[u8]) -> Result<(WalRecord, usize), RecordError> {
    if data.len() < FRAME_HEADER_LEN {
        return Err(RecordError::Truncated);
    }
    let len = u32::from_be_bytes(data[0..4].try_into().unwrap());
    if len == 0 || len as usize > MAX_PAYLOAD_LEN {
        return Err(RecordError::BadLength(len));
    }
    let stated_crc = u32::from_be_bytes(data[4..8].try_into().unwrap());
    let end = FRAME_HEADER_LEN + len as usize;
    if data.len() < end {
        return Err(RecordError::Truncated);
    }
    let payload = &data[FRAME_HEADER_LEN..end];
    if crc32(payload) != stated_crc {
        return Err(RecordError::BadChecksum);
    }
    Ok((decode_payload(payload)?, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtag_wire::EventKind;

    fn sample_beacon() -> Beacon {
        Beacon {
            impression_id: 42,
            campaign_id: 7,
            event: EventKind::InView,
            timestamp_us: 9_999,
            ad_format: AdFormat::Video,
            visible_fraction_milli: 800,
            exposure_ms: 1_500,
            os: OsKind::Ios,
            browser: BrowserKind::Safari,
            site_type: SiteType::App,
            seq: 3,
        }
    }

    fn sample_served() -> ServedImpression {
        ServedImpression {
            impression_id: 42,
            campaign_id: 7,
            os: OsKind::Ios,
            browser: BrowserKind::Safari,
            site_type: SiteType::App,
            ad_format: AdFormat::Video,
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn all_three_kinds_round_trip() {
        let mut buf = Vec::new();
        encode_served(&sample_served(), &mut buf);
        encode_beacon(&sample_beacon(), &mut buf);
        encode_ack(42, 3, &mut buf);

        let (r1, n1) = decode_frame(&buf).unwrap();
        assert_eq!(r1, WalRecord::Served(sample_served()));
        let (r2, n2) = decode_frame(&buf[n1..]).unwrap();
        assert_eq!(r2, WalRecord::Beacon(sample_beacon()));
        let (r3, n3) = decode_frame(&buf[n1 + n2..]).unwrap();
        assert_eq!(
            r3,
            WalRecord::Ack {
                impression_id: 42,
                seq: 3
            }
        );
        assert_eq!(n1 + n2 + n3, buf.len());
    }

    /// One frame of each kind as the log has always written them: the
    /// checksum kernels and the beacon encoder may change, the bytes
    /// on disk may not (header, CRC-32, payload, inner CRC-16).
    #[test]
    fn frames_match_the_golden_bytes() {
        const SERVED: &str = "000000110d92c53e01000000000000002a0000000703020102";
        const BEACON: &str = concat!(
            "000000271188fcc2025154010200000000000000",
            "2a00000007000000000000270f020320000005dc0302010003aab6"
        );
        const ACK: &str = "0000000b5eb6456103000000000000002a0003";
        let hex = |f: fn(&mut Vec<u8>)| {
            let mut buf = Vec::new();
            f(&mut buf);
            buf.iter().map(|b| format!("{b:02x}")).collect::<String>()
        };
        assert_eq!(hex(|b| encode_served(&sample_served(), b)), SERVED);
        assert_eq!(hex(|b| encode_beacon(&sample_beacon(), b)), BEACON);
        assert_eq!(hex(|b| encode_ack(42, 3, b)), ACK);
    }

    #[test]
    fn torn_frames_and_corruption_are_rejected() {
        let mut buf = Vec::new();
        encode_beacon(&sample_beacon(), &mut buf);

        // Short header.
        assert_eq!(decode_frame(&buf[..5]), Err(RecordError::Truncated));
        // Short payload.
        assert_eq!(
            decode_frame(&buf[..buf.len() - 1]),
            Err(RecordError::Truncated)
        );
        // Flipped payload byte.
        let mut bad = buf.clone();
        bad[FRAME_HEADER_LEN + 5] ^= 0x01;
        assert_eq!(decode_frame(&bad), Err(RecordError::BadChecksum));
        // Implausible length field.
        let mut huge = buf.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_frame(&huge), Err(RecordError::BadLength(u32::MAX)));
        // Unknown kind with a fixed-up CRC: the frame passes the
        // checksum but the payload is still refused.
        let mut unknown = buf.clone();
        unknown[FRAME_HEADER_LEN] = 99;
        let crc = crc32(&unknown[FRAME_HEADER_LEN..]);
        unknown[4..8].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(decode_frame(&unknown), Err(RecordError::BadKind(99)));
    }
}
