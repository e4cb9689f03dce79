//! Compact binary beacon codec.
//!
//! Layout (big-endian, 38 bytes total):
//!
//! ```text
//! offset  size  field
//! 0       2     magic "QT" (0x51 0x54)
//! 2       1     version (currently 1)
//! 3       1     event kind code
//! 4       8     impression id
//! 12      4     campaign id
//! 16      8     timestamp (µs)
//! 24      1     ad format code
//! 25      2     visible fraction (‰)
//! 27      4     exposure (ms)
//! 31      1     os code
//! 32      1     browser code
//! 33      1     site type code
//! 34      2     seq
//! 36      2     CRC-16/CCITT-FALSE over bytes [0, 36)
//! ```
//!
//! Total: 38 bytes — small enough for a single-packet fire-and-forget
//! beacon, the shape production tags use.

use crate::{crc::crc16, AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType, WireError};
use bytes::{Buf, BufMut};

/// Frame magic: ASCII `QT`.
pub const MAGIC: [u8; 2] = [0x51, 0x54];
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Encoded beacon size in bytes (fixed).
pub const ENCODED_LEN: usize = 38;

/// Encodes a beacon into a stack array: validate, fields, CRC.
pub fn encode_array(beacon: &Beacon) -> Result<[u8; ENCODED_LEN], WireError> {
    beacon.validate()?;
    let mut out = [0u8; ENCODED_LEN];
    out[0..2].copy_from_slice(&MAGIC);
    out[2] = VERSION;
    out[3] = beacon.event.code();
    out[4..12].copy_from_slice(&beacon.impression_id.to_be_bytes());
    out[12..16].copy_from_slice(&beacon.campaign_id.to_be_bytes());
    out[16..24].copy_from_slice(&beacon.timestamp_us.to_be_bytes());
    out[24] = beacon.ad_format.code();
    out[25..27].copy_from_slice(&beacon.visible_fraction_milli.to_be_bytes());
    out[27..31].copy_from_slice(&beacon.exposure_ms.to_be_bytes());
    out[31] = beacon.os.code();
    out[32] = beacon.browser.code();
    out[33] = beacon.site_type.code();
    out[34..36].copy_from_slice(&beacon.seq.to_be_bytes());
    let crc = crc16(&out[..ENCODED_LEN - 2]);
    out[ENCODED_LEN - 2..].copy_from_slice(&crc.to_be_bytes());
    Ok(out)
}

/// Encodes a beacon into `buf` with one append.
///
/// Fails only when the beacon violates field ranges, and then leaves
/// `buf` untouched; the buffer grows as needed. Generic over the buffer
/// so batching callers (the WAL journal path) can append straight into
/// a reused `Vec<u8>` without a per-beacon heap allocation.
pub fn encode<B: BufMut>(beacon: &Beacon, buf: &mut B) -> Result<(), WireError> {
    buf.put_slice(&encode_array(beacon)?);
    Ok(())
}

/// Convenience: encodes into a fresh buffer.
pub fn encode_to_vec(beacon: &Beacon) -> Result<Vec<u8>, WireError> {
    Ok(encode_array(beacon)?.to_vec())
}

/// Decodes one beacon from the front of `data`.
///
/// `data` must contain at least [`ENCODED_LEN`] bytes; extra trailing
/// bytes are ignored (the framing layer slices exact frames).
pub fn decode(data: &[u8]) -> Result<Beacon, WireError> {
    if data.len() < ENCODED_LEN {
        return Err(WireError::Truncated {
            needed: ENCODED_LEN,
            got: data.len(),
        });
    }
    if data[0..2] != MAGIC {
        return Err(WireError::BadMagic([data[0], data[1]]));
    }
    let stated_crc = u16::from_be_bytes([data[ENCODED_LEN - 2], data[ENCODED_LEN - 1]]);
    let actual_crc = crc16(&data[..ENCODED_LEN - 2]);
    if stated_crc != actual_crc {
        return Err(WireError::BadChecksum {
            expected: stated_crc,
            actual: actual_crc,
        });
    }
    let mut cur = &data[2..];
    let version = cur.get_u8();
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let event = EventKind::from_code(cur.get_u8())?;
    let impression_id = cur.get_u64();
    let campaign_id = cur.get_u32();
    let timestamp_us = cur.get_u64();
    let ad_format = AdFormat::from_code(cur.get_u8())?;
    let visible_fraction_milli = cur.get_u16();
    let exposure_ms = cur.get_u32();
    let os = OsKind::from_code(cur.get_u8())?;
    let browser = BrowserKind::from_code(cur.get_u8())?;
    let site_type = SiteType::from_code(cur.get_u8())?;
    let seq = cur.get_u16();
    let beacon = Beacon {
        impression_id,
        campaign_id,
        event,
        timestamp_us,
        ad_format,
        visible_fraction_milli,
        exposure_ms,
        os,
        browser,
        site_type,
        seq,
    };
    beacon.validate()?;
    Ok(beacon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Beacon {
        Beacon {
            impression_id: 7,
            campaign_id: 1,
            event: EventKind::Measurable,
            timestamp_us: 123_456,
            ad_format: AdFormat::Video,
            visible_fraction_milli: 1000,
            exposure_ms: 2_000,
            os: OsKind::MacOs,
            browser: BrowserKind::Safari,
            site_type: SiteType::Browser,
            seq: 0,
        }
    }

    #[test]
    fn round_trip() {
        let bytes = encode_to_vec(&sample()).unwrap();
        assert_eq!(bytes.len(), ENCODED_LEN);
        assert_eq!(decode(&bytes).unwrap(), sample());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = encode_to_vec(&sample()).unwrap();
        let err = decode(&bytes[..10]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = encode_to_vec(&sample()).unwrap();
        bytes[12] ^= 0xFF; // flip a campaign-id byte
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            WireError::BadChecksum { .. }
        ));
    }

    #[test]
    fn bad_magic_is_rejected_before_checksum() {
        let mut bytes = encode_to_vec(&sample()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            WireError::BadMagic(_)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_to_vec(&sample()).unwrap();
        bytes[2] = 9;
        // fix up CRC so the version check (not the CRC) fires
        let crc = crate::crc::crc16(&bytes[..ENCODED_LEN - 2]);
        bytes[ENCODED_LEN - 2..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), WireError::BadVersion(9));
    }

    #[test]
    fn out_of_range_fraction_cannot_be_encoded() {
        let mut b = sample();
        b.visible_fraction_milli = 2000;
        assert!(encode_to_vec(&b).is_err());
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut bytes = encode_to_vec(&sample()).unwrap();
        bytes.extend_from_slice(b"garbage");
        assert_eq!(decode(&bytes).unwrap(), sample());
    }
}
