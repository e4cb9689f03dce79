//! JSON beacon codec — the interoperability path.
//!
//! Real-world ad tags overwhelmingly report JSON over HTTPS; the binary
//! codec in this crate is the bandwidth-optimal path, and this module is
//! the compatible one. The monitoring server accepts both.

use crate::{Beacon, WireError};

/// Serialises a beacon to a compact JSON string.
pub fn encode(beacon: &Beacon) -> Result<String, WireError> {
    beacon.validate()?;
    serde_json::to_string(beacon).map_err(|e| WireError::Json(e.to_string()))
}

/// Parses a beacon from JSON, enforcing the same field-range validation
/// as the binary codec.
pub fn decode(s: &str) -> Result<Beacon, WireError> {
    let beacon: Beacon = serde_json::from_str(s).map_err(|e| WireError::Json(e.to_string()))?;
    beacon.validate()?;
    Ok(beacon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdFormat, BrowserKind, EventKind, OsKind, SiteType};

    fn sample() -> Beacon {
        Beacon {
            impression_id: 1,
            campaign_id: 2,
            event: EventKind::InView,
            timestamp_us: 3,
            ad_format: AdFormat::LargeDisplay,
            visible_fraction_milli: 333,
            exposure_ms: 1500,
            os: OsKind::Ios,
            browser: BrowserKind::IosWebView,
            site_type: SiteType::App,
            seq: 9,
        }
    }

    #[test]
    fn round_trip() {
        let s = encode(&sample()).unwrap();
        assert_eq!(decode(&s).unwrap(), sample());
    }

    #[test]
    fn json_is_self_describing() {
        let s = encode(&sample()).unwrap();
        assert!(s.contains("\"InView\""));
        assert!(s.contains("\"impression_id\":1"));
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(matches!(decode("{not json"), Err(WireError::Json(_))));
    }

    /// Nesting is capped, so a hostile line is an error and never
    /// overflows the decoding thread's stack.
    #[test]
    fn deep_nesting_is_an_error() {
        assert!(matches!(
            decode(&"[".repeat(100_000)),
            Err(WireError::Json(_))
        ));
    }

    #[test]
    fn out_of_range_fields_rejected_on_decode() {
        let mut s = encode(&sample()).unwrap();
        s = s.replace(
            "\"visible_fraction_milli\":333",
            "\"visible_fraction_milli\":5000",
        );
        assert_eq!(
            decode(&s).unwrap_err(),
            WireError::FieldRange("visible_fraction_milli")
        );
    }

    #[test]
    fn binary_and_json_agree() {
        let b = sample();
        let via_json = decode(&encode(&b).unwrap()).unwrap();
        let via_bin = crate::binary::decode(&crate::binary::encode_to_vec(&b).unwrap()).unwrap();
        assert_eq!(via_json, via_bin);
    }
}
