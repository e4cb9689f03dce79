//! Hostile-input properties for the WAL readers.
//!
//! A log file is untrusted bytes: media errors, a torn write, or a
//! hand-edited file can put anything in it. Whatever is there —
//! arbitrary noise, or valid frames with a flipped byte or a cut tail —
//! `record::decode_frame` returns a record or a [`RecordError`] and
//! `wal::replay` returns a header error or a torn-tail [`Replay`]
//! holding exactly the intact prefix. Neither panics, and a corrupted
//! beacon frame is never accepted as data.

use proptest::prelude::*;
use qtag_server::ServedImpression;
use qtag_store::record::{self, decode_frame, RecordError, WalRecord};
use qtag_store::wal::{replay, wal_path, Replay, WalWriter, WAL_HEADER_LEN};
use qtag_store::SyncPolicy;
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh scratch directory (process id + counter; no wall clock).
fn test_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "qtag-store-hostile-{}-{}-{tag}",
        std::process::id(),
        n
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

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

/// One record of any kind (beacons twice as likely: they dominate real
/// logs).
fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        arb_beacon().prop_map(WalRecord::Beacon),
        arb_beacon().prop_map(WalRecord::Beacon),
        arb_beacon().prop_map(|b| WalRecord::Served(ServedImpression {
            impression_id: b.impression_id,
            campaign_id: b.campaign_id,
            os: b.os,
            browser: b.browser,
            site_type: b.site_type,
            ad_format: b.ad_format,
        })),
        (any::<u64>(), any::<u16>())
            .prop_map(|(impression_id, seq)| WalRecord::Ack { impression_id, seq }),
    ]
}

/// Frames `records` and returns the bytes plus each frame's end offset
/// (relative to the first frame).
fn frame_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut framed = Vec::new();
    let mut ends = Vec::with_capacity(records.len());
    for rec in records {
        match rec {
            WalRecord::Served(s) => record::encode_served(s, &mut framed),
            WalRecord::Beacon(b) => record::encode_beacon(b, &mut framed),
            WalRecord::Ack { impression_id, seq } => {
                record::encode_ack(*impression_id, *seq, &mut framed)
            }
        }
        ends.push(framed.len());
    }
    (framed, ends)
}

/// Writes a real WAL holding `records`, lets `mutate` damage its bytes
/// on disk, and replays it.
fn replay_damaged(records: &[WalRecord], mutate: impl FnOnce(&mut Vec<u8>)) -> Replay {
    let dir = test_dir("replay");
    let mut w = WalWriter::open(&dir, 0, 0, None, SyncPolicy::NoSync).expect("open wal");
    let (framed, _) = frame_all(records);
    w.append(&framed, records.len()).expect("append");
    drop(w);
    let path = wal_path(&dir, 0);
    let mut bytes = std::fs::read(&path).expect("read wal");
    mutate(&mut bytes);
    std::fs::write(&path, &bytes).expect("write damaged wal");
    let r = replay(&path).expect("a valid header replays");
    assert_eq!(r.valid_len + r.discarded_bytes, bytes.len() as u64);
    std::fs::remove_dir_all(&dir).expect("remove test dir");
    r
}

proptest! {
    /// Arbitrary bytes: a record or an error, never a panic, and a
    /// record only ever consumes bytes that were there.
    #[test]
    fn decode_frame_never_panics_on_noise(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        if let Ok((_, consumed)) = decode_frame(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    /// Noise behind a plausible header with a matching CRC reaches the
    /// payload decoder, which must refuse it cleanly (or decode a
    /// record that re-encodes to exactly those bytes).
    #[test]
    fn checksummed_noise_is_refused_or_decoded_exactly(
        payload in prop::collection::vec(any::<u8>(), 1..64),
        kind in 0u8..=4,
    ) {
        let mut payload = payload;
        payload[0] = kind;
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&qtag_store::crc32(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        match decode_frame(&frame) {
            Ok((rec, consumed)) => {
                prop_assert_eq!(consumed, frame.len());
                let (again, _) = frame_all(&[rec]);
                prop_assert_eq!(again, frame);
            }
            Err(e) => prop_assert!(matches!(
                e,
                RecordError::BadKind(_) | RecordError::BadPayload
            )),
        }
    }

    /// The WAL twin of `wire_props::single_byte_corruption_detected`:
    /// any single-byte flip anywhere in a beacon frame — length, CRC,
    /// kind, or the 38 beacon bytes — is rejected.
    #[test]
    fn any_single_byte_flip_in_a_beacon_frame_is_rejected(
        b in arb_beacon(),
        pos in 0usize..record::FRAME_HEADER_LEN + 39,
        flip in 1u8..=255,
    ) {
        let mut frame = Vec::new();
        record::encode_beacon(&b, &mut frame);
        prop_assert_eq!(frame.len(), record::FRAME_HEADER_LEN + 39);
        prop_assert_eq!(decode_frame(&frame).map(|(r, _)| r), Ok(WalRecord::Beacon(b)));
        frame[pos] ^= flip;
        prop_assert!(decode_frame(&frame).is_err(), "flip at {} accepted", pos);
    }

    /// A byte flipped anywhere in the record area: replay keeps exactly
    /// the frames before the damaged one and reports the tail torn.
    #[test]
    fn flipped_log_replays_exactly_the_intact_prefix(
        records in prop::collection::vec(arb_record(), 1..8),
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let (framed, ends) = frame_all(&records);
        let pos = at as usize % framed.len();
        let r = replay_damaged(&records, |bytes| bytes[WAL_HEADER_LEN + pos] ^= flip);
        let intact = ends.iter().take_while(|&&end| end <= pos).count();
        prop_assert_eq!(&r.records[..], &records[..intact]);
        prop_assert!(r.torn.is_some());
        let kept = if intact == 0 { 0 } else { ends[intact - 1] };
        prop_assert_eq!(r.valid_len, (WAL_HEADER_LEN + kept) as u64);
    }

    /// A log cut at any byte: replay keeps every whole frame and calls
    /// the tail torn exactly when the cut is not a frame boundary.
    #[test]
    fn truncated_log_replays_every_whole_frame(
        records in prop::collection::vec(arb_record(), 1..8),
        at in any::<u32>(),
    ) {
        let (framed, ends) = frame_all(&records);
        let cut = at as usize % (framed.len() + 1);
        let r = replay_damaged(&records, |bytes| bytes.truncate(WAL_HEADER_LEN + cut));
        let whole = ends.iter().take_while(|&&end| end <= cut).count();
        prop_assert_eq!(&r.records[..], &records[..whole]);
        let on_boundary = cut == 0 || ends.contains(&cut);
        prop_assert_eq!(r.torn.is_some(), !on_boundary);
    }

    /// Arbitrary bytes behind a valid header, and arbitrary bytes as
    /// the whole file: replay returns a torn-tail `Replay` or (for a
    /// bad header) `InvalidData`, never a panic.
    #[test]
    fn replay_never_panics_on_noise(
        noise in prop::collection::vec(any::<u8>(), 0..256),
        keep_header in any::<bool>(),
    ) {
        let dir = test_dir("noise");
        let path = wal_path(&dir, 0);
        if keep_header {
            drop(WalWriter::open(&dir, 0, 0, None, SyncPolicy::NoSync).expect("open wal"));
            let mut bytes = std::fs::read(&path).expect("read wal");
            bytes.extend_from_slice(&noise);
            std::fs::write(&path, &bytes).expect("write wal");
        } else {
            std::fs::write(&path, &noise).expect("write wal");
        }
        match replay(&path) {
            Ok(r) => {
                let len = std::fs::metadata(&path).expect("stat wal").len();
                prop_assert_eq!(r.valid_len + r.discarded_bytes, len);
                prop_assert_eq!(r.torn.is_some(), r.discarded_bytes > 0);
            }
            Err(e) => {
                prop_assert!(!keep_header);
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
        }
        std::fs::remove_dir_all(&dir).expect("remove test dir");
    }
}
