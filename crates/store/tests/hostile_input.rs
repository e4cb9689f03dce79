//! Hostile-input properties for the WAL and snapshot readers.
//!
//! A log file is untrusted bytes: media errors, a torn write, or a
//! hand-edited file can put anything in it. Whatever is there —
//! arbitrary noise, or valid frames with a flipped byte or a cut tail —
//! `record::decode_frame` returns a record or a [`RecordError`] and
//! `wal::replay` returns a header error or a torn-tail [`Replay`]
//! holding exactly the intact prefix. Neither panics, and a corrupted
//! beacon frame is never accepted as data.
//!
//! A snapshot file is untrusted the same way. Whatever a damaged
//! `shard-000.snap` holds, `read_snapshot` returns a snapshot or an
//! `InvalidData` error, never panics and never allocates by a length
//! field the body cannot back. It refuses a rollup width other than
//! one hour, rollup buckets out of ascending order and a non-zero
//! reserved cohort count. `DurableBackend::open` refuses every
//! snapshot `read_snapshot` refuses, plus one that decodes but holds a
//! record for an impression it does not register.

use proptest::prelude::*;
use qtag_server::{SeqSeen, ServedImpression};
use qtag_store::record::{self, decode_frame, RecordError, WalRecord};
use qtag_store::snapshot::snapshot_path;
use qtag_store::wal::{replay, wal_path, Replay, WalWriter, WAL_HEADER_LEN};
use qtag_store::{
    crc32, read_snapshot, DurableBackend, DurableConfig, ShardSnapshot, StorageBackend, SyncPolicy,
};
use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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

/// Snapshot header length: magic, version, shard, epoch.
const SNAP_HEADER_LEN: usize = 16;

/// One hour in microseconds: the only rollup width a snapshot may
/// carry.
const HOUR_US: u64 = 3_600_000_000;

/// A store directory written by a `shards`-shard durable store fed
/// served impressions, measured and viewed beacons, a duplicate and an
/// orphan, then compacted and closed.
fn compacted_dir(tag: &str, shards: usize) -> PathBuf {
    let dir = test_dir(tag);
    let (backend, _) = DurableBackend::open(DurableConfig {
        dir: dir.clone(),
        shards,
        sync: SyncPolicy::NoSync,
    })
    .expect("open fresh backend");
    for id in 1..=4u64 {
        backend.record_served(ServedImpression {
            impression_id: id,
            campaign_id: 7,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::App,
            ad_format: AdFormat::Display,
        });
    }
    let beacon = |id: u64, event: EventKind, seq: u16| Beacon {
        impression_id: id,
        campaign_id: 7,
        event,
        timestamp_us: u64::from(seq) * HOUR_US + id,
        ad_format: AdFormat::Display,
        visible_fraction_milli: 500 + 100 * seq,
        exposure_ms: 1_000 * u32::from(seq + 1),
        os: OsKind::Android,
        browser: BrowserKind::Chrome,
        site_type: SiteType::App,
        seq,
    };
    for id in 1..=3u64 {
        backend.apply(&beacon(id, EventKind::Measurable, 0));
        backend.apply(&beacon(id, EventKind::InView, id as u16));
    }
    backend.apply(&beacon(2, EventKind::InView, 2)); // duplicate
    backend.apply(&beacon(99, EventKind::Measurable, 0)); // orphan
    backend.compact().expect("compact");
    drop(backend);
    dir
}

/// A valid `shard-000.snap` of a one-shard durable store (see
/// [`compacted_dir`]): every length field in the body is non-trivial.
/// Built once.
fn valid_snapshot() -> &'static [u8] {
    static SNAP: OnceLock<Vec<u8>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let dir = compacted_dir("snap-base", 1);
        let bytes = std::fs::read(snapshot_path(&dir, 0)).expect("read snapshot");
        std::fs::remove_dir_all(&dir).expect("remove test dir");
        bytes
    })
}

/// The body of a snapshot file (between header and trailing CRC).
fn body(file: &[u8]) -> &[u8] {
    &file[SNAP_HEADER_LEN..file.len() - 4]
}

/// A snapshot file with the base header, `body`, and `body`'s CRC —
/// so a damaged body gets past the checksum and into the decoder.
fn with_body(body: &[u8]) -> Vec<u8> {
    let mut file = valid_snapshot()[..SNAP_HEADER_LEN].to_vec();
    file.extend_from_slice(body);
    file.extend_from_slice(&crc32(body).to_be_bytes());
    file
}

/// Writes `file` as shard 0's snapshot in a fresh directory and loads
/// it. A refusal must be `InvalidData`, and `DurableBackend::open` over
/// the same directory must refuse it too.
fn load_snapshot(file: &[u8]) -> io::Result<ShardSnapshot> {
    let dir = test_dir("snap");
    std::fs::write(snapshot_path(&dir, 0), file).expect("write snapshot");
    let read = read_snapshot(&dir, 0).map(|snap| snap.expect("snapshot file exists"));
    if let Err(e) = &read {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        let opened = DurableBackend::open(DurableConfig {
            dir: dir.clone(),
            shards: 1,
            sync: SyncPolicy::NoSync,
        });
        assert!(
            opened.is_err(),
            "open accepted a snapshot that read_snapshot refused: {e}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove test dir");
    read
}

/// Every length field of `snap`'s encoded body: its body offset and
/// the fewest body bytes one counted item takes, walked in the order
/// the format lays them out (see `crates/store/src/snapshot.rs`).
fn length_fields(snap: &ShardSnapshot) -> Vec<(usize, usize)> {
    let mut fields = Vec::new();
    let mut off = 3 * 8; // orphan, unique, duplicate counters
    fields.push((off, 16));
    off += 4 + 16 * snap.served.len();
    fields.push((off, 22));
    off += 4;
    for (_, rec) in &snap.records {
        off += 8 + 1 + 4 + 8 + 2 + 2 + 4 + 8 + 1; // id, flags … first_measured, seen kind
        match &rec.seen {
            SeqSeen::Sparse(seqs) => {
                fields.push((off, 2));
                off += 4 + 2 * seqs.len();
            }
            SeqSeen::Dense(_) => off += 8 * 1024,
        }
    }
    off += 8; // bucket width
    fields.push((off, 32));
    off += 4 + 32 * snap.hourly.buckets.len();
    off += 2 * 4; // two reserved cohort counts, always zero
    for (_, _, pairs) in [&snap.exposure, &snap.fraction] {
        off += 16; // count, sum
        fields.push((off, 12));
        off += 4 + 12 * pairs.len();
    }
    fields
}

#[test]
fn valid_snapshot_loads_and_its_length_fields_are_where_the_walk_says() {
    let snap = load_snapshot(valid_snapshot()).expect("the base snapshot loads");
    assert_eq!(snap.served.len(), 4);
    assert_eq!(snap.records.len(), 3);
    assert!(snap.orphan_beacons > 0 && snap.total_duplicates > 0);
    assert!(!snap.hourly.buckets.is_empty() && !snap.exposure.2.is_empty());
    let body = body(valid_snapshot());
    let fields = length_fields(&snap);
    assert_eq!(fields.len(), 2 + 3 + 1 + 2);
    // Each walked offset holds the count the decoder read there.
    let at = |off: usize| u32::from_be_bytes(body[off..off + 4].try_into().unwrap()) as usize;
    assert_eq!(at(fields[0].0), snap.served.len());
    assert_eq!(at(fields[1].0), snap.records.len());
    assert_eq!(at(fields[fields.len() - 1].0), snap.fraction.2.len());
    assert_eq!(at(bucket_count_offset(&snap)), snap.hourly.buckets.len());
    let width = width_offset(&snap);
    assert_eq!(body[width..width + 8], HOUR_US.to_be_bytes());
    for off in reserved_offsets(&snap) {
        assert_eq!(at(off), 0, "reserved cohort count at {off}");
    }
}

/// Body offset of the hourly timeline's bucket count: the third length
/// field from the end (before the two histograms').
fn bucket_count_offset(snap: &ShardSnapshot) -> usize {
    let fields = length_fields(snap);
    fields[fields.len() - 3].0
}

/// Body offset of the hourly timeline's bucket width (the word before
/// its bucket count).
fn width_offset(snap: &ShardSnapshot) -> usize {
    bucket_count_offset(snap) - 8
}

/// Body offsets of the two reserved cohort counts after the buckets.
fn reserved_offsets(snap: &ShardSnapshot) -> [usize; 2] {
    let first = bucket_count_offset(snap) + 4 + 32 * snap.hourly.buckets.len();
    [first, first + 4]
}

/// Every file in `dir` with its bytes, by name.
fn dir_contents(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("list test dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (e.file_name(), std::fs::read(e.path()).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

/// A non-zero reserved cohort count (the slot once sized a
/// per-impression list no writer filled) is refused.
#[test]
fn snapshot_reserved_cohort_counts_must_be_zero() {
    let snap = load_snapshot(valid_snapshot()).expect("the base snapshot loads");
    let base = body(valid_snapshot());
    for off in reserved_offsets(&snap) {
        for n in [1u32, u32::MAX] {
            let mut damaged = base.to_vec();
            damaged[off..off + 4].copy_from_slice(&n.to_be_bytes());
            let err = load_snapshot(&with_body(&damaged)).expect_err("non-zero reserved count");
            assert!(err.to_string().contains("reserved"), "offset {off}: {err}");
        }
    }
}

/// A bucket index that repeats or goes backwards is refused: loaded,
/// the later entry would silently replace the earlier one's counts.
#[test]
fn snapshot_rollup_buckets_out_of_order_are_refused() {
    let snap = load_snapshot(valid_snapshot()).expect("the base snapshot loads");
    assert!(snap.hourly.buckets.len() >= 3);
    let base = body(valid_snapshot());
    let entry = |i: usize| bucket_count_offset(&snap) + 4 + 32 * i;
    // The second entry repeats the first; the third goes back to it.
    for at in [entry(1), entry(2)] {
        let mut damaged = base.to_vec();
        damaged[at..at + 8].copy_from_slice(&snap.hourly.buckets[0].0.to_be_bytes());
        let err = load_snapshot(&with_body(&damaged)).expect_err("bucket order broken");
        assert!(err.to_string().contains("ascending"), "offset {at}: {err}");
    }
}

/// A rollup width other than one hour — one too wide for the daily
/// `coarsen(24)` to multiply, or one that differs from the sibling
/// shard's and so cannot merge — is refused at `open` with
/// `InvalidData`, and the directory is left as it was found.
#[test]
fn snapshot_rollup_width_other_than_one_hour_is_refused() {
    for shards in [1, 2] {
        for width in [1u64 << 61, 2 * HOUR_US, HOUR_US - 1] {
            let dir = compacted_dir("snap-width", shards);
            let shard = shards - 1;
            let snap = read_snapshot(&dir, shard)
                .expect("the compacted snapshot loads")
                .expect("compaction wrote it");
            let path = snapshot_path(&dir, shard);
            let mut file = std::fs::read(&path).expect("read snapshot");
            let body_end = file.len() - 4;
            let at = SNAP_HEADER_LEN + width_offset(&snap);
            file[at..at + 8].copy_from_slice(&width.to_be_bytes());
            let crc = crc32(&file[SNAP_HEADER_LEN..body_end]);
            file[body_end..].copy_from_slice(&crc.to_be_bytes());
            std::fs::write(&path, &file).expect("write snapshot");

            let before = dir_contents(&dir);
            let err = DurableBackend::open(DurableConfig {
                dir: dir.clone(),
                shards,
                sync: SyncPolicy::NoSync,
            })
            .expect_err("a width other than one hour is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("one hour"), "{err}");
            assert_eq!(dir_contents(&dir), before, "{shards} shards, width {width}");
            std::fs::remove_dir_all(&dir).expect("remove test dir");
        }
    }
}

/// A length field set to `u32::MAX`, or to one item more than the rest
/// of the body could hold, is refused before anything is allocated by
/// it.
#[test]
fn snapshot_length_fields_past_the_end_are_refused() {
    let snap = load_snapshot(valid_snapshot()).expect("the base snapshot loads");
    let base = body(valid_snapshot());
    for (off, min_item) in length_fields(&snap) {
        let past_end = (base.len() - off - 4) / min_item + 1;
        for n in [u32::MAX, past_end as u32] {
            let mut damaged = base.to_vec();
            damaged[off..off + 4].copy_from_slice(&n.to_be_bytes());
            let err = load_snapshot(&with_body(&damaged)).expect_err("length past the end");
            assert!(
                err.to_string().contains("length exceeds body"),
                "offset {off}, n {n}: {err}"
            );
        }
    }
}

proptest! {
    /// One flipped byte anywhere in the file: only the epoch is outside
    /// the checksum, so a flip there loads and every other is refused.
    #[test]
    fn snapshot_byte_flip_is_refused_unless_in_the_epoch(
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut file = valid_snapshot().to_vec();
        let pos = at as usize % file.len();
        file[pos] ^= flip;
        let loaded = load_snapshot(&file);
        prop_assert_eq!(loaded.is_ok(), (8..SNAP_HEADER_LEN).contains(&pos), "flip at {}", pos);
    }

    /// One flipped byte in the body with the checksum recomputed: the
    /// decoder itself sees the damage and returns a snapshot or
    /// `InvalidData`.
    #[test]
    fn checksummed_snapshot_body_flip_is_loaded_or_refused(
        at in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut damaged = body(valid_snapshot()).to_vec();
        let pos = at as usize % damaged.len();
        damaged[pos] ^= flip;
        let _ = load_snapshot(&with_body(&damaged));
    }

    /// A file cut short anywhere, and a body cut short with its
    /// checksum recomputed, are both refused.
    #[test]
    fn truncated_snapshot_is_refused(at in any::<u32>()) {
        let file = valid_snapshot();
        let cut = at as usize % file.len();
        prop_assert!(load_snapshot(&file[..cut]).is_err(), "file cut at {}", cut);
        let base = body(file);
        let cut = at as usize % base.len();
        prop_assert!(load_snapshot(&with_body(&base[..cut])).is_err(), "body cut at {}", cut);
    }

    /// `u32::MAX`, or a count one past the end of the body, written over
    /// any four body bytes (length field or not), checksum recomputed:
    /// a snapshot or `InvalidData`, never a panic or an allocation bomb.
    #[test]
    fn any_body_word_set_huge_is_loaded_or_refused(at in any::<u32>(), max in any::<bool>()) {
        let mut damaged = body(valid_snapshot()).to_vec();
        let off = at as usize % (damaged.len() - 3);
        let n = if max { u32::MAX } else { (damaged.len() - off - 4 + 1) as u32 };
        damaged[off..off + 4].copy_from_slice(&n.to_be_bytes());
        let _ = load_snapshot(&with_body(&damaged));
    }
}

/// A snapshot record for an impression the snapshot never registers:
/// the body decodes, but the store keeps a record only beside its
/// served row, so `open` refuses the directory with `InvalidData` and
/// leaves it as it found it.
#[test]
fn snapshot_record_for_an_unregistered_impression_is_refused() {
    let base = body(valid_snapshot());
    let snap = load_snapshot(valid_snapshot()).expect("the base snapshot loads");
    let first_record_id = length_fields(&snap)[1].0 + 4;
    let registered = u64::from_be_bytes(
        base[first_record_id..first_record_id + 8]
            .try_into()
            .unwrap(),
    );
    assert!(snap.served.iter().any(|s| s.impression_id == registered));
    let stranger = 0x0BAD_0000_0000_0001u64;
    assert!(snap.served.iter().all(|s| s.impression_id != stranger));
    let mut damaged = base.to_vec();
    damaged[first_record_id..first_record_id + 8].copy_from_slice(&stranger.to_be_bytes());
    let file = with_body(&damaged);
    let decoded = load_snapshot(&file).expect("the body still decodes");
    assert_eq!(decoded.records[0].0, stranger);

    let dir = test_dir("snap-stranger");
    std::fs::write(snapshot_path(&dir, 0), &file).expect("write snapshot");
    let err = DurableBackend::open(DurableConfig {
        dir: dir.clone(),
        shards: 1,
        sync: SyncPolicy::NoSync,
    })
    .expect_err("a record without a served row is refused");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("unregistered"), "{err}");
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .expect("list test dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    left.sort();
    assert_eq!(left, vec![std::ffi::OsString::from("shard-000.snap")]);
    assert_eq!(
        std::fs::read(snapshot_path(&dir, 0)).expect("read snapshot"),
        file
    );
    std::fs::remove_dir_all(&dir).expect("remove test dir");
}
