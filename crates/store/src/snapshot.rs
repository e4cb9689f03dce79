//! Shard snapshots: the compaction artifact that lets the WAL be
//! truncated.
//!
//! A snapshot is the *complete* durable state of one shard — store
//! records (including the `SeqSeen` dedup trackers, bit for bit),
//! store counters, and the rollup aggregates — stamped with the epoch
//! its successor WAL will carry. File layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QTSS"
//! 4       2     format version (big-endian u16, currently 1)
//! 6       2     shard index (big-endian u16)
//! 8       8     epoch (big-endian u64)
//! 16      n     body (counters, served log, records, rollups)
//! 16+n    4     CRC-32/IEEE over the body (big-endian u32)
//! ```
//!
//! The body ends with the rollups: the hourly timeline's bucket width
//! (one hour; any other width is refused), its `(bucket, beacons,
//! measured, viewed)` counters in strictly ascending bucket order (a
//! repeated or out-of-order index is refused), two reserved `u32`
//! counts that are
//! always zero (they once sized per-impression cohort lists, which
//! every writer left empty; a non-zero count is refused), and the two
//! sparse histograms.
//!
//! Snapshots are written to a temp file, fsynced, then atomically
//! renamed over `shard-NNN.snap` — a reader sees the old snapshot or
//! the new one, never a torn hybrid; the trailing CRC guards against
//! media corruption. A snapshot that fails validation is a hard
//! recovery error (unlike a torn WAL tail there is no safe prefix to
//! salvage — better to stop than to silently drop a shard's history).

use qtag_server::{
    BucketStats, ImpressionRecord, SeqSeen, ServedImpression, Timeline, TimelineState,
};
use qtag_wire::crc::crc32;
use qtag_wire::{AdFormat, BrowserKind, OsKind, SiteType};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Snapshot file magic: ASCII `QTSS`.
pub const SNAP_MAGIC: [u8; 4] = *b"QTSS";
/// Current snapshot format version.
pub const SNAP_VERSION: u16 = 1;

/// File name of shard `idx`'s snapshot inside the store directory.
pub fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.snap"))
}

/// Sparse histogram persistence form: `(count, sum, nonzero buckets)`.
pub type SparseHist = (u64, u64, Vec<(u32, u64)>);

/// The complete durable state of one shard at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Epoch the successor WAL carries.
    pub epoch: u64,
    /// Store counter: beacons for unknown impressions.
    pub orphan_beacons: u64,
    /// Store counter: unique beacons applied.
    pub unique_beacons: u64,
    /// Store counter: duplicates discarded.
    pub total_duplicates: u64,
    /// Served log, ascending by impression id.
    pub served: Vec<ServedImpression>,
    /// Measurement records, ascending by impression id.
    pub records: Vec<(u64, ImpressionRecord)>,
    /// Hourly rollup timeline (the daily timeline is derived from it
    /// on read, so it is not persisted).
    pub hourly: TimelineState,
    /// Exposure-duration rollup histogram (ms).
    pub exposure: SparseHist,
    /// Visible-fraction rollup histogram (‰).
    pub fraction: SparseHist,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_seen(out: &mut Vec<u8>, seen: &SeqSeen) {
    match seen {
        SeqSeen::Sparse(v) => {
            out.push(0);
            put_u32(out, v.len() as u32);
            for s in v {
                put_u16(out, *s);
            }
        }
        SeqSeen::Dense(bits) => {
            out.push(1);
            for w in bits.iter() {
                put_u64(out, *w);
            }
        }
    }
}

fn put_record(out: &mut Vec<u8>, rec: &ImpressionRecord) {
    let flags = u8::from(rec.tag_loaded)
        | u8::from(rec.measurable) << 1
        | u8::from(rec.in_view) << 2
        | u8::from(rec.out_of_view) << 3
        | u8::from(rec.clicked) << 4;
    out.push(flags);
    put_u32(out, rec.beacons);
    put_u64(out, rec.duplicates);
    put_u16(out, rec.max_seq);
    put_u16(out, rec.last_fraction_milli);
    put_u32(out, rec.best_exposure_ms);
    put_u64(out, rec.first_measured_us);
    put_seen(out, &rec.seen);
}

fn put_timeline(out: &mut Vec<u8>, t: &TimelineState) {
    put_u64(out, t.bucket_us);
    put_u32(out, t.buckets.len() as u32);
    for (bucket, s) in &t.buckets {
        put_u64(out, *bucket);
        put_u64(out, s.beacons);
        put_u64(out, s.measured);
        put_u64(out, s.viewed);
    }
    // The two reserved cohort counts.
    put_u32(out, 0);
    put_u32(out, 0);
}

fn put_hist(out: &mut Vec<u8>, (count, sum, pairs): &SparseHist) {
    put_u64(out, *count);
    put_u64(out, *sum);
    put_u32(out, pairs.len() as u32);
    for (i, n) in pairs {
        put_u32(out, *i);
        put_u64(out, *n);
    }
}

fn encode_body(s: &ShardSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + s.served.len() * 16 + s.records.len() * 32);
    put_u64(&mut out, s.orphan_beacons);
    put_u64(&mut out, s.unique_beacons);
    put_u64(&mut out, s.total_duplicates);
    put_u32(&mut out, s.served.len() as u32);
    for sv in &s.served {
        put_u64(&mut out, sv.impression_id);
        put_u32(&mut out, sv.campaign_id);
        out.push(sv.os.code());
        out.push(sv.browser.code());
        out.push(sv.site_type.code());
        out.push(sv.ad_format.code());
    }
    put_u32(&mut out, s.records.len() as u32);
    for (id, rec) in &s.records {
        put_u64(&mut out, *id);
        put_record(&mut out, rec);
    }
    put_timeline(&mut out, &s.hourly);
    put_hist(&mut out, &s.exposure);
    put_hist(&mut out, &s.fraction);
    out
}

/// Strict cursor over the snapshot body; every read is bounds-checked
/// so a corrupt length field errors instead of panicking.
struct Cursor<'a> {
    data: &'a [u8],
    off: usize,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("corrupt snapshot: {what}"),
    )
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.off.checked_add(n).ok_or_else(|| corrupt("overflow"))?;
        if end > self.data.len() {
            return Err(corrupt("short body"));
        }
        let s = &self.data[self.off..end];
        self.off = end;
        Ok(s)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A length prefix that must be satisfiable by the remaining bytes
    /// at `min_item` bytes per item (rejects allocation-bomb lengths).
    fn len(&mut self, min_item: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item.max(1)) > self.data.len() - self.off {
            return Err(corrupt("length exceeds body"));
        }
        Ok(n)
    }
}

fn get_seen(c: &mut Cursor) -> io::Result<SeqSeen> {
    match c.u8()? {
        0 => {
            let n = c.len(2)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(c.u16()?);
            }
            Ok(SeqSeen::Sparse(v.into()))
        }
        1 => {
            let mut bits = Box::new([0u64; 1024]);
            for w in bits.iter_mut() {
                *w = c.u64()?;
            }
            Ok(SeqSeen::Dense(bits))
        }
        _ => Err(corrupt("seq tracker kind")),
    }
}

fn get_record(c: &mut Cursor) -> io::Result<ImpressionRecord> {
    let flags = c.u8()?;
    Ok(ImpressionRecord {
        tag_loaded: flags & 1 != 0,
        measurable: flags & 2 != 0,
        in_view: flags & 4 != 0,
        out_of_view: flags & 8 != 0,
        clicked: flags & 16 != 0,
        beacons: c.u32()?,
        duplicates: c.u64()?,
        max_seq: c.u16()?,
        last_fraction_milli: c.u16()?,
        best_exposure_ms: c.u32()?,
        first_measured_us: c.u64()?,
        seen: get_seen(c)?,
    })
}

fn get_timeline(c: &mut Cursor) -> io::Result<TimelineState> {
    let bucket_us = c.u64()?;
    if bucket_us != Timeline::HOUR_US {
        return Err(corrupt("timeline bucket width is not one hour"));
    }
    let n = c.len(32)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        let bucket = c.u64()?;
        if buckets.last().is_some_and(|(prev, _)| *prev >= bucket) {
            return Err(corrupt("timeline buckets not in ascending order"));
        }
        buckets.push((
            bucket,
            BucketStats {
                beacons: c.u64()?,
                measured: c.u64()?,
                viewed: c.u64()?,
            },
        ));
    }
    for _ in 0..2 {
        if c.u32()? != 0 {
            return Err(corrupt("non-zero reserved cohort count"));
        }
    }
    Ok(TimelineState { bucket_us, buckets })
}

fn get_hist(c: &mut Cursor) -> io::Result<SparseHist> {
    let count = c.u64()?;
    let sum = c.u64()?;
    let n = c.len(12)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        pairs.push((c.u32()?, c.u64()?));
    }
    Ok((count, sum, pairs))
}

fn decode_body(body: &[u8], epoch: u64) -> io::Result<ShardSnapshot> {
    let mut c = Cursor { data: body, off: 0 };
    let orphan_beacons = c.u64()?;
    let unique_beacons = c.u64()?;
    let total_duplicates = c.u64()?;
    let n = c.len(16)?;
    let mut served = Vec::with_capacity(n);
    for _ in 0..n {
        let impression_id = c.u64()?;
        let campaign_id = c.u32()?;
        let os = OsKind::from_code(c.u8()?).map_err(|_| corrupt("os code"))?;
        let browser = BrowserKind::from_code(c.u8()?).map_err(|_| corrupt("browser code"))?;
        let site_type = SiteType::from_code(c.u8()?).map_err(|_| corrupt("site code"))?;
        let ad_format = AdFormat::from_code(c.u8()?).map_err(|_| corrupt("format code"))?;
        served.push(ServedImpression {
            impression_id,
            campaign_id,
            os,
            browser,
            site_type,
            ad_format,
        });
    }
    let n = c.len(22)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let id = c.u64()?;
        records.push((id, get_record(&mut c)?));
    }
    let hourly = get_timeline(&mut c)?;
    let exposure = get_hist(&mut c)?;
    let fraction = get_hist(&mut c)?;
    if c.off != body.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(ShardSnapshot {
        epoch,
        orphan_beacons,
        unique_beacons,
        total_duplicates,
        served,
        records,
        hourly,
        exposure,
        fraction,
    })
}

/// Writes shard `shard`'s snapshot durably: temp file, fsync, atomic
/// rename over `shard-NNN.snap`.
pub fn write_snapshot(dir: &Path, shard: usize, snap: &ShardSnapshot) -> io::Result<()> {
    let body = encode_body(snap);
    let mut bytes = Vec::with_capacity(16 + body.len() + 4);
    bytes.extend_from_slice(&SNAP_MAGIC);
    bytes.extend_from_slice(&SNAP_VERSION.to_be_bytes());
    bytes.extend_from_slice(&(shard as u16).to_be_bytes());
    bytes.extend_from_slice(&snap.epoch.to_be_bytes());
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&crc32(&body).to_be_bytes());

    let path = snapshot_path(dir, shard);
    let tmp = path.with_extension("snap.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_data()?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Reads shard `shard`'s snapshot. `Ok(None)` when no snapshot exists
/// (first boot or never compacted); validation failures are hard
/// errors.
pub fn read_snapshot(dir: &Path, shard: usize) -> io::Result<Option<ShardSnapshot>> {
    let path = snapshot_path(dir, shard);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < 20 || bytes[0..4] != SNAP_MAGIC {
        return Err(corrupt("bad magic or short file"));
    }
    if u16::from_be_bytes(bytes[4..6].try_into().unwrap()) != SNAP_VERSION {
        return Err(corrupt("unsupported version"));
    }
    let stamped = u16::from_be_bytes(bytes[6..8].try_into().unwrap());
    if stamped != shard as u16 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: snapshot header names shard {stamped}", path.display()),
        ));
    }
    let epoch = u64::from_be_bytes(bytes[8..16].try_into().unwrap());
    let body = &bytes[16..bytes.len() - 4];
    let stated = u32::from_be_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != stated {
        return Err(corrupt("body checksum mismatch"));
    }
    decode_body(body, epoch).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;
    use proptest::prelude::*;
    use qtag_server::ImpressionStore;
    use std::collections::BTreeSet;

    fn sample() -> ShardSnapshot {
        let mut dense = SeqSeen::default();
        for s in 0..200u16 {
            dense.insert(s * 3);
        }
        assert!(matches!(dense, SeqSeen::Dense(_)));
        let mut hourly = Timeline::hourly();
        let b = qtag_wire::Beacon {
            impression_id: 11,
            campaign_id: 2,
            event: qtag_wire::EventKind::InView,
            timestamp_us: 123,
            ad_format: AdFormat::Display,
            visible_fraction_milli: 700,
            exposure_ms: 900,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq: 0,
        };
        let served = ServedImpression {
            impression_id: 11,
            campaign_id: 2,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            ad_format: AdFormat::Display,
        };
        let mut store = ImpressionStore::new();
        store.record_served(served.clone());
        hourly.record_outcome(&b, &store.apply(&b));
        ShardSnapshot {
            epoch: 3,
            orphan_beacons: 1,
            unique_beacons: 201,
            total_duplicates: 7,
            served: vec![served],
            records: vec![(
                11,
                ImpressionRecord {
                    tag_loaded: true,
                    measurable: true,
                    in_view: true,
                    out_of_view: false,
                    clicked: true,
                    beacons: 201,
                    duplicates: 7,
                    max_seq: 597,
                    last_fraction_milli: 700,
                    best_exposure_ms: 900,
                    first_measured_us: 123,
                    seen: dense,
                },
            )],
            hourly: hourly.export_state(),
            exposure: (1, 900, vec![(100, 1)]),
            fraction: (1, 700, vec![(90, 1)]),
        }
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let dir = test_dir("snap_round_trip");
        let snap = sample();
        write_snapshot(&dir, 5, &snap).unwrap();
        let back = read_snapshot(&dir, 5).unwrap().unwrap();
        assert_eq!(back, snap);
        // Absent shard reads as None, not an error.
        assert!(read_snapshot(&dir, 6).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error_not_a_panic() {
        let dir = test_dir("snap_corrupt");
        write_snapshot(&dir, 0, &sample()).unwrap();
        let path = snapshot_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A truncated file (torn at the filesystem level, which the
        // rename protocol rules out but media errors do not) also
        // errors cleanly.
        let good = {
            write_snapshot(&dir, 0, &sample()).unwrap();
            std::fs::read(&path).unwrap()
        };
        std::fs::write(&path, &good[..good.len() / 3]).unwrap();
        assert!(read_snapshot(&dir, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The bytes a record's tracker must encode to, built from the
    /// model set alone: the sorted list (kind 0) while the tracker may
    /// still be sparse, the bitmap (kind 1) once it holds more than
    /// [`SeqSeen::PROMOTE_AT`] seqs.
    fn reference_seen(model: &BTreeSet<u16>) -> Vec<u8> {
        let mut out = Vec::new();
        if model.len() <= SeqSeen::PROMOTE_AT {
            out.push(0);
            out.extend_from_slice(&(model.len() as u32).to_be_bytes());
            for s in model {
                out.extend_from_slice(&s.to_be_bytes());
            }
        } else {
            let mut bits = [0u64; 1024];
            for &s in model {
                bits[usize::from(s) / 64] |= 1 << (s % 64);
            }
            out.push(1);
            for w in bits {
                out.extend_from_slice(&w.to_be_bytes());
            }
        }
        out
    }

    proptest! {
        /// Insert streams of up to 60 seqs, about one in eight a repeat
        /// and half of them 56 or longer, cross both of the tracker's
        /// boundaries: inline → heap at the 8th distinct seq (230 of the
        /// 256 cases) and sparse → dense at the 49th (118 of them). At
        /// every step the tracker agrees with a set, and a record holding
        /// it encodes to the reference bytes and decodes back to itself.
        #[test]
        fn seq_tracker_matches_a_set_across_its_boundaries(
            steps in prop_oneof![
                prop::collection::vec((0u8..8, any::<u16>(), any::<u32>()), 0..=60usize),
                prop::collection::vec((0u8..8, any::<u16>(), any::<u32>()), 56..=60usize),
            ]
        ) {
            const FIXED: usize = 1 + 4 + 8 + 2 + 2 + 4 + 8; // flags … first_measured
            let mut rec = ImpressionRecord::default();
            let mut model = BTreeSet::new();
            let mut history = Vec::new();
            for (kind, fresh, pick) in steps {
                let seq = match kind {
                    0 if !history.is_empty() => history[pick as usize % history.len()],
                    _ => fresh,
                };
                history.push(seq);
                prop_assert_eq!(rec.seen.insert(seq), model.insert(seq), "insert {}", seq);
                prop_assert_eq!(rec.seen.len(), model.len());
                prop_assert_eq!(rec.seen.is_empty(), model.is_empty());
                for &probe in &history {
                    prop_assert!(rec.seen.contains(probe));
                }
                for probe in [0, 1, seq.wrapping_add(1), seq.wrapping_sub(1), u16::MAX] {
                    prop_assert_eq!(rec.seen.contains(probe), model.contains(&probe));
                }
                prop_assert_eq!(
                    matches!(rec.seen, SeqSeen::Dense(_)),
                    model.len() > SeqSeen::PROMOTE_AT
                );

                let mut bytes = Vec::new();
                put_record(&mut bytes, &rec);
                prop_assert_eq!(&bytes[FIXED..], &reference_seen(&model)[..]);
                let back = get_record(&mut Cursor { data: &bytes, off: 0 }).unwrap();
                prop_assert_eq!(&back, &rec);
                let mut again = Vec::new();
                put_record(&mut again, &back);
                prop_assert_eq!(again, bytes);
            }
        }
    }

    #[test]
    fn overwrite_replaces_previous_snapshot() {
        let dir = test_dir("snap_overwrite");
        let mut snap = sample();
        write_snapshot(&dir, 2, &snap).unwrap();
        snap.epoch = 9;
        snap.unique_beacons = 999;
        write_snapshot(&dir, 2, &snap).unwrap();
        let back = read_snapshot(&dir, 2).unwrap().unwrap();
        assert_eq!(back.epoch, 9);
        assert_eq!(back.unique_beacons, 999);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
