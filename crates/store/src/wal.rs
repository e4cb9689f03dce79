//! Per-shard append-only write-ahead log: file layout, the writer, and
//! torn-tail-tolerant replay.
//!
//! Each shard owns one file, `shard-NNN.wal`:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "QTWL"
//! 4       2     format version (big-endian u16, currently 1)
//! 6       2     shard index (big-endian u16)
//! 8       8     epoch (big-endian u64)
//! 16      ...   frames (see record.rs)
//! ```
//!
//! The **epoch** ties a WAL to the snapshot generation it continues.
//! Compaction writes a snapshot stamped `epoch + 1` and then replaces
//! the WAL with a fresh one stamped `epoch + 1`; both replacements are
//! atomic renames, so a crash between them leaves a new snapshot next
//! to an *old* WAL. Recovery detects that by the epoch mismatch and
//! discards the stale WAL — every record in it is already folded into
//! the snapshot, so replaying it would double-count.
//!
//! **Torn tails.** Appends can be cut anywhere by a crash. Replay
//! walks frames until the first invalid one (short header, short
//! payload, implausible length, CRC mismatch, undecodable payload),
//! keeps everything before it, and reports the byte offset where the
//! valid prefix ends so the caller can truncate the file and resume
//! appending cleanly. Nothing after the first invalid frame is ever
//! interpreted — a torn write can lose the tail, never invent data.
//!
//! **Streaming.** [`WalStream`] reads a log through one fixed-size
//! buffer and decodes a frame at a time, so it holds at most a buffer
//! and one partial frame, however long the log. Recovery applies
//! records a small batch at a time as they are decoded; [`replay`]
//! collects them all, for tests and audits.

use crate::record::{self, RecordError, WalRecord};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// WAL file magic: ASCII `QTWL`.
pub const WAL_MAGIC: [u8; 4] = *b"QTWL";
/// Current WAL format version.
pub const WAL_VERSION: u16 = 1;
/// WAL header size in bytes.
pub const WAL_HEADER_LEN: usize = 16;

/// When the OS is told to push appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync; the OS flushes on its own schedule. Fastest, and a
    /// *process* crash still loses nothing (the page cache survives) —
    /// only a machine crash can.
    NoSync,
    /// Group-coalesced syncing: every appended group schedules an
    /// fsync with the backend's flusher thread, which folds bursts
    /// into few device round trips — the append path itself never
    /// blocks on the device. Everything journaled is on stable storage
    /// by the time a graceful shutdown's flush returns; the loss
    /// window on a *machine* crash mid-run is one flusher sweep.
    /// (Under `--cfg qtag_check` the flusher is compiled out and the
    /// backend syncs inline per group instead, deterministically.)
    #[default]
    Batch,
    /// One fsync per record. Maximal durability, pays a device round
    /// trip per beacon.
    Record,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" | "no" | "nosync" => Ok(SyncPolicy::NoSync),
            "batch" => Ok(SyncPolicy::Batch),
            "record" => Ok(SyncPolicy::Record),
            other => Err(format!(
                "unknown sync policy {other:?} (expected none|batch|record)"
            )),
        }
    }
}

/// File name of shard `idx`'s WAL inside the store directory.
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.wal"))
}

fn encode_header(shard: u16, epoch: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[0..4].copy_from_slice(&WAL_MAGIC);
    h[4..6].copy_from_slice(&WAL_VERSION.to_be_bytes());
    h[6..8].copy_from_slice(&shard.to_be_bytes());
    h[8..16].copy_from_slice(&epoch.to_be_bytes());
    h
}

/// Parsed WAL header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalHeader {
    /// Shard index stamped at creation.
    pub shard: u16,
    /// Snapshot generation this log continues.
    pub epoch: u64,
}

fn decode_header(bytes: &[u8]) -> io::Result<WalHeader> {
    if bytes.len() < WAL_HEADER_LEN
        || bytes[0..4] != WAL_MAGIC
        || u16::from_be_bytes(bytes[4..6].try_into().unwrap()) != WAL_VERSION
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a QTWL v1 write-ahead log",
        ));
    }
    Ok(WalHeader {
        shard: u16::from_be_bytes(bytes[6..8].try_into().unwrap()),
        epoch: u64::from_be_bytes(bytes[8..16].try_into().unwrap()),
    })
}

/// Everything replay learned from one WAL file.
#[derive(Debug, PartialEq)]
pub struct Replay {
    /// Header of the file (present even when the record area is empty).
    pub header: WalHeader,
    /// The valid record prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset where the valid prefix ends (file length when the
    /// whole log was clean).
    pub valid_len: u64,
    /// The decode failure that terminated replay, if the tail was torn.
    pub torn: Option<RecordError>,
    /// Bytes discarded after the valid prefix.
    pub discarded_bytes: u64,
}

/// Reads and validates one WAL file front to back, collecting the
/// valid record prefix.
///
/// IO errors (not *decode* errors) propagate: an unreadable file is an
/// operational problem, not a torn tail.
pub fn replay(path: &Path) -> io::Result<Replay> {
    collect(WalStream::open(path)?)
}

fn collect<R: Read>(mut stream: WalStream<R>) -> io::Result<Replay> {
    let mut records = Vec::new();
    stream.next_records(&mut records, usize::MAX)?;
    let header = stream.header();
    let tail = stream.finish()?;
    Ok(Replay {
        header,
        records,
        valid_len: tail.valid_len,
        torn: tail.torn,
        discarded_bytes: tail.discarded_bytes,
    })
}

/// Bytes one read of a streamed log asks for: some 1,400 beacon frames,
/// and what bounds replay's memory whatever the log's length.
const READ_CHUNK: usize = 64 * 1024;

/// Where a streamed log's valid prefix ended and what followed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTail {
    /// Byte offset where the valid prefix ends (file length when the
    /// whole log was clean).
    pub valid_len: u64,
    /// The decode failure that ended the prefix, if the tail was torn.
    pub torn: Option<RecordError>,
    /// Bytes after the valid prefix.
    pub discarded_bytes: u64,
}

/// One WAL read front to back through a fixed-size buffer, a frame at
/// a time. The header is read and checked on open; a caller that only
/// needs the header (a stale log) stops there.
#[derive(Debug)]
pub struct WalStream<R = File> {
    src: R,
    chunk: usize,
    /// Read bytes; `buf[pos..]` is not decoded yet.
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    header: WalHeader,
    valid_len: u64,
    torn: Option<RecordError>,
}

impl WalStream {
    /// Opens `path` and reads its header. A file too short for a
    /// header, or with another magic or version, is `InvalidData`.
    pub fn open(path: &Path) -> io::Result<WalStream> {
        WalStream::new(File::open(path)?, READ_CHUNK)
    }
}

impl<R: Read> WalStream<R> {
    fn new(mut src: R, chunk: usize) -> io::Result<Self> {
        assert!(chunk >= 1, "a read must ask for at least one byte");
        let mut buf =
            Vec::with_capacity(chunk + record::FRAME_HEADER_LEN + record::MAX_PAYLOAD_LEN);
        let mut eof = false;
        while buf.len() < WAL_HEADER_LEN && !eof {
            eof = !read_chunk(&mut src, &mut buf, chunk)?;
        }
        let header = decode_header(&buf)?;
        Ok(WalStream {
            src,
            chunk,
            buf,
            pos: WAL_HEADER_LEN,
            eof,
            header,
            valid_len: WAL_HEADER_LEN as u64,
            torn: None,
        })
    }

    /// The log's header.
    pub fn header(&self) -> WalHeader {
        self.header
    }

    /// The next record of the valid prefix, or `None` once the log ends
    /// cleanly or at the first invalid frame.
    fn next_record(&mut self) -> io::Result<Option<WalRecord>> {
        while self.torn.is_none() {
            let window = &self.buf[self.pos..];
            if window.is_empty() {
                if self.eof || !self.fill()? {
                    return Ok(None);
                }
                continue;
            }
            // A frame cut by the end of the buffer reads as truncated;
            // only at end of file is that the log's last word.
            match record::decode_frame(window) {
                Ok((rec, consumed)) => {
                    self.pos += consumed;
                    self.valid_len += consumed as u64;
                    return Ok(Some(rec));
                }
                Err(RecordError::Truncated) if !self.eof => {
                    self.fill()?;
                }
                Err(e) => self.torn = Some(e),
            }
        }
        Ok(None)
    }

    /// Appends up to `max` more records of the valid prefix to `out`
    /// and returns how many; 0 once the prefix is exhausted.
    pub fn next_records(&mut self, out: &mut Vec<WalRecord>, max: usize) -> io::Result<usize> {
        let mut n = 0;
        while n < max {
            match self.next_record()? {
                Some(rec) => out.push(rec),
                None => break,
            }
            n += 1;
        }
        Ok(n)
    }

    /// Where the valid prefix ended, once it is exhausted (a read
    /// returned no record). A torn tail is read to the end of the file
    /// and counted, not kept.
    pub fn finish(mut self) -> io::Result<WalTail> {
        let mut discarded_bytes = (self.buf.len() - self.pos) as u64;
        if !self.eof {
            discarded_bytes += io::copy(&mut self.src, &mut io::sink())?;
        }
        Ok(WalTail {
            valid_len: self.valid_len,
            torn: self.torn,
            discarded_bytes,
        })
    }

    /// Moves the undecoded bytes to the front of the buffer and reads
    /// the next chunk behind them; `Ok(false)` at end of file.
    fn fill(&mut self) -> io::Result<bool> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let more = read_chunk(&mut self.src, &mut self.buf, self.chunk)?;
        self.eof = !more;
        Ok(more)
    }
}

/// Appends up to `chunk` bytes of `src` to `buf`; `Ok(false)` when
/// `src` had none left.
fn read_chunk<R: Read>(src: &mut R, buf: &mut Vec<u8>, chunk: usize) -> io::Result<bool> {
    Ok(src.by_ref().take(chunk as u64).read_to_end(buf)? > 0)
}

/// Append handle for one shard's WAL. Not internally synchronized —
/// the durable backend wraps each writer in its shard mutex, matching
/// the one-applier-per-shard ingest design.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    shard: u16,
    epoch: u64,
    policy: SyncPolicy,
    /// Bytes currently in the file (header + records).
    len: u64,
}

impl WalWriter {
    /// Opens shard `shard`'s WAL for appending, creating it (with a
    /// fresh header at `epoch`) when absent or empty. An existing file
    /// must already be validated/truncated by recovery; this seeks to
    /// `append_at` (the valid length recovery reported).
    pub fn open(
        dir: &Path,
        shard: usize,
        epoch: u64,
        append_at: Option<u64>,
        policy: SyncPolicy,
    ) -> io::Result<WalWriter> {
        let path = wal_path(dir, shard);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let existing = file.metadata()?.len();
        let len = match append_at {
            Some(at) if existing >= WAL_HEADER_LEN as u64 => {
                // Recovery validated the prefix; drop any torn tail so
                // future appends start on a record boundary.
                file.set_len(at)?;
                at
            }
            _ => {
                file.set_len(0)?;
                file.write_all(&encode_header(shard as u16, epoch))?;
                file.sync_data()?;
                WAL_HEADER_LEN as u64
            }
        };
        file.seek(SeekFrom::Start(len))?;
        Ok(WalWriter {
            file,
            path,
            shard: shard as u16,
            epoch,
            policy,
            len,
        })
    }

    /// The epoch stamped in this log's header.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bytes currently in the file (header included).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the log holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN as u64
    }

    /// Appends one pre-framed batch buffer (built with the `record`
    /// encoders) and applies the sync policy. `records` is the record
    /// count inside `framed`, used only to honour
    /// [`SyncPolicy::Record`] accounting — the bytes land in one
    /// `write_all` either way (frames are self-delimiting, so batch
    /// writes and record writes are indistinguishable on replay).
    pub fn append(&mut self, framed: &[u8], records: usize) -> io::Result<()> {
        if framed.is_empty() {
            return Ok(());
        }
        self.file.write_all(framed)?;
        self.len += framed.len() as u64;
        match self.policy {
            SyncPolicy::NoSync => {}
            // The backend schedules the sync (flusher thread, or
            // inline under qtag_check) — never this append path.
            SyncPolicy::Batch => {}
            SyncPolicy::Record => {
                // One durable point per record is the contract; with
                // the batch already written the best a single file can
                // do is fsync once per record boundary — equivalent
                // durability, same device-round-trip count as looping
                // write+fsync, without splitting the write.
                for _ in 0..records.max(1) {
                    self.file.sync_data()?;
                }
            }
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage regardless
    /// of policy (shutdown flush).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Number of fsyncs [`WalWriter::append`] will issue *itself* for
    /// a batch of `records` records under the current policy. Batch is
    /// zero here: its syncs happen on the backend's flusher thread
    /// (counted there), not on the append path.
    pub fn syncs_for(&self, records: usize) -> u64 {
        match self.policy {
            SyncPolicy::NoSync | SyncPolicy::Batch => 0,
            SyncPolicy::Record => records.max(1) as u64,
        }
    }

    /// A dup'd handle to the current log file, for the flusher thread:
    /// `sync_data` on it pushes everything appended so far to stable
    /// storage without holding the journal lock across the device
    /// round trip.
    pub fn sync_handle(&self) -> io::Result<File> {
        self.file.try_clone()
    }

    /// Replaces the log with a fresh, empty one stamped `epoch`,
    /// via tmp-file + atomic rename (the compaction tail; see the
    /// module docs for the crash windows).
    pub fn reset_to_epoch(&mut self, epoch: u64) -> io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&encode_header(self.shard, epoch))?;
        f.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        f.seek(SeekFrom::Start(WAL_HEADER_LEN as u64))?;
        self.file = f;
        self.epoch = epoch;
        self.len = WAL_HEADER_LEN as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_ack, encode_beacon, encode_served};
    use crate::test_dir;
    use qtag_server::ServedImpression;
    use qtag_wire::crc::crc32;
    use qtag_wire::{AdFormat, Beacon, BrowserKind, EventKind, OsKind, SiteType};

    fn beacon(id: u64, seq: u16) -> Beacon {
        Beacon {
            impression_id: id,
            campaign_id: 1,
            event: EventKind::Measurable,
            timestamp_us: 1_000 * u64::from(seq),
            ad_format: AdFormat::Display,
            visible_fraction_milli: 600,
            exposure_ms: 1_200,
            os: OsKind::Android,
            browser: BrowserKind::Chrome,
            site_type: SiteType::Browser,
            seq,
        }
    }

    #[test]
    fn append_replay_round_trip_preserves_order() {
        let dir = test_dir("wal_round_trip");
        let mut w = WalWriter::open(&dir, 0, 0, None, SyncPolicy::Batch).unwrap();
        let mut framed = Vec::new();
        encode_served(
            &ServedImpression {
                impression_id: 9,
                campaign_id: 2,
                os: OsKind::Ios,
                browser: BrowserKind::Safari,
                site_type: SiteType::App,
                ad_format: AdFormat::Video,
            },
            &mut framed,
        );
        for seq in 0..5 {
            encode_beacon(&beacon(9, seq), &mut framed);
        }
        encode_ack(9, 4, &mut framed);
        w.append(&framed, 7).unwrap();

        let r = replay(&wal_path(&dir, 0)).unwrap();
        assert_eq!(r.header, WalHeader { shard: 0, epoch: 0 });
        assert_eq!(r.records.len(), 7);
        assert!(r.torn.is_none());
        assert_eq!(r.discarded_bytes, 0);
        assert!(matches!(r.records[0], WalRecord::Served(_)));
        for (i, rec) in r.records[1..6].iter().enumerate() {
            assert_eq!(rec, &WalRecord::Beacon(beacon(9, i as u16)));
        }
        assert_eq!(
            r.records[6],
            WalRecord::Ack {
                impression_id: 9,
                seq: 4
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_at_last_valid_record_and_reopen_truncates() {
        let dir = test_dir("wal_torn_tail");
        let mut w = WalWriter::open(&dir, 3, 7, None, SyncPolicy::NoSync).unwrap();
        let mut framed = Vec::new();
        for seq in 0..4 {
            encode_beacon(&beacon(1, seq), &mut framed);
        }
        w.append(&framed, 4).unwrap();
        w.sync().unwrap();
        let full = w.len();
        drop(w);

        // Tear the last record in half.
        let path = wal_path(&dir, 3);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 10).unwrap();
        drop(f);

        let r = replay(&path).unwrap();
        assert_eq!(r.header.epoch, 7);
        assert_eq!(r.records.len(), 3, "last record lost, prefix kept");
        assert_eq!(r.torn, Some(RecordError::Truncated));
        assert!(r.discarded_bytes > 0);

        // Reopening at the reported valid length truncates the torn
        // bytes; subsequent appends replay cleanly.
        let mut w = WalWriter::open(&dir, 3, 7, Some(r.valid_len), SyncPolicy::NoSync).unwrap();
        assert_eq!(w.len(), r.valid_len);
        let mut framed = Vec::new();
        encode_beacon(&beacon(1, 9), &mut framed);
        w.append(&framed, 1).unwrap();
        w.sync().unwrap();
        let r2 = replay(&path).unwrap();
        assert!(r2.torn.is_none());
        assert_eq!(r2.records.len(), 4);
        assert_eq!(r2.records[3], WalRecord::Beacon(beacon(1, 9)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_tail_is_caught_by_the_frame_crc() {
        let dir = test_dir("wal_bit_flip");
        let mut w = WalWriter::open(&dir, 0, 0, None, SyncPolicy::NoSync).unwrap();
        let mut framed = Vec::new();
        for seq in 0..3 {
            encode_beacon(&beacon(5, seq), &mut framed);
        }
        w.append(&framed, 3).unwrap();
        w.sync().unwrap();
        let full = w.len();
        drop(w);

        let path = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = full as usize - 20;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.torn, Some(RecordError::BadChecksum));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_to_epoch_replaces_the_log_atomically() {
        let dir = test_dir("wal_reset");
        let mut w = WalWriter::open(&dir, 1, 4, None, SyncPolicy::Batch).unwrap();
        let mut framed = Vec::new();
        encode_beacon(&beacon(2, 0), &mut framed);
        w.append(&framed, 1).unwrap();
        assert!(!w.is_empty());
        w.reset_to_epoch(5).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.epoch(), 5);

        // The new log accepts appends and replays with the new epoch.
        let mut framed = Vec::new();
        encode_beacon(&beacon(2, 1), &mut framed);
        w.append(&framed, 1).unwrap();
        drop(w);
        let r = replay(&wal_path(&dir, 1)).unwrap();
        assert_eq!(r.header.epoch, 5);
        assert_eq!(r.records, vec![WalRecord::Beacon(beacon(2, 1))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log as `WalWriter` lays it out: header, then one framed
    /// record of each kind and a run of beacons.
    fn sample_log() -> Vec<u8> {
        let mut bytes = encode_header(2, 9).to_vec();
        encode_served(
            &ServedImpression {
                impression_id: 9,
                campaign_id: 2,
                os: OsKind::Ios,
                browser: BrowserKind::Safari,
                site_type: SiteType::App,
                ad_format: AdFormat::Video,
            },
            &mut bytes,
        );
        for seq in 0..8 {
            encode_beacon(&beacon(9, seq), &mut bytes);
        }
        encode_ack(9, 7, &mut bytes);
        bytes
    }

    /// Replays `bytes` read `chunk` bytes at a time; an error becomes
    /// its kind and message, so runs compare whole.
    fn replay_in_chunks(bytes: &[u8], chunk: usize) -> Result<Replay, String> {
        WalStream::new(bytes, chunk)
            .and_then(collect)
            .map_err(|e| format!("{:?}: {e}", e.kind()))
    }

    /// The damage `tests/hostile_input.rs` does to a log — a byte
    /// flipped anywhere, a cut anywhere, noise behind the header, noise
    /// as the whole file — plus a checksummed maximum-length frame, a
    /// long clean log, and the undamaged one.
    fn hostile_corpus() -> Vec<Vec<u8>> {
        let log = sample_log();
        let mut corpus = vec![log.clone()];
        for pos in 0..log.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut damaged = log.clone();
                damaged[pos] ^= flip;
                corpus.push(damaged);
            }
        }
        corpus.extend((0..log.len()).map(|cut| log[..cut].to_vec()));
        // xorshift64: deterministic noise without a dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect()
        };
        for n in [0, 1, 7, 8, 9, 40, 255, 600] {
            let mut behind = log[..WAL_HEADER_LEN].to_vec();
            behind.extend(noise(n));
            corpus.push(behind);
            corpus.push(noise(n));
        }
        let max = record::MAX_PAYLOAD_LEN;
        let mut payload = vec![0u8; max];
        payload[0] = 99;
        let mut framed = log.clone();
        framed.extend_from_slice(&(max as u32).to_be_bytes());
        framed.extend_from_slice(&crc32(&payload).to_be_bytes());
        framed.extend_from_slice(&payload);
        encode_ack(9, 8, &mut framed);
        corpus.push(framed);
        let mut long = log;
        for seq in 0..3_000 {
            encode_beacon(&beacon(10, seq), &mut long);
        }
        corpus.push(long);
        corpus
    }

    #[test]
    fn chunked_reads_replay_exactly_as_the_whole_file() {
        // 263 is one byte short of a maximum frame, so such a frame
        // never arrives in one read.
        assert_eq!(record::FRAME_HEADER_LEN + record::MAX_PAYLOAD_LEN, 264);
        for (i, bytes) in hostile_corpus().iter().enumerate() {
            let whole = replay_in_chunks(bytes, bytes.len().max(1));
            if let Ok(r) = &whole {
                assert_eq!(r.valid_len + r.discarded_bytes, bytes.len() as u64);
            }
            for chunk in [1, 8, 263, 4096] {
                assert_eq!(
                    replay_in_chunks(bytes, chunk),
                    whole,
                    "corpus entry {i} ({} bytes) at {chunk}-byte reads",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn sync_policy_parses_and_counts_fsyncs() {
        assert_eq!("none".parse::<SyncPolicy>().unwrap(), SyncPolicy::NoSync);
        assert_eq!("batch".parse::<SyncPolicy>().unwrap(), SyncPolicy::Batch);
        assert_eq!("record".parse::<SyncPolicy>().unwrap(), SyncPolicy::Record);
        assert!("hourly".parse::<SyncPolicy>().is_err());

        let dir = test_dir("wal_sync_policy");
        let w = WalWriter::open(&dir, 0, 0, None, SyncPolicy::Record).unwrap();
        assert_eq!(w.syncs_for(5), 5);
        let w2 = WalWriter::open(&dir, 1, 0, None, SyncPolicy::NoSync).unwrap();
        assert_eq!(w2.syncs_for(5), 0);
        let w3 = WalWriter::open(&dir, 2, 0, None, SyncPolicy::Batch).unwrap();
        assert_eq!(
            w3.syncs_for(5),
            0,
            "batch syncs ride the flusher, not the append"
        );
        drop((w, w2, w3));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
