//! Per-peer on-disk write-ahead log for the durability journal.
//!
//! The paper assumes the transaction context "encapsulates all the
//! information required for recovery"; `axml-core`'s journal makes that
//! concrete in memory, and this crate makes it survive real crashes. A
//! [`WalSink`] implements [`DurabilitySink`] over segment files of
//! length-prefixed, checksummed frames, with buffered writes, explicit
//! flush/sync points, segment rotation at a size threshold, and recovery
//! that scans the segments to a high-water mark.
//!
//! ## Frame format
//!
//! ```text
//! [ len: u32 LE ][ checksum: u64 LE = fnv1a64(payload) ][ payload ]
//! ```
//!
//! The payload is one [`JournalEntry`] in the journal's JSON codec.
//! Segments are `wal-NNNNNNNN.seg`, numbered from zero; the writer
//! rotates to a fresh segment once the current one reaches the
//! configured threshold.
//!
//! ## Torn-tail rule
//!
//! Recovery reads frames segment by segment. A truncated or
//! checksum-corrupt frame in the **final** segment is a crash artifact:
//! the tail is discarded (and the segment truncated back to the clean
//! high-water mark). The same damage in any earlier segment cannot be
//! explained by a crash — earlier segments were sealed — so it is a hard
//! [`WalError::CorruptInterior`].
//!
//! ## Fault injection
//!
//! A [`StorageFaultPlane`] (carried on the network fault plane, consumed
//! here) makes appends fail prospectively: a *sync failure* writes
//! nothing, a *torn append* leaves a prefix of the frame's bytes on disk
//! and reports failure (the writer heals the torn bytes before its next
//! append; a crash first leaves them for the torn-tail rule), and
//! *partial segment on crash* appends seeded garbage at crash time.
//! Acknowledged appends are never retroactively lost — that is the
//! soundness contract [`DurabilitySink`] demands.
//!
//! ## Determinism contract
//!
//! Frames carry no wall-clock time and no absolute paths; fault draws
//! come from a seeded RNG. Harnesses give each case its own temp
//! directory and never feed paths into digests, so runs stay
//! byte-identical across hosts and parallelism levels.
//!
//! ## Observability
//!
//! [`WalStats`] (via `DurabilitySink::stats`) is the sink's side of the
//! time-series plane: the peer samples `bytes_appended` as the
//! `wal_bytes` gauge and `segments_rotated` as `wal_segments` at every
//! sampling window boundary. Both counters are monotone under appends
//! and `stats()` is a pure read, so sampling can never perturb the log
//! or the seeded schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::missing_errors_doc, clippy::missing_panics_doc, clippy::module_name_repetitions)]
// Frame offsets and fault cut points all fit comfortably in the lossy
// range of these casts (lengths are bounded by MAX_PAYLOAD).
#![allow(clippy::cast_possible_truncation)]

use axml_core::durability::{self, DurabilitySink, JournalEntry, WalStats};
use axml_p2p::StorageFaultPlane;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame header size: `u32` length + `u64` FNV-1a checksum.
pub const FRAME_HEADER: usize = 4 + 8;

/// Upper bound on one frame's payload — larger length prefixes are
/// treated as corruption, so a garbage header cannot make recovery
/// attempt a multi-gigabyte read.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// FNV-1a 64-bit, the workspace's standard content hash.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    axml_p2p::fnv64(bytes)
}

/// Encodes one journal entry as a WAL frame (header + JSON payload).
#[must_use]
pub fn encode_frame(entry: &JournalEntry) -> Vec<u8> {
    let payload = serde_json::to_string(entry).expect("journal entries are serializable");
    let payload = payload.as_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&u32::try_from(payload.len()).expect("payload under 4 GiB").to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why a WAL could not be recovered.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A corrupt or truncated frame in a non-final segment — damage a
    /// crash cannot explain (sealed segments are never appended to).
    CorruptInterior {
        /// Segment number holding the damage.
        segment: u64,
        /// Byte offset of the bad frame within the segment.
        offset: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::CorruptInterior { segment, offset } => {
                write!(f, "corrupt frame in sealed segment {segment} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What one segment scan found.
enum SegmentScan {
    /// Every byte decoded into frames.
    Clean(Vec<JournalEntry>),
    /// A clean prefix followed by a torn/corrupt frame at `high_water`.
    Torn {
        entries: Vec<JournalEntry>,
        /// Byte offset of the last clean frame's end.
        high_water: u64,
    },
}

/// Decodes one segment's bytes. Frames after the first damaged one are
/// unreachable (framing is sequential), so the scan stops there.
fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut entries = Vec::new();
    let mut pos: usize = 0;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + FRAME_HEADER) else {
            return SegmentScan::Torn { entries, high_water: pos as u64 };
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let sum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        if len == 0 || len > MAX_PAYLOAD {
            return SegmentScan::Torn { entries, high_water: pos as u64 };
        }
        let start = pos + FRAME_HEADER;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            return SegmentScan::Torn { entries, high_water: pos as u64 };
        };
        if fnv1a64(payload) != sum {
            return SegmentScan::Torn { entries, high_water: pos as u64 };
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            return SegmentScan::Torn { entries, high_water: pos as u64 };
        };
        match durability::decode(text) {
            Ok(mut decoded) if decoded.len() == 1 => entries.push(decoded.remove(0)),
            _ => return SegmentScan::Torn { entries, high_water: pos as u64 },
        }
        pos = start + len as usize;
    }
    SegmentScan::Clean(entries)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.seg"))
}

/// Sorted segment indices present in `dir`.
fn segment_indices(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name.strip_prefix("wal-").and_then(|n| n.strip_suffix(".seg")) {
            if let Ok(i) = num.parse::<u64>() {
                out.push(i);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The result of recovering a WAL directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Entries surviving on disk, oldest first.
    pub entries: Vec<JournalEntry>,
    /// 1 if a torn tail was discarded from the final segment.
    pub torn_tails_discarded: u64,
    /// The final segment's index (0 when the directory was empty).
    pub last_segment: u64,
    /// Clean byte length of the final segment (the high-water mark).
    pub last_segment_len: u64,
}

/// Scans a WAL directory to its high-water mark: every sealed segment
/// must decode fully ([`WalError::CorruptInterior`] otherwise), while a
/// torn tail in the final segment is discarded as a crash artifact — the
/// final segment is truncated back to its last clean frame.
pub fn recover_dir(dir: &Path) -> Result<Recovered, WalError> {
    let indices = segment_indices(dir)?;
    let mut out = Recovered::default();
    let Some(&last) = indices.last() else {
        return Ok(out);
    };
    for &i in &indices {
        let path = segment_path(dir, i);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        match scan_segment(&bytes) {
            SegmentScan::Clean(entries) => {
                if i == last {
                    out.last_segment_len = bytes.len() as u64;
                }
                out.entries.extend(entries);
            }
            SegmentScan::Torn { entries, high_water } => {
                if i != last {
                    return Err(WalError::CorruptInterior { segment: i, offset: high_water });
                }
                // Crash artifact: discard the tail and truncate the
                // segment back to the clean prefix.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(high_water)?;
                file.sync_all()?;
                out.torn_tails_discarded = 1;
                out.last_segment_len = high_water;
                out.entries.extend(entries);
            }
        }
    }
    out.last_segment = last;
    Ok(out)
}

/// Configuration for a [`WalSink`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding this peer's segments (one peer per directory).
    pub dir: PathBuf,
    /// Rotation threshold: a segment reaching this many bytes is sealed
    /// and a fresh one opened.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A config with the default 64 KiB rotation threshold.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig { dir: dir.into(), segment_bytes: 64 * 1024 }
    }
}

/// How many faulting attempts [`DurabilitySink::append_forced`] makes
/// before writing fault-free.
const FORCE_RETRIES: u32 = 4;

/// An on-disk [`DurabilitySink`]: buffered segment writer with explicit
/// flush points, rotation, torn-tail-tolerant recovery, and seeded
/// storage fault injection.
pub struct WalSink {
    config: WalConfig,
    faults: StorageFaultPlane,
    rng: StdRng,
    writer: Option<BufWriter<File>>,
    /// Current (tail) segment index.
    segment: u64,
    /// Clean, acknowledged byte length of the tail segment.
    clean_len: u64,
    /// Bytes of an unhealed torn append sitting past `clean_len` on
    /// disk. Healed (truncated) before the next write; left in place by
    /// a crash for recovery to discard.
    torn_bytes: u64,
    stats: WalStats,
}

impl fmt::Debug for WalSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `rng` and the buffered `writer` have no useful rendering.
        f.debug_struct("WalSink")
            .field("dir", &self.config.dir)
            .field("segment", &self.segment)
            .field("clean_len", &self.clean_len)
            .field("torn_bytes", &self.torn_bytes)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl WalSink {
    /// Opens (creating the directory if needed) a fault-free sink.
    pub fn create(config: WalConfig) -> Result<WalSink, WalError> {
        Self::with_faults(config, StorageFaultPlane::default(), 0)
    }

    /// Opens a sink whose appends draw storage faults from `faults`
    /// using a deterministic RNG seeded with `seed`.
    pub fn with_faults(config: WalConfig, faults: StorageFaultPlane, seed: u64) -> Result<WalSink, WalError> {
        // A directory this call creates holds no segments to scan. When
        // only its parents are missing they are made and the creation tried
        // once more; a directory that exists — or appears meanwhile — and
        // every other failure take the general path.
        let created = match std::fs::create_dir(&config.dir) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if let Some(parent) = config.dir.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                std::fs::create_dir(&config.dir).is_ok()
            }
            Err(_) => false,
        };
        let recovered = if created {
            Recovered::default()
        } else {
            std::fs::create_dir_all(&config.dir)?;
            recover_dir(&config.dir)?
        };
        let mut sink = WalSink {
            config,
            faults,
            rng: StdRng::seed_from_u64(seed),
            writer: None,
            segment: recovered.last_segment,
            clean_len: recovered.last_segment_len,
            torn_bytes: 0,
            stats: WalStats::default(),
        };
        sink.stats.torn_tails_discarded = recovered.torn_tails_discarded;
        Ok(sink)
    }

    /// The sink's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    fn open_writer(&mut self) -> Result<(), WalError> {
        if self.writer.is_some() {
            return Ok(());
        }
        let path = segment_path(&self.config.dir, self.segment);
        let mut file = OpenOptions::new().create(true).truncate(false).write(true).read(true).open(&path)?;
        // Never trust whatever sits past the clean high-water mark. A file
        // that ends there (just created, or cut back by `heal` or recovery)
        // is left alone: ext4 flushes a truncated file when it is closed.
        if file.metadata()?.len() != self.clean_len {
            file.set_len(self.clean_len)?;
        }
        if self.clean_len > 0 {
            file.seek(SeekFrom::Start(self.clean_len))?;
        }
        self.writer = Some(BufWriter::new(file));
        Ok(())
    }

    /// Truncates unacknowledged torn bytes off the tail segment — the
    /// writer's heal step before reusing the segment.
    fn heal(&mut self) -> Result<(), WalError> {
        if self.torn_bytes == 0 {
            return Ok(());
        }
        self.writer = None; // drop the buffered writer over the torn tail
        let path = segment_path(&self.config.dir, self.segment);
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(self.clean_len)?;
        file.sync_all()?;
        self.torn_bytes = 0;
        Ok(())
    }

    /// Seals the tail segment (flush + sync) and opens the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        self.segment += 1;
        self.clean_len = 0;
        self.stats.segments_rotated += 1;
        self.open_writer()
    }

    /// One append attempt. `with_faults` gates the fault draws so the
    /// forced path can finish with a clean write.
    fn try_append(&mut self, entry: &JournalEntry, with_faults: bool) -> Result<bool, WalError> {
        self.heal()?;
        self.open_writer()?;
        // Draw both faults unconditionally: the RNG consumption (and so
        // the whole fault schedule) must not depend on which append path
        // asked, or determinism across call sites would be a lie.
        let sync_fail = self.faults.sync_failure_prob > 0.0 && self.rng.gen_bool(self.faults.sync_failure_prob);
        let torn = self.faults.torn_append_prob > 0.0 && self.rng.gen_bool(self.faults.torn_append_prob);
        let frame = encode_frame(entry);
        if with_faults && sync_fail {
            // Nothing reaches the segment: a failed fsync with the page
            // cache dropped. Clean rollback.
            self.stats.append_faults += 1;
            return Ok(false);
        }
        if with_faults && torn {
            // A strict prefix of the frame lands on disk; the append
            // still reports failure. The torn bytes stay until the next
            // append heals them — or a crash hands them to recovery.
            let cut = self.rng.gen_range(1..frame.len() as u64) as usize;
            let w = self.writer.as_mut().expect("opened above");
            w.write_all(&frame[..cut])?;
            w.flush()?;
            self.torn_bytes = cut as u64;
            self.stats.append_faults += 1;
            return Ok(false);
        }
        let w = self.writer.as_mut().expect("opened above");
        w.write_all(&frame)?;
        // Explicit flush point: the entry must be durable before its
        // consequences escape the peer.
        w.flush()?;
        self.clean_len += frame.len() as u64;
        self.stats.bytes_appended += frame.len() as u64;
        if self.clean_len >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok(true)
    }
}

impl DurabilitySink for WalSink {
    fn append(&mut self, entry: &JournalEntry) -> bool {
        self.try_append(entry, true).unwrap_or(false)
    }

    fn append_forced(&mut self, entry: &JournalEntry) {
        for _ in 0..FORCE_RETRIES {
            if self.try_append(entry, true).unwrap_or(false) {
                return;
            }
        }
        // Out of patience: write without fault draws. Decision records
        // and cross-peer obligations must not be lost (see the trait).
        self.try_append(entry, false).expect("forced WAL append failed");
    }

    fn crash_restart(&mut self) -> Vec<JournalEntry> {
        // Crash: volatile state vanishes. The buffered writer is dropped
        // (flushed bytes are on disk; torn bytes stay torn) and, with
        // `partial_segment_on_crash`, a burst of seeded garbage lands on
        // the tail — the partial write of a frame that never completed.
        self.writer = None;
        if self.faults.partial_segment_on_crash {
            let path = segment_path(&self.config.dir, self.segment);
            if let Ok(mut file) = OpenOptions::new().create(true).append(true).open(&path) {
                let n = self.rng.gen_range(1..=24u64);
                let garbage: Vec<u8> = (0..n).map(|_| (self.rng.gen_range(0..=255u64)) as u8).collect();
                let _ = file.write_all(&garbage);
                let _ = file.flush();
            }
        }
        // Restart: recover from the segments alone.
        let recovered = recover_dir(&self.config.dir).expect("sealed WAL segments must recover");
        self.segment = recovered.last_segment;
        self.clean_len = recovered.last_segment_len;
        self.torn_bytes = 0;
        self.stats.torn_tails_discarded += recovered.torn_tails_discarded;
        self.stats.recovery_entries = recovered.entries.len() as u64;
        recovered.entries
    }

    fn stats(&self) -> WalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests;
