//! Per-peer write-ahead log for the durability journal.
//!
//! The paper assumes the transaction context "encapsulates all the
//! information required for recovery"; `axml-core`'s journal makes that
//! concrete in memory, and this crate makes it survive crashes. A
//! [`WalSink`] implements [`DurabilitySink`] over segments of
//! length-prefixed, checksummed frames, with explicit flush/sync points,
//! segment rotation at a size threshold, and recovery that scans the
//! segments to a high-water mark.
//!
//! ## Media
//!
//! The segments live in one of two media, chosen by the constructor:
//! [`WalSink::create`] / [`WalSink::with_faults`] keep them as files in a
//! directory, written through a buffered writer and synced at rotation —
//! what a real peer needs, and what [`recover_dir`] reads back after the
//! process is gone. [`WalSink::in_memory`] keeps one byte vector per
//! segment — what a simulated peer needs, whose crash the simulator owns:
//! it makes no filesystem call. The sink's logic is written once over
//! both (fault draws, framing, heal, rotation, crash garbage, and one
//! recovery routine with one torn-tail rule), so the two media hold
//! byte-identical segments after the same appends and crashes.
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
//! nothing, a *torn append* leaves a prefix of the frame's bytes in the
//! segment and reports failure (the writer heals the torn bytes before its next
//! append; a crash first leaves them for the torn-tail rule), and
//! *partial segment on crash* appends seeded garbage at crash time.
//! Acknowledged appends are never retroactively lost — that is the
//! soundness contract [`DurabilitySink`] demands.
//!
//! ## Determinism contract
//!
//! Frames carry no wall-clock time and no absolute paths; fault draws
//! come from a seeded RNG. Nothing a sink does depends on its medium
//! beyond where the bytes go, so runs stay byte-identical across hosts,
//! media and parallelism levels.
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
use std::io::{BufWriter, Seek, SeekFrom, Write};
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

/// Recovers a log from its segments, given in order as `(index, bytes)`:
/// every segment but the last must decode fully
/// ([`WalError::CorruptInterior`] otherwise), while a torn tail in the
/// last is a crash artifact and discarded. The caller cuts that segment
/// back to [`Recovered::last_segment_len`] when the tail was torn.
fn recover_segments<B: AsRef<[u8]>>(
    segments: impl Iterator<Item = Result<(u64, B), WalError>>,
) -> Result<Recovered, WalError> {
    let mut out = Recovered::default();
    let mut segments = segments.peekable();
    while let Some(segment) = segments.next() {
        let (index, bytes) = segment?;
        let bytes = bytes.as_ref();
        out.last_segment = index;
        match scan_segment(bytes) {
            SegmentScan::Clean(entries) => {
                out.last_segment_len = bytes.len() as u64;
                out.entries.extend(entries);
            }
            SegmentScan::Torn { entries, high_water } => {
                if segments.peek().is_some() {
                    return Err(WalError::CorruptInterior { segment: index, offset: high_water });
                }
                out.torn_tails_discarded = 1;
                out.last_segment_len = high_water;
                out.entries.extend(entries);
            }
        }
    }
    Ok(out)
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

/// The result of recovering a WAL.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Entries surviving in the segments, oldest first.
    pub entries: Vec<JournalEntry>,
    /// 1 if a torn tail was discarded from the final segment.
    pub torn_tails_discarded: u64,
    /// The final segment's index (0 when there was none).
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
    let recovered = recover_segments(indices.iter().map(|&i| Ok((i, std::fs::read(segment_path(dir, i))?))))?;
    if recovered.torn_tails_discarded == 1 {
        let file = OpenOptions::new().write(true).open(segment_path(dir, recovered.last_segment))?;
        file.set_len(recovered.last_segment_len)?;
        file.sync_all()?;
    }
    Ok(recovered)
}

/// Segment `index` of an in-memory log, made (with any before it, as a
/// directory makes its files in order) if it is not there yet.
fn memory_segment(segments: &mut Vec<Vec<u8>>, index: u64) -> &mut Vec<u8> {
    if segments.len() <= index as usize {
        segments.resize_with(index as usize + 1, Vec::new);
    }
    &mut segments[index as usize]
}

/// Where a sink's segments live. Everything else about a sink is the same
/// over both.
enum Medium {
    /// `wal-NNNNNNNN.seg` files in one directory; the tail segment is
    /// written through a buffered writer, opened on demand.
    Dir { dir: PathBuf, writer: Option<BufWriter<File>> },
    /// One byte vector per segment, indexed by segment number.
    Memory(Vec<Vec<u8>>),
}

impl Medium {
    /// Readies `segment` as the tail, to be appended to after its first
    /// `clean_len` bytes.
    fn open(&mut self, segment: u64, clean_len: u64) -> Result<(), WalError> {
        match self {
            Medium::Dir { dir, writer } => {
                if writer.is_some() {
                    return Ok(());
                }
                let path = segment_path(dir, segment);
                let mut file = OpenOptions::new().create(true).truncate(false).write(true).read(true).open(&path)?;
                // Never trust whatever sits past the clean high-water mark. A
                // file that ends there (just created, or cut back by `heal` or
                // recovery) is left alone: ext4 flushes a truncated file when
                // it is closed.
                if file.metadata()?.len() != clean_len {
                    file.set_len(clean_len)?;
                }
                if clean_len > 0 {
                    file.seek(SeekFrom::Start(clean_len))?;
                }
                *writer = Some(BufWriter::new(file));
            }
            // Nobody else writes these bytes: past `clean_len` there can
            // only be the torn bytes `heal` cuts.
            Medium::Memory(segments) => {
                memory_segment(segments, segment);
            }
        }
        Ok(())
    }

    /// Appends `bytes` to the opened tail `segment` and flushes them.
    fn write(&mut self, segment: u64, bytes: &[u8]) -> Result<(), WalError> {
        match self {
            Medium::Dir { writer, .. } => {
                let w = writer.as_mut().expect("the tail is opened before it is written");
                w.write_all(bytes)?;
                w.flush()?;
            }
            Medium::Memory(segments) => segments[segment as usize].extend_from_slice(bytes),
        }
        Ok(())
    }

    /// Cuts `segment` back to `len` bytes.
    fn cut(&mut self, segment: u64, len: u64) -> Result<(), WalError> {
        match self {
            Medium::Dir { dir, writer } => {
                *writer = None; // drop the buffered writer over the cut bytes
                let file = OpenOptions::new().write(true).open(segment_path(dir, segment))?;
                file.set_len(len)?;
                file.sync_all()?;
            }
            Medium::Memory(segments) => segments[segment as usize].truncate(len as usize),
        }
        Ok(())
    }

    /// Seals the tail segment: flushed and synced before the next opens.
    fn seal(&mut self) -> Result<(), WalError> {
        if let Medium::Dir { writer, .. } = self {
            if let Some(mut w) = writer.take() {
                w.flush()?;
                w.get_ref().sync_all()?;
            }
        }
        Ok(())
    }

    /// A crash: the writer dies (flushed bytes stay, torn bytes stay torn)
    /// and `garbage`, if any, lands on the tail `segment`.
    fn crash(&mut self, segment: u64, garbage: &[u8]) {
        match self {
            Medium::Dir { dir, writer } => {
                *writer = None;
                if !garbage.is_empty() {
                    let path = segment_path(dir, segment);
                    if let Ok(mut file) = OpenOptions::new().create(true).append(true).open(path) {
                        let _ = file.write_all(garbage);
                        let _ = file.flush();
                    }
                }
            }
            Medium::Memory(segments) => {
                if !garbage.is_empty() {
                    memory_segment(segments, segment).extend_from_slice(garbage);
                }
            }
        }
    }

    /// Recovers the segments, cutting a torn tail off the last one.
    fn recover(&mut self) -> Result<Recovered, WalError> {
        match self {
            Medium::Dir { dir, .. } => recover_dir(dir),
            Medium::Memory(segments) => {
                let recovered = recover_segments(segments.iter().enumerate().map(|(i, s)| Ok((i as u64, s))))?;
                if recovered.torn_tails_discarded == 1 {
                    segments[recovered.last_segment as usize].truncate(recovered.last_segment_len as usize);
                }
                Ok(recovered)
            }
        }
    }
}

/// The rotation threshold a sink starts with: 64 KiB.
const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

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
        WalConfig { dir: dir.into(), segment_bytes: DEFAULT_SEGMENT_BYTES }
    }
}

/// How many faulting attempts [`DurabilitySink::append_forced`] makes
/// before writing fault-free.
const FORCE_RETRIES: u32 = 4;

/// A [`DurabilitySink`] over segments in a directory or in memory:
/// explicit flush points, rotation, torn-tail-tolerant recovery, and
/// seeded storage fault injection.
pub struct WalSink {
    medium: Medium,
    /// Rotation threshold ([`WalConfig::segment_bytes`]).
    segment_bytes: u64,
    faults: StorageFaultPlane,
    rng: StdRng,
    /// Current (tail) segment index.
    segment: u64,
    /// Clean, acknowledged byte length of the tail segment.
    clean_len: u64,
    /// Bytes of an unhealed torn append sitting past `clean_len` in the
    /// tail segment. Healed (truncated) before the next write; left in
    /// place by a crash for recovery to discard.
    torn_bytes: u64,
    stats: WalStats,
}

impl fmt::Debug for WalSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `rng`, the buffered writer and the segment bytes have no useful
        // rendering.
        let mut s = f.debug_struct("WalSink");
        match &self.medium {
            Medium::Dir { dir, .. } => s.field("dir", dir),
            Medium::Memory(segments) => s.field("memory_segments", &segments.len()),
        };
        s.field("segment", &self.segment)
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

    /// Opens a sink over the segment files in `config.dir` whose appends
    /// draw storage faults from `faults` using a deterministic RNG seeded
    /// with `seed`. Segments already there are recovered first.
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
        let medium = Medium::Dir { dir: config.dir, writer: None };
        Ok(Self::over(medium, config.segment_bytes, faults, seed, &recovered))
    }

    /// An empty sink whose segments live in memory, with the default
    /// rotation threshold and `with_faults`'s fault draws. For a simulated
    /// peer: its crash is the simulator's, so the log need not outlive the
    /// process, and the sink makes no filesystem call.
    #[must_use]
    pub fn in_memory(faults: StorageFaultPlane, seed: u64) -> WalSink {
        Self::over(Medium::Memory(Vec::new()), DEFAULT_SEGMENT_BYTES, faults, seed, &Recovered::default())
    }

    fn over(medium: Medium, segment_bytes: u64, faults: StorageFaultPlane, seed: u64, recovered: &Recovered) -> Self {
        let stats = WalStats { torn_tails_discarded: recovered.torn_tails_discarded, ..WalStats::default() };
        WalSink {
            medium,
            segment_bytes,
            faults,
            rng: StdRng::seed_from_u64(seed),
            segment: recovered.last_segment,
            clean_len: recovered.last_segment_len,
            torn_bytes: 0,
            stats,
        }
    }

    /// Truncates unacknowledged torn bytes off the tail segment — the
    /// writer's heal step before reusing the segment.
    fn heal(&mut self) -> Result<(), WalError> {
        if self.torn_bytes == 0 {
            return Ok(());
        }
        self.medium.cut(self.segment, self.clean_len)?;
        self.torn_bytes = 0;
        Ok(())
    }

    /// Seals the tail segment (flush + sync) and opens the next one.
    fn rotate(&mut self) -> Result<(), WalError> {
        self.medium.seal()?;
        self.segment += 1;
        self.clean_len = 0;
        self.stats.segments_rotated += 1;
        self.medium.open(self.segment, 0)
    }

    /// One append attempt. `with_faults` gates the fault draws so the
    /// forced path can finish with a clean write.
    fn try_append(&mut self, entry: &JournalEntry, with_faults: bool) -> Result<bool, WalError> {
        self.heal()?;
        self.medium.open(self.segment, self.clean_len)?;
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
            // A strict prefix of the frame lands in the segment; the
            // append still reports failure. The torn bytes stay until the
            // next append heals them — or a crash hands them to recovery.
            let cut = self.rng.gen_range(1..frame.len() as u64) as usize;
            self.medium.write(self.segment, &frame[..cut])?;
            self.torn_bytes = cut as u64;
            self.stats.append_faults += 1;
            return Ok(false);
        }
        // Explicit flush point: the entry must be durable before its
        // consequences escape the peer.
        self.medium.write(self.segment, &frame)?;
        self.clean_len += frame.len() as u64;
        self.stats.bytes_appended += frame.len() as u64;
        if self.clean_len >= self.segment_bytes {
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
        // Crash: volatile state vanishes — the buffered writer with it
        // (flushed bytes stay; torn bytes stay torn) — and, with
        // `partial_segment_on_crash`, a burst of seeded garbage lands on
        // the tail: the partial write of a frame that never completed.
        let mut garbage = Vec::new();
        if self.faults.partial_segment_on_crash {
            let n = self.rng.gen_range(1..=24u64);
            garbage = (0..n).map(|_| (self.rng.gen_range(0..=255u64)) as u8).collect();
        }
        self.medium.crash(self.segment, &garbage);
        // Restart: recover from the segments alone.
        let recovered = self.medium.recover().expect("sealed WAL segments must recover");
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
