use super::*;
use axml_core::chain::ActiveList;
use axml_core::ids::{InvocationId, TxnId};
use axml_p2p::PeerId;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh per-test temp directory (removed by `TempDir::drop`).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("axml-store-test-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Drops a directory sink's buffered writer, so the next append opens
/// the tail segment afresh.
fn drop_writer(sink: &mut WalSink) {
    if let Medium::Dir { writer, .. } = &mut sink.medium {
        *writer = None;
    }
}

fn entry(i: u64) -> JournalEntry {
    let txn = TxnId::new(PeerId(1), i);
    match i % 3 {
        0 => JournalEntry::Begin { txn, parent: None, chain: ActiveList::new(PeerId(1), true), at: i },
        1 => JournalEntry::RemoteInvoked {
            txn,
            child: PeerId(2),
            inv: InvocationId::new(PeerId(1), i),
            method: format!("S{i}"),
        },
        _ => JournalEntry::Resolved { txn, committed: i.is_multiple_of(2), at: i },
    }
}

#[test]
fn torn_commit_record_presumes_abort_and_compensates() {
    // End-to-end presumed-abort recovery through a torn tail: a peer
    // journals Begin + Local effects, then crashes while writing the
    // commit record — the frame tears, so the decision was never
    // acknowledged. The restarted peer's WAL discards the torn tail,
    // replay finds the context in doubt, and the peer's presumed abort
    // compensates the logged effects, restoring the document to its
    // baseline.
    use axml_core::context::TxnState;
    use axml_core::peer::{AxmlPeer, PeerConfig};
    use axml_doc::Repository;
    use axml_p2p::{CrashEvent, Sim, SimConfig};
    use axml_query::{Locator, UpdateAction};
    use axml_xml::Fragment;

    let tmp = TempDir::new();
    let mut repo = Repository::new();
    repo.put_xml("d1", "<d><slot>initial</slot></d>").unwrap();
    let baseline = repo.get("d1").unwrap().to_xml();
    let action = UpdateAction::replace(Locator::parse("d/slot").unwrap(), vec![Fragment::elem_text("slot", "written")]);
    let report = action.apply(repo.get_mut("d1").unwrap()).unwrap();
    assert_ne!(repo.get("d1").unwrap().to_xml(), baseline, "the update really landed");

    let txn = TxnId::new(PeerId(1), 0);
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    let begin = JournalEntry::Begin { txn, parent: None, chain: ActiveList::new(PeerId(1), true), at: 1 };
    let local =
        JournalEntry::Local { txn, doc: "d1".into(), op_label: "replace".into(), effects: report.effects.into() };
    assert!(sink.append(&begin));
    assert!(sink.append(&local));
    // The commit decision tears mid-write and the peer dies before the
    // heal: the torn frame stays on disk, but it was never acknowledged.
    sink.faults = StorageFaultPlane { torn_append_prob: 1.0, sync_failure_prob: 0.0, partial_segment_on_crash: false };
    assert!(!sink.append(&JournalEntry::Resolved { txn, committed: true, at: 2 }));
    // The peer holding that disk and the document crashes and restarts.
    let mut config = SimConfig::default();
    config.fault.crashes.push(CrashEvent { at: 3, peer: PeerId(1) });
    let peers = (0..2).map(|p| AxmlPeer::new(PeerId(p), PeerConfig::default())).collect();
    let mut sim = Sim::new(config, peers);
    let peer = sim.actor_mut(PeerId(1));
    peer.repo = repo;
    peer.set_durability_sink(Box::new(sink));
    sim.run_until(3);

    let peer = sim.actor(PeerId(1));
    assert_eq!(peer.wal_stats().torn_tails_discarded, 1, "the torn commit record is a discarded crash artifact");
    let decision = JournalEntry::Resolved { txn, committed: false, at: 3 };
    assert_eq!(peer.journal(), [begin, local, decision], "the unacknowledged commit is presumed an abort");
    assert_eq!(peer.stats.presumed_aborts, 1);
    assert_eq!(peer.context(txn).unwrap().state, TxnState::Aborted);
    assert_eq!(peer.repo.get("d1").unwrap().to_xml(), baseline, "compensation undid the logged effects");
}

#[test]
fn append_then_crash_restart_round_trips() {
    let tmp = TempDir::new();
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    let entries: Vec<JournalEntry> = (0..20).map(entry).collect();
    for e in &entries {
        assert!(sink.append(e), "fault-free append succeeds");
    }
    assert!(sink.stats().bytes_appended > 0);
    let recovered = sink.crash_restart();
    assert_eq!(recovered, entries);
    assert_eq!(sink.stats().recovery_entries, 20);
    assert_eq!(sink.stats().torn_tails_discarded, 0);
}

#[test]
fn wal_stats_are_monotone_pure_reads_for_the_gauge_plane() {
    // The time-series sampler reads `stats()` at every window boundary
    // and publishes `bytes_appended` / `segments_rotated` as the
    // `wal_bytes` / `wal_segments` gauges. That is only sound if the
    // counters never move backwards under appends and the read itself
    // changes nothing — sampling twice in a row must see the same log.
    let tmp = TempDir::new();
    let mut config = WalConfig::new(tmp.path());
    config.segment_bytes = 256; // force rotations mid-sequence
    let mut sink = WalSink::create(config).unwrap();
    let (mut bytes, mut segments) = (0u64, 0u64);
    for i in 0..30 {
        assert!(sink.append(&entry(i)));
        let s = sink.stats();
        assert!(s.bytes_appended > bytes, "bytes strictly grow per append");
        assert!(s.segments_rotated >= segments, "rotations never rewind");
        assert_eq!(sink.stats(), s, "stats() is a pure read");
        (bytes, segments) = (s.bytes_appended, s.segments_rotated);
    }
    assert!(segments >= 1, "the tiny threshold forced at least one rotation");
}

#[test]
fn recovery_survives_sink_reopen() {
    // A brand-new sink over the same directory (a true process restart)
    // sees exactly what the dead one acknowledged.
    let tmp = TempDir::new();
    let entries: Vec<JournalEntry> = (0..7).map(entry).collect();
    {
        let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
        for e in &entries {
            assert!(sink.append(e));
        }
        // Dropped without any clean shutdown.
    }
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    assert_eq!(sink.crash_restart(), entries);
}

#[test]
fn segments_rotate_at_threshold_and_recover_in_order() {
    let tmp = TempDir::new();
    let mut config = WalConfig::new(tmp.path());
    config.segment_bytes = 256; // tiny: force many rotations
    let mut sink = WalSink::create(config).unwrap();
    let entries: Vec<JournalEntry> = (0..40).map(entry).collect();
    for e in &entries {
        assert!(sink.append(e));
    }
    assert!(sink.stats().segments_rotated >= 2, "rotated {}", sink.stats().segments_rotated);
    let segs = segment_indices(tmp.path()).unwrap();
    assert!(segs.len() >= 3, "{segs:?}");
    assert_eq!(sink.crash_restart(), entries, "recovery stitches segments in order");
}

#[test]
fn torn_tail_in_final_segment_is_discarded_and_truncated() {
    let tmp = TempDir::new();
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    let entries: Vec<JournalEntry> = (0..5).map(entry).collect();
    for e in &entries {
        assert!(sink.append(e));
    }
    drop(sink);
    // Tear the tail: append half of a valid frame.
    let frame = encode_frame(&entry(99));
    let path = segment_path(tmp.path(), 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let clean_len = bytes.len() as u64;
    bytes.extend_from_slice(&frame[..frame.len() / 2]);
    std::fs::write(&path, &bytes).unwrap();
    let recovered = recover_dir(tmp.path()).unwrap();
    assert_eq!(recovered.entries, entries);
    assert_eq!(recovered.torn_tails_discarded, 1);
    assert_eq!(recovered.last_segment_len, clean_len);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len, "segment truncated to high water");
    // Idempotent: a second scan finds nothing torn.
    let again = recover_dir(tmp.path()).unwrap();
    assert_eq!(again.entries, entries);
    assert_eq!(again.torn_tails_discarded, 0);
}

#[test]
fn corrupt_frame_in_sealed_segment_is_a_hard_error() {
    let tmp = TempDir::new();
    let mut config = WalConfig::new(tmp.path());
    config.segment_bytes = 200;
    let mut sink = WalSink::create(config).unwrap();
    for i in 0..30 {
        assert!(sink.append(&entry(i)));
    }
    drop(sink);
    let segs = segment_indices(tmp.path()).unwrap();
    assert!(segs.len() >= 2);
    // Flip one payload byte in the FIRST (sealed) segment.
    let path = segment_path(tmp.path(), segs[0]);
    let mut bytes = std::fs::read(&path).unwrap();
    let idx = FRAME_HEADER + 2;
    bytes[idx] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let err = recover_dir(tmp.path()).unwrap_err();
    assert!(matches!(err, WalError::CorruptInterior { segment, .. } if segment == segs[0]), "{err}");
}

#[test]
fn sync_failure_rolls_back_cleanly() {
    let tmp = TempDir::new();
    let faults = StorageFaultPlane { sync_failure_prob: 1.0, ..StorageFaultPlane::default() };
    let mut sink = WalSink::with_faults(WalConfig::new(tmp.path()), faults, 7).unwrap();
    assert!(!sink.append(&entry(0)), "every append faults");
    assert!(!sink.append(&entry(1)));
    assert_eq!(sink.stats().append_faults, 2);
    assert_eq!(sink.stats().bytes_appended, 0);
    assert_eq!(sink.crash_restart(), Vec::new(), "nothing became durable");
}

#[test]
fn torn_append_reports_failure_and_heals_on_next_append() {
    let tmp = TempDir::new();
    // Deterministic: first append tears, later draws depend on the seed;
    // prob 1.0 makes every faulting append tear.
    let faults = StorageFaultPlane { torn_append_prob: 1.0, ..StorageFaultPlane::default() };
    let mut sink = WalSink::with_faults(WalConfig::new(tmp.path()), faults, 3).unwrap();
    assert!(!sink.append(&entry(0)), "torn append reports failure");
    let seg = segment_path(tmp.path(), 0);
    assert!(std::fs::metadata(&seg).unwrap().len() > 0, "torn bytes are on disk");
    // The forced path heals the torn bytes and lands the entry.
    sink.append_forced(&entry(1));
    let recovered = sink.crash_restart();
    assert_eq!(recovered, vec![entry(1)], "only the acknowledged entry survives");
}

#[test]
fn torn_append_then_crash_leaves_tail_for_recovery_to_discard() {
    let tmp = TempDir::new();
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    assert!(sink.append(&entry(0)));
    // Switch on tearing for the next append only.
    sink.faults.torn_append_prob = 1.0;
    assert!(!sink.append(&entry(1)));
    sink.faults.torn_append_prob = 0.0;
    // Crash before any heal: the torn frame is still on disk.
    let recovered = sink.crash_restart();
    assert_eq!(recovered, vec![entry(0)]);
    assert_eq!(sink.stats().torn_tails_discarded, 1);
    // The sink keeps working after the restart.
    assert!(sink.append(&entry(2)));
    assert_eq!(sink.crash_restart(), vec![entry(0), entry(2)]);
}

#[test]
fn partial_segment_garbage_on_crash_is_discarded() {
    let tmp = TempDir::new();
    let faults = StorageFaultPlane { partial_segment_on_crash: true, ..StorageFaultPlane::default() };
    let mut sink = WalSink::with_faults(WalConfig::new(tmp.path()), faults, 11).unwrap();
    let entries: Vec<JournalEntry> = (0..6).map(entry).collect();
    for e in &entries {
        assert!(sink.append(e));
    }
    let recovered = sink.crash_restart();
    assert_eq!(recovered, entries, "garbage tail discarded, clean prefix kept");
    assert_eq!(sink.stats().torn_tails_discarded, 1);
}

#[test]
fn append_forced_lands_under_full_fault_storm() {
    let tmp = TempDir::new();
    let faults = StorageFaultPlane { torn_append_prob: 0.7, sync_failure_prob: 0.7, partial_segment_on_crash: true };
    let mut sink = WalSink::with_faults(WalConfig::new(tmp.path()), faults, 5).unwrap();
    let entries: Vec<JournalEntry> = (0..12).map(entry).collect();
    for e in &entries {
        sink.append_forced(e);
    }
    assert_eq!(sink.crash_restart(), entries, "forced appends are never lost");
}

#[test]
fn frame_codec_round_trips() {
    for i in 0..9 {
        let e = entry(i);
        let frame = encode_frame(&e);
        match scan_segment(&frame) {
            SegmentScan::Clean(v) => assert_eq!(v, vec![e]),
            SegmentScan::Torn { .. } => panic!("clean frame scanned as torn"),
        }
    }
}

#[test]
fn a_sink_creates_missing_parents_and_starts_an_empty_log() {
    let tmp = TempDir::new();
    let dir = tmp.path().join("run-7").join("peer-3");
    let mut sink = WalSink::with_faults(WalConfig::new(&dir), StorageFaultPlane::default(), 9).unwrap();
    assert!(dir.is_dir());
    assert_eq!((sink.segment, sink.clean_len, sink.torn_bytes), (0, 0, 0));
    assert_eq!(sink.stats(), WalStats::default());
    // Straight into a parent that exists — the directory this call makes
    // is not scanned — the sink starts the same.
    let sibling = tmp.path().join("run-7").join("peer-4");
    let fresh = WalSink::with_faults(WalConfig::new(&sibling), StorageFaultPlane::default(), 9).unwrap();
    assert_eq!((fresh.segment, fresh.clean_len, fresh.stats()), (0, 0, WalStats::default()));
    let entries: Vec<JournalEntry> = (0..4).map(entry).collect();
    for e in &entries {
        assert!(sink.append(e));
    }
    assert_eq!(segment_indices(&dir).unwrap(), vec![0]);
    assert_eq!(sink.crash_restart(), entries);
    // Only a missing parent is made up for: below something that is not a
    // directory there is no log to start, empty or otherwise.
    let file = tmp.path().join("run-7").join("not-a-dir");
    std::fs::write(&file, b"x").unwrap();
    assert!(WalSink::with_faults(WalConfig::new(file.join("peer-5")), StorageFaultPlane::default(), 9).is_err());
}

#[test]
fn a_sink_over_sealed_segments_and_a_torn_tail_recovers_them() {
    // The directory exists, so opening it must take the scanning path:
    // stitch the sealed segments, cut the torn tail, count it, and go on
    // appending after the last clean frame.
    let tmp = TempDir::new();
    let mut config = WalConfig::new(tmp.path());
    config.segment_bytes = 256;
    let entries: Vec<JournalEntry> = (0..20).map(entry).collect();
    let mut sink = WalSink::create(config.clone()).unwrap();
    for e in &entries {
        assert!(sink.append(e));
    }
    let (tail, clean_len) = (sink.segment, sink.clean_len);
    assert!(tail >= 2 && clean_len > 0, "sealed segments and a tail with frames in it: {tail} / {clean_len}");
    drop(sink);
    let frame = encode_frame(&entry(99));
    let tail_path = segment_path(tmp.path(), tail);
    let mut bytes = std::fs::read(&tail_path).unwrap();
    bytes.extend_from_slice(&frame[..frame.len() / 2]);
    std::fs::write(&tail_path, &bytes).unwrap();

    let mut sink = WalSink::with_faults(config.clone(), StorageFaultPlane::default(), 1).unwrap();
    assert_eq!((sink.segment, sink.clean_len), (tail, clean_len));
    assert_eq!(sink.stats().torn_tails_discarded, 1);
    assert_eq!(std::fs::metadata(&tail_path).unwrap().len(), clean_len, "tail cut back to the high-water mark");
    assert!(sink.append(&entry(20)));
    drop(sink);

    // Opening the same directory again — twice more, in this process —
    // finds a clean log each time and what the last sink appended.
    let all: Vec<JournalEntry> = (0..21).map(entry).collect();
    for _ in 0..2 {
        let mut sink = WalSink::with_faults(config.clone(), StorageFaultPlane::default(), 1).unwrap();
        assert_eq!(sink.stats().torn_tails_discarded, 0);
        assert_eq!(sink.crash_restart(), all);
    }
}

#[test]
fn a_segment_already_at_its_clean_length_is_opened_without_truncating() {
    // What `Medium::open` skips must not change what lands on disk: bytes
    // past the clean mark are still cut, bytes up to it still kept.
    let tmp = TempDir::new();
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    assert!(sink.append(&entry(0)));
    let clean_len = sink.clean_len;
    drop_writer(&mut sink);
    let path = segment_path(tmp.path(), 0);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(b"left by nobody");
    std::fs::write(&path, &bytes).unwrap();
    assert!(sink.append(&entry(1)));
    assert_eq!(std::fs::metadata(&path).unwrap().len(), sink.clean_len);
    assert!(sink.clean_len > clean_len);
    drop_writer(&mut sink);
    assert!(sink.append(&entry(2)), "a tail already at the clean length is appended to in place");
    assert_eq!(sink.crash_restart(), (0..3).map(entry).collect::<Vec<_>>());
}

#[test]
fn empty_directory_recovers_empty() {
    let tmp = TempDir::new();
    let recovered = recover_dir(tmp.path()).unwrap();
    assert!(recovered.entries.is_empty());
    assert_eq!(recovered.last_segment, 0);
}

proptest! {
    /// Satellite: arbitrary entry sequences → frames → truncate the file
    /// at an arbitrary byte → recovery equals the longest clean prefix.
    #[test]
    fn truncation_recovers_longest_clean_prefix(
        picks in prop::collection::vec(0u64..50, 1..12),
        cut_seed in 0u64..10_000,
    ) {
        let tmp = TempDir::new();
        let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
        let entries: Vec<JournalEntry> = picks.iter().map(|&i| entry(i)).collect();
        let mut boundaries = vec![0u64]; // cumulative frame end offsets
        for e in &entries {
            prop_assert!(sink.append(e));
            boundaries.push(boundaries.last().unwrap() + encode_frame(e).len() as u64);
        }
        drop(sink);
        let path = segment_path(tmp.path(), 0);
        let total = std::fs::metadata(&path).unwrap().len();
        prop_assert_eq!(total, *boundaries.last().unwrap());
        let cut = cut_seed % (total + 1);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        // Longest clean prefix: every frame wholly before the cut.
        let survivors = boundaries.iter().skip(1).filter(|&&end| end <= cut).count();
        let recovered = recover_dir(tmp.path()).unwrap();
        prop_assert_eq!(&recovered.entries[..], &entries[..survivors]);
        let expect_torn = u64::from(boundaries[survivors] != cut);
        prop_assert_eq!(recovered.torn_tails_discarded, expect_torn);
    }

    /// Satellite: corrupting a byte inside the final frame drops exactly
    /// that frame.
    #[test]
    fn tail_corruption_drops_only_the_tail_frame(
        picks in prop::collection::vec(0u64..50, 2..10),
        flip_seed in 0u64..10_000,
    ) {
        let tmp = TempDir::new();
        let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
        let entries: Vec<JournalEntry> = picks.iter().map(|&i| entry(i)).collect();
        for e in &entries {
            prop_assert!(sink.append(e));
        }
        drop(sink);
        let path = segment_path(tmp.path(), 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let last_len = encode_frame(entries.last().unwrap()).len() as u64;
        let last_start = bytes.len() as u64 - last_len;
        let flip = last_start + flip_seed % last_len;
        bytes[flip as usize] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = recover_dir(tmp.path()).unwrap();
        prop_assert_eq!(&recovered.entries[..], &entries[..entries.len() - 1]);
        prop_assert_eq!(recovered.torn_tails_discarded, 1);
    }
}

/// A frame whose checksum is right for whatever `payload` holds.
fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut frame = u32::try_from(payload.len()).unwrap().to_le_bytes().to_vec();
    frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Writes `entries`' frames followed by `tail` as segment 0 — the final
/// one, or, with `sealed`, a sealed one before a clean segment 1 holding
/// `entries` again — and recovers the directory on a 2 MiB-stack thread,
/// as `par_map` workers do. Returns where the clean frames end and what
/// recovery said.
fn recover_hostile(entries: &[JournalEntry], tail: &[u8], sealed: bool) -> (u64, Result<Recovered, WalError>) {
    let tmp = TempDir::new();
    let clean: Vec<u8> = entries.iter().flat_map(encode_frame).collect();
    std::fs::write(segment_path(tmp.path(), 0), [&clean[..], tail].concat()).unwrap();
    if sealed {
        std::fs::write(segment_path(tmp.path(), 1), &clean).unwrap();
    }
    let dir = tmp.path().to_path_buf();
    let recovered = std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(move || recover_dir(&dir))
        .unwrap()
        .join()
        .expect("recovery neither panics nor overflows a worker stack");
    (clean.len() as u64, recovered)
}

/// The two answers recovery may give for `entries` and then, if
/// `damaged`, bytes that are none: in the final segment the entries, the
/// damage cut off; in a sealed one `CorruptInterior` where it starts.
fn clean_prefix_or_refusal(
    entries: &[JournalEntry],
    damaged: bool,
    sealed: bool,
    (clean_end, recovered): (u64, Result<Recovered, WalError>),
) -> Result<(), TestCaseError> {
    match recovered {
        Ok(r) if !(sealed && damaged) => {
            let copies = if sealed { 2 } else { 1 };
            prop_assert_eq!(r.entries.len(), copies * entries.len());
            prop_assert!(r.entries.starts_with(entries));
            prop_assert_eq!(r.torn_tails_discarded, u64::from(damaged));
            prop_assert_eq!(r.last_segment_len, clean_end);
        }
        Err(WalError::CorruptInterior { segment: 0, offset }) if sealed && damaged => {
            prop_assert_eq!(offset, clean_end);
        }
        other => prop_assert!(false, "sealed={} damaged={}: {:?}", sealed, damaged, other),
    }
    Ok(())
}

/// What a hostile frame can carry under a checksum that is right for it:
/// any bytes, a journal entry cut short, or nesting far past what the
/// JSON parser admits.
fn hostile_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 1..512),
        (0u64..50, any::<usize>()).prop_map(|(i, cut)| {
            let json = serde_json::to_string(&entry(i)).unwrap();
            json.as_bytes()[..cut % json.len()].to_vec()
        }),
        Just("[".repeat(2_000).into_bytes()),
    ]
}

proptest! {
    /// Arbitrary bytes after a clean prefix: as the final segment, a torn
    /// tail cut back to that prefix; in a sealed segment, a hard
    /// `CorruptInterior` at the prefix's end. Never a panic.
    #[test]
    fn arbitrary_bytes_in_a_segment_recover_the_clean_prefix_or_refuse(
        picks in prop::collection::vec(0u64..50, 0..6),
        tail in prop::collection::vec(any::<u8>(), 0..2_048),
        sealed in any::<bool>(),
    ) {
        let entries: Vec<JournalEntry> = picks.iter().map(|&i| entry(i)).collect();
        clean_prefix_or_refusal(&entries, !tail.is_empty(), sealed, recover_hostile(&entries, &tail, sealed))?;
    }

    /// Frames whose checksum is right over a payload that is not a journal
    /// entry: the same two answers, and no panic or stack overflow on the
    /// way to them.
    #[test]
    fn a_checksummed_hostile_payload_is_a_torn_tail_or_a_corrupt_interior(
        picks in prop::collection::vec(0u64..50, 0..6),
        payload in hostile_payload(),
        sealed in any::<bool>(),
    ) {
        let entries: Vec<JournalEntry> = picks.iter().map(|&i| entry(i)).collect();
        clean_prefix_or_refusal(&entries, true, sealed, recover_hostile(&entries, &frame_of(&payload), sealed))?;
    }
}

#[test]
fn an_entry_holding_a_fragment_hundreds_of_levels_deep_recovers_on_a_worker_stack() {
    // The JSON parser refuses input nested deeper than
    // `serde_json::MAX_DEPTH`; that limit must stay clear of what the
    // encoder itself emits. A journalled fragment costs three JSON levels
    // per XML level, and `par_map` workers recover WALs on spawned
    // threads (2 MiB stacks), so both ends are exercised here.
    use axml_query::{Effect, NodePath};
    use axml_xml::Fragment;

    const XML_LEVELS: usize = 300;
    let mut fragment = Fragment::elem_text("leaf", "bottom");
    for _ in 1..XML_LEVELS {
        fragment = Fragment::elem("level").with_child(fragment);
    }
    let deep = JournalEntry::Local {
        txn: TxnId::new(PeerId(1), 0),
        doc: "d1".into(),
        op_label: "delete".into(),
        effects: vec![Effect::Deleted { fragment, parent_path: NodePath(vec![0]), position: 0 }].into(),
    };
    let tmp = TempDir::new();
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    assert!(sink.append(&deep));
    drop(sink);
    let dir = tmp.path().to_path_buf();
    let recovered = std::thread::Builder::new()
        .stack_size(2 * 1024 * 1024)
        .spawn(move || recover_dir(&dir).expect("a clean WAL recovers"))
        .unwrap()
        .join()
        .expect("recovery neither panics nor overflows a worker stack");
    assert_eq!(recovered.torn_tails_discarded, 0, "the deep frame is not mistaken for a torn tail");
    assert_eq!(recovered.entries, vec![deep]);
}

#[test]
fn a_subtree_at_the_depth_limit_survives_a_wal_round_trip() {
    // The deepest document the XML parser admits, its whole body logged
    // as one deleted subtree: the frame the WAL writes for it must be a
    // frame recovery reads back, or a legal document turns into a
    // corrupt segment (sealed) or a silently truncated tail (last).
    use axml_query::{Locator, UpdateAction};
    use axml_xml::{parser::MAX_DEPTH, Document};

    let nested = |levels: usize| format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels));
    assert!(Document::parse(&nested(MAX_DEPTH + 1)).is_err(), "the limit under test is the parser's own");
    let mut doc = Document::parse(&nested(MAX_DEPTH)).expect("nesting at the limit parses");
    let report = UpdateAction::delete(Locator::parse("a/a").unwrap()).apply(&mut doc).unwrap();
    assert_eq!(report.cost_nodes, MAX_DEPTH - 1, "everything below the root went into the log");

    let txn = TxnId::new(PeerId(1), 0);
    let entries = vec![
        JournalEntry::Begin { txn, parent: None, chain: ActiveList::new(PeerId(1), true), at: 1 },
        JournalEntry::Local { txn, doc: "d1".into(), op_label: "delete".into(), effects: report.effects.into() },
        JournalEntry::Resolved { txn, committed: true, at: 2 },
    ];
    let tmp = TempDir::new();
    let mut sink = WalSink::create(WalConfig::new(tmp.path())).unwrap();
    for e in &entries {
        assert!(sink.append(e));
    }
    drop(sink);
    let recovered = recover_dir(tmp.path()).expect("a clean WAL recovers");
    assert_eq!(recovered.torn_tails_discarded, 0, "the deep frame is not mistaken for a torn tail");
    assert_eq!(recovered.entries, entries, "nor does it take the acknowledged decision after it along");
}

/// A sink's segments as bytes, in order: the files of a directory sink,
/// the vectors of an in-memory one.
fn segments_of(sink: &WalSink) -> Vec<Vec<u8>> {
    match &sink.medium {
        Medium::Dir { dir, .. } => {
            let indices = segment_indices(dir).unwrap();
            assert_eq!(indices, (0..indices.len() as u64).collect::<Vec<_>>(), "segment files are numbered densely");
            indices.iter().map(|&i| std::fs::read(segment_path(dir, i)).unwrap()).collect()
        }
        Medium::Memory(segments) => segments.clone(),
    }
}

/// One step a sink takes in the media property.
#[derive(Debug, Clone)]
enum Step {
    Append(u64),
    Forced(u64),
    Crash,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..50).prop_map(Step::Append),
        (0u64..50).prop_map(Step::Append),
        (0u64..50).prop_map(Step::Forced),
        Just(Step::Crash),
    ]
}

/// A fault probability: never, sometimes, mostly or always.
fn prob() -> impl Strategy<Value = f64> {
    (0u8..4).prop_map(|p| [0.0, 0.3, 0.7, 1.0][p as usize])
}

proptest! {
    /// The two media are one log: the same appends, forced appends and
    /// crashes under the same seeded faults leave byte-identical segments
    /// after every step, with the same append results, recovered entries,
    /// write position and `WalStats`.
    #[test]
    fn a_directory_and_a_memory_sink_hold_the_same_segments_after_every_step(
        steps in prop::collection::vec(step(), 1..40),
        torn in prob(),
        sync in prob(),
        partial in any::<bool>(),
        segment_bytes in 64u64..600,
        seed in 0u64..1_000,
    ) {
        let faults = StorageFaultPlane {
            torn_append_prob: torn,
            sync_failure_prob: sync,
            partial_segment_on_crash: partial,
        };
        let tmp = TempDir::new();
        let mut config = WalConfig::new(tmp.path());
        config.segment_bytes = segment_bytes;
        let mut dir = WalSink::with_faults(config, faults.clone(), seed).unwrap();
        let mut mem = WalSink::in_memory(faults, seed);
        mem.segment_bytes = segment_bytes;
        for (n, step) in steps.iter().enumerate() {
            match *step {
                Step::Append(i) => prop_assert_eq!(dir.append(&entry(i)), mem.append(&entry(i)), "step {}", n),
                Step::Forced(i) => {
                    dir.append_forced(&entry(i));
                    mem.append_forced(&entry(i));
                }
                Step::Crash => prop_assert_eq!(dir.crash_restart(), mem.crash_restart(), "step {}", n),
            }
            let (on_disk, in_memory) = (segments_of(&dir), segments_of(&mem));
            let lengths = |segments: &[Vec<u8>]| segments.iter().map(Vec::len).collect::<Vec<_>>();
            prop_assert!(
                on_disk == in_memory,
                "step {}: {:?}: segment lengths {:?} on disk, {:?} in memory",
                n, step, lengths(&on_disk), lengths(&in_memory)
            );
            prop_assert_eq!(
                (dir.segment, dir.clean_len, dir.torn_bytes),
                (mem.segment, mem.clean_len, mem.torn_bytes),
                "step {}", n
            );
            prop_assert_eq!(dir.stats(), mem.stats(), "step {}", n);
        }
        prop_assert_eq!(dir.crash_restart(), mem.crash_restart());
        prop_assert_eq!(segments_of(&dir), segments_of(&mem));
    }
}

#[test]
fn an_in_memory_sink_recovers_a_torn_tail_and_rotates() {
    let faults = StorageFaultPlane { partial_segment_on_crash: true, ..StorageFaultPlane::default() };
    let mut sink = WalSink::in_memory(faults, 11);
    sink.segment_bytes = 256;
    let entries: Vec<JournalEntry> = (0..20).map(entry).collect();
    for e in &entries {
        assert!(sink.append(e));
    }
    assert!(sink.stats().segments_rotated >= 2);
    assert_eq!(sink.crash_restart(), entries, "garbage tail discarded, segments stitched in order");
    assert_eq!(sink.stats().torn_tails_discarded, 1);
    assert!(format!("{sink:?}").contains("memory_segments"));
}

/// What a peer's sink was asked and answered: the journal the peer must
/// hold (the acknowledged appends, replaced by the recovery at a crash),
/// the last recovery, and the refused entries.
#[derive(Debug, Default)]
struct Witnessed {
    held: Vec<JournalEntry>,
    recovered: Vec<JournalEntry>,
    refused: Vec<JournalEntry>,
}

/// A sink that writes through a [`WalSink`] and records into [`Witnessed`].
#[derive(Debug)]
struct Witness {
    sink: WalSink,
    seen: std::sync::Arc<std::sync::Mutex<Witnessed>>,
}

impl DurabilitySink for Witness {
    fn append(&mut self, entry: &JournalEntry) -> bool {
        let acked = self.sink.append(entry);
        let mut seen = self.seen.lock().unwrap();
        if acked { &mut seen.held } else { &mut seen.refused }.push(entry.clone());
        acked
    }

    fn append_forced(&mut self, entry: &JournalEntry) {
        self.sink.append_forced(entry);
        self.seen.lock().unwrap().held.push(entry.clone());
    }

    fn crash_restart(&mut self) -> Vec<JournalEntry> {
        let recovered = self.sink.crash_restart();
        let mut seen = self.seen.lock().unwrap();
        seen.held.clone_from(&recovered);
        seen.recovered.clone_from(&recovered);
        recovered
    }

    fn stats(&self) -> WalStats {
        self.sink.stats()
    }
}

#[test]
fn a_peer_on_a_tearing_wal_holds_exactly_what_its_sink_acknowledged_and_recovered() {
    // AP3 of Fig. 1 crashes at t=30 while serving S3, on a WAL that tears
    // a third of its appends. Before the crash its journal is what the
    // sink acknowledged — never a refused entry; after it, what the sink
    // recovered, then what it acknowledged since.
    use axml_core::peer::PeerConfig;
    use axml_core::scenarios::ScenarioBuilder;
    use axml_p2p::{CrashEvent, FaultPlane};
    let (mut refused, mut recovered) = (0, 0);
    for seed in 0..16 {
        let mut cfg = PeerConfig::default();
        cfg.use_alternative_providers = false;
        let mut b = ScenarioBuilder::fig1().config(cfg);
        b.durations.insert(3, 50);
        let mut fault = FaultPlane::default();
        fault.crashes.push(CrashEvent { at: 30, peer: PeerId(3) });
        let mut s = b.fault_plane(fault).build();
        let seen = std::sync::Arc::default();
        let tearing = StorageFaultPlane { torn_append_prob: 0.3, ..StorageFaultPlane::default() };
        let sink = Witness { sink: WalSink::in_memory(tearing, seed), seen: std::sync::Arc::clone(&seen) };
        s.sim.actor_mut(PeerId(3)).set_durability_sink(Box::new(sink));
        s.sim.run_until(29);
        {
            let (journal, seen) = (s.sim.actor(PeerId(3)).journal(), seen.lock().unwrap());
            assert_eq!(journal, seen.held, "seed {seed}: before the crash");
            assert!(seen.refused.iter().all(|e| !journal.contains(e)), "seed {seed}: a refused entry is held");
            refused += seen.refused.len();
        }
        let report = s.run();
        assert!(report.atomic, "seed {seed}");
        let ap3 = s.sim.actor(PeerId(3));
        assert_eq!(ap3.stats.crash_recoveries, 1, "seed {seed}");
        let seen = seen.lock().unwrap();
        assert_eq!(ap3.journal(), seen.held, "seed {seed}: after the crash");
        assert!(ap3.journal().starts_with(&seen.recovered), "seed {seed}");
        assert_eq!(ap3.wal_stats().recovery_entries, seen.recovered.len() as u64, "seed {seed}");
        recovered += seen.recovered.len();
    }
    assert!(refused > 0, "the WAL tore some appends before the crash");
    assert!(recovered > 0, "the crash recovered some entries");
}
