//! Cross-commit byte pins.
//!
//! The WAL pin is a sealed segment *file*, written and read back through
//! a directory sink and `recover_dir`: the on-disk format is what must
//! not drift, so this test keeps the medium a real peer writes, although
//! every chaos case logs to memory.
//!
//! CI's replay diffs compare two runs of the *same* binary, so an
//! encoder that drifts passes them. The files under `tests/golden/` were
//! written by the commit before the streaming encoder landed (the
//! journal, tree and snapshot `axml-chaos trace --demo` prints, and one
//! WAL segment sealed by that commit's `WalSink`); `corpus/` holds
//! entries written by older commits still. Whatever this commit encodes
//! must come out as those bytes.
//!
//! A change of *protocol* behaviour — other messages, other times — moves
//! what there is to encode. Such a commit leaves every encoder file
//! alone (`encoder_equivalence.rs` and `old_paths.rs` hold the encoders
//! to the old writers meanwhile) and rewrites the pins with
//!
//! ```text
//! AXML_BLESS_GOLDEN=1 cargo test -p axml-chaos --test golden
//! ```
//!
//! which stores what each test would have compared: the three demo
//! artefacts, the sealed Fig. 1 segment, and the flight dump embedded in
//! `corpus/gen-0-dups-0.json`.

use axml_chaos::{builder_for, plane_for, run_with_plane_traced, CaseConfig, CorpusEntry, Profile};
use axml_core::durability::{DurabilitySink, JournalEntry};
use axml_core::scenarios::ScenarioBuilder;
use axml_p2p::{fnv64, TraceJournal};
use axml_store::{recover_dir, WalConfig, WalSink};
use serde::Value;
use std::path::{Path, PathBuf};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// True when this run rewrites the pins instead of checking them.
fn blessing() -> bool {
    std::env::var_os("AXML_BLESS_GOLDEN").is_some()
}

/// Holds `actual` to the checked-in bytes at `path` (or stores it there
/// when [`blessing`]). Compared as a `bool`: a failure names the
/// artefact, not 49 KB of it.
fn pinned(path: &Path, actual: &[u8], what: &str) {
    if blessing() {
        std::fs::write(path, actual).expect("golden file is writable");
    }
    let on_disk = std::fs::read(path).expect("golden file is checked in");
    assert!(actual == on_disk, "{what} drifted from {}", path.display());
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("axml-golden-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What `axml-chaos trace --demo` runs.
#[test]
fn demo_journal_tree_and_snapshot_match_the_checked_in_bytes() {
    let case = CaseConfig::new("fig1-abort", Profile::Mixed, 5);
    let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known scenario").peers());
    let (result, dump) = run_with_plane_traced(&case, plane);
    pinned(&golden("demo.jsonl"), dump.journal.to_json_lines().as_bytes(), "journal JSON lines");
    pinned(&golden("demo.tree"), dump.journal.render_tree().as_bytes(), "causal tree");
    pinned(&golden("demo.snapshot"), result.snapshot().render().as_bytes(), "snapshot");
    assert_eq!(dump.journal.len(), 229, "the demo journal holds 229 events");
}

/// A stored journal loads into the two columns the live one keeps, and
/// renders back to the pinned bytes without blessing.
#[test]
fn demo_journal_loads_back_into_its_columns_and_rerenders_the_checked_in_bytes() {
    let text = std::fs::read_to_string(golden("demo.jsonl")).expect("golden journal is checked in");
    let tree = std::fs::read_to_string(golden("demo.tree")).expect("golden tree is checked in");
    let loaded = TraceJournal::from_json_lines(&text).expect("golden journal loads");
    assert!(loaded.to_json_lines() == text, "a loaded journal re-encodes to demo.jsonl");
    assert!(loaded.render_tree() == tree, "a loaded journal re-renders demo.tree");
    assert_eq!(loaded.digest(), fnv64(text.as_bytes()));
    assert_eq!(format!("{:016x}", loaded.digest()), "b31869ef6b8d3a54");
    let case = CaseConfig::new("fig1-abort", Profile::Mixed, 5);
    let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known scenario").peers());
    let (_, dump) = run_with_plane_traced(&case, plane);
    assert_eq!(loaded.events(), dump.journal.events(), "the same protocol events");
    assert_eq!(loaded.samples(), dump.journal.samples(), "the same samples");
    assert_eq!((loaded.events().len(), loaded.samples().len()), (103, 126));
}

/// The journals of a clean Fig. 1 run, participant by participant — what
/// the checked-in segment was written from.
fn fig1_entries() -> Vec<JournalEntry> {
    let mut s = ScenarioBuilder::fig1().build();
    s.run();
    s.participants.iter().flat_map(|&p| s.sim.actor(p).journal().to_vec()).collect()
}

#[test]
fn checked_in_wal_segment_recovers_and_reencodes_byte_for_byte() {
    let scratch = Scratch::new("wal");
    if blessing() {
        // The threshold is the frames' total length: the last append seals.
        let entries = fig1_entries();
        let mut config = WalConfig::new(scratch.0.join("bless"));
        config.segment_bytes = entries.iter().map(|e| axml_store::encode_frame(e).len() as u64).sum();
        let mut sink = WalSink::create(config.clone()).expect("temp dir is writable");
        entries.iter().for_each(|e| sink.append_forced(e));
        std::fs::copy(config.dir.join("wal-00000000.seg"), golden("fig1.wal-00000000.seg"))
            .expect("golden is writable");
    }
    let sealed = std::fs::read(golden("fig1.wal-00000000.seg")).expect("golden segment is checked in");

    // Recovery of the old bytes yields the entries a Fig. 1 run journals.
    let old = scratch.0.join("old");
    std::fs::create_dir_all(&old).expect("temp dir is writable");
    std::fs::write(old.join("wal-00000000.seg"), &sealed).expect("temp dir is writable");
    let recovered = recover_dir(&old).expect("a sealed segment recovers");
    assert_eq!(recovered.torn_tails_discarded, 0);
    assert_eq!(recovered.entries.len(), 33);
    assert_eq!(recovered.entries, fig1_entries(), "the segment holds the Fig. 1 journals");

    // Appending them again writes the same file. The threshold is the
    // segment's own length, so the last append seals it, as it did then.
    let mut config = WalConfig::new(scratch.0.join("new"));
    config.segment_bytes = sealed.len() as u64;
    let mut sink = WalSink::create(config.clone()).expect("temp dir is writable");
    for e in &recovered.entries {
        assert!(sink.append(e), "a fault-free sink acknowledges every append");
    }
    assert_eq!(sink.stats().segments_rotated, 1, "the segment was sealed");
    let rewritten = std::fs::read(config.dir.join("wal-00000000.seg")).expect("segment exists");
    assert!(rewritten == sealed, "WAL frames drifted from tests/golden/fig1.wal-00000000.seg");
}

#[test]
fn corpus_entries_reencode_to_what_is_on_disk() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let text_of = |name: &str| std::fs::read_to_string(dir.join(name)).expect("corpus entry is checked in");

    // The one machine-written entry: compact, so byte-comparable.
    let text = text_of("gen-0-dups-0.json");
    let mut entry: CorpusEntry = serde_json::from_str(&text).expect("entry parses");
    // Its embedded flight dump is what a replay renders today.
    let mut case = CaseConfig::new(&entry.scenario, Profile::parse(&entry.profile).expect("known profile"), entry.seed);
    case.dedup = entry.dedup;
    let (replay, dump) = run_with_plane_traced(&case, entry.plane.clone());
    let flight = (!replay.verdict.ok).then(|| dump.flight());
    if blessing() {
        entry.flight = flight.clone();
    }
    assert_eq!(flight, entry.flight, "flight dump drifted from the one gen-0-dups-0.json embeds");
    pinned(
        &dir.join("gen-0-dups-0.json"),
        serde_json::to_string(&entry).expect("entry serializes").as_bytes(),
        "entry",
    );

    // The hand-formatted ones: equal as JSON values. (None of them has a
    // `flight` key, which the re-encoding spells `"flight":null`.)
    for name in [
        "gen-1-dups-0.json",
        "gen-12-drops-0.json",
        "gen-14-storage-0.json",
        "gen-40-drops-0.json",
        "gen-57-storm-3.json",
    ] {
        let text = text_of(name);
        let entry: CorpusEntry = serde_json::from_str(&text).expect("entry parses");
        assert!(entry.flight.is_none(), "{name}");
        let Value::Map(mut on_disk) = serde_json::from_str::<Value>(&text).expect("entry is JSON") else {
            panic!("{name}: not an object")
        };
        on_disk.push(("flight".to_string(), Value::Null));
        let reencoded: Value = serde_json::from_str(&serde_json::to_string(&entry).expect("entry serializes"))
            .expect("re-encoding is JSON");
        assert_eq!(reencoded, Value::Map(on_disk), "{name}");
    }
}
