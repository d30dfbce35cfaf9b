//! Cross-commit byte pins.
//!
//! CI's replay diffs compare two runs of the *same* binary, so an
//! encoder that drifts passes them. The files under `tests/golden/` were
//! written by the commit before the streaming encoder landed (the
//! journal, tree and snapshot `axml-chaos trace --demo` prints, and one
//! WAL segment sealed by that commit's `WalSink`); `corpus/` holds
//! entries written by older commits still. Whatever this commit encodes
//! must come out as those bytes.

use axml_chaos::{builder_for, plane_for, run_with_plane_traced, CaseConfig, CorpusEntry, Profile};
use axml_core::durability::{DurabilitySink, JournalEntry};
use axml_core::scenarios::ScenarioBuilder;
use axml_store::{recover_dir, WalConfig, WalSink};
use serde::Value;
use std::path::{Path, PathBuf};

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn golden_text(name: &str) -> String {
    std::fs::read_to_string(golden(name)).expect("golden file is checked in")
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
    let (_, dump) = run_with_plane_traced(&case, plane);
    // Compared as `bool`s: a failure names the artefact, not 49 KB of it.
    assert!(dump.journal == golden_text("demo.jsonl"), "journal JSON lines drifted from tests/golden/demo.jsonl");
    assert!(dump.tree == golden_text("demo.tree"), "causal tree drifted from tests/golden/demo.tree");
    assert!(dump.snapshot == golden_text("demo.snapshot"), "snapshot drifted from tests/golden/demo.snapshot");
    assert_eq!(dump.journal.lines().count(), 389, "the demo journal holds 389 events");
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
    let sealed = std::fs::read(golden("fig1.wal-00000000.seg")).expect("golden segment is checked in");
    let scratch = Scratch::new("wal");

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
    let mut sink = WalSink::create(config).expect("temp dir is writable");
    for e in &recovered.entries {
        assert!(sink.append(e), "a fault-free sink acknowledges every append");
    }
    assert_eq!(sink.stats().segments_rotated, 1, "the segment was sealed");
    let rewritten = std::fs::read(sink.dir().join("wal-00000000.seg")).expect("segment exists");
    assert!(rewritten == sealed, "WAL frames drifted from tests/golden/fig1.wal-00000000.seg");
}

#[test]
fn corpus_entries_reencode_to_what_is_on_disk() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let text_of = |name: &str| std::fs::read_to_string(dir.join(name)).expect("corpus entry is checked in");

    // The one machine-written entry: compact, so byte-comparable.
    let text = text_of("gen-0-dups-0.json");
    let entry: CorpusEntry = serde_json::from_str(&text).expect("entry parses");
    assert_eq!(serde_json::to_string(&entry).expect("entry serializes"), text);
    // Its embedded flight dump is what a replay renders today.
    let mut case = CaseConfig::new(&entry.scenario, Profile::parse(&entry.profile).expect("known profile"), entry.seed);
    case.dedup = entry.dedup;
    let (replay, _) = run_with_plane_traced(&case, entry.plane.clone());
    assert_eq!(replay.flight, entry.flight, "flight dump drifted from the one gen-0-dups-0.json embeds");

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
