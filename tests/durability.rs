//! Durability integration: journal a *live* peer's context mid-run,
//! crash it, and recover the in-doubt transaction by presumed abort.

use axml::core::durability::{decode, encode, journal_of, recover_in_doubt, replay, JournalEntry};
use axml::p2p::CrashEvent;
use axml::prelude::*;

/// Freeze Fig. 1 mid-flight, snapshot AP3's journal + repository (what a
/// real peer would have on disk), and run crash recovery on the copy.
#[test]
fn mid_flight_crash_recovers_by_presumed_abort() {
    let mut builder = ScenarioBuilder::fig1();
    // Keep AP3's serving alive long enough to freeze mid-flight: its own
    // body runs late, but its materialization effects land early.
    builder.durations.insert(3, 500);
    let mut scenario = builder.build();
    // Run long enough for AP3 to have materialized S4/S5 results (local
    // effects in its log) but not completed S3.
    scenario.sim.run_until(60);
    let ap3 = scenario.sim.actor(PeerId(3));
    let txns = ap3.known_txns();
    assert_eq!(txns.len(), 1);
    let tc = ap3.context(txns[0]).expect("active context");
    assert!(!tc.is_terminal(), "mid-flight");
    assert!(!tc.local_effects().is_empty(), "materialization effects logged");

    // What survives the crash: the journal and the repository.
    let journal_text = encode(&journal_of(tc));
    let mut disk_repo = ap3.repo.clone();
    let dirty = disk_repo.get("d3").unwrap().to_xml();
    assert!(dirty.contains("done-"), "partial effects visible on disk: {dirty}");

    // 💥 reboot: replay + presumed abort.
    let mut contexts = replay(&decode(&journal_text).unwrap()).unwrap();
    let outcome = recover_in_doubt(&mut contexts, &mut disk_repo, 999);
    assert_eq!(outcome.presumed_aborted, txns);
    let recovered = disk_repo.get("d3").unwrap().to_xml();
    assert!(recovered.contains("initial-3"), "{recovered}");
    assert!(!recovered.contains("done-"), "all partial effects rolled back: {recovered}");
}

/// A committed context's journal replays to Committed and recovery leaves
/// its effects durable.
#[test]
fn committed_journal_survives_crash_untouched() {
    let mut scenario = ScenarioBuilder::fig1().build();
    let report = scenario.run();
    assert!(report.outcome.unwrap().committed);
    let ap3 = scenario.sim.actor(PeerId(3));
    let txn = ap3.known_txns()[0];
    let tc = ap3.context(txn).unwrap();
    assert_eq!(tc.state, TxnState::Committed);

    let journal_text = encode(&journal_of(tc));
    let mut disk_repo = ap3.repo.clone();
    let committed_doc = disk_repo.get("d3").unwrap().to_xml();

    let mut contexts = replay(&decode(&journal_text).unwrap()).unwrap();
    assert_eq!(contexts[0].state, TxnState::Committed);
    let outcome = recover_in_doubt(&mut contexts, &mut disk_repo, 999);
    assert!(outcome.presumed_aborted.is_empty());
    assert_eq!(disk_repo.get("d3").unwrap().to_xml(), committed_doc, "committed effects are durable");
}

/// Journals of every participant after a full aborted run replay to
/// Aborted contexts with nothing left to do.
#[test]
fn aborted_run_journals_are_terminal_everywhere() {
    let mut cfg = PeerConfig::default();
    cfg.use_alternative_providers = false;
    let mut scenario = ScenarioBuilder::fig1().fault_at(5).config(cfg).build();
    let report = scenario.run();
    assert!(!report.outcome.unwrap().committed);
    for p in [1u32, 2, 3, 4, 5, 6] {
        let actor = scenario.sim.actor(PeerId(p));
        for txn in actor.known_txns() {
            let tc = actor.context(txn).unwrap();
            let journal = journal_of(tc);
            let replayed = replay(&decode(&encode(&journal)).unwrap()).unwrap();
            assert_eq!(&replayed[0], tc, "AP{p} journal is faithful");
            assert!(replayed[0].is_terminal());
            // Recovery on a terminal context is a no-op.
            let mut repo = actor.repo.clone();
            let before: Vec<String> = repo.names().iter().map(|n| repo.get(n).unwrap().to_xml()).collect();
            let mut ctxs = replayed;
            recover_in_doubt(&mut ctxs, &mut repo, 999);
            let after: Vec<String> = repo.names().iter().map(|n| repo.get(n).unwrap().to_xml()).collect();
            assert_eq!(before, after);
        }
    }
}

/// A peer without a durability sink is its own stable storage: crashed
/// mid-transaction, it keeps every journalled entry, counts each byte
/// once, and recovers from all of them.
#[test]
fn a_peer_without_a_sink_keeps_its_whole_journal_through_a_crash() {
    let mut builder = ScenarioBuilder::fig1();
    builder.durations.insert(3, 500);
    builder.fault.crashes.push(CrashEvent { at: 60, peer: PeerId(3) });
    let mut scenario = builder.build();
    scenario.sim.run_until(59);
    let ap3 = scenario.sim.actor(PeerId(3));
    let before = ap3.journal().to_vec();
    let bytes = ap3.wal_stats().bytes_appended;
    assert!(ap3.known_txns().iter().any(|&t| !ap3.context(t).unwrap().is_terminal()), "mid-transaction");
    // Each entry's JSON line is counted once (`encode` adds a newline each).
    assert_eq!(bytes, (encode(&before).len() - before.len()) as u64);

    scenario.sim.run_until(60);
    let ap3 = scenario.sim.actor(PeerId(3));
    assert_eq!(ap3.stats.crash_recoveries, 1);
    let (kept, appended) = ap3.journal().split_at(before.len());
    assert_eq!(kept, before, "the crash lost nothing");
    // Since then, recovery journalled one abort per in-doubt context.
    assert_eq!(appended.len() as u64, ap3.stats.presumed_aborts);
    assert!(appended.iter().all(|e| matches!(e, JournalEntry::Resolved { committed: false, .. })));
    let wal = ap3.wal_stats();
    assert_eq!(wal.recovery_entries, before.len() as u64);
    assert_eq!(wal.bytes_appended, bytes + (encode(appended).len() - appended.len()) as u64);
}
