//! Durability integration: crash a *live* peer mid-run and recover its
//! in-doubt transaction by presumed abort.

use axml::core::durability::{decode, encode, journal_of, replay, JournalEntry};
use axml::p2p::{CrashEvent, EventKind};
use axml::prelude::*;
use axml_obs::Monitor;

/// Crash AP3 of a traced Fig. 1 run mid-flight: its restart presumes the
/// in-doubt transaction aborted through the one abort every peer runs, so
/// the undo is counted, journaled and traced, and both checkers accept it.
#[test]
fn mid_flight_crash_recovers_by_presumed_abort() {
    let mut builder = ScenarioBuilder::fig1().traced();
    // Keep AP3's serving alive long enough to crash mid-flight: its own
    // body runs late, but its materialization effects land early.
    builder.durations.insert(3, 500);
    builder.fault.crashes.push(CrashEvent { at: 60, peer: PeerId(3) });
    let mut scenario = builder.build();
    scenario.sim.run_until(59);
    let ap3 = scenario.sim.actor(PeerId(3));
    let tc = ap3.context(ap3.known_txns()[0]).expect("context");
    assert!(!tc.is_terminal(), "mid-flight");
    assert!(!tc.local_effects().is_empty(), "materialization effects logged");
    let dirty = ap3.repo.get("d3").unwrap().to_xml();
    assert!(dirty.contains("done-"), "partial effects visible: {dirty}");

    // 💥 crash and restart: replay + presumed abort.
    scenario.sim.run_until(60);
    let ap3 = scenario.sim.actor(PeerId(3));
    let stats = &ap3.stats;
    assert_eq!((stats.presumed_aborts, stats.compensations_executed), (1, 1));
    assert!(stats.comp_cost_nodes > 0);
    let recovered = ap3.repo.get("d3").unwrap().to_xml();
    assert!(recovered.contains("initial-3"), "{recovered}");
    assert!(!recovered.contains("done-"), "all partial effects rolled back: {recovered}");

    scenario.run();
    let journal = scenario.trace().expect("traced run");
    // After AP3's restart: the decision, then the undo in reverse log order.
    let after: Vec<&EventKind> = (journal.events().iter().filter(|e| e.peer == 3).map(|e| &e.kind))
        .skip_while(|k| !matches!(k, EventKind::Restart { .. }))
        .filter(|k| k.label() == "resolve" || k.label().starts_with("compensate"))
        .collect();
    let undoes: Vec<u64> = (after.iter().skip(2))
        .map_while(|k| match k {
            EventKind::CompensateOp { undoes, .. } => Some(*undoes),
            _ => None,
        })
        .collect();
    assert!(matches!(after[..], [EventKind::Resolve { committed: false }, EventKind::CompensateDerive { .. }, ..]));
    assert!(matches!(after.get(2 + undoes.len()), Some(EventKind::CompensateApply { .. })), "{after:?}");
    assert!(!undoes.is_empty() && undoes.windows(2).all(|w| w[0] > w[1]), "reverse log order: {undoes:?}");
    assert_eq!(Monitor::replay(journal), vec![]);
    let conformance = axml_spec::check_journal(journal);
    assert!(conformance.is_clean(), "{}", conformance.render_text());
}

/// A committed context's journal replays to Committed, and a crash after
/// the commit leaves its effects durable.
#[test]
fn committed_journal_survives_crash_untouched() {
    let mut builder = ScenarioBuilder::fig1();
    builder.fault.crashes.push(CrashEvent { at: 1_000, peer: PeerId(3) });
    let mut scenario = builder.build();
    scenario.sim.run_until(999);
    let ap3 = scenario.sim.actor(PeerId(3));
    let txn = ap3.known_txns()[0];
    let tc = ap3.context(txn).unwrap();
    assert_eq!(tc.state, TxnState::Committed);
    let contexts = replay(&decode(&encode(&journal_of(tc))).unwrap()).unwrap();
    assert_eq!(contexts[0].state, TxnState::Committed);
    let committed_doc = ap3.repo.get("d3").unwrap().to_xml();

    let report = scenario.run();
    assert!(report.outcome.unwrap().committed);
    let ap3 = scenario.sim.actor(PeerId(3));
    assert_eq!((ap3.stats.crash_recoveries, ap3.stats.presumed_aborts), (1, 0));
    assert_eq!(ap3.context(txn).unwrap().state, TxnState::Committed);
    assert_eq!(ap3.repo.get("d3").unwrap().to_xml(), committed_doc, "committed effects are durable");
}

/// Journals of every participant after a full aborted run replay to
/// Aborted contexts, and a crash of every participant afterwards has
/// nothing left to undo.
#[test]
fn aborted_run_journals_are_terminal_everywhere() {
    let mut cfg = PeerConfig::default();
    cfg.use_alternative_providers = false;
    let mut builder = ScenarioBuilder::fig1().fault_at(5).config(cfg);
    let peers = [1u32, 2, 3, 4, 5, 6];
    builder.fault.crashes.extend(peers.map(|p| CrashEvent { at: 1_000, peer: PeerId(p) }));
    let mut scenario = builder.build();
    scenario.sim.run_until(999);
    let docs = |scenario: &Scenario, p: u32| -> Vec<String> {
        let repo = &scenario.sim.actor(PeerId(p)).repo;
        repo.names().iter().map(|n| repo.get(n).unwrap().to_xml()).collect()
    };
    let before: Vec<Vec<String>> = peers.iter().map(|&p| docs(&scenario, p)).collect();
    for p in peers {
        let actor = scenario.sim.actor(PeerId(p));
        for txn in actor.known_txns() {
            let tc = actor.context(txn).unwrap();
            let replayed = replay(&decode(&encode(&journal_of(tc))).unwrap()).unwrap();
            assert_eq!(&replayed[0], tc, "AP{p} journal is faithful");
            assert!(replayed[0].is_terminal());
        }
    }

    let report = scenario.run();
    assert!(!report.outcome.unwrap().committed);
    for (p, before) in peers.into_iter().zip(before) {
        // Recovery on terminal contexts undoes nothing.
        let stats = &scenario.sim.actor(PeerId(p)).stats;
        assert_eq!((stats.crash_recoveries, stats.presumed_aborts), (1, 0), "AP{p}");
        assert_eq!(docs(&scenario, p), before, "AP{p}");
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
