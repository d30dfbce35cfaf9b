//! A commit is pulled, not acknowledged.
//!
//! `Commit` leaves once, with no ack and no retransmission. A participant
//! whose result has left and that hears no decision within the decision
//! timeout (`DECISION_TIMEOUT`, 64 ticks) sends `Inquire` to
//! the origin, which answers from its decision record — and says nothing
//! while it is undecided, so the participant asks again later.

use axml_chaos::{attach_wal_sinks, run_case, CaseConfig, Profile};
use axml_core::context::TxnState;
use axml_core::peer::DECISION_TIMEOUT;
use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_p2p::{CrashEvent, EventKind, FaultAction, FaultPlane, PeerId, ScriptedFault, StorageFaultPlane};

/// The scripted loss of the first `commit` the origin AP1 sends to each
/// of `peers`.
fn lost_commits(peers: &[u32]) -> FaultPlane {
    let drop = |to: u32| ScriptedFault {
        from: PeerId(1),
        to: PeerId(to),
        kind: "commit".into(),
        nth: 0,
        action: FaultAction::Drop,
    };
    FaultPlane::scripted(peers.iter().map(|&p| drop(p)).collect())
}

#[test]
fn every_participant_that_missed_the_commit_asks_once_and_commits() {
    let mut s = ScenarioBuilder::fig1().fault_plane(lost_commits(&[2, 3, 4, 5, 6])).build();
    let report = s.run();
    assert!(report.outcome.is_some_and(|o| o.committed));
    assert!(report.atomic);
    let txn = report.txn.expect("submitted");
    for p in 2..=6 {
        let actor = s.sim.actor(PeerId(p));
        assert_eq!(actor.context(txn).expect("joined").state, TxnState::Committed, "AP{p}");
        assert_eq!(actor.stats.inquiries, 1, "AP{p}");
    }
    assert_eq!(report.metrics.kind("inquire"), 5);
    // The five lost decisions and the five answers. An answer covers
    // nobody, so AP3 passes its own on to AP4 and AP5, and AP5 to AP6:
    // three more, to peers that have asked for theirs already.
    assert_eq!(report.metrics.kind("commit"), 13);
    assert_eq!(report.metrics.retransmits, 0, "nothing was sent again: the decisions were asked for");
}

#[test]
fn an_undecided_origin_answers_nothing_and_the_inquirer_asks_again() {
    // AP2 answers at once; AP3 takes 300 ticks, and the origin stays
    // undecided until it has.
    let mut s = ScenarioBuilder::new(1, &[(1, 2), (1, 3)]).duration(3, 300).traced().build();
    let report = s.run();
    assert!(report.outcome.is_some_and(|o| o.committed));
    let events = s.trace().expect("traced").events();
    let decided = events.iter().find(|e| e.peer == 1 && matches!(e.kind, EventKind::Resolve { .. })).expect("decided");
    let asked: Vec<u64> =
        events.iter().filter(|e| e.peer == 2 && matches!(e.kind, EventKind::Inquire { to: 1 })).map(|e| e.at).collect();
    assert!(asked.len() >= 2, "AP2 asked again: {asked:?}");
    assert!(asked.iter().all(|&at| at < decided.at), "every inquiry came before the decision: {asked:?}");
    // Each wait is twice the one before it.
    assert_eq!(asked[1] - asked[0], 2 * DECISION_TIMEOUT);
    // Nobody answered them: the one `Commit` per participant is the
    // origin's decision, and no `Abort` was sent.
    assert_eq!(report.metrics.kind("commit"), 2);
    assert_eq!(report.metrics.kind("abort"), 0);
    assert_eq!(s.sim.actor(PeerId(2)).stats.inquiries as usize, asked.len());
    assert_eq!(s.sim.actor(PeerId(3)).stats.inquiries, 0, "AP3's decision came before its timeout");
}

#[test]
fn a_crash_restarted_origin_answers_from_its_replayed_wal() {
    // AP1 decides at about t=20, loses its decision to AP2, and
    // crash-restarts at t=40 from its WAL segments; AP2 asks at about
    // t=70.
    let mut fault = lost_commits(&[2]);
    fault.crashes.push(CrashEvent { at: 40, peer: PeerId(1) });
    let mut s = ScenarioBuilder::new(1, &[(1, 2)]).fault_plane(fault).build();
    attach_wal_sinks(&mut s, &StorageFaultPlane::default(), 0);
    let report = s.run();
    assert!(report.outcome.is_some_and(|o| o.committed));
    let txn = report.txn.expect("submitted");
    let (origin, ap2) = (s.sim.actor(PeerId(1)), s.sim.actor(PeerId(2)));
    assert_eq!(origin.stats.crash_recoveries, 1);
    assert!(origin.wal_stats().recovery_entries > 0, "the restart read the decision back from its segments");
    assert_eq!(origin.context(txn).expect("replayed").state, TxnState::Committed);
    assert_eq!(ap2.stats.inquiries, 1);
    assert_eq!(ap2.context(txn).expect("joined").state, TxnState::Committed);
    assert_eq!(report.metrics.kind("commit"), 2, "the lost decision and the replayed record's answer");
}

/// The two cases where a keep-alive `Ping` that named the transaction —
/// a pull that rode on the parent watch — left a participant undecided
/// for good: a re-route and a false timeout had released the watch.
#[test]
fn the_cases_a_watch_borne_pull_left_undecided_end_decided() {
    for (scenario, seed) in [("fig1", 69), ("fig2", 20)] {
        let case = CaseConfig::new(scenario, Profile::Storm, seed);
        let result = run_case(&case);
        assert!(result.verdict.ok, "{}: {}", case.label(), result.verdict.reason);
        assert_eq!(result.open_contexts, 0, "{}", case.label());
    }
}

/// The decision timeout sits above every fault-free wait: 200 sequential
/// Fig. 1 commits, as the benchmark's `commit-stream` submits them, ask
/// nothing.
#[test]
fn two_hundred_fault_free_commits_send_no_inquiry() {
    const TXNS: u64 = 200;
    const SUBMIT_EVERY: u64 = 400;
    let mut s = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(0).build();
    for k in 0..TXNS {
        if k > 0 {
            s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
        }
        s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
    }
    let outcomes = &s.sim.actor(s.origin).outcomes;
    assert_eq!(outcomes.iter().filter(|o| o.committed).count() as u64, TXNS);
    assert_eq!(s.sim.metrics().kind("inquire"), 0);
    assert_eq!(s.sim.metrics().kind("commit"), 5 * TXNS, "one decision per participant");
}
