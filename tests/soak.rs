//! Soak tests: many transactions through the same peers, back to back,
//! with churn injected mid-stream. Checks there is no cross-transaction
//! leakage (contexts, watches, chains) and the peers end quiescent.

use axml::prelude::*;

/// Runs `n` sequential query-flavor transactions at the Fig. 1 origin.
fn run_sequential(n: u64, disconnect: Option<(u64, u32, u64)>) -> axml::core::scenarios::Scenario {
    let mut builder = ScenarioBuilder::fig1().flavor(Flavor::Query);
    builder.deadline = 100_000;
    if let Some((at, peer, back_at)) = disconnect {
        builder = builder.disconnect(at, peer);
        let mut scenario = builder.build();
        scenario.sim.schedule_reconnect(back_at, PeerId(peer));
        for k in 1..n {
            scenario.sim.schedule_timer(k * 400, PeerId(1), 0);
        }
        scenario.sim.run_until(100_000);
        return scenario;
    }
    let mut scenario = builder.build();
    for k in 1..n {
        scenario.sim.schedule_timer(k * 400, PeerId(1), 0);
    }
    scenario.sim.run_until(100_000);
    scenario
}

#[test]
fn five_sequential_transactions_all_commit() {
    let scenario = run_sequential(5, None);
    let origin = scenario.sim.actor(PeerId(1));
    assert_eq!(origin.outcomes.len(), 5);
    for o in &origin.outcomes {
        assert!(o.committed, "{o:?}");
    }
    // Distinct transaction ids, one context each at every participant.
    let txns: std::collections::BTreeSet<TxnId> = origin.outcomes.iter().map(|o| o.txn).collect();
    assert_eq!(txns.len(), 5);
    for p in [1u32, 2, 3, 4, 5, 6] {
        let actor = scenario.sim.actor(PeerId(p));
        assert_eq!(actor.known_txns().len(), 5, "AP{p} served all five");
        assert!(actor.is_quiescent(), "AP{p} has leftover work");
        assert!(actor.watched_peers().is_empty(), "AP{p} leaked a watch");
        for t in actor.known_txns() {
            assert_eq!(actor.context(t).unwrap().state, TxnState::Committed);
        }
    }
}

#[test]
fn transaction_during_outage_aborts_later_ones_commit() {
    // AP5 is down for the second transaction's window (t≈400..800) and
    // back for the rest.
    let scenario = run_sequential(5, Some((395, 5, 790)));
    let origin = scenario.sim.actor(PeerId(1));
    assert_eq!(origin.outcomes.len(), 5);
    let committed: Vec<bool> = origin.outcomes.iter().map(|o| o.committed).collect();
    assert!(committed[0], "first txn ran before the outage");
    assert!(!committed[1], "second txn hit the outage: {committed:?}");
    assert!(committed[2] && committed[3] && committed[4], "recovery after reconnect: {committed:?}");
    // Every context everywhere is terminal and no work leaked.
    for p in [1u32, 2, 3, 4, 6] {
        let actor = scenario.sim.actor(PeerId(p));
        assert!(actor.is_quiescent(), "AP{p}");
        for t in actor.known_txns() {
            assert!(actor.context(t).unwrap().is_terminal(), "AP{p}/{t}");
        }
    }
}

#[test]
fn interleaved_transactions_from_two_origins() {
    // AP1 and AP4 run transactions over overlapping participants with
    // staggered, overlapping schedules (query flavor: no write conflicts).
    let edges = [(1u32, 2u32), (1, 3), (4, 2), (4, 3)];
    let mut builder = ScenarioBuilder::new(1, &edges).flavor(Flavor::Query);
    builder.deadline = 50_000;
    let mut scenario = builder.build();
    // AP4 also needs a root service: reuse S4 (it hosts d4 with edges 2,3).
    scenario.sim.actor_mut(PeerId(4)).auto_submit = Some(("S4".into(), vec![]));
    // The builder already scheduled AP1's first submission at t=0.
    for k in 0..3u64 {
        if k > 0 {
            scenario.sim.schedule_timer(k * 37, PeerId(1), 0);
        }
        scenario.sim.schedule_timer(k * 37 + 11, PeerId(4), 0);
    }
    scenario.sim.run_until(50_000);
    for origin in [1u32, 4] {
        let actor = scenario.sim.actor(PeerId(origin));
        assert_eq!(actor.outcomes.len(), 3, "AP{origin}");
        for o in &actor.outcomes {
            assert!(o.committed, "AP{origin}: {o:?}");
        }
    }
    // Shared providers tracked 6 separate contexts.
    for provider in [2u32, 3] {
        assert_eq!(scenario.sim.actor(PeerId(provider)).known_txns().len(), 6, "AP{provider}");
        assert!(scenario.sim.actor(PeerId(provider)).is_quiescent());
    }
}

/// A peer that drops out mid-transaction has unacked deliveries; their
/// retransmit timers come due while it is offline and the simulator
/// discards them. On reconnect the peer retires that bookkeeping with
/// `cancel_timer` — of timers that no longer exist. Each such call used
/// to leave an id in the simulator's cancelled set for the rest of the
/// run; at quiescence nothing may be left waiting to be cancelled.
#[test]
fn churn_leaves_no_cancelled_timer_behind() {
    // Outages placed inside the first transaction, where every one of
    // these peers still has an unacknowledged delivery in its outbox.
    for (at, peer) in [(5u64, 3u32), (10, 2), (15, 6), (20, 5), (45, 3)] {
        let scenario = run_sequential(3, Some((at, peer, at + 150)));
        let origin = scenario.sim.actor(PeerId(1));
        assert_eq!(origin.outcomes.len(), 3, "outage of AP{peer} at t={at}");
        assert!(origin.outcomes[2].committed, "AP{peer} is back for the last transaction");
        assert_eq!(scenario.sim.cancelled_timers(), 0, "outage of AP{peer} at t={at} leaked a cancelled timer id");
    }
}
