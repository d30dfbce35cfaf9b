//! The keep-alive probes only idle links, and is still sound: a live peer
//! is never suspected.
//!
//! A watched peer is probed once `max(last heard, last probe) +
//! ping_interval` has passed, so its silence is at most `ping_interval`
//! plus one round trip — 10 + 2 × 5 = 20 with the shipped configuration
//! and latency model, below the `ping_timeout` of 25. The runs here have
//! no fault in them; a single `DetectHow::PingTimeout`, or a transaction
//! that does not commit, is a false suspicion.

use axml::core::DetectHow;
use axml::prelude::*;

/// Ticks between submissions of the sequential stream
/// (`benchmark/src/inputs.rs`).
const SUBMIT_EVERY: u64 = 400;

fn ping_timeouts(s: &Scenario) -> Vec<(PeerId, PeerId, u64)> {
    let by = |&p: &PeerId| {
        let suspected = s.sim.actor(p).stats.detections.iter().filter(|d| d.how == DetectHow::PingTimeout);
        suspected.map(move |d| (p, d.disconnected, d.at)).collect::<Vec<_>>()
    };
    s.participants.iter().flat_map(by).collect()
}

#[test]
fn a_fault_free_tree_commits_without_a_single_suspicion_at_any_seed() {
    let trees = [
        ("fig1", ScenarioBuilder::fig1()),
        ("fig2", ScenarioBuilder::fig2()),
        ("deep", ScenarioBuilder::new(1, &[(1, 2), (2, 3), (3, 4)])),
    ];
    for (name, tree) in trees {
        for flavor in [Flavor::Query, Flavor::Update] {
            for seed in 0..64 {
                let mut s = tree.clone().flavor(flavor).with_seed(seed).build();
                let report = s.run();
                assert!(report.outcome.is_some_and(|o| o.committed), "{name}/{flavor:?}/seed={seed} did not commit");
                assert_eq!(ping_timeouts(&s), vec![], "{name}/{flavor:?}/seed={seed}: (by, suspected, at)");
                let probes: u64 = report.stats.values().map(|st| st.keepalive_probes).sum();
                assert_eq!(probes, report.metrics.kind("ping"), "{name}/{flavor:?}/seed={seed}: every probe is a ping");
            }
        }
    }
}

/// The benchmark's `commit-stream` pass: the shortcut that keeps a fixed
/// probe cadence and skips the peers heard from within it aborted 5 of
/// these 4,000.
#[test]
fn four_thousand_sequential_commits_raise_no_suspicion() {
    const TXNS: u64 = 4_000;
    let mut s = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(0).build();
    for k in 0..TXNS {
        if k > 0 {
            s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
        }
        s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
    }
    let outcomes = &s.sim.actor(s.origin).outcomes;
    assert_eq!(outcomes.len() as u64, TXNS);
    assert_eq!(outcomes.iter().filter(|o| !o.committed).count(), 0, "a fault-free commit aborted");
    assert_eq!(ping_timeouts(&s), vec![], "(by, suspected, at)");
    // Liveness rode on traffic: most probe rounds found the link busy.
    let (probes, suppressed) = s.participants.iter().fold((0, 0), |(p, q), &peer| {
        let st = &s.sim.actor(peer).stats;
        (p + st.keepalive_probes, q + st.keepalive_suppressed)
    });
    assert_eq!(probes, s.sim.metrics().kind("ping"));
    assert!(suppressed > probes, "{probes} probes sent, {suppressed} made unnecessary by traffic");
}
