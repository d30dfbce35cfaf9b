//! Isolation integration tests: two concurrent transactions contending
//! for the same subtree of a shared provider document.
//!
//! With `PeerConfig::isolation` on, the first writer wins; the loser gets
//! an `IsolationConflict` fault that flows through the ordinary nested
//! recovery (abort + compensation), leaving a state equivalent to a
//! serial execution of the winner alone.

use axml::core::peer::WsdlCatalog;
use axml::p2p::LatencyModel;
use axml::prelude::*;

/// Two origins (AP1, AP4) concurrently invoke `write` on the shared
/// provider AP2, which replaces the *same* slot of the same document.
fn build(isolation: bool, stagger: u64) -> Sim<TxnMsg, AxmlPeer> {
    let mut wsdl = WsdlCatalog::default();
    wsdl.publish("write", &["slot"]);
    let mut peers = Vec::new();
    for id in 0..5u32 {
        let mut config = PeerConfig::default();
        config.isolation = isolation;
        config.use_alternative_providers = false;
        let mut peer = AxmlPeer::new(PeerId(id), config);
        peer.wsdl = wsdl.clone();
        peers.push(peer);
    }
    // Shared provider AP2.
    peers[2].repo.put_xml("shared", "<d><slot>initial</slot></d>").unwrap();
    peers[2].registry.register(
        ServiceDef::update(
            "write",
            "shared",
            UpdateAction::replace(
                Locator::parse("Select v/slot from v in d").unwrap(),
                vec![Fragment::elem_text("slot", "written-by-$who")],
            ),
        )
        .with_results(&["slot"])
        .with_duration(30), // long enough for the transactions to overlap
    );
    // Origins AP1 and AP4.
    for origin in [1u32, 4] {
        peers[origin as usize]
            .repo
            .put_xml(
                "mine",
                &format!(
                    r#"<d><out>o{origin}</out>
                    <axml:sc mode="replace" serviceNameSpace="w" serviceURL="peer://ap2" methodName="write">
                        <axml:params><axml:param name="who"><axml:value>AP{origin}</axml:value></axml:param></axml:params>
                    </axml:sc></d>"#
                ),
            )
            .unwrap();
        peers[origin as usize].registry.register(
            ServiceDef::query("go", "mine", SelectQuery::parse("Select v//slot from v in d").unwrap())
                .with_results(&["slot"]),
        );
    }
    // Deterministic latency so the overlap/no-overlap structure of each
    // test is guaranteed by arithmetic (stagger vs. duration), not by
    // the luck of the jitter draw: with latency fixed at 2, AP1's claim
    // window [32, 36] always covers AP4's claim at 35.
    let mut sim_config = SimConfig::default();
    sim_config.latency = LatencyModel { min: 2, max: 2 };
    let mut sim = Sim::new(sim_config, peers);
    sim.actor_mut(PeerId(1)).auto_submit = Some(("go".into(), vec![]));
    sim.actor_mut(PeerId(4)).auto_submit = Some(("go".into(), vec![]));
    sim.schedule_timer(0, PeerId(1), 0);
    sim.schedule_timer(stagger, PeerId(4), 0);
    sim
}

#[test]
fn overlapping_writers_first_wins_second_aborts() {
    let mut sim = build(true, 3);
    sim.run();
    let o1 = sim.actor(PeerId(1)).outcomes.first().expect("AP1 resolved").clone();
    let o4 = sim.actor(PeerId(4)).outcomes.first().expect("AP4 resolved").clone();
    assert!(o1.committed != o4.committed, "exactly one writer wins: {o1:?} vs {o4:?}");
    // The provider saw a conflict and rolled the loser back.
    let provider = sim.actor(PeerId(2));
    assert_eq!(provider.stats.isolation_conflicts, 1);
    let doc = provider.repo.get("shared").unwrap().to_xml();
    let winner = if o1.committed { "AP1" } else { "AP4" };
    assert!(doc.contains(&format!("written-by-{winner}")), "serial-equivalent final state, winner={winner}: {doc}");
    // No lingering claims.
    assert!(provider.conflicts.is_empty());
}

#[test]
fn without_isolation_both_commit_lost_update() {
    // The baseline the module exists to fix: both commit, the first write
    // is silently lost (classic lost update).
    let mut sim = build(false, 3);
    sim.run();
    let o1 = sim.actor(PeerId(1)).outcomes.first().expect("resolved").clone();
    let o4 = sim.actor(PeerId(4)).outcomes.first().expect("resolved").clone();
    assert!(o1.committed && o4.committed);
    assert_eq!(sim.actor(PeerId(2)).stats.isolation_conflicts, 0);
}

#[test]
fn serial_transactions_never_conflict() {
    // Staggered far apart: the first commits (releasing its claims)
    // before the second arrives.
    let mut sim = build(true, 500);
    sim.run();
    let o1 = sim.actor(PeerId(1)).outcomes.first().expect("resolved").clone();
    let o4 = sim.actor(PeerId(4)).outcomes.first().expect("resolved").clone();
    assert!(o1.committed && o4.committed, "serial writers both succeed");
    assert_eq!(sim.actor(PeerId(2)).stats.isolation_conflicts, 0);
    let doc = sim.actor(PeerId(2)).repo.get("shared").unwrap().to_xml();
    assert!(doc.contains("written-by-AP4"), "last writer's value persists: {doc}");
}

#[test]
fn aborted_loser_leaves_no_trace() {
    let mut sim = build(true, 3);
    sim.run();
    let provider = sim.actor(PeerId(2));
    let doc = provider.repo.get("shared").unwrap().to_xml();
    // Exactly one write survives — never both, never a mangled mix.
    let writes = doc.matches("written-by-").count();
    assert_eq!(writes, 1, "{doc}");
    assert!(!doc.contains("initial"), "the winner's replace landed: {doc}");
}

/// An origin that updates its own document lets go of its claims when it
/// commits: the same update, submitted again 200 ticks later, commits too
/// instead of conflicting with the first transaction's claims.
#[test]
fn an_origin_commit_releases_its_own_claims() {
    let mut peers: Vec<AxmlPeer> = (0..2u32)
        .map(|id| AxmlPeer::new(PeerId(id), PeerConfig { isolation: true, ..PeerConfig::default() }))
        .collect();
    peers[1].repo.put_xml("mine", "<d><slot>initial</slot></d>").unwrap();
    peers[1].registry.register(
        ServiceDef::update(
            "write",
            "mine",
            UpdateAction::replace(
                Locator::parse("Select v/slot from v in d").unwrap(),
                vec![Fragment::elem_text("slot", "written")],
            ),
        )
        .with_results(&["slot"]),
    );
    let mut sim = Sim::new(SimConfig::default(), peers);
    sim.actor_mut(PeerId(1)).auto_submit = Some(("write".into(), vec![]));
    sim.schedule_timer(0, PeerId(1), 0);
    sim.schedule_timer(200, PeerId(1), 0);
    sim.run();
    let origin = sim.actor(PeerId(1));
    assert_eq!(origin.outcomes.len(), 2);
    assert!(origin.outcomes.iter().all(|o| o.committed), "{:?}", origin.outcomes);
    assert_eq!(origin.stats.isolation_conflicts, 0);
    assert!(origin.conflicts.is_empty(), "no claim outlives its transaction");
}
