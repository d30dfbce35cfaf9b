//! E7 — peer-independent vs peer-dependent compensation under
//! disconnection.
//!
//! The scenario the paper motivates §3.2's variant with: a participant
//! completes its work and then disconnects *before the abort decision
//! reaches it*. Peer-dependent compensation loses the `Abort` (the
//! original peer must compensate itself, but it is gone); the
//! peer-independent recovering peer holds the compensating-service
//! definition and — because actions address nodes structurally — can run
//! it on a **replica** of the document.
//!
//! Setup: Fig. 1 tree; AP3's subtree (S5/S6 under it) completes quickly;
//! AP2's long-running S2 then faults, aborting the transaction; AP5
//! disconnects after finishing but before the abort propagates. Measured:
//! whether a connected copy of AP5's document ends in the compensated
//! state. Sweep: disconnect probability × replica availability.

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::PeerConfig;
use axml_p2p::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// One measured configuration (aggregated).
#[derive(Debug, Clone)]
pub struct Row {
    /// Probability the completed participant disconnects before the abort.
    pub p_disconnect: f64,
    /// Replica of the participant's document available?
    pub replica: bool,
    /// Peer-independent mode?
    pub peer_independent: bool,
    /// Trials.
    pub trials: usize,
    /// Fraction of runs where a *connected* copy of the participant's
    /// document ended in the compensated (baseline) state.
    pub comp_success: f64,
}

/// Runs one trial. Returns true if some connected copy of d5 is
/// compensated at the end.
fn one(seed: u64, disconnect: bool, replica: bool, peer_independent: bool) -> bool {
    let mut config = PeerConfig::default();
    config.peer_independent = peer_independent;
    config.use_alternative_providers = false;
    let mut builder = ScenarioBuilder::fig1().flavor(Flavor::Update).fault_at(2).config(config);
    builder.seed = seed;
    // S2 is slow; AP3's subtree completes long before the fault fires.
    builder.durations.insert(2, 400);
    for p in [3u32, 4, 5, 6] {
        builder.durations.insert(p, 5);
    }
    let replica_peer = if replica {
        let (b, r) = builder.with_replica(5);
        builder = b;
        Some(r)
    } else {
        None
    };
    if disconnect {
        // After S5 completed (~t≈60 with the short durations) but before
        // S2's fault at ~t≈420.
        builder = builder.disconnect(200, 5);
    }
    let mut s = builder.build();
    let report = s.run();
    assert!(!report.outcome.map(|o| o.committed).unwrap_or(true), "the injected S2 fault must abort the transaction");
    // Success = the compensation for S5's work *executed on a reachable
    // holder of d5*: either AP5 itself (still connected, doc back to its
    // initial state) or — peer-independent only — the replica executed
    // the shipped compensating service. A disconnected AP5 with a lost
    // `Abort` means the compensation never ran anywhere.
    if s.sim.is_connected(PeerId(5)) {
        let d5 = s.sim.actor(PeerId(5)).repo.get("d5").expect("AP5 hosts d5").to_xml();
        return d5.contains("initial-5") && !d5.contains("done-5");
    }
    match replica_peer {
        None => false,
        Some(r) => {
            let rep = s.sim.actor(PeerId(r));
            s.sim.is_connected(PeerId(r)) && rep.stats.compensations_executed > 0
        }
    }
}

/// Runs the sweep.
pub fn run(trials: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p_disconnect in &[0.0f64, 0.5, 1.0] {
        for replica in [false, true] {
            for peer_independent in [false, true] {
                let mut success = 0usize;
                let mut rng = StdRng::seed_from_u64(7 + (p_disconnect * 100.0) as u64);
                for t in 0..trials {
                    let disconnect = rng.gen_bool(p_disconnect);
                    if one(t as u64 * 31 + 1, disconnect, replica, peer_independent) {
                        success += 1;
                    }
                }
                rows.push(Row {
                    p_disconnect,
                    replica,
                    peer_independent,
                    trials,
                    comp_success: success as f64 / trials.max(1) as f64,
                });
            }
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E7 — peer-independent vs peer-dependent compensation under disconnection",
        &["p-disc", "replica", "peer-indep", "trials", "comp-success"],
    );
    for r in rows {
        t.row(vec![
            format!("{:.1}", r.p_disconnect),
            r.replica.to_string(),
            r.peer_independent.to_string(),
            r.trials.to_string(),
            format!("{:.2}", r.comp_success),
        ]);
    }
    t.with_note(
        "expected shape: without disconnection both modes compensate (1.0); once the original \
         peer disconnects, peer-dependent compensation is lost, while peer-independent + replica \
         still reaches 1.0 (the definition runs on the replica) — the gap grows with p-disc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_without_disconnection_both_succeed() {
        assert!(one(1, false, false, false));
        assert!(one(1, false, false, true));
    }

    #[test]
    fn dependent_mode_loses_compensation_on_disconnect() {
        assert!(!one(2, true, false, false), "abort message lost, no replica fallback");
        assert!(!one(2, true, true, false), "dependent mode never targets the replica");
    }

    #[test]
    fn independent_mode_compensates_via_replica() {
        assert!(one(2, true, true, true), "compensating service runs on the replica");
        assert!(!one(2, true, false, true), "without a replica even independent mode is stuck");
    }

    #[test]
    fn sweep_shape() {
        let rows = run(6);
        let get = |p: f64, rep: bool, pi: bool| {
            rows.iter()
                .find(|r| r.p_disconnect == p && r.replica == rep && r.peer_independent == pi)
                .unwrap()
                .comp_success
        };
        assert_eq!(get(0.0, false, false), 1.0);
        assert_eq!(get(0.0, false, true), 1.0);
        assert_eq!(get(1.0, true, true), 1.0, "independent + replica always recovers");
        assert_eq!(get(1.0, true, false), 0.0, "dependent loses everything at p=1");
        assert!(get(0.5, true, true) >= get(0.5, true, false));
    }
}
