//! E9 — extended chaining (the paper's future work).
//!
//! "Currently, the 'chaining' mechanism is restricted to the parent,
//! children and sibling peers. We are exploring the feasibility of
//! extending the same to uncles, cousins, etc."
//!
//! This ablation measures the trade-off: gossiping chain updates to
//! grandparents/uncles/cousins as well spreads invocation-tree knowledge
//! in fewer hops (faster convergence at every peer — the knowledge
//! disconnection handling depends on) at the price of more chain-update
//! messages.

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::{Chaining, PeerConfig};
use axml_p2p::PeerId;
use axml_workload::{tree_edges, TreeShape};

use crate::table::Table;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Tree depth (fanout 2).
    pub depth: usize,
    /// Peers in the tree.
    pub peers: usize,
    /// `invoke-only`, `standard` or `extended`.
    pub scope: String,
    /// Simulated time until the *origin* knows the full tree.
    pub origin_converged_at: u64,
    /// Simulated time until *every* peer knows the full tree
    /// (`u64::MAX` shown as 0 if never).
    pub all_converged_at: u64,
    /// Chain-update messages spent.
    pub chain_updates: u64,
    /// Total messages.
    pub messages: u64,
}

/// `label` names `scope` in the table.
fn measure(depth: usize, scope: Chaining, label: &str, seed: u64) -> Row {
    let shape = TreeShape { depth, fanout: 2 };
    let edges = tree_edges(1, shape);
    let n_peers = edges.len() + 1;
    let mut config = PeerConfig::default();
    config.chaining = scope;
    // Slow services keep the run going long enough to observe convergence.
    let mut builder = ScenarioBuilder::new(1, &edges).flavor(Flavor::Query).config(config);
    builder.seed = seed;
    for p in std::iter::once(1u32).chain(edges.iter().map(|(_, c)| *c)) {
        builder.durations.insert(p, 40);
    }
    let mut scenario = builder.build();
    // Step the simulation, sampling chain knowledge.
    let mut origin_converged_at = 0u64;
    let mut all_converged_at = 0u64;
    let all: Vec<PeerId> = std::iter::once(1u32).chain(edges.iter().map(|(_, c)| *c)).map(PeerId).collect();
    for t in (0..2_000u64).step_by(2) {
        scenario.sim.run_until(t);
        let txns = scenario.sim.actor(PeerId(1)).known_txns();
        let Some(&txn) = txns.first() else { continue };
        let knows_all = |p: PeerId| {
            scenario.sim.actor(p).context(txn).map(|tc| tc.chain.all_peers().len() >= n_peers).unwrap_or(false)
        };
        if origin_converged_at == 0 && knows_all(PeerId(1)) {
            origin_converged_at = t;
        }
        if all_converged_at == 0 && all.iter().all(|p| knows_all(*p)) {
            all_converged_at = t;
            break;
        }
    }
    scenario.sim.run();
    Row {
        depth,
        peers: n_peers,
        scope: label.into(),
        origin_converged_at,
        all_converged_at,
        chain_updates: scenario.sim.metrics().kind("chain-update"),
        messages: scenario.sim.metrics().sent,
    }
}

/// Runs the sweep.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for depth in [2usize, 3, 4] {
        for (scope, label) in
            [(Chaining::InvokeOnly, "invoke-only"), (Chaining::Standard, "standard"), (Chaining::Extended, "extended")]
        {
            rows.push(measure(depth, scope, label, 17));
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E9 — extended chaining (gossip to grandparent/uncles/cousins): convergence vs overhead",
        &["depth", "peers", "scope", "t-origin-full", "t-all-full", "chain-updates", "msgs"],
    );
    for r in rows {
        t.row(vec![
            r.depth.to_string(),
            r.peers.to_string(),
            r.scope.clone(),
            r.origin_converged_at.to_string(),
            r.all_converged_at.to_string(),
            r.chain_updates.to_string(),
            r.messages.to_string(),
        ]);
    }
    t.with_note(
        "expected shape: invoke-only (strict piggyback) spends zero chain-updates but converges \
         only as results return; standard gossip converges mid-flight; extended converges at \
         least as fast again for 1.5–2× the chain-update messages — the feasibility trade-off the \
         paper left open",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scopes_converge() {
        let rows = run();
        for r in &rows {
            if r.scope == "invoke-only" {
                // Piggyback-only: the origin converges when the last result
                // returns; interior peers may never see sibling subtrees.
                assert!(r.origin_converged_at > 0, "origin still converges: {r:?}");
                assert_eq!(r.chain_updates, 0, "no gossip traffic: {r:?}");
            } else {
                assert!(r.all_converged_at > 0, "never converged: {r:?}");
                assert!(r.origin_converged_at <= r.all_converged_at);
            }
        }
    }

    #[test]
    fn extended_trades_messages_for_latency() {
        let rows = run();
        for depth in [3usize, 4] {
            let std = rows.iter().find(|r| r.depth == depth && r.scope == "standard").unwrap();
            let ext = rows.iter().find(|r| r.depth == depth && r.scope == "extended").unwrap();
            assert!(
                ext.chain_updates >= std.chain_updates,
                "extended gossip costs more messages at depth {depth}: {} vs {}",
                ext.chain_updates,
                std.chain_updates
            );
            assert!(
                ext.all_converged_at <= std.all_converged_at + 10,
                "extended must not converge meaningfully slower at depth {depth}: {} vs {}",
                ext.all_converged_at,
                std.all_converged_at
            );
        }
    }
}
