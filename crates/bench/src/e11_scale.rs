//! E11 — scalability of the transactional protocol (extension).
//!
//! The paper's characteristics list promises "the number of users
//! accessing the system simultaneously can be very high" and arbitrarily
//! nested invocation trees. This sweep grows the invocation tree from 3
//! to 63 peers and measures the protocol's cost envelope per transaction:
//! messages by class and logical completion time (critical-path latency).
//! Lazy-vs-eager containment is covered separately in E4.

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::PeerConfig;
use axml_workload::{tree_edges, TreeShape};

use crate::table::Table;

/// One measured tree size.
#[derive(Debug, Clone)]
pub struct Row {
    /// Tree depth (fanout 2).
    pub depth: usize,
    /// Total peers.
    pub peers: usize,
    /// Chaining enabled (gossip overhead included)?
    pub chaining: bool,
    /// Invoke messages (= services actually invoked).
    pub invokes: u64,
    /// Total protocol messages (excluding keep-alive).
    pub protocol_msgs: u64,
    /// Keep-alive messages.
    pub keepalive_msgs: u64,
    /// Submission → commit time (critical path).
    pub latency: u64,
    /// Committed?
    pub committed: bool,
}

fn measure(depth: usize, chaining: bool, seed: u64) -> Row {
    let shape = TreeShape { depth, fanout: 2 };
    let edges = tree_edges(1, shape);
    let mut config = PeerConfig::default();
    config.chaining = chaining;
    let mut builder = ScenarioBuilder::new(1, &edges).flavor(Flavor::Update).config(config);
    builder.seed = seed;
    let mut s = builder.build();
    let report = s.run();
    let m = &report.metrics;
    let keepalive = m.kind("ping") + m.kind("pong");
    Row {
        depth,
        peers: edges.len() + 1,
        chaining,
        invokes: m.kind("invoke"),
        protocol_msgs: m.sent - keepalive,
        keepalive_msgs: keepalive,
        latency: report.outcome.as_ref().map(|o| o.resolved_at - o.started_at).unwrap_or(report.finished_at),
        committed: report.outcome.map(|o| o.committed).unwrap_or(false),
    }
}

/// Runs the sweep.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for depth in 1..=5usize {
        for chaining in [true, false] {
            rows.push(measure(depth, chaining, 23));
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E11 — protocol scaling over tree size (fanout 2, update transactions)",
        &["depth", "peers", "chaining", "invokes", "protocol-msgs", "keepalive", "latency", "committed"],
    );
    for r in rows {
        t.row(vec![
            r.depth.to_string(),
            r.peers.to_string(),
            r.chaining.to_string(),
            r.invokes.to_string(),
            r.protocol_msgs.to_string(),
            r.keepalive_msgs.to_string(),
            r.latency.to_string(),
            r.committed.to_string(),
        ]);
    }
    t.with_note(
        "expected shape: invokes = peers−1 (every service invoked once); without chaining, \
         protocol messages grow linearly in peers; with chaining, gossip adds a superlinear term \
         (the price of the disconnection resilience E2/E6 buy); latency tracks depth (the \
         critical path), not peer count",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold() {
        let rows = run();
        for r in &rows {
            assert!(r.committed, "{r:?}");
            assert_eq!(r.invokes as usize, r.peers - 1, "one invoke per non-origin peer: {r:?}");
        }
        // Latency is driven by depth, not width: depth d+1 at fanout 2
        // doubles the peers but adds only one level of critical path.
        let lat = |d: usize| rows.iter().find(|r| r.depth == d && r.chaining).unwrap().latency;
        let peers = |d: usize| rows.iter().find(|r| r.depth == d && r.chaining).unwrap().peers;
        assert!(peers(5) > 8 * peers(2) / 2, "peer count explodes");
        assert!(lat(5) < 8 * lat(2), "latency must not: {} vs {}", lat(5), lat(2));
        // Without chaining, per-peer message cost is bounded; chaining's
        // gossip costs extra.
        let msgs = |d: usize, c: bool| rows.iter().find(|r| r.depth == d && r.chaining == c).unwrap().protocol_msgs;
        assert!(msgs(5, true) > msgs(5, false));
        let per_peer_plain = msgs(5, false) as f64 / peers(5) as f64;
        assert!(per_peer_plain < 12.0, "plain protocol stays linear: {per_peer_plain}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(format!("{:?}", run()), format!("{:?}", run()));
    }
}
