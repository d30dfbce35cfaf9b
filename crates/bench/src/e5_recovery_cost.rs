//! E5 — forward vs backward recovery cost across invocation trees.
//!
//! Sweeps tree depth and the depth of the injected fault; compares the
//! paper's forward-first policy (handlers + replica redo, "undo only as
//! much as required") against the saga-style backward baseline. Measured
//! costs: outcome, compensation nodes touched, messages, resolution time.

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::{PeerConfig, RecoveryStyle};
use axml_workload::{tree_edges, trees::peer_at_depth, TreeShape};

use crate::table::Table;

/// The `(depth, fanout)` shapes E5 sweeps.
const SHAPES: &[(usize, usize)] = &[(2, 2), (3, 2), (4, 2), (3, 3)];

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Tree depth.
    pub depth: usize,
    /// Tree fanout.
    pub fanout: usize,
    /// Depth of the faulting peer (1 = child of origin).
    pub fault_depth: usize,
    /// `forward` (handlers + replica) or `backward`.
    pub style: String,
    /// Did the transaction commit?
    pub committed: bool,
    /// All-or-nothing held?
    pub atomic: bool,
    /// Total compensation cost (nodes).
    pub comp_nodes: u64,
    /// Total messages.
    pub messages: u64,
    /// Submission → resolution time.
    pub resolution_time: u64,
}

fn measure(shape: TreeShape, fault_depth: usize, forward: bool, seed: u64) -> Row {
    let edges = tree_edges(1, shape);
    let fault_peer = peer_at_depth(1, shape, fault_depth, seed);
    let mut config = PeerConfig::default();
    config.recovery = if forward { RecoveryStyle::ForwardFirst } else { RecoveryStyle::BackwardOnly };
    config.use_alternative_providers = forward;
    let mut builder = ScenarioBuilder::new(1, &edges).flavor(Flavor::Update).fault_at(fault_peer).config(config);
    builder.seed = seed;
    let builder = if forward {
        let (b, _replica) = builder.with_replica(fault_peer);
        b
    } else {
        builder
    };
    let report = builder.build().run();
    Row {
        depth: shape.depth,
        fanout: shape.fanout,
        fault_depth,
        style: if forward { "forward".into() } else { "backward".into() },
        committed: report.outcome.as_ref().map(|o| o.committed).unwrap_or(false),
        atomic: report.atomic,
        comp_nodes: report.stats.values().map(|s| s.comp_cost_nodes).sum(),
        messages: report.metrics.sent,
        resolution_time: report.outcome.as_ref().map(|o| o.resolved_at - o.started_at).unwrap_or(report.finished_at),
    }
}

/// Runs the sweep.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for &(depth, fanout) in SHAPES {
        let shape = TreeShape { depth, fanout };
        for fault_depth in 1..=depth {
            for forward in [true, false] {
                rows.push(measure(shape, fault_depth, forward, 11));
            }
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E5 — recovery cost vs failure depth (forward-first vs backward-only)",
        &["depth", "fanout", "fault@", "style", "committed", "atomic", "comp-nodes", "messages", "time"],
    );
    for r in rows {
        t.row(vec![
            r.depth.to_string(),
            r.fanout.to_string(),
            r.fault_depth.to_string(),
            r.style.clone(),
            r.committed.to_string(),
            r.atomic.to_string(),
            r.comp_nodes.to_string(),
            r.messages.to_string(),
            r.resolution_time.to_string(),
        ]);
    }
    t.with_note(
        "expected shape: forward recovery (replica redo near the fault) commits with localized \
         compensation; backward recovery aborts the whole tree with compensation cost growing \
         with the amount of completed work — shallow peers complete last, so faults near the \
         origin undo the most",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_hold() {
        let rows = run();
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.atomic, "every configuration preserves relaxed atomicity: {r:?}");
        }
        // Forward commits where backward aborts.
        for f in rows.iter().filter(|r| r.style == "forward") {
            assert!(f.committed, "forward recovery redoes and commits: {f:?}");
        }
        for b in rows.iter().filter(|r| r.style == "backward") {
            assert!(!b.committed, "backward-only always aborts on fault: {b:?}");
        }
        // Backward compensation grows with the amount of *completed* work
        // at fault time. A shallow peer (depth 1) completes last — its
        // fault fires after the whole subtree finished, so undo is
        // maximal; a leaf (depth = tree depth) fails early, before most
        // of the tree has done anything.
        let comp = |d: usize| {
            rows.iter().find(|r| r.style == "backward" && r.depth == 4 && r.fault_depth == d).unwrap().comp_nodes
        };
        assert!(comp(1) >= comp(4), "late (shallow) faults undo more: {} vs {}", comp(1), comp(4));
    }
}
