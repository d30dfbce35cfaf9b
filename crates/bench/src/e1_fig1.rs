//! E1 — Fig. 1: the nested recovery protocol.
//!
//! Reproduces the paper's Fig. 1 scenario (AP5 fails while processing S5)
//! under every recovery variant and reports the message flows and costs.
//! The qualitative claims validated:
//!
//! - without handlers, the fault propagates backward to the origin and
//!   the whole transaction aborts (paper steps 1–4);
//! - a fault handler at an intermediate peer (AP3) absorbs the fault —
//!   forward recovery, "undo only as much as required";
//! - a replica of the failed peer lets forward recovery *redo* the
//!   service and commit;
//! - compensation always restores the pre-transaction state (relaxed
//!   atomicity).

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::PeerConfig;

use crate::table::Table;

/// One measured variant of the Fig. 1 scenario.
#[derive(Debug, Clone)]
pub struct Row {
    /// Variant label.
    pub variant: String,
    /// Did the transaction commit?
    pub committed: bool,
    /// Did the all-or-nothing check hold?
    pub atomic: bool,
    /// `invoke` messages.
    pub invokes: u64,
    /// Upward fault ("Abort TA" to the invoker) messages.
    pub faults: u64,
    /// Downward abort messages.
    pub aborts: u64,
    /// Peer-independent `compensate` messages.
    pub compensates: u64,
    /// Total nodes touched by compensation.
    pub comp_cost_nodes: u64,
    /// Logical time from submission to resolution.
    pub resolution_time: u64,
}

fn measure(variant: &str, mut builder: ScenarioBuilder) -> Row {
    builder.flavor = Flavor::Update;
    let mut s = builder.build();
    let report = s.run();
    let outcome = report.outcome.clone();
    Row {
        variant: variant.to_string(),
        committed: outcome.as_ref().map(|o| o.committed).unwrap_or(false),
        atomic: report.atomic,
        invokes: report.metrics.kind("invoke"),
        faults: report.metrics.kind("fault"),
        aborts: report.metrics.kind("abort"),
        compensates: report.metrics.kind("compensate"),
        comp_cost_nodes: report.stats.values().map(|s| s.comp_cost_nodes).sum(),
        resolution_time: outcome.map(|o| o.resolved_at - o.started_at).unwrap_or(report.finished_at),
    }
}

/// Runs every Fig. 1 variant.
pub fn run() -> Vec<Row> {
    let no_alt = || {
        let mut c = PeerConfig::default();
        c.use_alternative_providers = false;
        c
    };
    let mut rows = vec![
        measure("baseline (no fault)", ScenarioBuilder::fig1()),
        measure("fault@AP5, no handlers (backward to origin)", ScenarioBuilder::fig1().fault_at(5).config(no_alt())),
    ];
    rows.push(measure(
        "fault@AP5, substitute handler at AP3 (forward)",
        ScenarioBuilder::fig1().fault_at(5).substitute_handler(3, 5, None).config(no_alt()),
    ));
    rows.push(measure(
        "fault@AP5, retry×2 at AP3 then backward",
        ScenarioBuilder::fig1().fault_at(5).retry_handler(3, 5, None, 2, 3).config(no_alt()),
    ));
    let (b, _replica) = ScenarioBuilder::fig1().fault_at(5).with_replica(5);
    rows.push(measure("fault@AP5, redo on replica (forward)", b));
    let mut pi = PeerConfig::default();
    pi.peer_independent = true;
    pi.use_alternative_providers = false;
    rows.push(measure("fault@AP5, peer-independent compensation", ScenarioBuilder::fig1().fault_at(5).config(pi)));
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E1 / Fig.1 — nested recovery protocol (AP1→{AP2,AP3}, AP3→{AP4,AP5}, AP5→AP6; AP5 fails in S5)",
        &["variant", "committed", "atomic", "invokes", "faults", "aborts", "compensates", "comp-nodes", "time"],
    );
    for r in rows {
        t.row(vec![
            r.variant.clone(),
            r.committed.to_string(),
            r.atomic.to_string(),
            r.invokes.to_string(),
            r.faults.to_string(),
            r.aborts.to_string(),
            r.compensates.to_string(),
            r.comp_cost_nodes.to_string(),
            r.resolution_time.to_string(),
        ]);
    }
    t.with_note(
        "expected shape: baseline commits with 0 aborts; unhandled fault aborts atomically with \
         faults climbing AP5→AP3→AP1; handlers/replica absorb the fault and commit; \
         peer-independent uses compensate messages instead of self-compensation",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_p2p::PeerId;

    #[test]
    fn shapes_hold() {
        let rows = run();
        assert_eq!(rows.len(), 6);
        let by = |v: &str| rows.iter().find(|r| r.variant.contains(v)).unwrap();
        let baseline = by("baseline");
        assert!(baseline.committed && baseline.atomic && baseline.aborts == 0);
        let backward = by("no handlers");
        assert!(!backward.committed && backward.atomic);
        assert!(backward.faults >= 2, "fault climbed AP5→AP3→AP1");
        assert!(backward.comp_cost_nodes > 0);
        let substitute = by("substitute");
        assert!(substitute.committed, "forward recovery absorbs");
        let replica = by("replica");
        assert!(replica.committed);
        assert!(replica.invokes > baseline.invokes, "redo costs extra invocations");
        let pi = by("peer-independent");
        assert!(!pi.committed && pi.atomic && pi.compensates > 0);
    }

    #[test]
    fn fig1_message_sequence_follows_paper_steps() {
        // §3.2 steps 1–4 message accounting: AP5 sends abort down (AP6)
        // and up (AP3); AP3, lacking handlers, does the same (down: AP4;
        // up: AP1); AP1 aborts the whole transaction (down: AP2, AP3).
        let mut c = PeerConfig::default();
        c.use_alternative_providers = false;
        let mut s = ScenarioBuilder::fig1().fault_at(5).config(c).build();
        let report = s.run();
        // Upward aborts (fault messages): AP5→AP3 and AP3→AP1.
        assert_eq!(report.metrics.kind("fault"), 2);
        let ap5 = &report.stats[&PeerId(5)];
        assert_eq!(ap5.faults_raised, 1);
        let ap6 = &report.stats[&PeerId(6)];
        assert_eq!(ap6.aborts_received, 1, "step 2: AP6 aborts TCA6");
        let ap4 = &report.stats[&PeerId(4)];
        assert!(ap4.aborts_received >= 1, "step 4: AP3 aborts AP4's branch");
        let ap2 = &report.stats[&PeerId(2)];
        assert!(ap2.aborts_received >= 1, "origin aborts AP2's branch");
    }
}
