//! Per-transaction phase profiler: where a transaction's sim time goes.
//!
//! Derived entirely from a stored [`TraceJournal`], so the breakdown is
//! a pure function of the journal and replay-stable. Each transaction's
//! lifecycle events are bucketed into the paper's protocol phases —
//! invoke (submit + downstream invocations), serve (service execution,
//! materialization, logging, result return), decide (commit/abort
//! resolution, and the inquiries that pull a missed one), compensate (the abort wave and undo work), recover
//! (crash, restart, and failure detection) — and the invocation tree's
//! critical path is walked to attribute *self-time* to each span on it:
//! the portion of the end-to-end latency that span alone accounts for
//! (head start before its critical child begins, plus tail after the
//! child's subtree finishes). Self-times telescope: they sum exactly to
//! the transaction's critical-path length, giving a per-peer breakdown
//! of who bounds the latency.

use crate::hist::Histogram;
use axml_trace::{EventKind, SpanRef, TraceEvent, TraceJournal, TxnRef};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Canonical phase order for rendering and aggregation.
pub const PHASES: [&str; 5] = ["invoke", "serve", "decide", "compensate", "recover"];

/// Maps a lifecycle event onto its protocol phase; `None` for transport
/// and substrate events (acks, retransmits, dedup, gauges, churn that
/// carries no transaction).
pub fn phase_of(kind: &EventKind) -> Option<&'static str> {
    match kind {
        EventKind::Submit { .. } | EventKind::Invoke { .. } => Some("invoke"),
        EventKind::Serve { .. }
        | EventKind::Materialize { .. }
        | EventKind::LogAppend { .. }
        | EventKind::ResultReturn { .. } => Some("serve"),
        EventKind::Resolve { .. } | EventKind::Inquire { .. } => Some("decide"),
        EventKind::FaultRaise { .. }
        | EventKind::AbortPropagate { .. }
        | EventKind::CompensateDerive { .. }
        | EventKind::CompensateOp { .. }
        | EventKind::CompensateApply { .. } => Some("compensate"),
        EventKind::Crash | EventKind::Restart { .. } | EventKind::Detect { .. } => Some("recover"),
        _ => None,
    }
}

/// One phase's observed window within a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseWindow {
    /// First event of the phase (sim time).
    pub first: u64,
    /// Last event of the phase (sim time).
    pub last: u64,
    /// Events bucketed into the phase.
    pub events: u64,
}

impl PhaseWindow {
    /// Window width in ticks (0 for a single-event phase).
    pub fn width(&self) -> u64 {
        self.last - self.first
    }
}

/// One span on a transaction's critical path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathStep {
    /// Invocation span id (`inv1.0`).
    pub span: SpanRef,
    /// Peer the span executed on.
    pub peer: u32,
    /// First event of the span.
    pub first: u64,
    /// Deepest finish of the span's subtree.
    pub deep_last: u64,
    /// Ticks of the critical path this span alone accounts for.
    pub self_time: u64,
}

/// One peer's share of a transaction's critical path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerSelfTime {
    /// Peer id.
    pub peer: u32,
    /// Summed self-time of this peer's spans on the critical path.
    pub ticks: u64,
}

/// One transaction's profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnProfile {
    /// Transaction id (`T1.0`).
    pub txn: TxnRef,
    /// `committed`, `aborted`, or `unresolved`.
    pub outcome: String,
    /// First lifecycle event (sim time).
    pub first: u64,
    /// Last lifecycle event (sim time).
    pub last: u64,
    /// Phase windows, keyed by phase name (absent phases omitted).
    pub phases: BTreeMap<String, PhaseWindow>,
    /// Critical path, root to leaf, with self-time attribution.
    pub path: Vec<PathStep>,
    /// Per-peer sum of critical-path self-times, ordered by peer id.
    pub peer_self: Vec<PeerSelfTime>,
}

impl TxnProfile {
    /// End-to-end width in ticks.
    pub fn total(&self) -> u64 {
        self.last - self.first
    }
}

/// The whole journal's profile: one [`TxnProfile`] per transaction, in
/// transaction-id order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Per-transaction profiles, ordered by transaction id.
    pub txns: Vec<TxnProfile>,
}

/// A journal's transaction-tagged events grouped per transaction, each
/// group in emission order.
pub(crate) fn events_by_txn(journal: &TraceJournal) -> BTreeMap<TxnRef, Vec<&TraceEvent>> {
    let mut by_txn: BTreeMap<TxnRef, Vec<&TraceEvent>> = BTreeMap::new();
    for e in journal.events() {
        if let Some(t) = e.txn {
            by_txn.entry(t).or_default().push(e);
        }
    }
    by_txn
}

/// Span aggregate for the critical-path walk. Every field is a pure
/// function of the span's event multiset (never of journal order), so
/// a permuted journal profiles identically.
pub(crate) struct SpanAgg {
    /// (at, peer)-minimal event's peer — the *invoking* side for a
    /// remote span, since the parent stamps the `Invoke` record before
    /// the callee serves.
    pub(crate) peer: u32,
    /// Time `peer` was taken from (the multiset tie-break anchor).
    peer_at: u64,
    /// The serving peer — (at, peer)-minimal over `Serve`/`Submit`
    /// events. Self-time is attributed here: the invocation *executes*
    /// on the serving peer.
    serve_peer: Option<(u64, u32)>,
    pub(crate) first: u64,
    /// The span's own last event.
    pub(crate) last: u64,
    parent: Option<SpanRef>,
}

impl SpanAgg {
    fn executing_peer(&self) -> u32 {
        self.serve_peer.map(|(_, p)| p).unwrap_or(self.peer)
    }
}

fn deep_last(
    span: SpanRef,
    spans: &BTreeMap<SpanRef, SpanAgg>,
    children: &BTreeMap<SpanRef, Vec<SpanRef>>,
    memo: &mut BTreeMap<SpanRef, u64>,
) -> u64 {
    if let Some(&v) = memo.get(&span) {
        return v;
    }
    // Seed before recursing so a malformed journal with a parent cycle
    // terminates instead of overflowing.
    memo.insert(span, spans[&span].last);
    let mut last = spans[&span].last;
    if let Some(cs) = children.get(&span) {
        for &c in cs {
            last = last.max(deep_last(c, spans, children, memo));
        }
    }
    memo.insert(span, last);
    last
}

/// One transaction's critical path: the root-to-leaf chain of invocation
/// spans that finishes last, i.e. the chain that bounds the transaction's
/// sim-time duration. A span's completion is bounded by its whole subtree
/// (an abort can resolve the root while compensation still runs below
/// it), so spans rank by their subtree's deepest finish, then by the
/// smallest span id (ids order as their text).
pub(crate) struct CriticalPath {
    /// Every span of the transaction.
    pub(crate) spans: BTreeMap<SpanRef, SpanAgg>,
    /// The chain, root first, each span with its subtree's deepest
    /// finish; empty when no span was recorded.
    pub(crate) chain: Vec<(SpanRef, u64)>,
}

impl CriticalPath {
    /// Walks one transaction's invocation tree.
    pub(crate) fn walk(events: &[&TraceEvent]) -> CriticalPath {
        let mut spans: BTreeMap<SpanRef, SpanAgg> = BTreeMap::new();
        for e in events {
            let Some(s) = e.span else { continue };
            let agg = spans.entry(s).or_insert(SpanAgg {
                peer: e.peer,
                peer_at: e.at,
                serve_peer: None,
                first: e.at,
                last: e.at,
                parent: None,
            });
            agg.first = agg.first.min(e.at);
            agg.last = agg.last.max(e.at);
            if (e.at, e.peer) < (agg.peer_at, agg.peer) {
                agg.peer = e.peer;
                agg.peer_at = e.at;
            }
            // Smallest named parent wins — again multiset-pure. Real
            // journals name at most one parent per span (its Invoke).
            if let Some(p) = e.parent {
                agg.parent = Some(agg.parent.map_or(p, |cur| cur.min(p)));
            }
            if matches!(e.kind, EventKind::Serve { .. } | EventKind::Submit { .. })
                && agg.serve_peer.is_none_or(|sp| (e.at, e.peer) < sp)
            {
                agg.serve_peer = Some((e.at, e.peer));
            }
        }
        // Roots are spans whose parent is unknown or outside the recorded
        // span set.
        let mut children: BTreeMap<SpanRef, Vec<SpanRef>> = BTreeMap::new();
        let mut roots: Vec<SpanRef> = Vec::new();
        for (&name, agg) in &spans {
            match agg.parent.filter(|p| spans.contains_key(p)) {
                Some(p) => children.entry(p).or_default().push(name),
                None => roots.push(name),
            }
        }
        let mut memo = BTreeMap::new();
        let mut last_of = |span| deep_last(span, &spans, &children, &mut memo);
        // The critical root is the one whose subtree finishes last; below
        // it, greedy descent: the child whose subtree finishes last bounds
        // the parent's completion.
        let mut chain = Vec::new();
        let mut candidates = roots.as_slice();
        while let Some(step) = candidates.iter().map(|&c| (c, last_of(c))).max_by_key(|&(c, end)| (end, Reverse(c))) {
            chain.push(step);
            candidates = children.get(&step.0).map_or(&[], Vec::as_slice);
        }
        CriticalPath { spans, chain }
    }

    /// The chain with self-time attribution: a span's head before its
    /// critical child starts, plus its tail after the child's subtree
    /// finishes; the leaf keeps its whole extent. Telescoping, the steps
    /// sum to end₀ − first₀.
    fn steps(&self) -> Vec<PathStep> {
        let steps = self.chain.iter().enumerate().map(|(i, &(span, end))| {
            let agg = &self.spans[&span];
            let self_time = match self.chain.get(i + 1) {
                Some(&(child, child_end)) => {
                    self.spans[&child].first.saturating_sub(agg.first) + end.saturating_sub(child_end)
                }
                None => end.saturating_sub(agg.first),
            };
            PathStep { span, peer: agg.executing_peer(), first: agg.first, deep_last: end, self_time }
        });
        steps.collect()
    }
}

impl ProfileReport {
    /// Profiles every transaction in the journal.
    pub fn from_journal(journal: &TraceJournal) -> Self {
        let by_txn = events_by_txn(journal);
        let mut txns = Vec::with_capacity(by_txn.len());
        for (&txn, events) in &by_txn {
            let first = events.iter().map(|e| e.at).min().unwrap_or(0);
            let last = events.iter().map(|e| e.at).max().unwrap_or(0);
            let mut outcome = "unresolved";
            let mut phases: BTreeMap<String, PhaseWindow> = BTreeMap::new();
            for e in events {
                if let EventKind::Resolve { committed } = &e.kind {
                    if outcome == "unresolved" {
                        outcome = if *committed { "committed" } else { "aborted" };
                    }
                }
                if let Some(phase) = phase_of(&e.kind) {
                    let w =
                        phases.entry(phase.to_string()).or_insert(PhaseWindow { first: e.at, last: e.at, events: 0 });
                    w.first = w.first.min(e.at);
                    w.last = w.last.max(e.at);
                    w.events += 1;
                }
            }
            let path = CriticalPath::walk(events).steps();
            let mut by_peer: BTreeMap<u32, u64> = BTreeMap::new();
            for step in &path {
                *by_peer.entry(step.peer).or_default() += step.self_time;
            }
            let peer_self = by_peer.into_iter().map(|(peer, ticks)| PeerSelfTime { peer, ticks }).collect();
            txns.push(TxnProfile { txn, outcome: outcome.to_string(), first, last, phases, path, peer_self });
        }
        ProfileReport { txns }
    }

    /// Folds every transaction's phase widths (and end-to-end totals)
    /// into histograms: `phase_<name>` per phase plus `txn_total`.
    /// Merging two reports' histograms equals histogramming the
    /// concatenated reports, so sweep aggregation is order-free.
    pub fn phase_histograms(&self) -> BTreeMap<String, Histogram> {
        let mut out: BTreeMap<String, Histogram> = BTreeMap::new();
        for phase in PHASES {
            out.insert(format!("phase_{phase}"), Histogram::default());
        }
        out.insert("txn_total".to_string(), Histogram::default());
        for t in &self.txns {
            for (phase, w) in &t.phases {
                if let Some(h) = out.get_mut(&format!("phase_{phase}")) {
                    h.observe(w.width());
                }
            }
            if let Some(h) = out.get_mut("txn_total") {
                h.observe(t.total());
            }
        }
        out
    }

    /// Stable JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("profile report serializes")
    }

    /// Human rendering: one block per transaction — outcome and extent,
    /// phase windows in canonical order, the critical path with
    /// self-times, and the per-peer attribution.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.txns {
            let _ = writeln!(out, "{}: {} in {} ticks [{}..{}]", t.txn, t.outcome, t.total(), t.first, t.last);
            let mut line = String::from("  phases:");
            for phase in PHASES {
                if let Some(w) = t.phases.get(phase) {
                    let _ = write!(line, " {phase}[{}..{}] {}t/{}ev", w.first, w.last, w.width(), w.events);
                }
            }
            let _ = writeln!(out, "{line}");
            if !t.path.is_empty() {
                let mut line = String::from("  critical path:");
                for (i, s) in t.path.iter().enumerate() {
                    let _ = write!(
                        line,
                        "{}{}@AP{} self={}",
                        if i == 0 { " " } else { " -> " },
                        s.span,
                        s.peer,
                        s.self_time
                    );
                }
                let _ = writeln!(out, "{line}");
                let mut line = String::from("  peer self-time:");
                for p in &t.peer_self {
                    let _ = write!(line, " AP{}={}", p.peer, p.ticks);
                }
                let _ = writeln!(out, "{line}");
            }
        }
        if self.txns.is_empty() {
            out.push_str("(no transactions in journal)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analytics-test journal: a clean two-peer commit.
    fn journal() -> TraceJournal {
        let mut j = TraceJournal::default();
        let t = || Some(TxnRef::new(1, 0));
        j.record(0, 1, 0, t(), Some(SpanRef::new(1, 0)), None, EventKind::Submit { method: "m".into() });
        j.record(
            2,
            1,
            0,
            t(),
            Some(SpanRef::new(1, 1)),
            Some(SpanRef::new(1, 0)),
            EventKind::Invoke { to: 2, method: "m".into() },
        );
        j.record(5, 2, 0, t(), Some(SpanRef::new(1, 1)), None, EventKind::Serve { from: 1, method: "m".into() });
        j.record(20, 2, 0, t(), Some(SpanRef::new(1, 1)), None, EventKind::ResultReturn { to: 1 });
        j.record(24, 1, 0, t(), Some(SpanRef::new(1, 0)), None, EventKind::Resolve { committed: true });
        j
    }

    #[test]
    fn phases_partition_the_lifecycle() {
        assert_eq!(phase_of(&EventKind::Submit { method: "m".into() }), Some("invoke"));
        assert_eq!(phase_of(&EventKind::Resolve { committed: false }), Some("decide"));
        assert_eq!(phase_of(&EventKind::CompensateApply { actions: 1 }), Some("compensate"));
        assert_eq!(phase_of(&EventKind::Crash), Some("recover"));
        assert_eq!(phase_of(&EventKind::AckSend { to: 0, id: 1 }), None, "transport is phase-free");
        assert_eq!(phase_of(&EventKind::Gauge { name: "x".into(), value: 0 }), None);
    }

    #[test]
    fn profile_breaks_a_commit_into_phases() {
        let report = ProfileReport::from_journal(&journal());
        assert_eq!(report.txns.len(), 1);
        let t = &report.txns[0];
        assert_eq!(t.txn, TxnRef::new(1, 0));
        assert_eq!(t.outcome, "committed");
        assert_eq!(t.total(), 24);
        assert_eq!(t.phases["invoke"], PhaseWindow { first: 0, last: 2, events: 2 });
        assert_eq!(t.phases["serve"], PhaseWindow { first: 5, last: 20, events: 2 });
        assert_eq!(t.phases["decide"], PhaseWindow { first: 24, last: 24, events: 1 });
        assert!(!t.phases.contains_key("compensate"));
    }

    #[test]
    fn self_times_telescope_to_the_critical_path_length() {
        let report = ProfileReport::from_journal(&journal());
        let t = &report.txns[0];
        assert_eq!(t.path.len(), 2);
        // Root inv1.0 spans [0..24], child inv1.1 spans [2..20]: the root's
        // self-time is the head (2-0) plus the tail (24-20) = 6; the
        // leaf keeps its whole extent (20-2) = 18.
        assert_eq!((t.path[0].span, t.path[0].self_time), (SpanRef::new(1, 0), 6));
        assert_eq!((t.path[1].span, t.path[1].self_time), (SpanRef::new(1, 1), 18));
        let total: u64 = t.path.iter().map(|s| s.self_time).sum();
        assert_eq!(total, t.path[0].deep_last - t.path[0].first, "self-times telescope");
        assert_eq!(t.peer_self, vec![PeerSelfTime { peer: 1, ticks: 6 }, PeerSelfTime { peer: 2, ticks: 18 }]);
    }

    #[test]
    fn phase_histograms_cover_all_phases_and_totals() {
        let h = ProfileReport::from_journal(&journal()).phase_histograms();
        assert_eq!(h["phase_invoke"].count(), 1);
        assert_eq!(h["phase_invoke"].sum(), 2);
        assert_eq!(h["phase_serve"].sum(), 15);
        assert_eq!(h["phase_decide"].sum(), 0, "single-event phase has zero width");
        assert_eq!(h["phase_compensate"].count(), 0);
        assert_eq!(h["txn_total"].sum(), 24);
        assert_eq!(h.len(), PHASES.len() + 1);
    }

    #[test]
    fn render_and_json_are_deterministic() {
        let report = ProfileReport::from_journal(&journal());
        let text = report.render();
        assert!(text.contains("T1.0: committed in 24 ticks [0..24]"), "{text}");
        assert!(text.contains("invoke[0..2] 2t/2ev"), "{text}");
        assert!(text.contains("inv1.0@AP1 self=6 -> inv1.1@AP2 self=18"), "{text}");
        assert!(text.contains("peer self-time: AP1=6 AP2=18"), "{text}");
        assert_eq!(text, report.render());
        let back: ProfileReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        assert_eq!(ProfileReport::default().render(), "(no transactions in journal)\n");
    }
}
