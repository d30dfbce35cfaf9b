//! Trace analytics: latency histograms and per-transaction critical
//! paths derived from a stored [`TraceJournal`].
//!
//! Everything here is a pure function of the journal, so replaying the
//! same seeded scenario yields byte-identical tables and expositions.
//! Five distributions are extracted:
//!
//! - `commit_latency` — submit → commit resolve at the origin peer.
//! - `abort_drain` — width of a transaction's abort wave: first to last
//!   event among fault raises, abort propagations, compensation
//!   activity, and abort resolves.
//! - `compensation_lag` — each compensation application's distance from
//!   the start of its transaction's abort wave (how long undo work
//!   straggles behind the decision).
//! - `detect_latency` — crash/disconnect → the first detection of that
//!   peer (the failure detector's reaction time).
//! - `retransmits_per_delivery` — retransmission attempts per reliable
//!   delivery, zeros included (acknowledged-first-try deliveries count).

use crate::hist::Histogram;
use axml_trace::{EventKind, SpanRef, TraceEvent, TraceJournal, TxnRef};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether an event belongs to a transaction's abort wave.
fn in_abort_wave(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::FaultRaise { .. }
            | EventKind::AbortPropagate { .. }
            | EventKind::CompensateDerive { .. }
            | EventKind::CompensateOp { .. }
            | EventKind::CompensateApply { .. }
            | EventKind::Resolve { committed: false }
    )
}

/// Derives the standard latency histograms from a journal.
pub fn derive_histograms(journal: &TraceJournal) -> BTreeMap<String, Histogram> {
    let mut commit = Histogram::default();
    let mut drain = Histogram::default();
    let mut lag = Histogram::default();
    let mut detect = Histogram::default();
    let mut retrans = Histogram::default();

    // txn → (origin peer, submit time) from its first Submit.
    let mut submitted: BTreeMap<TxnRef, (u32, u64)> = BTreeMap::new();
    // txn → (wave start, wave end) over abort-wave events.
    let mut wave: BTreeMap<TxnRef, (u64, u64)> = BTreeMap::new();
    // txn → compensation application times (lag needs the wave start,
    // which may move earlier as the wave is discovered — defer).
    let mut applies: BTreeMap<TxnRef, Vec<u64>> = BTreeMap::new();
    // peer → latest crash/disconnect not yet detected.
    let mut churned_at: BTreeMap<u32, u64> = BTreeMap::new();
    // (sender, receiver, id) → retransmit attempts.
    let mut deliveries: BTreeMap<(u32, u32, u64), u64> = BTreeMap::new();

    for e in journal.events() {
        if let Some(t) = e.txn {
            if in_abort_wave(&e.kind) {
                let w = wave.entry(t).or_insert((e.at, e.at));
                w.0 = w.0.min(e.at);
                w.1 = w.1.max(e.at);
            }
        }
        match &e.kind {
            EventKind::Submit { .. } => {
                if let Some(t) = e.txn {
                    submitted.entry(t).or_insert((e.peer, e.at));
                }
            }
            EventKind::Resolve { committed: true } => {
                if let Some(t) = e.txn {
                    if let Some(&(origin, at0)) = submitted.get(&t) {
                        if origin == e.peer {
                            commit.observe(e.at - at0);
                        }
                    }
                }
            }
            EventKind::CompensateApply { .. } => {
                if let Some(t) = e.txn {
                    applies.entry(t).or_default().push(e.at);
                }
            }
            EventKind::Crash | EventKind::Disconnect => {
                churned_at.insert(e.peer, e.at);
            }
            EventKind::Detect { peer, .. } => {
                if let Some(at0) = churned_at.remove(peer) {
                    detect.observe(e.at.saturating_sub(at0));
                }
            }
            EventKind::AckSend { to, id } => {
                // Receiver-side: the delivery (sender=to, receiver=peer).
                deliveries.entry((*to, e.peer, *id)).or_insert(0);
            }
            EventKind::Retransmit { to, id, .. } => {
                // Sender-side: the delivery (sender=peer, receiver=to).
                *deliveries.entry((e.peer, *to, *id)).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    for (start, end) in wave.values() {
        drain.observe(end - start);
    }
    for (t, times) in &applies {
        if let Some(&(start, _)) = wave.get(t) {
            for at in times {
                lag.observe(at.saturating_sub(start));
            }
        }
    }
    for attempts in deliveries.values() {
        retrans.observe(*attempts);
    }

    let mut out = BTreeMap::new();
    out.insert("commit_latency".to_string(), commit);
    out.insert("abort_drain".to_string(), drain);
    out.insert("compensation_lag".to_string(), lag);
    out.insert("detect_latency".to_string(), detect);
    out.insert("retransmits_per_delivery".to_string(), retrans);
    out
}

/// One span's aggregate on a transaction's invocation tree.
#[derive(Debug, Clone)]
struct SpanAgg {
    peer: u32,
    /// Time of the event `peer` was taken from — the (at, peer)-minimal
    /// event, so the choice is a pure function of the event multiset,
    /// not of journal order.
    peer_at: u64,
    first: u64,
    last: u64,
    parent: Option<SpanRef>,
}

fn span_aggregates(events: &[&TraceEvent]) -> BTreeMap<SpanRef, SpanAgg> {
    let mut spans: BTreeMap<SpanRef, SpanAgg> = BTreeMap::new();
    for e in events {
        let Some(s) = e.span else { continue };
        let agg =
            spans.entry(s).or_insert(SpanAgg { peer: e.peer, peer_at: e.at, first: e.at, last: e.at, parent: None });
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
    }
    spans
}

/// Renders each transaction's critical path: the root-to-leaf chain of
/// invocation spans that finishes last, i.e. the chain that bounds the
/// transaction's wall-clock (sim-time) duration.
pub fn critical_paths(journal: &TraceJournal) -> String {
    // Group events per transaction, preserving emission order.
    let mut by_txn: BTreeMap<TxnRef, Vec<&TraceEvent>> = BTreeMap::new();
    for e in journal.events() {
        if let Some(t) = e.txn {
            by_txn.entry(t).or_default().push(e);
        }
    }
    let mut out = String::new();
    for (txn, events) in &by_txn {
        let spans = span_aggregates(events);
        if spans.is_empty() {
            continue;
        }
        // Children index; roots are spans whose parent is unknown or
        // outside the recorded span set.
        let mut children: BTreeMap<SpanRef, Vec<SpanRef>> = BTreeMap::new();
        let mut roots: Vec<SpanRef> = Vec::new();
        for (&name, agg) in &spans {
            match agg.parent.filter(|p| spans.contains_key(p)) {
                Some(p) => children.entry(p).or_default().push(name),
                None => roots.push(name),
            }
        }
        // A span's completion is bounded by its whole subtree (an abort
        // can resolve the root while compensation still runs below it),
        // so rank by the deepest finish, not a span's own last event.
        fn deep_last(
            span: SpanRef,
            spans: &BTreeMap<SpanRef, SpanAgg>,
            children: &BTreeMap<SpanRef, Vec<SpanRef>>,
            memo: &mut BTreeMap<SpanRef, u64>,
        ) -> u64 {
            if let Some(&v) = memo.get(&span) {
                return v;
            }
            // Seed the memo before recursing so a malformed journal with
            // a parent cycle terminates instead of overflowing.
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
        let mut memo = BTreeMap::new();
        // The critical root is the one whose subtree finishes last.
        roots.sort_by_key(|&r| (deep_last(r, &spans, &children, &mut memo), std::cmp::Reverse(r)));
        let Some(mut cur) = roots.last().copied() else { continue };
        let t0 = spans[&cur].first;
        let t_end = deep_last(cur, &spans, &children, &mut memo);
        let _ = write!(out, "{txn}: critical path {} ticks\n  ", t_end - t0);
        loop {
            let a = &spans[&cur];
            let _ = write!(out, "{cur}@AP{} [{}..{}]", a.peer, a.first, a.last);
            // Greedy descent: the child whose subtree finishes last
            // bounds the parent's completion.
            let next = children.get(&cur).and_then(|cs| {
                cs.iter().copied().max_by_key(|&c| (deep_last(c, &spans, &children, &mut memo), std::cmp::Reverse(c)))
            });
            match next {
                Some(c) => {
                    let _ = write!(out, " -> ");
                    cur = c;
                }
                None => break,
            }
        }
        out.push('\n');
    }
    if out.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        j.record(5, 2, 0, t(), None, None, EventKind::AckSend { to: 1, id: 1 });
        j.record(9, 1, 0, t(), Some(SpanRef::new(1, 1)), None, EventKind::Retransmit { to: 2, id: 2, attempt: 1 });
        j.record(20, 2, 0, t(), Some(SpanRef::new(1, 1)), None, EventKind::ResultReturn { to: 1 });
        j.record(24, 1, 0, t(), Some(SpanRef::new(1, 0)), None, EventKind::Resolve { committed: true });
        j
    }

    #[test]
    fn commit_latency_is_submit_to_origin_resolve() {
        let h = derive_histograms(&journal());
        assert_eq!(h["commit_latency"].count(), 1);
        assert_eq!(h["commit_latency"].sum(), 24);
        assert_eq!(h["abort_drain"].count(), 0, "no abort wave in a clean commit");
    }

    #[test]
    fn retransmits_per_delivery_includes_zeros() {
        let h = derive_histograms(&journal());
        // Delivery (1→2, id=1) acked with no retransmit: a zero sample.
        // Delivery (1→2, id=2) retransmitted once.
        assert_eq!(h["retransmits_per_delivery"].count(), 2);
        assert_eq!(h["retransmits_per_delivery"].sum(), 1);
        assert_eq!(h["retransmits_per_delivery"].min(), Some(0));
    }

    #[test]
    fn abort_wave_and_detection_metrics() {
        let mut j = TraceJournal::default();
        let t = || Some(TxnRef::new(2, 0));
        j.record(10, 3, 0, t(), None, None, EventKind::FaultRaise { to: 1 });
        j.record(14, 1, 0, t(), None, None, EventKind::AbortPropagate { to: 2 });
        j.record(18, 2, 0, t(), None, None, EventKind::CompensateApply { actions: 2 });
        j.record(22, 2, 0, t(), None, None, EventKind::Resolve { committed: false });
        j.record(30, 4, 0, None, None, None, EventKind::Crash);
        j.record(55, 1, 0, None, None, None, EventKind::Detect { peer: 4, how: "ack-timeout".into() });
        let h = derive_histograms(&j);
        assert_eq!(h["abort_drain"].count(), 1);
        assert_eq!(h["abort_drain"].sum(), 12, "wave spans t=10..22");
        assert_eq!(h["compensation_lag"].count(), 1);
        assert_eq!(h["compensation_lag"].sum(), 8, "apply at 18, wave start 10");
        assert_eq!(h["detect_latency"].sum(), 25);
        assert_eq!(h["commit_latency"].count(), 0);
    }

    proptest! {
        #[test]
        fn critical_paths_is_invariant_under_event_permutation(
            events in prop::collection::vec((0usize..6, 0u32..4, 0u64..1000), 1..24),
            swaps in prop::collection::vec((0usize..32, 0usize..32), 0..64),
        ) {
            // Tie-breaking must be a pure function of the span
            // aggregates, never of journal order: feeding the same
            // events in any permutation selects a byte-identical path.
            // Span k's parent is span (k-1)/2 (a small binary tree);
            // every event of a span carries the same parent id, so the
            // span graph itself is permutation-independent.
            let canon: Vec<(u64, u32, SpanRef, Option<SpanRef>)> = events
                .iter()
                .map(|&(k, peer, at)| {
                    let parent = (k > 0).then(|| SpanRef::new(0, (k as u64 - 1) / 2));
                    (at, peer, SpanRef::new(0, k as u64), parent)
                })
                .collect();
            let mut permuted = canon.clone();
            let n = permuted.len();
            for &(a, b) in &swaps {
                permuted.swap(a % n, b % n);
            }
            let journal_of = |evs: &[(u64, u32, SpanRef, Option<SpanRef>)]| {
                let mut j = TraceJournal::default();
                for (at, peer, span, parent) in evs {
                    j.record(
                        *at,
                        *peer,
                        0,
                        Some(TxnRef::new(1, 0)),
                        Some(*span),
                        *parent,
                        EventKind::Serve { from: 0, method: "m".into() },
                    );
                }
                j
            };
            prop_assert_eq!(
                critical_paths(&journal_of(&canon)),
                critical_paths(&journal_of(&permuted))
            );
        }
    }

    #[test]
    fn critical_path_follows_latest_finishing_chain() {
        let text = critical_paths(&journal());
        assert!(text.contains("T1.0: critical path 24 ticks"), "{text}");
        assert!(text.contains("inv1.0@AP1 [0..24] -> inv1.1@AP"), "{text}");
        assert_eq!(text, critical_paths(&journal()), "rendering is deterministic");
        assert_eq!(critical_paths(&TraceJournal::default()), "(no spans recorded)\n");
    }
}
