//! Trace conformance: replaying a recorded `axml-trace` journal against
//! the model's permitted transitions.
//!
//! Every event a peer emits is treated as a *claimed* transition of the
//! reference model ([`crate::model`]); the checker verifies the claim is
//! enabled in the abstract state it maintains per (peer, transaction).
//! The first divergence is reported with its causal context — the recent
//! events at the diverging peer — and the model rule it contradicts.
//!
//! The permitted-transition relation is deliberately the *weakest
//! precondition consistent with churn*: crash epochs reset per-peer
//! obligations, a serve after an abort is the legitimate forward-recovery
//! re-join (model rule R02 from a fresh frame), and delivery-layer
//! duplicates are excused once the transaction is terminal at the
//! receiver. This makes the online Monitor's M001–M004 rules corollaries
//! of the model's invariants: M001 ↔ I2 (R08), M002 ↔ I3, M003 ↔ I5,
//! M004 ↔ I4 — see `axml-obs`'s cross-check test.

use axml_trace::{EventKind, TraceEvent, TraceJournal, TxnRef};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;

/// How many recent per-peer events a divergence report carries.
const CONTEXT_DEPTH: usize = 6;

/// One divergence between the recorded trace and the model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Divergence {
    /// Violated invariant (`I2` … `I5`).
    pub invariant: &'static str,
    /// Model transition rule implicated.
    pub rule: &'static str,
    /// Sequence number of the offending event (journal order).
    pub seq: u64,
    /// Sim time of the offending event.
    pub at: u64,
    /// Diverging peer.
    pub peer: u32,
    /// Transaction involved, if any.
    pub txn: Option<TxnRef>,
    /// What the trace claimed that the model forbids.
    pub detail: String,
    /// Causal context: the most recent events at the diverging peer, in
    /// emission order, ending with the offender.
    pub context: Vec<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) [t={} AP{}", self.invariant, self.rule, self.at, self.peer)?;
        if let Some(t) = &self.txn {
            write!(f, " {t}")?;
        }
        write!(f, "] {}", self.detail)
    }
}

/// The verdict of replaying one journal.
#[derive(Debug, Clone, Serialize)]
pub struct Conformance {
    /// Events replayed.
    pub events: usize,
    /// Divergences, in journal order (empty when the trace conforms).
    pub divergences: Vec<Divergence>,
}

impl Conformance {
    /// True when the trace conforms to the model.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The first divergence, if any.
    #[must_use]
    pub fn first(&self) -> Option<&Divergence> {
        self.divergences.first()
    }

    /// Human-readable rendering: the first divergence with context, then
    /// the rest one per line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} event(s) replayed, {} divergence(s)", self.events, self.divergences.len());
        if let Some(d) = self.first() {
            let _ = writeln!(out, "first divergence: {d}");
            for line in &d.context {
                let _ = writeln!(out, "    {line}");
            }
            for d in &self.divergences[1..] {
                let _ = writeln!(out, "also: {d}");
            }
        }
        out
    }

    /// JSON rendering.
    ///
    /// # Panics
    ///
    /// Only if JSON serialization fails, which cannot happen for the
    /// plain-data fields of a verdict.
    #[must_use]
    pub fn render_json(&self) -> String {
        serde_json::to_string(self).expect("conformance serializes")
    }
}

/// Terminal outcome recorded per (peer, txn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Committed,
    Aborted,
}

/// An unresolved I5 obligation: a repeated `ack-send` whose
/// `dedup-suppress` has not (yet) been seen.
#[derive(Debug, Clone)]
struct PendingDup {
    key: (u32, u64, u32, u64), // (receiver, receiver-epoch, sender, id)
    seq: u64,
    at: u64,
    txn: Option<TxnRef>,
}

/// Streaming conformance checker. Feed events in journal order, then
/// call [`ConformanceChecker::finish`]. It borrows the events it is fed
/// (`'j`, the journal's lifetime): the causal context of a divergence is
/// rendered from them only when one is reported.
#[derive(Debug, Default)]
pub struct ConformanceChecker<'j> {
    events: usize,
    divergences: Vec<Divergence>,
    finished: bool,
    // I2: last undone log index per (peer, txn); reset by re-join serve
    // and by crash (new epoch).
    last_undo: BTreeMap<(u32, TxnRef), u64>,
    // I3: terminal outcome per (peer, txn).
    outcome: BTreeMap<(u32, TxnRef), Outcome>,
    // I5: processed deliveries per receiver epoch + the at-most-one
    // outstanding repeat obligation per receiver.
    processed: BTreeSet<(u32, u64, u32, u64)>,
    pending_dup: BTreeMap<u32, PendingDup>,
    // I4: propagated aborts → (seq, at, sender); terminal resolves seen;
    // give-ups and churn/detection excuses.
    abort_targets: BTreeMap<(TxnRef, u32), (u64, u64, u32)>,
    resolved: BTreeMap<TxnRef, BTreeSet<u32>>,
    gave_up: BTreeSet<(TxnRef, u32)>,
    churned: BTreeSet<u32>,
    detected: BTreeSet<u32>,
    // Causal context: the last few events per peer.
    recent: BTreeMap<u32, VecDeque<&'j TraceEvent>>,
    last_seq: u64,
    last_at: u64,
}

/// One rendered event line for context reporting.
fn render_event(e: &TraceEvent) -> String {
    let mut s = format!("#{} t={} AP{}", e.seq, e.at, e.peer);
    if let Some(t) = e.txn {
        let _ = write!(s, " {t}");
    }
    let _ = write!(s, " {}", e.kind.label());
    match &e.kind {
        EventKind::Invoke { to, method } | EventKind::Serve { from: to, method } => {
            let _ = write!(s, " AP{to} {method}");
        }
        EventKind::Materialize { items, .. } => {
            let _ = write!(s, " items={items}");
        }
        EventKind::CompensateOp { undoes, actions, .. } => {
            let _ = write!(s, " undoes={undoes} actions={actions}");
        }
        EventKind::Resolve { committed } => {
            let _ = write!(s, " committed={committed}");
        }
        EventKind::ResultReturn { to } | EventKind::FaultRaise { to } | EventKind::AbortPropagate { to } => {
            let _ = write!(s, " to=AP{to}");
        }
        EventKind::AckSend { to, id } | EventKind::RetransmitGiveUp { to, id } => {
            let _ = write!(s, " to=AP{to} id={id}");
        }
        EventKind::DedupSuppress { from, id } => {
            let _ = write!(s, " from=AP{from} id={id}");
        }
        _ => {}
    }
    s
}

impl<'j> ConformanceChecker<'j> {
    /// A fresh checker with no observations.
    #[must_use]
    pub fn new() -> ConformanceChecker<'j> {
        ConformanceChecker::default()
    }

    fn context_for(&self, peer: u32) -> Vec<String> {
        self.recent.get(&peer).map(|r| r.iter().map(|e| render_event(e)).collect()).unwrap_or_default()
    }

    fn diverge(&mut self, invariant: &'static str, rule: &'static str, e: &TraceEvent, detail: String) {
        let context = self.context_for(e.peer);
        self.divergences.push(Divergence {
            invariant,
            rule,
            seq: e.seq,
            at: e.at,
            peer: e.peer,
            txn: e.txn,
            detail,
            context,
        });
    }

    fn flag_unsuppressed(&mut self, p: &PendingDup) {
        let (receiver, _epoch, sender, id) = p.key;
        // Excused when the transaction was already terminal at the
        // receiver: the dedup entry was legitimately pruned and the late
        // duplicate is absorbed by the terminal-state no-op paths (the
        // model's stale-delivery discipline).
        let terminal = p.txn.is_some_and(|t| self.outcome.contains_key(&(receiver, t)));
        if terminal {
            return;
        }
        let context = self.context_for(receiver);
        self.divergences.push(Divergence {
            invariant: "I5",
            rule: "delivery",
            seq: p.seq,
            at: p.at,
            peer: receiver,
            txn: p.txn,
            detail: format!(
                "reliable delivery (AP{sender}, id={id}) processed more than once at AP{receiver}: \
                 repeated ack-send with no dedup-suppress and the transaction still live"
            ),
            context,
        });
    }

    /// Replays one event (journal order).
    // One arm per journal event kind; splitting the dispatch would
    // scatter the protocol reading of a single event across functions.
    #[allow(clippy::too_many_lines)]
    pub fn on_event(&mut self, e: &'j TraceEvent) {
        self.events += 1;
        self.last_seq = e.seq;
        self.last_at = e.at;
        // Resolve any outstanding I5 obligation at this receiver: the
        // suppress, when it comes, is the very next event the receiver
        // emits after the repeated ack.
        if let Some(p) = self.pending_dup.remove(&e.peer) {
            let suppressed = matches!(
                &e.kind,
                EventKind::DedupSuppress { from, id } if (*from, *id) == (p.key.2, p.key.3)
            );
            if !suppressed {
                self.flag_unsuppressed(&p);
            }
        }
        match &e.kind {
            EventKind::Serve { .. } => {
                if let Some(t) = e.txn {
                    match self.outcome.get(&(e.peer, t)) {
                        Some(Outcome::Committed) => self.diverge(
                            "I3",
                            "R02",
                            e,
                            format!("serve of {t} after it committed at AP{} (terminal frames are frozen)", e.peer),
                        ),
                        Some(Outcome::Aborted) => {
                            // Legitimate forward-recovery re-join: model
                            // rule R02 from a fresh frame — fresh log,
                            // fresh order obligation.
                            self.outcome.remove(&(e.peer, t));
                            self.last_undo.remove(&(e.peer, t));
                        }
                        None => {}
                    }
                }
            }
            EventKind::Submit { .. } => self.forward_after_commit(e, "R01"),
            EventKind::Materialize { .. } => self.forward_after_commit(e, "R03"),
            EventKind::CompensateDerive { .. } => self.forward_after_commit(e, "R08"),
            EventKind::CompensateOp { undoes, .. } => {
                self.forward_after_commit(e, "R08");
                if let Some(t) = e.txn {
                    if let Some(&prev) = self.last_undo.get(&(e.peer, t)) {
                        if *undoes >= prev {
                            self.diverge(
                                "I2",
                                "R08",
                                e,
                                format!(
                                    "compensation out of order at AP{}: undo of log record {undoes} \
                                     after record {prev} (R08 requires strictly decreasing indices — §3.1)",
                                    e.peer
                                ),
                            );
                        }
                    }
                    self.last_undo.insert((e.peer, t), *undoes);
                }
            }
            EventKind::Resolve { committed } => {
                if let Some(t) = e.txn {
                    match self.outcome.get(&(e.peer, t)) {
                        Some(prev) => {
                            let was = if *prev == Outcome::Committed { "committed" } else { "aborted" };
                            let now = if *committed { "commit" } else { "abort" };
                            self.diverge(
                                "I3",
                                "R04",
                                e,
                                format!(
                                    "second terminal decision for {t} at AP{}: {now} after it already {was} \
                                     (no model rule re-resolves a terminal frame)",
                                    e.peer
                                ),
                            );
                        }
                        None => {
                            self.outcome
                                .insert((e.peer, t), if *committed { Outcome::Committed } else { Outcome::Aborted });
                        }
                    }
                    self.resolved.entry(t).or_default().insert(e.peer);
                }
            }
            EventKind::AckSend { to, id } => {
                let k = (e.peer, e.epoch, *to, *id);
                if !self.processed.insert(k) {
                    // Second ack for a known delivery: either the suppress
                    // follows immediately, or this really was processed
                    // twice. Defer the verdict to the receiver's next
                    // event (or end of run).
                    self.pending_dup.insert(e.peer, PendingDup { key: k, seq: e.seq, at: e.at, txn: e.txn });
                }
            }
            EventKind::AbortPropagate { to } => {
                if let Some(t) = e.txn {
                    self.abort_targets.entry((t, *to)).or_insert((e.seq, e.at, e.peer));
                }
            }
            EventKind::RetransmitGiveUp { to, .. } => {
                if let Some(t) = e.txn {
                    self.gave_up.insert((t, *to));
                }
                // Give-up is also a detection of the silent peer.
                self.detected.insert(*to);
            }
            EventKind::Detect { peer, .. } => {
                self.detected.insert(*peer);
            }
            EventKind::Crash | EventKind::Disconnect => {
                self.churned.insert(e.peer);
                // A crash wipes volatile state: per-(peer, txn)
                // obligations from the dead epoch no longer bind the new
                // one (the model's R10 epoch reset).
                if matches!(e.kind, EventKind::Crash) {
                    self.last_undo.retain(|(p, _), _| *p != e.peer);
                    self.outcome.retain(|(p, _), _| *p != e.peer);
                }
            }
            _ => {}
        }
        let buf = self.recent.entry(e.peer).or_default();
        buf.push_back(e);
        if buf.len() > CONTEXT_DEPTH {
            buf.pop_front();
        }
    }

    /// I3 for forward-progress events: nothing after a commit.
    fn forward_after_commit(&mut self, e: &TraceEvent, rule: &'static str) {
        if let Some(t) = e.txn {
            if self.outcome.get(&(e.peer, t)) == Some(&Outcome::Committed) {
                self.diverge(
                    "I3",
                    rule,
                    e,
                    format!(
                        "{} for {t} after it committed at AP{} (terminal frames are frozen)",
                        e.kind.label(),
                        e.peer
                    ),
                );
            }
        }
    }

    /// Flushes end-of-run obligations (I4 reachability, outstanding I5
    /// repeats) and returns the verdict. Idempotent on the verdict.
    #[must_use]
    pub fn finish(mut self) -> Conformance {
        debug_assert!(!self.finished);
        self.finished = true;
        let pending: Vec<PendingDup> = std::mem::take(&mut self.pending_dup).into_values().collect();
        for p in pending {
            self.flag_unsuppressed(&p);
        }
        // I4: every propagated abort must have landed (a terminal resolve
        // at the target) or been absorbed by the failure-detection
        // machinery (churn, detection, retransmission give-up).
        let targets = std::mem::take(&mut self.abort_targets);
        let (last_seq, last_at) = (self.last_seq, self.last_at);
        for ((txn, target), (seq, at, sender)) in targets {
            let reached = self.resolved.get(&txn).is_some_and(|peers| peers.contains(&target));
            let absorbed = self.gave_up.contains(&(txn, target))
                || self.churned.contains(&target)
                || self.detected.contains(&target);
            if !reached && !absorbed {
                let mut context = self.context_for(target);
                if context.is_empty() {
                    context = self.context_for(sender);
                }
                self.divergences.push(Divergence {
                    invariant: "I4",
                    rule: "R06/R07",
                    seq: last_seq.max(seq),
                    at: last_at.max(at),
                    peer: target,
                    txn: Some(txn),
                    detail: format!(
                        "abort of {txn} propagated by AP{sender} (t={at}) never landed at AP{target}: \
                         no terminal resolve there and no crash/disconnect/detection/give-up to absorb it"
                    ),
                    context,
                });
            }
        }
        self.divergences.sort_by_key(|d| d.seq);
        Conformance { events: self.events, divergences: self.divergences }
    }
}

/// Replays a stored journal and returns the conformance verdict.
#[must_use]
pub fn check_journal(journal: &TraceJournal) -> Conformance {
    let mut c = ConformanceChecker::new();
    for e in journal.events() {
        c.on_event(e);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, at: u64, peer: u32, txn: Option<&str>, kind: EventKind) -> TraceEvent {
        TraceEvent { seq, at, peer, epoch: 0, txn: txn.map(|t| t.parse().unwrap()), span: None, parent: None, kind }
    }

    fn run(events: &[TraceEvent]) -> Conformance {
        let mut c = ConformanceChecker::new();
        for e in events {
            c.on_event(e);
        }
        c.finish()
    }

    #[test]
    fn clean_commit_conforms() {
        let v = run(&[
            ev(0, 0, 1, Some("T1.0"), EventKind::Submit { method: "m".into() }),
            ev(1, 5, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
            ev(2, 9, 1, Some("T1.0"), EventKind::Resolve { committed: true }),
            ev(3, 12, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
        ]);
        assert!(v.is_clean(), "{}", v.render_text());
        assert_eq!(v.events, 4);
    }

    #[test]
    fn i2_forward_order_with_context() {
        let comp =
            |seq, undoes| ev(seq, 20, 3, Some("T1.0"), EventKind::CompensateOp { doc: "d".into(), undoes, actions: 1 });
        let v = run(&[comp(0, 2), comp(1, 1), comp(2, 0)]);
        assert!(v.is_clean(), "{}", v.render_text());
        let v = run(&[comp(0, 0), comp(1, 1)]);
        assert_eq!(v.divergences.len(), 1, "{}", v.render_text());
        let d = v.first().expect("divergence");
        assert_eq!((d.invariant, d.rule, d.seq), ("I2", "R08", 1));
        // Causal context carries the preceding compensate-op.
        assert!(d.context.iter().any(|l| l.contains("undoes=0")), "{:?}", d.context);
    }

    #[test]
    fn i2_resets_on_rejoin_and_crash() {
        let comp =
            |seq, undoes| ev(seq, 20, 3, Some("T1.0"), EventKind::CompensateOp { doc: "d".into(), undoes, actions: 1 });
        // Abort → re-join serve → fresh log: indices may restart.
        let v = run(&[
            comp(0, 0),
            ev(1, 21, 3, Some("T1.0"), EventKind::Resolve { committed: false }),
            ev(2, 30, 3, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
            comp(3, 1),
            comp(4, 0),
        ]);
        assert!(v.is_clean(), "{}", v.render_text());
        // Crash: new epoch, the obligation re-arms.
        let v = run(&[comp(0, 0), ev(1, 25, 3, None, EventKind::Crash), comp(2, 1), comp(3, 0)]);
        assert!(v.is_clean(), "{}", v.render_text());
    }

    #[test]
    fn i3_post_commit_activity_and_double_resolve() {
        let v = run(&[
            ev(0, 5, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
            ev(1, 9, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
        ]);
        assert_eq!(v.divergences.len(), 1);
        assert_eq!((v.divergences[0].invariant, v.divergences[0].rule), ("I3", "R02"));
        let v = run(&[
            ev(0, 5, 2, Some("T1.0"), EventKind::Resolve { committed: false }),
            ev(1, 9, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
        ]);
        assert_eq!(v.divergences.len(), 1);
        assert_eq!(v.divergences[0].rule, "R04");
        // Abort → re-serve → abort again is the legitimate recovery shape.
        let v = run(&[
            ev(0, 5, 2, Some("T1.0"), EventKind::Resolve { committed: false }),
            ev(1, 9, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
            ev(2, 12, 2, Some("T1.0"), EventKind::Resolve { committed: false }),
        ]);
        assert!(v.is_clean(), "{}", v.render_text());
    }

    #[test]
    fn i5_repeat_ack_needs_suppress_or_terminal() {
        let ack = |seq, at| ev(seq, at, 2, Some("T1.0"), EventKind::AckSend { to: 1, id: 7 });
        let v = run(&[ack(0, 5), ack(1, 9), ev(2, 9, 2, Some("T1.0"), EventKind::DedupSuppress { from: 1, id: 7 })]);
        assert!(v.is_clean(), "{}", v.render_text());
        let v = run(&[ack(0, 5), ack(1, 9)]);
        assert_eq!(v.divergences.len(), 1);
        assert_eq!(v.divergences[0].invariant, "I5");
        // Terminal at the receiver: the late duplicate is excused.
        let v = run(&[ack(0, 5), ev(1, 6, 2, Some("T1.0"), EventKind::Resolve { committed: true }), ack(2, 30)]);
        assert!(v.is_clean(), "{}", v.render_text());
    }

    #[test]
    fn i4_abort_must_land_or_be_absorbed() {
        let prop = ev(0, 10, 1, Some("T1.0"), EventKind::AbortPropagate { to: 4 });
        let v = run(std::slice::from_ref(&prop));
        assert_eq!(v.divergences.len(), 1, "{}", v.render_text());
        let d = &v.divergences[0];
        assert_eq!((d.invariant, d.rule, d.peer), ("I4", "R06/R07", 4));
        // Context falls back to the sender when the target never spoke.
        assert!(d.context.iter().any(|l| l.contains("abort-propagate") || l.contains("AP1")), "{:?}", d.context);
        let v = run(&[prop.clone(), ev(1, 30, 4, Some("T1.0"), EventKind::Resolve { committed: false })]);
        assert!(v.is_clean(), "{}", v.render_text());
        let v = run(&[prop.clone(), ev(1, 90, 1, Some("T1.0"), EventKind::RetransmitGiveUp { to: 4, id: 9 })]);
        assert!(v.is_clean(), "{}", v.render_text());
        let v = run(&[prop, ev(1, 50, 4, None, EventKind::Crash)]);
        assert!(v.is_clean(), "{}", v.render_text());
    }

    #[test]
    fn journal_replay_and_renderings() {
        let mut j = TraceJournal::default();
        j.record(5, 2, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Resolve { committed: true });
        j.record(9, 2, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Serve { from: 1, method: "m".into() });
        let v = check_journal(&j);
        assert_eq!(v.divergences.len(), 1);
        let text = v.render_text();
        assert!(text.contains("first divergence: I3(R02)"), "{text}");
        let json = v.render_json();
        assert!(json.contains("\"invariant\":\"I3\""), "{json}");
    }
}
