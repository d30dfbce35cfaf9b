//! Trace conformance: replays a recorded `axml-trace` journal through the
//! rule engine [`axml_trace::rules`], the state machine the online monitor
//! runs too, so the two checkers agree by construction. A divergence names
//! the invariant (`I2` … `I5`) and model rule its [`axml_trace::rules::Rule`]
//! maps to, with the recent events at the diverging peer as causal context.

use axml_trace::rules::{Breach, Rules};
use axml_trace::{peer_tail, EventKind, TraceEvent, TraceJournal, TxnRef};
use serde::Serialize;
use std::fmt;
use std::fmt::Write as _;

/// How many of its peer's last events a divergence report carries.
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
    /// Causal context: the most recent events at the diverging peer when
    /// the divergence was raised, in emission order.
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

    /// JSON rendering (it cannot fail for the plain-data fields of a
    /// verdict).
    #[must_use]
    pub fn render_json(&self) -> String {
        serde_json::to_string(self).expect("conformance serializes")
    }
}

/// One rendered event line for context reporting.
fn render_event(e: &TraceEvent) -> String {
    let mut s = format!("#{} t={} AP{}", e.seq, e.at, e.peer);
    if let Some(t) = e.txn {
        let _ = write!(s, " {t}");
    }
    let _ = write!(s, " {}", e.kind.label());
    let _ = match &e.kind {
        EventKind::Invoke { to, method } | EventKind::Serve { from: to, method } => write!(s, " AP{to} {method}"),
        EventKind::Materialize { items, .. } => write!(s, " items={items}"),
        EventKind::CompensateOp { undoes, actions, .. } => write!(s, " undoes={undoes} actions={actions}"),
        EventKind::Resolve { committed } => write!(s, " committed={committed}"),
        EventKind::ResultReturn { to } | EventKind::FaultRaise { to } | EventKind::AbortPropagate { to } => {
            write!(s, " to=AP{to}")
        }
        EventKind::AckSend { to, id } | EventKind::RetransmitGiveUp { to, id } => write!(s, " to=AP{to} id={id}"),
        EventKind::DedupSuppress { from, id } => write!(s, " from=AP{from} id={id}"),
        _ => Ok(()),
    };
    s
}

/// Attaches the last events at the breach's peer in `before` (the
/// journal up to the event that raised it) — or, when that peer never
/// spoke, at the peer whose event raised the breach.
fn attach_context(before: &[TraceEvent], b: &mut Breach) {
    let of = |peer| peer_tail(before, peer, CONTEXT_DEPTH).map(render_event).collect::<Vec<_>>();
    b.context = of(b.peer);
    if b.context.is_empty() {
        b.context = of(b.origin);
    }
}

impl From<Breach> for Divergence {
    fn from(b: Breach) -> Divergence {
        let Breach { rule, seq, at, peer, txn, detail, context, .. } = b;
        Divergence { invariant: rule.invariant(), rule: rule.model_rule(), seq, at, peer, txn, detail, context }
    }
}

/// Replays a stored journal and returns the conformance verdict. A
/// divergence's context is cut from the journal where the divergence was
/// raised; an end-of-run one sees the whole journal.
#[must_use]
pub fn check_journal(journal: &TraceJournal) -> Conformance {
    let events = journal.events();
    let mut rules = Rules::default();
    for (i, e) in events.iter().enumerate() {
        rules.on_event(e, |b| attach_context(&events[..i], b));
    }
    let breaches = rules.finish(|b| attach_context(events, b));
    Conformance { events: events.len(), divergences: breaches.into_iter().map(Into::into).collect() }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks `(at, peer, kind)` events of transaction T1.0.
    fn run(events: Vec<(u64, u32, EventKind)>) -> Conformance {
        let mut j = TraceJournal::default();
        for (at, peer, kind) in events {
            j.record(at, peer, 0, Some(TxnRef::new(1, 0)), None, None, kind);
        }
        check_journal(&j)
    }

    #[test]
    fn clean_commit_conforms() {
        let v =
            run(vec![(0, 1, EventKind::Submit { method: "m".into() }), (9, 1, EventKind::Resolve { committed: true })]);
        assert!(v.is_clean(), "{}", v.render_text());
        assert_eq!(v.events, 2);
    }

    #[test]
    fn i2_forward_order_with_context() {
        let comp = |undoes| (20, 3, EventKind::CompensateOp { doc: "d".into(), undoes, actions: 1 });
        let v = run(vec![comp(0), comp(1)]);
        let d = v.first().expect("divergence");
        assert_eq!((v.divergences.len(), d.invariant, d.rule, d.seq), (1, "I2", "R08", 1));
        // Causal context: the peer's events before the offender.
        assert_eq!(d.context, ["#0 t=20 AP3 T1.0 compensate-op undoes=0 actions=1"]);
    }

    #[test]
    fn i2_resets_on_rejoin_and_crash() {
        let comp = |undoes| (20, 3, EventKind::CompensateOp { doc: "d".into(), undoes, actions: 1 });
        // Abort → re-join serve → fresh log: indices may restart.
        let rejoin = [
            (21, 3, EventKind::Resolve { committed: false }),
            (30, 3, EventKind::Serve { from: 1, method: "m".into() }),
        ];
        let v = run([vec![comp(0)], rejoin.to_vec(), vec![comp(1), comp(0)]].concat());
        assert!(v.is_clean(), "{}", v.render_text());
        // Crash: new epoch, the obligation re-arms.
        let v = run(vec![comp(0), (25, 3, EventKind::Crash), comp(1), comp(0)]);
        assert!(v.is_clean(), "{}", v.render_text());
        assert_eq!(run(vec![comp(0), comp(1), comp(0)]).divergences.len(), 1);
    }

    #[test]
    fn i3_post_commit_activity_and_double_resolve() {
        let resolve = |at, committed| (at, 2, EventKind::Resolve { committed });
        let v = run(vec![resolve(5, false), resolve(9, true)]);
        let d = v.first().expect("divergence");
        assert_eq!((v.divergences.len(), d.invariant, d.rule, d.seq), (1, "I3", "R04", 1));
        assert!(d.detail.starts_with("second terminal decision for T1.0 at AP2"), "{}", d.detail);
        assert_eq!(d.context, ["#0 t=5 AP2 T1.0 resolve committed=false"]);
        // Abort → re-serve → abort again is the legitimate recovery shape.
        let v =
            run(vec![resolve(5, false), (9, 2, EventKind::Serve { from: 1, method: "m".into() }), resolve(12, false)]);
        assert!(v.is_clean(), "{}", v.render_text());
    }

    #[test]
    fn i5_repeat_ack_needs_suppress_or_terminal() {
        let ack = |at| (at, 2, EventKind::AckSend { to: 1, id: 7 });
        let v = run(vec![ack(5), ack(9), (9, 2, EventKind::DedupSuppress { from: 1, id: 7 })]);
        assert!(v.is_clean(), "{}", v.render_text());
        let v = run(vec![ack(5), ack(9)]);
        let d = v.first().expect("divergence");
        assert_eq!((v.divergences.len(), d.invariant, d.rule, d.seq, d.peer), (1, "I5", "delivery", 1, 2));
        // Terminal at the receiver: the late duplicate is excused.
        let v = run(vec![ack(5), (6, 2, EventKind::Resolve { committed: true }), ack(30)]);
        assert!(v.is_clean(), "{}", v.render_text());
    }

    #[test]
    fn i4_abort_must_land_or_be_absorbed() {
        let v = run(vec![(10, 1, EventKind::AbortPropagate { to: 4 })]);
        let d = v.first().expect("divergence");
        assert_eq!((v.divergences.len(), d.invariant, d.rule, d.peer), (1, "I4", "R06/R07", 4));
        // Context falls back to the sender when the target never spoke.
        assert_eq!(d.context, ["#0 t=10 AP1 T1.0 abort-propagate to=AP4"]);
    }

    #[test]
    fn a_breach_raised_mid_journal_carries_no_later_event() {
        let resolve = |at, committed| (at, 2, EventKind::Resolve { committed });
        let later = |at| (at, 2, EventKind::AckSend { to: 1, id: at });
        let v = run(vec![resolve(5, false), later(6), resolve(9, true), later(12), later(15)]);
        let d = v.first().expect("divergence");
        assert_eq!((v.divergences.len(), d.invariant, d.seq), (1, "I3", 2));
        assert_eq!(d.context, ["#0 t=5 AP2 T1.0 resolve committed=false", "#1 t=6 AP2 T1.0 ack-send to=AP1 id=6"]);
    }

    #[test]
    fn journal_replay_and_renderings() {
        let v = run(vec![
            (5, 2, EventKind::Resolve { committed: true }),
            (9, 2, EventKind::Serve { from: 1, method: "m".into() }),
        ]);
        let (text, json) = (v.render_text(), v.render_json());
        let first = "first divergence: I3(R02) [t=9 AP2 T1.0] serve of T1.0 after it committed at AP2";
        assert!(text.starts_with(&format!("2 event(s) replayed, 1 divergence(s)\n{first}\n    #0 t=5 AP2")), "{text}");
        assert!(json.contains("\"invariant\":\"I3\""), "{json}");
    }
}
