//! The protocol rule engine: the one state machine behind the online
//! monitor (`axml-obs`) and trace conformance (`axml-spec`). [`Rules`]
//! reads [`TraceEvent`]s in journal order and raises a [`Breach`] wherever
//! the stream contradicts one of the paper's four runtime invariants:
//!
//! - reverse compensation order (§3.1), re-armed by a re-join or a crash;
//! - terminal means terminal (§3.2);
//! - at-most-once processing of a reliable delivery, excused once the
//!   transaction is terminal at the receiver;
//! - abort reachability (§3.2 step 4), absorbed by the target's crash,
//!   disconnect or detection, or by the sender's give-up.
//!
//! A [`Rule`] names each breach as a monitor id, a model invariant and a
//! model transition rule.

use crate::{EventKind, TraceEvent, TxnRef};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What a breach contradicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A compensation batch undid a log record at or after the previous one.
    CompensationOrder,
    /// Forward progress after the transaction committed at the peer,
    /// with the model rule it claims: `R01` submit, `R02` serve, `R03`
    /// materialize, `R08` compensation.
    AfterCommit(&'static str),
    /// A second terminal decision at the same peer.
    SecondResolve,
    /// A reliable delivery processed more than once.
    RepeatedDelivery,
    /// A propagated abort that never reached its target.
    UnreachedAbort,
}

impl Rule {
    /// Monitor id, model invariant and model transition rule.
    const fn ids(self) -> [&'static str; 3] {
        match self {
            Rule::CompensationOrder => ["M001", "I2", "R08"],
            Rule::AfterCommit(model_rule) => ["M002", "I3", model_rule],
            Rule::SecondResolve => ["M002", "I3", "R04"],
            Rule::RepeatedDelivery => ["M003", "I5", "delivery"],
            Rule::UnreachedAbort => ["M004", "I4", "R06/R07"],
        }
    }

    /// The online monitor's id (`M001` … `M004`).
    pub const fn monitor_id(self) -> &'static str {
        self.ids()[0]
    }

    /// The reference model's invariant (`I2` … `I5`).
    pub const fn invariant(self) -> &'static str {
        self.ids()[1]
    }

    /// The reference model's transition rule the breach contradicts.
    pub const fn model_rule(self) -> &'static str {
        self.ids()[2]
    }
}

/// One rule breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breach {
    /// The rule breached.
    pub rule: Rule,
    /// Sequence number of the offending event, or of the last event for
    /// an unreached abort.
    pub seq: u64,
    /// Sim time of that event.
    pub at: u64,
    /// Peer the rule fired at.
    pub peer: u32,
    /// Peer whose event raised the breach: `peer`, or the sender of an
    /// unreached abort.
    pub origin: u32,
    /// Transaction involved, if any.
    pub txn: Option<TxnRef>,
    /// Human-readable explanation.
    pub detail: String,
    /// Recent events at `peer`, filled in by a checker that keeps them.
    pub context: Vec<String>,
}

/// The online monitor's one-line form: `M003 [t=10 AP6 T1.0] detail`.
impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [t={} AP{}", self.rule.monitor_id(), self.at, self.peer)?;
        if let Some(t) = &self.txn {
            write!(f, " {t}")?;
        }
        write!(f, "] {}", self.detail)
    }
}

impl Breach {
    fn new(rule: Rule, seq: u64, at: u64, peer: u32, txn: Option<TxnRef>, detail: String) -> Breach {
        Breach { rule, seq, at, peer, origin: peer, txn, detail, context: Vec::new() }
    }
}

/// A repeated `ack-send` of delivery `(from, id)` whose `dedup-suppress`
/// has not (yet) been seen.
#[derive(Debug)]
struct PendingDup {
    from: u32,
    id: u64,
    seq: u64,
    at: u64,
    txn: Option<TxnRef>,
}

/// The rule state machine. Feed events with [`Rules::on_event`], then
/// flush the end-of-run rules with [`Rules::finish`].
#[derive(Debug, Default)]
pub struct Rules {
    breaches: Vec<Breach>,
    // Last undone log index, and terminal decision (true = committed),
    // per (peer, txn).
    last_undo: BTreeMap<(u32, TxnRef), u64>,
    terminal: BTreeMap<(u32, TxnRef), bool>,
    // Deliveries (receiver, receiver epoch, sender, id) processed, and the
    // at most one outstanding repeat per receiver.
    processed: BTreeSet<(u32, u64, u32, u64)>,
    pending_dup: BTreeMap<u32, PendingDup>,
    // Propagated aborts → (seq, at, sender); what reaches or absorbs them.
    abort_targets: BTreeMap<(TxnRef, u32), (u64, u64, u32)>,
    resolved: BTreeMap<TxnRef, BTreeSet<u32>>,
    gave_up: BTreeSet<(TxnRef, u32)>,
    churned: BTreeSet<u32>,
    detected: BTreeSet<u32>,
    last: (u64, u64), // (seq, at) of the latest event
}

impl Rules {
    /// Reads one event (journal order); `raised` sees each breach it
    /// raises, before the next event is read.
    pub fn on_event(&mut self, e: &TraceEvent, raised: impl FnMut(&mut Breach)) {
        let from = self.breaches.len();
        self.step(e);
        self.breaches[from..].iter_mut().for_each(raised);
    }

    /// Raises the end-of-run breaches (unreached aborts, repeats the
    /// stream ended on), shows each to `raised`, and returns every
    /// breach in journal order.
    pub fn finish(mut self, raised: impl FnMut(&mut Breach)) -> Vec<Breach> {
        let from = self.breaches.len();
        for (receiver, p) in std::mem::take(&mut self.pending_dup) {
            self.flag_unsuppressed(receiver, &p);
        }
        for (&(txn, target), &(seq, at, sender)) in &self.abort_targets {
            let reached = self.resolved.get(&txn).is_some_and(|peers| peers.contains(&target));
            let absorbed = self.gave_up.contains(&(txn, target))
                || self.churned.contains(&target)
                || self.detected.contains(&target);
            if !reached && !absorbed {
                let detail = format!(
                    "abort of {txn} propagated by AP{sender} (t={at}) never reached AP{target}: \
                     no terminal resolve there and no crash/disconnect/detection/give-up to absorb it"
                );
                let (seq, at) = (self.last.0.max(seq), self.last.1.max(at));
                let b = Breach::new(Rule::UnreachedAbort, seq, at, target, Some(txn), detail);
                self.breaches.push(Breach { origin: sender, ..b });
            }
        }
        self.breaches[from..].iter_mut().for_each(raised);
        self.breaches.sort_by_key(|b| b.seq);
        self.breaches
    }

    fn flag_unsuppressed(&mut self, receiver: u32, p: &PendingDup) {
        if p.txn.is_some_and(|t| self.terminal.contains_key(&(receiver, t))) {
            return;
        }
        let detail = format!(
            "reliable delivery (AP{}, id={}) processed more than once at AP{receiver}: \
             repeated ack-send with no dedup-suppress and the transaction still live",
            p.from, p.id
        );
        self.breaches.push(Breach::new(Rule::RepeatedDelivery, p.seq, p.at, receiver, p.txn, detail));
    }

    fn step(&mut self, e: &TraceEvent) {
        self.last = (e.seq, e.at);
        // The suppress of a repeated delivery, when it comes, is the very
        // next event its receiver emits.
        if let Some(p) = self.pending_dup.remove(&e.peer) {
            if !matches!(&e.kind, EventKind::DedupSuppress { from, id } if (*from, *id) == (p.from, p.id)) {
                self.flag_unsuppressed(e.peer, &p);
            }
        }
        let forward = match &e.kind {
            EventKind::Submit { .. } => Some(("R01", "submit for")),
            EventKind::Serve { .. } => Some(("R02", "serve of")),
            EventKind::Materialize { .. } => Some(("R03", "materialize for")),
            EventKind::CompensateDerive { .. } => Some(("R08", "compensate-derive for")),
            EventKind::CompensateOp { .. } => Some(("R08", "compensation of")),
            _ => None,
        };
        if let (Some((rule, what)), Some(t)) = (forward, e.txn) {
            if self.terminal.get(&(e.peer, t)) == Some(&true) {
                let detail = format!("{what} {t} after it committed at AP{}", e.peer);
                self.breaches.push(Breach::new(Rule::AfterCommit(rule), e.seq, e.at, e.peer, e.txn, detail));
            }
        }
        let key = e.txn.map(|t| (e.peer, t));
        match (&e.kind, key) {
            // A serve after an abort is the forward-recovery re-join: fresh
            // context, fresh log.
            (EventKind::Serve { .. }, Some(k)) if self.terminal.get(&k) == Some(&false) => {
                self.terminal.remove(&k);
                self.last_undo.remove(&k);
            }
            (EventKind::CompensateOp { undoes, .. }, Some(k)) => {
                if let Some(prev) = self.last_undo.insert(k, *undoes).filter(|prev| undoes >= prev) {
                    let detail = format!(
                        "compensation out of order at AP{}: batch undoing log record {undoes} applied after \
                         record {prev} (must be strictly decreasing — §3.1)",
                        e.peer
                    );
                    self.breaches.push(Breach::new(Rule::CompensationOrder, e.seq, e.at, e.peer, e.txn, detail));
                }
            }
            (EventKind::Resolve { committed }, Some((peer, t))) => {
                if let Some(&was) = self.terminal.get(&(peer, t)) {
                    let was = if was { "committed" } else { "aborted" };
                    let now = if *committed { "commit" } else { "abort" };
                    let detail = format!("second terminal decision for {t} at AP{peer}: {now} after it already {was}");
                    self.breaches.push(Breach::new(Rule::SecondResolve, e.seq, e.at, e.peer, e.txn, detail));
                } else {
                    self.terminal.insert((peer, t), *committed);
                }
                self.resolved.entry(t).or_default().insert(peer);
            }
            (&EventKind::AckSend { to: from, id }, _) => {
                // A second ack for a known delivery: the verdict waits for
                // the receiver's next event (or the end of the run).
                let repeat = !self.processed.insert((e.peer, e.epoch, from, id));
                if repeat {
                    self.pending_dup.insert(e.peer, PendingDup { from, id, seq: e.seq, at: e.at, txn: e.txn });
                }
            }
            (EventKind::AbortPropagate { to }, Some((_, t))) => {
                self.abort_targets.entry((t, *to)).or_insert((e.seq, e.at, e.peer));
            }
            (EventKind::RetransmitGiveUp { to, .. }, _) => {
                if let Some(t) = e.txn {
                    self.gave_up.insert((t, *to));
                }
                // A give-up is also a detection of the silent peer.
                self.detected.insert(*to);
            }
            (EventKind::Detect { peer, .. }, _) => {
                self.detected.insert(*peer);
            }
            (EventKind::Crash | EventKind::Disconnect, _) => {
                self.churned.insert(e.peer);
                // A crash wipes volatile state: the dead epoch's
                // per-(peer, txn) obligations do not bind the new one.
                if matches!(e.kind, EventKind::Crash) {
                    self.last_undo.retain(|(p, _), _| *p != e.peer);
                    self.terminal.retain(|(p, _), _| *p != e.peer);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, peer: u32, kind: EventKind) -> TraceEvent {
        let txn = Some(TxnRef::new(1, 0));
        TraceEvent { seq, at: seq * 5, peer, epoch: 0, txn, span: None, parent: None, kind }
    }

    fn comp(seq: u64, peer: u32, undoes: u64) -> TraceEvent {
        ev(seq, peer, EventKind::CompensateOp { doc: "d".into(), undoes, actions: 1 })
    }

    fn serve(seq: u64, peer: u32) -> TraceEvent {
        ev(seq, peer, EventKind::Serve { from: 1, method: "m".into() })
    }

    fn resolve(seq: u64, peer: u32, committed: bool) -> TraceEvent {
        ev(seq, peer, EventKind::Resolve { committed })
    }

    fn ack(seq: u64, epoch: u64) -> TraceEvent {
        TraceEvent { epoch, ..ev(seq, 2, EventKind::AckSend { to: 1, id: 7 }) }
    }

    fn run(events: &[TraceEvent]) -> Vec<(Rule, u64, u32, u32)> {
        let mut r = Rules::default();
        for e in events {
            r.on_event(e, |_| {});
        }
        r.finish(|_| {}).iter().map(|b| (b.rule, b.seq, b.peer, b.origin)).collect()
    }

    #[test]
    fn clean_lifecycles_raise_nothing() {
        let submit = ev(0, 1, EventKind::Submit { method: "m".into() });
        let mat = ev(2, 1, EventKind::Materialize { doc: "d".into(), items: 1 });
        assert_eq!(run(&[submit, serve(1, 2), mat, resolve(3, 1, true), resolve(4, 2, true)]), []);
        let prop = ev(1, 1, EventKind::AbortPropagate { to: 3 });
        let abort = [serve(0, 3), prop, comp(2, 3, 1), comp(3, 3, 0), resolve(4, 3, false), resolve(5, 1, false)];
        assert_eq!(run(&abort), []);
    }

    #[test]
    fn m001_catches_forward_order_compensation() {
        assert_eq!(run(&[comp(0, 3, 2), comp(1, 3, 1), comp(2, 3, 0)]), []);
        assert_eq!(run(&[comp(0, 3, 0), comp(1, 3, 1)]), [(Rule::CompensationOrder, 1, 3, 3)]);
        // Strictly decreasing: an equal index repeated is flagged too.
        assert_eq!(run(&[comp(0, 3, 1), comp(1, 3, 1)]), [(Rule::CompensationOrder, 1, 3, 3)]);
    }

    #[test]
    fn m004_propagated_abort_must_land_or_be_absorbed() {
        let prop = ev(0, 1, EventKind::AbortPropagate { to: 4 });
        assert_eq!(run(&[prop.clone(), serve(1, 2)]), [(Rule::UnreachedAbort, 1, 4, 1)]);
        let absorbing = [
            resolve(1, 4, false),
            ev(1, 1, EventKind::RetransmitGiveUp { to: 4, id: 9 }),
            ev(1, 4, EventKind::Crash),
            ev(1, 4, EventKind::Disconnect),
            ev(1, 2, EventKind::Detect { peer: 4, how: "ping".into() }),
        ];
        for e in absorbing {
            let label = e.kind.label();
            assert_eq!(run(&[prop.clone(), e]), [], "{label}");
        }
    }

    #[test]
    fn breaches_come_out_in_journal_order_and_are_each_raised_once() {
        let (mut r, mut raised) = (Rules::default(), Vec::new());
        for e in [ack(0, 0), ack(1, 0), resolve(2, 5, true), serve(3, 5)] {
            r.on_event(&e, |b| raised.push(b.seq));
        }
        let breaches = r.finish(|b| raised.push(b.seq));
        // The repeat is raised at the end, after the later serve.
        assert_eq!((raised, breaches.iter().map(|b| b.seq).collect()), (vec![3, 1], vec![1, 3]));
    }
}
