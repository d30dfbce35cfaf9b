//! Online protocol monitor: runtime invariants over the event stream.
//!
//! Where `axml-analyze` checks recovery rules *statically* and the chaos
//! oracle checks atomicity as a *final-state* predicate, the monitor
//! watches the protocol *as it runs* — it is an [`EventSink`] attached to
//! the simulator, so every lifecycle event flows through it in emission
//! order. Four rules, mapped to the paper:
//!
//! - **M001 — reverse compensation order (§3.1).** Within one
//!   (peer, txn), self-compensation batches must undo forward log
//!   records in strictly decreasing index order (`compensate-op` events
//!   carry the index). A re-serve after an abort (forward-recovery
//!   re-join) starts a fresh log and resets the rule.
//! - **M002 — terminal means terminal (§3.2).** After a peer resolves a
//!   transaction, no forward-progress event for that (peer, txn) may
//!   follow: nothing after a commit; after an abort only the delivery
//!   substrate and a legitimate re-join (`serve`, which re-arms the
//!   rule) are allowed.
//! - **M003 — at-most-once processing (§8 delivery layer).** A reliable
//!   delivery `(sender, id)` must be *processed* at most once per
//!   receiver epoch: a repeated `ack-send` for a known delivery must be
//!   followed by its `dedup-suppress`, unless the transaction is already
//!   terminal at the receiver (late no-op deliveries after the dedup set
//!   was pruned).
//! - **M004 — abort reachability (§3.2 step 4).** Every `abort-propagate
//!   T → Q` must eventually be matched by a terminal resolve of `T` at
//!   `Q`, unless the silence is *absorbed*: `Q` crashed or disconnected,
//!   someone detected `Q` as failed, or the sender's retransmission gave
//!   up (`ack-timeout` — the failure-detection path took over).
//!
//! Call [`Monitor::finish`] after the run to flush end-of-run rules
//! (M004, unresolved M003 obligations). Findings are deterministic: they
//! are a pure function of the event stream.

use axml_trace::{EventKind, EventSink, TraceEvent, TraceJournal, TxnRef};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One invariant violation observed by the monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorFinding {
    /// Rule id (`M001` … `M004`).
    pub rule: &'static str,
    /// Sequence number of the offending event (journal order), or of the
    /// last event for end-of-run rules.
    pub seq: u64,
    /// Sim time of the offending event.
    pub at: u64,
    /// Peer the rule fired at.
    pub peer: u32,
    /// Transaction involved, if any.
    pub txn: Option<TxnRef>,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for MonitorFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [t={} AP{}", self.rule, self.at, self.peer)?;
        if let Some(t) = &self.txn {
            write!(f, " {t}")?;
        }
        write!(f, "] {}", self.detail)
    }
}

/// Per-(peer, txn) terminal state, as the monitor has observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    Committed,
    Aborted,
}

/// An unresolved M003 obligation: a repeated `ack-send` whose
/// `dedup-suppress` has not (yet) been seen.
#[derive(Debug, Clone)]
struct PendingDup {
    key: (u32, u64, u32, u64), // (receiver, receiver-epoch, sender, id)
    seq: u64,
    at: u64,
    txn: Option<TxnRef>,
}

/// The online monitor. Attach with `Sim::attach_observer` (or feed a
/// stored journal through [`Monitor::replay`]) and read
/// [`Monitor::finish`].
#[derive(Debug, Default)]
pub struct Monitor {
    findings: Vec<MonitorFinding>,
    finished: bool,
    // M001: last `undoes` index per (peer, txn).
    last_undo: BTreeMap<(u32, TxnRef), u64>,
    // M002 (also M003's "already terminal" excuse): per (peer, txn) state.
    state: BTreeMap<(u32, TxnRef), Terminal>,
    // M003: deliveries already processed, keyed by receiver epoch, plus
    // the at-most-one outstanding repeat obligation per receiver.
    processed: BTreeSet<(u32, u64, u32, u64)>,
    pending_dup: BTreeMap<u32, PendingDup>,
    // M004: propagated aborts (txn, target), resolves seen (txn → peers),
    // give-ups (txn, target), and per-peer churn/detection excuses.
    abort_targets: BTreeMap<(TxnRef, u32), (u64, u64, u32)>, // → (seq, at, sender)
    resolved: BTreeMap<TxnRef, BTreeSet<u32>>,
    gave_up: BTreeSet<(TxnRef, u32)>,
    churned: BTreeSet<u32>,
    detected: BTreeSet<u32>,
    last_seq: u64,
    last_at: u64,
}

impl Monitor {
    /// A fresh monitor with no observations.
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// Findings so far (before end-of-run rules — prefer
    /// [`Monitor::finish`] once the run is over).
    pub fn findings(&self) -> &[MonitorFinding] {
        &self.findings
    }

    /// Flushes end-of-run rules (M004 reachability, M003 obligations the
    /// stream ended on) and returns every finding. Idempotent.
    pub fn finish(&mut self) -> &[MonitorFinding] {
        if self.finished {
            return &self.findings;
        }
        self.finished = true;
        // Outstanding M003 obligations: the stream ended before the
        // suppress could appear.
        let pending: Vec<PendingDup> = std::mem::take(&mut self.pending_dup).into_values().collect();
        for p in pending {
            self.flag_unsuppressed(&p);
        }
        // M004: every propagated abort must have reached its target or
        // been absorbed by the failure-detection machinery.
        let targets = std::mem::take(&mut self.abort_targets);
        for ((txn, target), (seq, at, sender)) in targets {
            let reached = self.resolved.get(&txn).is_some_and(|peers| peers.contains(&target));
            let absorbed = self.gave_up.contains(&(txn, target))
                || self.churned.contains(&target)
                || self.detected.contains(&target);
            if !reached && !absorbed {
                self.findings.push(MonitorFinding {
                    rule: "M004",
                    seq: self.last_seq.max(seq),
                    at: self.last_at.max(at),
                    peer: target,
                    txn: Some(txn),
                    detail: format!(
                        "abort of {txn} propagated by AP{sender} (t={at}) never reached AP{target}: \
                         no terminal resolve there and no crash/disconnect/detection/give-up to absorb it"
                    ),
                });
            }
        }
        &self.findings
    }

    /// Replays a stored journal through a fresh monitor (the offline
    /// `axml-obs` path) and returns its findings.
    pub fn replay(journal: &TraceJournal) -> Vec<MonitorFinding> {
        let mut m = Monitor::new();
        for e in journal.events() {
            m.on_event(e);
        }
        m.finish();
        m.findings
    }

    fn flag_unsuppressed(&mut self, p: &PendingDup) {
        let (receiver, _epoch, sender, id) = p.key;
        // Excused when the transaction was already terminal at the
        // receiver: the dedup entry was legitimately pruned and the
        // late duplicate is absorbed by the terminal-state no-op paths.
        let terminal = p.txn.is_some_and(|t| self.state.contains_key(&(receiver, t)));
        if terminal {
            return;
        }
        self.findings.push(MonitorFinding {
            rule: "M003",
            seq: p.seq,
            at: p.at,
            peer: receiver,
            txn: p.txn,
            detail: format!(
                "reliable delivery (AP{sender}, id={id}) processed more than once at AP{receiver}: \
                 repeated ack-send with no dedup-suppress and the transaction still live"
            ),
        });
    }

    fn step(&mut self, e: &TraceEvent) {
        self.last_seq = e.seq;
        self.last_at = e.at;
        // Resolve any outstanding M003 obligation at this receiver: the
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
                    match self.state.get(&(e.peer, t)) {
                        Some(Terminal::Committed) => self.findings.push(MonitorFinding {
                            rule: "M002",
                            seq: e.seq,
                            at: e.at,
                            peer: e.peer,
                            txn: e.txn,
                            detail: format!("serve of {t} after it committed at AP{}", e.peer),
                        }),
                        Some(Terminal::Aborted) => {
                            // Legitimate forward-recovery re-join: fresh
                            // context, fresh log — re-arm M001 and M002.
                            self.state.remove(&(e.peer, t));
                            self.last_undo.remove(&(e.peer, t));
                        }
                        None => {}
                    }
                }
            }
            EventKind::Submit { .. } | EventKind::Materialize { .. } | EventKind::CompensateDerive { .. } => {
                if let Some(t) = e.txn {
                    if self.state.get(&(e.peer, t)) == Some(&Terminal::Committed) {
                        self.findings.push(MonitorFinding {
                            rule: "M002",
                            seq: e.seq,
                            at: e.at,
                            peer: e.peer,
                            txn: e.txn,
                            detail: format!("{} for {t} after it committed at AP{}", e.kind.label(), e.peer),
                        });
                    }
                }
            }
            EventKind::CompensateOp { undoes, .. } => {
                if let Some(t) = e.txn {
                    if self.state.get(&(e.peer, t)) == Some(&Terminal::Committed) {
                        self.findings.push(MonitorFinding {
                            rule: "M002",
                            seq: e.seq,
                            at: e.at,
                            peer: e.peer,
                            txn: e.txn,
                            detail: format!("compensation of {t} after it committed at AP{}", e.peer),
                        });
                    }
                    match self.last_undo.get(&(e.peer, t)) {
                        Some(&prev) if *undoes >= prev => self.findings.push(MonitorFinding {
                            rule: "M001",
                            seq: e.seq,
                            at: e.at,
                            peer: e.peer,
                            txn: e.txn,
                            detail: format!(
                                "compensation out of order at AP{}: batch undoing log record {undoes} \
                                 applied after record {prev} (must be strictly decreasing — §3.1)",
                                e.peer
                            ),
                        }),
                        _ => {}
                    }
                    self.last_undo.insert((e.peer, t), *undoes);
                }
            }
            EventKind::Resolve { committed } => {
                if let Some(t) = e.txn {
                    match self.state.get(&(e.peer, t)) {
                        Some(prev) => {
                            let was = if *prev == Terminal::Committed { "committed" } else { "aborted" };
                            let now = if *committed { "commit" } else { "abort" };
                            self.findings.push(MonitorFinding {
                                rule: "M002",
                                seq: e.seq,
                                at: e.at,
                                peer: e.peer,
                                txn: e.txn,
                                detail: format!(
                                    "second terminal decision for {t} at AP{}: {now} after it already {was}",
                                    e.peer
                                ),
                            });
                        }
                        None => {
                            self.state
                                .insert((e.peer, t), if *committed { Terminal::Committed } else { Terminal::Aborted });
                        }
                    }
                    self.resolved.entry(t).or_default().insert(e.peer);
                }
            }
            EventKind::AckSend { to, id } => {
                let key = (e.peer, e.epoch, *to, *id);
                if !self.processed.insert(key) {
                    // Second ack for a known delivery: either the
                    // suppress follows immediately, or this was really
                    // processed twice. Defer the verdict to the
                    // receiver's next event (or end of run).
                    self.pending_dup.insert(e.peer, PendingDup { key, seq: e.seq, at: e.at, txn: e.txn });
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
                // A crash wipes volatile state: per-(peer, txn) rule
                // state from the dead epoch no longer binds the new one.
                if matches!(e.kind, EventKind::Crash) {
                    self.last_undo.retain(|(p, _), _| *p != e.peer);
                    self.state.retain(|(p, _), _| *p != e.peer);
                }
            }
            _ => {}
        }
    }
}

impl EventSink for Monitor {
    fn on_event(&mut self, event: &TraceEvent) {
        self.step(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, at: u64, peer: u32, txn: Option<&str>, kind: EventKind) -> TraceEvent {
        TraceEvent { seq, at, peer, epoch: 0, txn: txn.map(|t| t.parse().unwrap()), span: None, parent: None, kind }
    }

    fn run(events: Vec<TraceEvent>) -> Vec<MonitorFinding> {
        let mut m = Monitor::new();
        for e in &events {
            m.on_event(e);
        }
        m.finish().to_vec()
    }

    #[test]
    fn clean_commit_yields_no_findings() {
        let f = run(vec![
            ev(0, 0, 1, Some("T1.0"), EventKind::Submit { method: "m".into() }),
            ev(1, 5, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
            ev(2, 9, 1, Some("T1.0"), EventKind::Resolve { committed: true }),
            ev(3, 12, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn m001_catches_forward_order_compensation() {
        let comp =
            |seq, undoes| ev(seq, 20, 3, Some("T1.0"), EventKind::CompensateOp { doc: "d".into(), undoes, actions: 1 });
        // Reverse order (2, 1, 0): clean.
        assert!(run(vec![comp(0, 2), comp(1, 1), comp(2, 0)]).is_empty());
        // Forward order (0, 1): flagged.
        let f = run(vec![comp(0, 0), comp(1, 1)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M001");
        assert!(f[0].detail.contains("out of order"));
        // Equal index repeated: also flagged (strictly decreasing).
        assert_eq!(run(vec![comp(0, 1), comp(1, 1)])[0].rule, "M001");
    }

    #[test]
    fn m001_resets_on_rejoin_serve() {
        let f = run(vec![
            ev(0, 10, 3, Some("T1.0"), EventKind::CompensateOp { doc: "d".into(), undoes: 0, actions: 1 }),
            ev(1, 11, 3, Some("T1.0"), EventKind::Resolve { committed: false }),
            // Forward recovery re-invokes: fresh log, indices restart.
            ev(2, 20, 3, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
            ev(3, 30, 3, Some("T1.0"), EventKind::CompensateOp { doc: "d".into(), undoes: 1, actions: 1 }),
            ev(4, 30, 3, Some("T1.0"), EventKind::CompensateOp { doc: "d".into(), undoes: 0, actions: 1 }),
        ]);
        assert!(f.is_empty(), "re-join resets the order rule: {f:?}");
    }

    #[test]
    fn m002_catches_activity_after_terminal() {
        // Serve after commit.
        let f = run(vec![
            ev(0, 5, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
            ev(1, 9, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
        ]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "M002");
        // Double resolve without an intervening re-join.
        let f = run(vec![
            ev(0, 5, 2, Some("T1.0"), EventKind::Resolve { committed: false }),
            ev(1, 9, 2, Some("T1.0"), EventKind::Resolve { committed: true }),
        ]);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("second terminal decision"), "{f:?}");
        // Abort → re-serve → abort again is the legitimate recovery shape.
        let f = run(vec![
            ev(0, 5, 2, Some("T1.0"), EventKind::Resolve { committed: false }),
            ev(1, 9, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
            ev(2, 12, 2, Some("T1.0"), EventKind::Resolve { committed: false }),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn m003_repeat_ack_needs_suppress_or_terminal() {
        let ack = |seq, at| ev(seq, at, 2, Some("T1.0"), EventKind::AckSend { to: 1, id: 7 });
        // Ack, repeat ack, immediate suppress: the dedup layer worked.
        let f = run(vec![ack(0, 5), ack(1, 9), ev(2, 9, 2, Some("T1.0"), EventKind::DedupSuppress { from: 1, id: 7 })]);
        assert!(f.is_empty(), "{f:?}");
        // Repeat ack, next receiver event is something else: processed twice.
        let f = run(vec![
            ack(0, 5),
            ack(1, 9),
            ev(2, 9, 2, Some("T1.0"), EventKind::Serve { from: 1, method: "m".into() }),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M003");
        // Repeat ack at end of stream, no suppress: same verdict.
        let f = run(vec![ack(0, 5), ack(1, 9)]);
        assert_eq!(f.len(), 1);
        // But if the transaction already resolved at the receiver, the
        // late duplicate is a pruned-entry no-op: excused.
        let f = run(vec![ack(0, 5), ev(1, 6, 2, Some("T1.0"), EventKind::Resolve { committed: true }), ack(2, 30)]);
        assert!(f.is_empty(), "{f:?}");
        // A new receiver epoch is a fresh dedup set: no obligation.
        let mut crashed = ev(3, 40, 2, Some("T1.0"), EventKind::AckSend { to: 1, id: 7 });
        crashed.epoch = 1;
        let f = run(vec![ack(0, 5), crashed]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn m004_propagated_abort_must_land_or_be_absorbed() {
        let prop = ev(0, 10, 1, Some("T1.0"), EventKind::AbortPropagate { to: 4 });
        // Unreached, unexcused: flagged at finish.
        let f = run(vec![prop.clone()]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "M004");
        assert_eq!(f[0].peer, 4);
        // Reached: the target resolves.
        let f = run(vec![prop.clone(), ev(1, 30, 4, Some("T1.0"), EventKind::Resolve { committed: false })]);
        assert!(f.is_empty(), "{f:?}");
        // Absorbed: the sender's retransmission gave up.
        let f = run(vec![prop.clone(), ev(1, 90, 1, Some("T1.0"), EventKind::RetransmitGiveUp { to: 4, id: 9 })]);
        assert!(f.is_empty(), "{f:?}");
        // Absorbed: the target crashed.
        let f = run(vec![prop, ev(1, 50, 4, None, EventKind::Crash)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn replay_matches_online() {
        let mut j = TraceJournal::default();
        j.record(5, 2, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Resolve { committed: true });
        j.record(9, 2, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Serve { from: 1, method: "m".into() });
        let offline = Monitor::replay(&j);
        let online = run(j.events().to_vec());
        assert_eq!(offline, online);
        assert_eq!(offline.len(), 1);
    }
}
