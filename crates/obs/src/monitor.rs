//! Online protocol monitor: an [`EventSink`] that checks the paper's
//! runtime invariants *as the protocol runs*, where `ScenarioBuilder::check`
//! holds a scenario's rules before it runs and the chaos oracle checks the
//! final state.
//! It adapts the rule engine [`axml_trace::rules`], which trace
//! conformance runs too, and names its rules M001 (reverse compensation
//! order), M002 (terminal means terminal), M003 (at-most-once processing)
//! and M004 (abort reachability).

use axml_trace::rules::{Breach, Rules};
use axml_trace::{EventSink, TraceEvent, TraceJournal};

/// One invariant violation observed by the monitor: a rule-engine
/// [`Breach`], displayed under its monitor id.
pub type MonitorFinding = Breach;

/// The online monitor. Attach with `Sim::attach_observer` (or feed a
/// stored journal through [`Monitor::replay`]) and read
/// [`Monitor::finish`].
#[derive(Debug, Default)]
pub struct Monitor {
    rules: Rules,
    findings: Option<Vec<MonitorFinding>>,
}

impl Monitor {
    /// A fresh monitor with no observations.
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// Flushes end-of-run rules and returns every finding, in journal
    /// order. Idempotent.
    pub fn finish(&mut self) -> &[MonitorFinding] {
        let rules = &mut self.rules;
        self.findings.get_or_insert_with(|| std::mem::take(rules).finish(|_| {}))
    }

    /// Replays a stored journal through a fresh monitor (the offline
    /// `axml-obs` path) and returns its findings.
    pub fn replay(journal: &TraceJournal) -> Vec<MonitorFinding> {
        let mut rules = Rules::default();
        journal.events().iter().for_each(|e| rules.on_event(e, |_| {}));
        rules.finish(|_| {})
    }
}

impl EventSink for Monitor {
    fn on_event(&mut self, event: &TraceEvent) {
        self.rules.on_event(event, |_| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_trace::{EventKind, TxnRef};

    /// Monitors `(peer, epoch, kind)` events of transaction T1.0, one per tick.
    fn run(events: Vec<(u32, u64, EventKind)>) -> Vec<String> {
        let mut j = TraceJournal::default();
        for (at, (peer, epoch, kind)) in (0..).zip(events) {
            j.record(at, peer, epoch, Some(TxnRef::new(1, 0)), None, None, kind);
        }
        let mut m = Monitor::new();
        j.events().iter().for_each(|e| m.on_event(e));
        m.finish().iter().map(ToString::to_string).collect()
    }

    fn comp(undoes: u64) -> (u32, u64, EventKind) {
        (3, 0, EventKind::CompensateOp { doc: "d".into(), undoes, actions: 1 })
    }

    fn serve(peer: u32) -> (u32, u64, EventKind) {
        (peer, 0, EventKind::Serve { from: 1, method: "m".into() })
    }

    fn resolve(peer: u32, committed: bool) -> (u32, u64, EventKind) {
        (peer, 0, EventKind::Resolve { committed })
    }

    fn ack(epoch: u64) -> (u32, u64, EventKind) {
        (2, epoch, EventKind::AckSend { to: 1, id: 7 })
    }

    #[test]
    fn m001_resets_on_rejoin_serve() {
        // Forward recovery re-invokes after the abort: a fresh log.
        assert_eq!(run(vec![comp(0), resolve(3, false), serve(3), comp(1), comp(0)]), [""; 0]);
        let f = run(vec![comp(0), resolve(3, false), comp(1)]);
        assert!(f.len() == 1 && f[0].starts_with("M001 [t=2 AP3 T1.0] compensation out of order"), "{f:?}");
    }

    #[test]
    fn m002_catches_activity_after_terminal() {
        let f = run(vec![resolve(2, true), serve(2)]);
        assert_eq!(f, ["M002 [t=1 AP2 T1.0] serve of T1.0 after it committed at AP2"]);
        let submit = (2, 0, EventKind::Submit { method: "m".into() });
        let mat = (2, 0, EventKind::Materialize { doc: "d".into(), items: 1 });
        for e in [submit, mat, (3, 0, comp(0).2), resolve(2, false)] {
            let f = run(vec![resolve(e.0, true), e]);
            assert!(f.len() == 1 && f[0].starts_with("M002 [t=1 "), "{f:?}");
        }
        // Abort → re-serve → abort again is the legitimate recovery shape.
        assert_eq!(run(vec![resolve(2, false), serve(2), resolve(2, false)]), [""; 0]);
    }

    #[test]
    fn m003_repeat_ack_needs_suppress_or_terminal() {
        let suppress = (2, 0, EventKind::DedupSuppress { from: 1, id: 7 });
        assert_eq!(run(vec![ack(0), ack(0), suppress]), [""; 0]);
        // Flushed at the end of the stream, yet listed before the later serve's M002.
        let f = run(vec![resolve(5, true), ack(0), ack(0), (5, 0, serve(5).2)]);
        assert!(f.len() == 2 && f[0].starts_with("M003 [t=2 AP2 T1.0]") && f[1].starts_with("M002"), "{f:?}");
        // Terminal at the receiver, or a new receiver epoch: excused.
        assert_eq!(run(vec![ack(0), resolve(2, true), ack(0)]), [""; 0]);
        assert_eq!(run(vec![ack(0), ack(1)]), [""; 0]);
    }

    #[test]
    fn replay_matches_online() {
        let mut j = TraceJournal::default();
        j.record(5, 2, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Resolve { committed: true });
        j.record(9, 2, 0, Some(TxnRef::new(1, 0)), None, None, EventKind::Serve { from: 1, method: "m".into() });
        let mut online = Monitor::new();
        j.events().iter().for_each(|e| online.on_event(e));
        let offline = Monitor::replay(&j);
        assert_eq!(online.finish(), offline);
        assert_eq!(online.finish(), offline, "finish is idempotent");
        assert_eq!(offline[0].to_string(), "M002 [t=9 AP2 T1.0] serve of T1.0 after it committed at AP2");
    }
}
