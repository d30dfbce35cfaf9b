//! The violation flight dump: what each peer did last before a chaos run
//! went wrong, cut from the run's journal.
//!
//! [`flight_dump`] renders the last ≤ `capacity` protocol events of every
//! peer ([`axml_trace::peer_tail`]) and how much older history it left
//! out. The chaos harness renders it from a traced run's journal when an
//! oracle violation or monitor finding surfaces, and
//! files it next to the shrunk reproducer and inside `corpus/` entries.
//! Gauge samples sit in a column of their own, so a dump is protocol
//! history only. [`FlightRecorder`] is an [`EventSink`] that keeps the
//! events it is fed and renders the same dump, for a run that has no
//! journal.

use axml_trace::{peer_tail, EventSink, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default events kept per peer — enough to hold a whole abort wave on
/// any scenario in the matrix while keeping dumps skimmable.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// Renders `events` (journal order): a header, then one section per peer
/// with its last ≤ `capacity` events oldest-first and the count of older
/// ones left out. Deterministic (peer order, journal order), so a
/// replayed failure dumps byte-identical context.
pub fn flight_dump(events: &[TraceEvent], capacity: usize) -> String {
    let mut seen: BTreeMap<u32, usize> = BTreeMap::new();
    for e in events {
        *seen.entry(e.peer).or_default() += 1;
    }
    let kept_of = |n: usize| n.min(capacity);
    let kept: usize = seen.values().map(|&n| kept_of(n)).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: last <={capacity} events per peer ({} peers, {kept} kept, {} dropped)",
        seen.len(),
        events.len() - kept
    );
    for (&peer, &n) in &seen {
        let _ = writeln!(out, "-- AP{peer}: {} kept, {} dropped", kept_of(n), n - kept_of(n));
        for e in peer_tail(events, peer, capacity) {
            out.push_str("  ");
            e.write_line(&mut out);
            if let Some(txn) = &e.txn {
                out.push_str(" txn=");
                txn.push_to(&mut out);
            }
            out.push('\n');
        }
    }
    out
}

/// An event sink keeping every event it is fed, dumped as [`flight_dump`]
/// renders a journal.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    capacity: usize,
    events: Vec<TraceEvent>,
}

impl FlightRecorder {
    /// A recorder whose dump shows the last `capacity` events per peer.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { capacity, events: Vec::new() }
    }

    /// The [`flight_dump`] of the events fed so far.
    pub fn dump(&self) -> String {
        flight_dump(&self.events, self.capacity)
    }
}

impl EventSink for FlightRecorder {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_trace::EventKind;

    fn event(at: u64, peer: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq: at,
            at,
            peer,
            epoch: 0,
            txn: Some(axml_trace::TxnRef::new(1, 0)),
            span: None,
            parent: None,
            kind,
        }
    }

    #[test]
    fn recorder_keeps_the_last_n_events_per_peer() {
        let mut fr = FlightRecorder::new(2);
        for at in 0..5 {
            fr.on_event(&event(at, 0, EventKind::Crash));
        }
        fr.on_event(&event(9, 1, EventKind::Reconnect));
        let dump = fr.dump();
        assert!(dump.starts_with("flight recorder: last <=2 events per peer (2 peers, 3 kept, 3 dropped)"), "{dump}");
        assert!(dump.contains("-- AP0: 2 kept, 3 dropped"), "{dump}");
        assert!(dump.contains("[t=    3 AP0 e0] crash txn=T1.0"), "{dump}");
        assert!(dump.contains("[t=    4 AP0 e0] crash"), "{dump}");
        assert!(!dump.contains("[t=    1 AP0"), "oldest events evicted: {dump}");
        assert!(dump.contains("-- AP1: 1 kept, 0 dropped"), "{dump}");
        assert_eq!(dump, fr.dump(), "dump is deterministic");
    }

    #[test]
    fn empty_recorder_dumps_a_bare_header() {
        let fr = FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY);
        assert_eq!(fr.dump(), "flight recorder: last <=64 events per peer (0 peers, 0 kept, 0 dropped)\n");
    }
}
