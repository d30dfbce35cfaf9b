//! The violation flight recorder: bounded per-peer rings of recent
//! trace events, dumped when a chaos run goes wrong.
//!
//! A [`FlightRecorder`] is an [`EventSink`] the chaos harness attaches
//! to *every* run (traced or not): each stamped protocol event lands in
//! its emitting peer's [`EventRing`], so at any moment the recorder
//! holds the last ≤ `capacity` events per peer and a count of how much
//! older history was evicted. Gauge samples never reach a sink, so a
//! ring is protocol history only, and a traced run dumps what the same
//! run untraced dumps. When an oracle violation, monitor finding, or
//! conformance break surfaces, [`FlightRecorder::dump`] renders that
//! context — what each peer was doing just before the failure — and the
//! harness files it next to the shrunk reproducer and inside `corpus/`
//! entries. Recording is observation-only: the sink never touches the
//! event schedule, so a recorded run is byte-identical to a bare one.

use axml_trace::{EventRing, EventSink, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default ring capacity per peer — enough to hold a whole abort wave
/// on any scenario in the matrix while keeping dumps skimmable.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// Bounded per-peer recent-event recorder.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    capacity: usize,
    rings: BTreeMap<u32, EventRing>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events per peer.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { capacity, rings: BTreeMap::new() }
    }

    /// Events currently held across all peers.
    pub fn len(&self) -> usize {
        self.rings.values().map(|r| r.len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events evicted across all peers.
    pub fn dropped(&self) -> u64 {
        self.rings.values().map(|r| r.dropped()).sum()
    }

    /// Renders the recorder: a header, then one section per peer with
    /// its kept events oldest-first. Deterministic (peer order, ring
    /// order), so a replayed failure dumps byte-identical context.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: last <={} events per peer ({} peers, {} kept, {} dropped)",
            self.capacity,
            self.rings.len(),
            self.len(),
            self.dropped()
        );
        for (peer, ring) in &self.rings {
            let _ = writeln!(out, "-- AP{peer}: {} kept, {} dropped", ring.len(), ring.dropped());
            for e in ring.iter() {
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
}

impl EventSink for FlightRecorder {
    fn on_event(&mut self, event: &TraceEvent) {
        self.rings.entry(event.peer).or_insert_with(|| EventRing::new(self.capacity)).push(event.clone());
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
        assert_eq!(fr.len(), 3, "peer 0 capped at 2, peer 1 holds 1");
        assert_eq!(fr.dropped(), 3);
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
        assert!(fr.is_empty());
        assert_eq!(fr.dump(), "flight recorder: last <=64 events per peer (0 peers, 0 kept, 0 dropped)\n");
    }
}
