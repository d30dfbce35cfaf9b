//! The deterministic time-series plane: fixed-window integer gauge
//! series recovered from journal [`EventKind::Gauge`] events.
//!
//! The simulator samples every live actor's gauges at fixed sim-time
//! window boundaries (`SimConfig::sample_interval`), emitting one
//! `Gauge` event per (peer, metric, boundary). This module folds those
//! events into a [`SeriesRegistry`]: `metric → peer → boundary → value`,
//! all `BTreeMap`s, so iteration (and every rendering) is byte-stable.
//! Registries from different runs combine with [`SeriesRegistry::absorb`]
//! — a pointwise sum, which is commutative and associative, so a
//! parallel sweep merged in canonical case order produces the same
//! registry as a serial one regardless of worker interleaving.

use axml_trace::{EventKind, TraceJournal};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A deterministic registry of sampled gauge series.
///
/// Values are plain `u64` sums: a single run's registry holds the
/// sampled readings themselves; an N-run aggregate holds the pointwise
/// sum over runs (total backlog across the fleet at each boundary).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesRegistry {
    /// `metric → peer → window boundary (sim time) → value`.
    pub series: BTreeMap<String, BTreeMap<u32, BTreeMap<u64, u64>>>,
}

/// One flattened point of a [`SeriesRegistry`] — the JSON wire form
/// (the in-memory nested maps are integer-keyed, which the exposition
/// grammar and JSON object keys both handle poorly).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Metric name.
    pub metric: String,
    /// Sampled peer.
    pub peer: u32,
    /// Window boundary (sim time).
    pub at: u64,
    /// Gauge value (summed across absorbed registries).
    pub value: u64,
}

impl SeriesRegistry {
    /// Adds `value` to the point for (`metric`, `peer`, `at`).
    pub fn record(&mut self, metric: &str, peer: u32, at: u64, value: u64) {
        // Nearly every point names a metric already present: look before
        // allocating its name.
        let peers = match self.series.get_mut(metric) {
            Some(peers) => peers,
            None => self.series.entry(metric.to_string()).or_default(),
        };
        let slot = peers.entry(peer).or_default().entry(at).or_default();
        *slot = slot.saturating_add(value);
    }

    /// Builds a registry from a journal's [`EventKind::Gauge`] events.
    pub fn from_journal(journal: &TraceJournal) -> Self {
        let mut reg = Self::default();
        for e in journal.events() {
            if let EventKind::Gauge { name, value } = &e.kind {
                reg.record(name, e.peer, e.at, *value);
            }
        }
        reg
    }

    /// Pointwise sum of another registry into this one. Commutative and
    /// associative, so aggregation order never shows in the result.
    pub fn absorb(&mut self, other: &SeriesRegistry) {
        for (metric, peers) in &other.series {
            for (peer, points) in peers {
                for (at, value) in points {
                    self.record(metric, *peer, *at, *value);
                }
            }
        }
    }

    /// True when no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Total number of (metric, peer, boundary) points.
    pub fn points(&self) -> usize {
        self.series.values().flat_map(|peers| peers.values()).map(|pts| pts.len()).sum()
    }

    /// The flattened wire form, in (metric, peer, boundary) order.
    pub fn to_points(&self) -> Vec<SeriesPoint> {
        let mut out = Vec::with_capacity(self.points());
        for (metric, peers) in &self.series {
            for (peer, points) in peers {
                for (at, value) in points {
                    out.push(SeriesPoint { metric: metric.clone(), peer: *peer, at: *at, value: *value });
                }
            }
        }
        out
    }

    /// Stable JSON rendering: one [`SeriesPoint`] per line, in
    /// (metric, peer, boundary) order — byte-identical for equal
    /// registries, diff-friendly across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        for p in self.to_points() {
            p.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a registry back from [`Self::to_json`] output (blank
    /// lines ignored; points are re-absorbed, so duplicates sum).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut reg = Self::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let p: SeriesPoint = serde_json::from_str(line).map_err(|e| format!("series line {}: {e}", lineno + 1))?;
            reg.record(&p.metric, p.peer, p.at, p.value);
        }
        Ok(reg)
    }

    /// One summary line per metric: peers, points, and the peak value
    /// with the (peer, boundary) where it was observed.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<24} {:>6} {:>7}  peak", "series", "peers", "points");
        for (metric, peers) in &self.series {
            let points: usize = peers.values().map(|p| p.len()).sum();
            let mut peak = (0u64, 0u32, 0u64); // (value, peer, at)
            for (peer, pts) in peers {
                for (at, value) in pts {
                    if *value > peak.0 {
                        peak = (*value, *peer, *at);
                    }
                }
            }
            let _ = writeln!(
                out,
                "{:<24} {:>6} {:>7}  {} (AP{} @ t={})",
                metric,
                peers.len(),
                points,
                peak.0,
                peak.1,
                peak.2
            );
        }
        if self.series.is_empty() {
            out.push_str("(no gauge samples recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> TraceJournal {
        let mut j = TraceJournal::default();
        j.record(25, 0, 0, None, None, None, EventKind::Gauge { name: "outbox_depth".into(), value: 2 });
        j.record(25, 1, 0, None, None, None, EventKind::Gauge { name: "outbox_depth".into(), value: 0 });
        j.record(25, 0, 0, None, None, None, EventKind::Gauge { name: "wal_bytes".into(), value: 512 });
        j.record(50, 0, 0, None, None, None, EventKind::Gauge { name: "outbox_depth".into(), value: 1 });
        j
    }

    #[test]
    fn journal_gauges_fold_into_per_peer_series() {
        let reg = SeriesRegistry::from_journal(&journal());
        assert_eq!(reg.points(), 4);
        assert_eq!(reg.series["outbox_depth"][&0][&25], 2);
        assert_eq!(reg.series["outbox_depth"][&0][&50], 1);
        assert_eq!(reg.series["outbox_depth"][&1][&25], 0);
        assert_eq!(reg.series["wal_bytes"][&0][&25], 512);
    }

    #[test]
    fn absorb_is_a_pointwise_sum_and_commutes() {
        let mut a = SeriesRegistry::default();
        a.record("outbox_depth", 0, 25, 2);
        a.record("dedup_seen", 1, 25, 4);
        let mut b = SeriesRegistry::default();
        b.record("outbox_depth", 0, 25, 3);
        b.record("outbox_depth", 0, 50, 1);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, ba, "absorb commutes");
        assert_eq!(ab.series["outbox_depth"][&0][&25], 5, "shared points sum");
        assert_eq!(ab.series["outbox_depth"][&0][&50], 1);
        assert_eq!(ab.series["dedup_seen"][&1][&25], 4);
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let reg = SeriesRegistry::from_journal(&journal());
        let text = reg.to_json();
        assert_eq!(text, reg.to_json(), "rendering is stable");
        let back = SeriesRegistry::from_json(&text).unwrap();
        assert_eq!(back, reg);
        assert!(SeriesRegistry::from_json("not json").is_err());
    }

    #[test]
    fn summary_names_the_peak_point() {
        let reg = SeriesRegistry::from_journal(&journal());
        let text = reg.render_summary();
        assert!(text.contains("outbox_depth"), "{text}");
        assert!(text.contains("2 (AP0 @ t=25)"), "{text}");
        assert_eq!(
            SeriesRegistry::default().render_summary(),
            format!("{:<24} {:>6} {:>7}  peak\n(no gauge samples recorded)\n", "series", "peers", "points")
        );
    }
}
