//! The deterministic time-series plane: fixed-window integer gauge
//! series recovered from a journal's sample column
//! ([`TraceJournal::samples`]).
//!
//! The simulator samples every live actor's gauges at fixed sim-time
//! window boundaries (`SimConfig::sample_interval`), writing one
//! [`EventKind::Gauge`] sample per (peer, metric, boundary) into the
//! journal beside its protocol events. This module folds those samples
//! into a [`SeriesRegistry`]: `metric → peer → boundary → value`,
//! all `BTreeMap`s, so iteration (and every rendering) is byte-stable.
//! The sample columns of many runs fold into one registry with
//! [`SeriesRegistry::absorb_samples`] — a pointwise sum, which is
//! commutative and associative, so a parallel sweep merged in canonical
//! case order produces the same registry as a serial one regardless of
//! worker interleaving.

use axml_trace::{EventKind, TraceEvent, TraceJournal};
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

    /// Builds a registry from a journal's samples.
    pub fn from_journal(journal: &TraceJournal) -> Self {
        let mut reg = Self::default();
        reg.absorb_samples(journal.samples());
        reg
    }

    /// Adds every [`EventKind::Gauge`] reading of `samples` (a journal's
    /// sample column) to its point; anything else is skipped. A pointwise
    /// sum: the order columns are folded in never shows in the result.
    pub fn absorb_samples(&mut self, samples: &[TraceEvent]) {
        for e in samples {
            if let EventKind::Gauge { name, value } = &e.kind {
                self.record(name, e.peer, e.at, *value);
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
        j.sample(25, 0, 0, "outbox_depth", 2);
        j.sample(25, 1, 0, "outbox_depth", 0);
        j.sample(25, 0, 0, "wal_bytes", 512);
        j.record(30, 0, 0, None, None, None, EventKind::Crash);
        j.sample(50, 0, 0, "outbox_depth", 1);
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
        let mut a = TraceJournal::default();
        a.sample(25, 0, 0, "outbox_depth", 2);
        a.sample(25, 1, 0, "dedup_seen", 4);
        let mut b = TraceJournal::default();
        b.sample(25, 0, 0, "outbox_depth", 3);
        b.sample(50, 0, 0, "outbox_depth", 1);
        let mut ab = SeriesRegistry::from_journal(&a);
        ab.absorb_samples(b.samples());
        let mut ba = SeriesRegistry::from_journal(&b);
        ba.absorb_samples(a.samples());
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
