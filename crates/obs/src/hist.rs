//! Deterministic sim-time histograms with fixed log-spaced buckets.
//!
//! Every histogram in the workspace shares one bucket layout (powers of
//! two up to 2²⁰, then +Inf), so merging two histograms is plain
//! counter addition and a percentile query is a pure function of the
//! counts — replaying the same seeded scenario yields byte-identical
//! percentile tables and Prometheus expositions.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of finite buckets (`le = 2^0 … 2^20`); the implicit +Inf
/// bucket is everything past [`bucket_bound`]`(FINITE_BUCKETS - 1)`.
pub const FINITE_BUCKETS: usize = 21;

/// Upper bound (inclusive) of finite bucket `i`: `2^i`.
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// Index of the bucket a value falls into (`FINITE_BUCKETS` = +Inf).
fn bucket_of(v: u64) -> usize {
    (0..FINITE_BUCKETS).find(|&i| v <= bucket_bound(i)).unwrap_or(FINITE_BUCKETS)
}

/// A log-bucketed histogram over `u64` sim-time samples.
///
/// Bucket boundaries are fixed for the whole workspace, so merges and
/// percentile queries are replay-stable: no floating point, no
/// data-dependent layout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    counts: Vec<u64>, // FINITE_BUCKETS + 1 entries once non-empty
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; FINITE_BUCKETS + 1];
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Absorbs another histogram (same fixed layout ⇒ plain addition).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank percentile (`p` in 0..=100), resolved to the upper
    /// bound of the bucket holding that rank, clamped to the observed
    /// max — integer-only, so replays agree to the byte. Returns 0 on an
    /// empty histogram. The edges are exact rather than bucket-resolved:
    /// p0 is the observed min and p100 the observed max (the old
    /// bucket-walk returned the first bucket's *bound* for p0, reporting
    /// a minimum that was never observed).
    pub fn percentile(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.min(100);
        if p == 0 {
            return self.min;
        }
        if p == 100 {
            return self.max;
        }
        // Nearest rank: ceil(p/100 × count), at least 1.
        let rank = ((p * self.count).div_ceil(100)).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = if i < FINITE_BUCKETS { bucket_bound(i) } else { u64::MAX };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Cumulative count of samples ≤ the bound of finite bucket `i`.
    ///
    /// One query is inherently O(i); rendering **all** buckets through
    /// this per-bucket API is how the old Prometheus path went quadratic
    /// in the bucket count. Full-table consumers should walk
    /// [`Self::cumulative_counts`] instead — one prefix-sum pass.
    pub fn cumulative(&self, i: usize) -> u64 {
        self.counts.iter().take(i + 1).sum()
    }

    /// Running cumulative counts over the finite buckets, in bucket
    /// order: item `i` equals [`Self::cumulative`]`(i)`. A single prefix
    /// sum, computed lazily — rendering every bucket of every metric is
    /// linear again. Yields `FINITE_BUCKETS` items even on an empty
    /// histogram (all zeros).
    pub fn cumulative_counts(&self) -> impl Iterator<Item = u64> + '_ {
        (0..FINITE_BUCKETS).scan(0u64, |cum, i| {
            *cum += self.counts.get(i).copied().unwrap_or(0);
            Some(*cum)
        })
    }

    /// The embeddable summary (p50/p90/p99 plus the moments).
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            p50: self.percentile(50),
            p90: self.percentile(90),
            p99: self.percentile(99),
        }
    }
}

/// A histogram's fixed-point summary. All fields are integers so
/// summaries stay `Eq`-comparable and byte-stable across replays.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (nearest-rank, bucket-resolved).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Renders `name → histogram` as a fixed-width percentile table
/// (p50/p90/p99/max per metric), deterministically ordered by name.
pub fn percentile_table(metrics: &BTreeMap<String, Histogram>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "metric", "count", "sum", "p50", "p90", "p99", "max"
    );
    for (name, h) in metrics {
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7}",
            name,
            h.count(),
            h.sum(),
            h.percentile(50),
            h.percentile(90),
            h.percentile(99),
            h.max().unwrap_or(0)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced() {
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(10), 1024);
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(1025), 11);
        assert_eq!(bucket_of(u64::MAX), FINITE_BUCKETS);
    }

    #[test]
    fn percentiles_are_bucket_bounds_clamped_to_max() {
        let mut h = Histogram::default();
        for v in [3, 5, 7, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 115);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(100));
        // Ranks: p50 → 2nd sample → bucket le=8 (5 falls in (4,8]).
        assert_eq!(h.percentile(50), 8);
        // p99 → 4th sample → bucket le=128, clamped to observed max 100.
        assert_eq!(h.percentile(99), 100);
        assert_eq!(h.percentile(0), 3, "p0 is the observed min, not a bucket bound");
        assert_eq!(h.percentile(100), 100, "p100 is the observed max");
        assert_eq!(Histogram::default().percentile(50), 0);
    }

    #[test]
    fn percentile_edges_are_exact_on_single_bucket_histograms() {
        // Regression: p0 used to return the first occupied bucket's
        // upper bound (8 here), a value never observed. When every
        // sample shares one bucket, the whole summary must still stay
        // inside the observed [min..max] envelope.
        let mut h = Histogram::default();
        for v in [5, 6, 7] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0), 5);
        assert_eq!(h.percentile(100), 7);
        let s = h.summary();
        assert_eq!((s.min, s.max), (5, 7));
        assert!(s.p50 >= s.min && s.p50 <= 8, "interior ranks stay bucket-resolved");
        // A single-sample histogram collapses every percentile to it.
        let mut one = Histogram::default();
        one.observe(9);
        for p in [0, 1, 50, 99, 100, 777] {
            assert_eq!(one.percentile(p), 9, "p{p}");
        }
    }

    #[test]
    fn merge_is_count_addition_and_extrema() {
        let mut a = Histogram::default();
        a.observe(2);
        a.observe(9);
        let mut b = Histogram::default();
        b.observe(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1011);
        assert_eq!(a.max(), Some(1000));
        assert_eq!(a.min(), Some(2));
        // Merging into empty copies; merging empty is a no-op.
        let mut c = Histogram::default();
        c.merge(&a);
        assert_eq!(c, a);
        c.merge(&Histogram::default());
        assert_eq!(c, a);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut h = Histogram::default();
        h.observe(17);
        h.observe(40);
        let s = h.summary();
        let text = serde_json::to_string(&s).unwrap();
        let back: HistogramSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.count, 2);
        assert_eq!(back.p50, 32, "rank 1 → sample 17 → bucket le=32, under the max of 40");
    }

    #[test]
    fn prefix_sums_match_per_bucket_cumulative() {
        // The single-pass prefix sum must pin the exact values the old
        // per-bucket re-summing produced, including the empty case and a
        // histogram with an +Inf-bucket sample (which cumulative counts
        // over finite buckets must exclude).
        let empty = Histogram::default();
        assert_eq!(empty.cumulative_counts().collect::<Vec<_>>(), vec![0; FINITE_BUCKETS]);
        let mut h = Histogram::default();
        for v in [1, 2, 2, 300, 5_000_000] {
            h.observe(v);
        }
        let sums: Vec<u64> = h.cumulative_counts().collect();
        assert_eq!(sums.len(), FINITE_BUCKETS);
        for (i, &cum) in sums.iter().enumerate() {
            assert_eq!(cum, h.cumulative(i), "bucket {i}");
        }
        assert_eq!(sums[0], 1, "le=1 holds the 1");
        assert_eq!(sums[1], 3, "le=2 adds both 2s");
        assert_eq!(sums[FINITE_BUCKETS - 1], 4, "the +Inf sample stays out of the finite buckets");
        assert_eq!(h.count(), 5);
        // And the percentile table built on the same counts is unchanged
        // by construction — pin one row's numbers.
        assert_eq!((h.percentile(50), h.percentile(90), h.percentile(99)), (2, 5_000_000, 5_000_000));
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut m = BTreeMap::new();
        let mut h = Histogram::default();
        h.observe(3);
        h.observe(300);
        m.insert("commit_latency".to_string(), h);
        let t1 = percentile_table(&m);
        let t2 = percentile_table(&m);
        assert_eq!(t1, t2);
        assert!(t1.contains("commit_latency"), "{t1}");
        let p = crate::exposition::render_prometheus(&m);
        assert!(p.contains("# TYPE axml_commit_latency histogram"), "{p}");
        assert!(p.contains("axml_commit_latency_bucket{le=\"+Inf\"} 2"), "{p}");
        assert!(p.contains("axml_commit_latency_sum 303"), "{p}");
        assert_eq!(p, crate::exposition::render_prometheus(&m));
    }
}
