//! E6 — chaining under churn.
//!
//! Runs transactions over larger invocation trees while peers disconnect
//! according to seeded churn traces, with chaining on vs off, sweeping the
//! churn probability. Measured: completion rate, wasted/reused work, mean
//! detection latency, messages. Claim validated: chaining's benefit grows
//! with churn.

use axml_core::scenarios::{Flavor, ScenarioBuilder};
use axml_core::PeerConfig;

use axml_workload::{tree_edges, TreeShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// One measured configuration (aggregated over seeds).
#[derive(Debug, Clone)]
pub struct Row {
    /// Probability each non-origin peer disconnects mid-run.
    pub p_disconnect: f64,
    /// Chaining enabled?
    pub chaining: bool,
    /// Trials run.
    pub trials: usize,
    /// Fraction of transactions that committed.
    pub commit_rate: f64,
    /// Fraction that resolved (committed or aborted) by the deadline.
    pub resolve_rate: f64,
    /// Fraction of resolved runs that preserved all-or-nothing.
    pub atomic_rate: f64,
    /// Mean wasted work units per run.
    pub wasted: f64,
    /// Mean reused work units per run.
    pub reused: f64,
    /// Mean orphan stops per run.
    pub orphan_stops: f64,
    /// Mean messages per run.
    pub messages: f64,
}

fn one(seed: u64, p_disconnect: f64, chaining: bool) -> (bool, bool, bool, u64, u64, u64, u64) {
    let shape = TreeShape { depth: 3, fanout: 2 }; // 15 peers
    let edges = tree_edges(1, shape);
    let mut config = PeerConfig::default();
    config.chaining = chaining;
    // Pings are the slow fallback detector; the chaining paths (send
    // failures, redirects, notices) race ahead of them.
    config.ping_interval = 40;
    config.ping_timeout = 90;
    let mut builder = ScenarioBuilder::new(1, &edges).flavor(Flavor::Update).config(config);
    builder.seed = seed;
    builder.supers = vec![1];
    // Long-running services keep the tree busy through the churn window.
    for peer in std::iter::once(1u32).chain(edges.iter().map(|(_, c)| *c)) {
        builder.durations.insert(peer, 30);
    }
    // Every non-origin peer gets a replica candidate? Replicate a random
    // third of the peers so forward recovery has somewhere to go.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
    let peers: Vec<u32> = edges.iter().map(|(_, c)| *c).collect();
    for &p in &peers {
        if rng.gen_bool(0.34) {
            let (b, _r) = builder.with_replica(p);
            builder = b;
        }
    }
    // Churn: each non-origin peer may disconnect once, at a random time
    // inside the busy window.
    for &p in &peers {
        if rng.gen_bool(p_disconnect) {
            let at = rng.gen_range(10..120);
            builder = builder.disconnect(at, p);
        }
    }
    builder.deadline = 5_000;
    let mut s = builder.build();
    let report = s.run();
    let resolved = report.outcome.is_some();
    let committed = report.outcome.as_ref().map(|o| o.committed).unwrap_or(false);
    let wasted: u64 = report.stats.values().map(|s| s.work_wasted).sum();
    let reused: u64 = report.stats.values().map(|s| s.work_reused).sum();
    let orphan: u64 = report.stats.values().map(|s| s.orphan_stops).sum();
    (resolved, committed, report.atomic, wasted, reused, orphan, report.metrics.sent)
}

/// The churn probabilities E6 sweeps.
const CHURN: &[f64] = &[0.0, 0.1, 0.25, 0.5];

/// Runs the sweep.
pub fn run(trials: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in CHURN {
        for chaining in [true, false] {
            let mut resolved = 0usize;
            let mut committed = 0usize;
            let mut atomic = 0usize;
            let mut wasted = 0u64;
            let mut reused = 0u64;
            let mut orphan = 0u64;
            let mut messages = 0u64;
            for t in 0..trials {
                let seed = t as u64 * 6151 + (p * 1000.0) as u64;
                let (r, c, a, w, re, o, m) = one(seed, p, chaining);
                resolved += r as usize;
                committed += c as usize;
                atomic += (r && a) as usize;
                wasted += w;
                reused += re;
                orphan += o;
                messages += m;
            }
            let n = trials.max(1) as f64;
            rows.push(Row {
                p_disconnect: p,
                chaining,
                trials,
                commit_rate: committed as f64 / n,
                resolve_rate: resolved as f64 / n,
                atomic_rate: if resolved > 0 { atomic as f64 / resolved as f64 } else { 0.0 },
                wasted: wasted as f64 / n,
                reused: reused as f64 / n,
                orphan_stops: orphan as f64 / n,
                messages: messages as f64 / n,
            });
        }
    }
    rows
}

/// Formats the rows.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E6 — chaining under churn (15-peer tree, depth 3, fanout 2)",
        &["p-disc", "chaining", "trials", "commit", "resolve", "atomic", "wasted", "reused", "orphan-stops", "msgs"],
    );
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.p_disconnect),
            r.chaining.to_string(),
            r.trials.to_string(),
            format!("{:.2}", r.commit_rate),
            format!("{:.2}", r.resolve_rate),
            format!("{:.2}", r.atomic_rate),
            format!("{:.1}", r.wasted),
            format!("{:.1}", r.reused),
            format!("{:.1}", r.orphan_stops),
            format!("{:.0}", r.messages),
        ]);
    }
    t.with_note(
        "expected shape: at p=0 both modes commit everything; as churn rises, chaining \
         reuses/salvages work (reused, orphan-stops > 0) and sustains a higher commit rate; \
         the gap grows with churn",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_churn_always_commits() {
        let rows = run(4);
        for r in rows.iter().filter(|r| r.p_disconnect == 0.0) {
            assert_eq!(r.commit_rate, 1.0, "{r:?}");
            assert_eq!(r.atomic_rate, 1.0, "{r:?}");
        }
    }

    #[test]
    fn chaining_salvages_work_under_churn() {
        let rows = run(8);
        let get = |p: f64, chaining: bool| rows.iter().find(|r| r.p_disconnect == p && r.chaining == chaining).unwrap();
        let hi_on = get(0.5, true);
        let hi_off = get(0.5, false);
        assert!(
            hi_on.reused + hi_on.orphan_stops > hi_off.reused + hi_off.orphan_stops,
            "chaining salvages work: on={:?} off={:?}",
            (hi_on.reused, hi_on.orphan_stops),
            (hi_off.reused, hi_off.orphan_stops)
        );
        assert!(hi_on.commit_rate >= hi_off.commit_rate, "chaining never hurts the commit rate");
    }

    #[test]
    fn deterministic() {
        let a = run(3);
        let b = run(3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }
}
