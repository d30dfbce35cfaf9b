//! The metric catalogue: names, units and bounds are normative — later
//! changes are measured with exactly these.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One end-to-end metric as `compare` judges it between two result sets
/// of the same seed.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the first set's median by which the second may be worse.
    pub bound: f64,
    /// A difference below this is never a regression, whatever its share.
    pub abs_floor: f64,
    /// Tick and count metrics: seeded, so two sets must agree bit for bit.
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str, higher: bool, bound: f64, abs_floor: f64) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound, abs_floor, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: false, bound: 0.0, abs_floor: 0.0, exact: true }
}

/// The nine end-to-end metrics. A workload reports the ones defined on
/// it (no aborts, no abort drain).
pub const END_TO_END: [EndToEnd; 9] = [
    wall("setup_s", "s", false, 0.10, 0.2),
    wall("txn_per_s", "1/s", true, 0.08, 0.0),
    exact("commit_ticks_p50", "ticks"),
    exact("commit_ticks_p99", "ticks"),
    exact("abort_drain_ticks_p50", "ticks"),
    exact("abort_drain_ticks_p99", "ticks"),
    exact("msgs_per_txn", "count"),
    exact("failed_share", "ratio"),
    wall("peak_rss_mb", "MB", false, 0.10, 4.0),
];

/// The end-to-end metrics `BENCHMARK.json` lists. Its driver compares
/// runs of *different* seeds and wants every listed metric on every
/// workload, never zero, and steady across seeds within a relative
/// bound. `failed_share` (zero on the streams) travels as the result
/// line's `failed`/`attempted`; the tail and abort-drain ticks (no
/// samples on some workloads) are listed under [`PER_LAYER`];
/// `peak_rss_mb` is 5–11 MB on the matrices, where one large case moves
/// it by 30 % from seed to seed — only `compare`'s "or 4 MB" can bound it.
pub const DRIVER_END_TO_END: [&str; 4] = ["setup_s", "txn_per_s", "commit_ticks_p50", "msgs_per_txn"];

/// Per-layer metrics as `(name, unit, better)`, in `BENCHMARK.json`
/// order. A traced run prints every one; a metric the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 71] = [
    ("commit_ticks_p99", "ticks", "lower"),
    ("abort_drain_ticks_p50", "ticks", "lower"),
    ("abort_drain_ticks_p99", "ticks", "lower"),
    ("xml.parse_ns_per_node", "ns", "lower"),
    ("xml.serialize_ns_per_node", "ns", "lower"),
    ("xml.fragment_copy_ns_per_node", "ns", "lower"),
    ("xml.intern_misses_per_pass", "count", "lower"),
    ("query.select_us", "us", "lower"),
    ("query.update_us", "us", "lower"),
    ("doc.materialize_us", "us", "lower"),
    ("doc.calls_materialized_per_txn", "count", "lower"),
    ("core.run_us_per_txn", "us", "lower"),
    ("core.handler_us_per_txn", "us", "lower"),
    ("core.msgs.invoke_per_txn", "count", "lower"),
    ("core.msgs.ack_per_txn", "count", "lower"),
    ("core.msgs.keepalive_per_txn", "count", "lower"),
    ("core.msgs.chain_per_txn", "count", "lower"),
    ("core.msgs.abort_per_txn", "count", "lower"),
    ("core.retransmits_per_txn", "count", "lower"),
    ("core.dup_suppressed_per_txn", "count", "lower"),
    ("core.useful_delivery_ratio", "ratio", "higher"),
    ("core.comp_nodes_per_abort", "count", "lower"),
    ("core.compensation_derive_us", "us", "lower"),
    ("core.journal_entries_per_txn", "count", "lower"),
    ("core.journal_replay_us_per_entry", "us", "lower"),
    ("core.contexts_retained_per_txn", "count", "lower"),
    ("core.dedup_seen_peak", "count", "lower"),
    ("core.build_us_per_case", "us", "lower"),
    ("core.wide15_us_per_msg", "us", "lower"),
    ("core.wide63_us_per_msg", "us", "lower"),
    ("p2p.events_per_txn", "count", "lower"),
    ("p2p.heap_pushes_per_txn", "count", "lower"),
    ("p2p.queue_ns_per_event", "ns", "lower"),
    ("p2p.injected_faults_per_case", "count", "lower"),
    ("store.append_us_per_entry", "us", "lower"),
    ("store.bytes_per_txn", "bytes", "lower"),
    ("store.write_amp", "ratio", "lower"),
    ("store.recover_us_per_entry", "us", "lower"),
    ("store.disk_case_us", "us", "lower"),
    ("store.mem_case_us", "us", "lower"),
    ("store.append_faults_per_case", "count", "lower"),
    ("store.torn_tails_per_case", "count", "lower"),
    ("trace.events_per_txn", "count", "lower"),
    ("trace.journal_bytes_per_txn", "bytes", "lower"),
    ("trace.serialize_us_per_event", "us", "lower"),
    ("trace.render_tree_us_per_event", "us", "lower"),
    ("trace.snapshot_us_per_case", "us", "lower"),
    ("trace.journal_overhead_ratio", "ratio", "lower"),
    ("obs.flight_overhead_ratio", "ratio", "lower"),
    ("obs.monitor_overhead_ratio", "ratio", "lower"),
    ("obs.monitor_us_per_event", "us", "lower"),
    ("obs.derive_us_per_event", "us", "lower"),
    ("obs.series_us_per_event", "us", "lower"),
    ("obs.profile_us_per_event", "us", "lower"),
    ("obs.compensation_lag_ticks_mean", "ticks", "lower"),
    ("obs.detect_latency_ticks_mean", "ticks", "lower"),
    ("obs.retransmits_per_delivery_mean", "count", "lower"),
    ("spec.conform_us_per_event", "us", "lower"),
    ("spec.check_states_per_s", "1/s", "higher"),
    ("chaos.oracle_us_per_case", "us", "lower"),
    ("chaos.digest_us_per_case", "us", "lower"),
    ("chaos.harness_overhead_ratio", "ratio", "lower"),
    ("chaos.par_speedup", "ratio", "higher"),
    ("workload.gen_doc_us_per_node", "us", "lower"),
    ("bench.txn_wall_us_p50", "us", "lower"),
    ("bench.txn_wall_us_p99", "us", "lower"),
    ("bench.pass_rate_iqr_pct", "%", "lower"),
    ("bench.span_overhead_pct", "%", "lower"),
    ("bench.recompose_residual_pct", "%", "lower"),
    ("bench.sim_run_share_pct", "%", "lower"),
    ("bench.post_run_share_pct", "%", "lower"),
];

/// One reported value. `q1`/`q3`/`n` describe the samples behind a
/// median (`n` = 1 and `q1` = `q3` = `value` for a single reading).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub q1: f64,
    pub q3: f64,
    pub n: u64,
}

/// Metrics by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// A single reading.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), Metric { value, unit: unit_of(name).to_string(), q1: value, q3: value, n: 1 });
    }

    /// The median of `samples`, with its quartiles and sample count.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        let (q1, value, q3) = crate::stats::quartiles(samples);
        self.0.insert(
            name.to_string(),
            Metric { value, unit: unit_of(name).to_string(), q1, q3, n: samples.len() as u64 },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// The catalogue unit of `name`. Panics on a name outside the catalogue:
/// a metric the harness prints must be one `BENCHMARK.json` can list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = DRIVER_END_TO_END.iter().copied().chain(PER_LAYER.iter().map(|m| m.0)).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once across BENCHMARK.json");
        for n in names {
            assert!(n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        for name in DRIVER_END_TO_END {
            assert!(END_TO_END.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the
    /// catalogue from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String, String)> {
            let entries = serde::value::field(root.as_map().expect("object"), key).as_seq().expect("array");
            entries
                .iter()
                .map(|e| {
                    let m = e.as_map().expect("metric object");
                    let s = |k: &str| serde::value::field(m, k).as_str().expect("string").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want_e2e: Vec<(String, String, String)> = DRIVER_END_TO_END
            .iter()
            .map(|name| {
                let m = END_TO_END.iter().find(|m| m.name == *name).expect("checked above");
                let better = if m.higher_is_better { "higher" } else { "lower" };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(list("end_to_end"), want_e2e);
        let want_layers: Vec<(String, String, String)> =
            PER_LAYER.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect();
        assert_eq!(list("per_layer"), want_layers);
        let workloads = serde::value::field(root.as_map().expect("object"), "workloads").as_seq().expect("array");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| serde::value::field(w.as_map().expect("object"), "name").as_str().expect("string"))
            .collect();
        let want: Vec<&str> = crate::inputs::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, want);
    }
}
