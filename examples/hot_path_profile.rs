//! Allocation counts of the three hot-path workloads — the measurement
//! under every hot-path change.
//!
//! ```text
//! cargo run --release --example hot_path_profile
//! ```
//!
//! - **`commit-stream`-shaped**: 200 sequential query-flavor Fig. 1
//!   commits on one long-lived simulator (handlers + queue), after 100
//!   warm-up commits;
//! - **`big-doc`-shaped**: the same tree over 2,000-node documents,
//!   commit and abort alternating (scan, materialisation, fragment
//!   capture, compensation) — `tests/common/big_doc.rs` — 40 transactions
//!   after 20 warm-up ones;
//! - **`run_case`-shaped**: the chaos matrix's 25 cells at case seed 0
//!   through `axml_chaos::run_case` (recovery, WAL, oracle), after one
//!   warm-up pass over them.
//!
//! Each prints its exact total as `alloc-count TAG N`, then the count per
//! transaction or case. `tests/alloc_budget.rs` (`fig1`, `big-doc`) and
//! `tests/chaos_alloc_budget.rs` (`run_case`) print the same lines for the
//! same windows, and CI fails unless they agree. The counter is
//! `tests/common/mod.rs`'s per-thread `GlobalAlloc`, and everything here
//! runs on the main thread. For a CPU profile, run a sampling profiler
//! from outside the repository over this example or the benchmark.

#[path = "../tests/common/mod.rs"]
mod common;

use axml::prelude::*;
use common::{allocations, big_doc};

/// Ticks between submissions (`benchmark/src/inputs.rs`).
const SUBMIT_EVERY: u64 = 400;

/// A closed-loop stream: `warm_up` transactions of a fresh simulator run
/// before the returned closure does, and the closure runs the next `txns`.
fn stream(mut s: Scenario, run: fn(&mut Scenario, std::ops::Range<u64>), warm_up: u64, txns: u64) -> impl FnOnce() {
    run(&mut s, 0..warm_up);
    move || run(&mut s, warm_up..warm_up + txns)
}

fn commit_stream(s: &mut Scenario, steps: std::ops::Range<u64>) {
    for k in steps {
        if k > 0 {
            s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
        }
        s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
    }
}

/// Prints the allocations `work` makes, in all and per `per.0`.
fn count(name: &str, tag: &str, work: impl FnOnce(), per: (&str, u64)) {
    let before = allocations();
    work();
    let total = allocations() - before;
    println!("alloc-count {tag} {total}");
    println!("  {name}: {:.1} allocations per {}", total as f64 / per.1 as f64, per.0);
}

fn main() {
    let fig1 = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(0).build();
    count("commit-stream-shaped (Fig. 1 query commits)", "fig1", stream(fig1, commit_stream, 100, 200), ("txn", 200));

    let big = stream(big_doc::scenario(0), big_doc::run, 20, 40);
    count("big-doc-shaped (2,000-node documents, commit/abort)", "big-doc", big, ("txn", 40));

    let scenarios: Vec<String> = axml_chaos::SCENARIOS.iter().map(|s| s.to_string()).collect();
    let cases = axml_chaos::case_matrix(&scenarios, axml_chaos::Profile::all(), 0..1, true);
    let run_cases = || {
        for case in &cases {
            std::hint::black_box(axml_chaos::run_case(case));
        }
    };
    run_cases(); // warm-up: the intern table
    count("run_case-shaped (chaos matrix, 1 seed)", "run_case", run_cases, ("case", cases.len() as u64));
}
