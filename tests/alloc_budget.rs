//! Heap allocations per committed Fig. 1 transaction, as a deterministic
//! test.
//!
//! The run is the benchmark's `commit-stream` workload in miniature: 300
//! sequential query-flavor Fig. 1 commits submitted every 400 ticks to
//! one long-lived simulator, exactly as `benchmark/src/stream.rs` drives
//! it. The simulator is seeded and single-threaded, so the allocation
//! count is a pure function of the code: 817 per transaction at the
//! commit before the commit path stopped copying active-peer lists,
//! service definitions and queue entries, 391 after it. The budget sits
//! a little above that, so a standard library that sizes a `BTreeMap`
//! node or grows a `Vec` differently does not trip it; a copy that comes
//! back does.
//!
//! This is its own test crate because the counter is process-wide (see
//! `common/mod.rs`, which holds the counting `GlobalAlloc`).

mod common;

use axml::prelude::*;
use common::allocations;

/// Allocations per committed transaction the commit path may perform
/// (817 at the parent of the commit that introduced this test).
const PER_TXN_BUDGET: u64 = 420;
/// Ticks between submissions (`benchmark/src/inputs.rs`).
const SUBMIT_EVERY: u64 = 400;

/// Runs steps `steps` of the stream and returns the allocations they made.
fn allocations_over(s: &mut Scenario, steps: std::ops::Range<u64>) -> u64 {
    let before = allocations();
    for k in steps {
        if k > 0 {
            s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
        }
        s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
    }
    allocations() - before
}

// One test in this crate on purpose: the counter is process-wide, and a
// second test running on another thread would be counted too.
#[test]
fn a_committed_fig1_transaction_stays_within_its_allocation_budget() {
    let mut s = ScenarioBuilder::fig1().flavor(Flavor::Query).with_seed(0).build();
    allocations_over(&mut s, 0..100); // warm-up: intern table, queue and map capacity
    let second = allocations_over(&mut s, 100..200);
    let third = allocations_over(&mut s, 200..300);

    let outcomes = &s.sim.actor(s.origin).outcomes;
    assert_eq!(outcomes.len(), 300);
    assert!(outcomes.iter().all(|o| o.committed), "every step commits");

    let per_txn = (second + third) / 200;
    assert!(per_txn <= PER_TXN_BUDGET, "{per_txn} allocations per transaction, budget {PER_TXN_BUDGET}");
    let drift = second.abs_diff(third);
    assert!(
        drift * 100 <= second,
        "allocations grow with the transactions already run: {second} for steps 100..200, {third} for 200..300"
    );
}
