//! Heap allocations per chaos case, as a deterministic test.
//!
//! One case seed of every scenario × profile cell through
//! `axml_chaos::run_case` — the path the sweeps, the shrinker, the corpus
//! replay and the benchmark's `fault-matrix` all take. A case is seeded
//! and single-threaded, so its allocation count is a pure function of the
//! code: 2,294 per case at the commit before a case stopped serialising
//! its documents three times, deep-copying the fabric tables into every
//! peer and filling its counter registry one key at a time; 1,267 after
//! it; 1,224 with logged subtrees shared, the fabric tables handed to each
//! peer's constructor and no scan of a directory whose parents were
//! missing; 1,149 with a service's results captured into one table and
//! document nodes that own no strings; 1,152 with an idle-link keep-alive
//! — other cases, since faults are drawn per message and fewer are sent,
//! and two more counter keys per peer in the snapshot; 1,175 with
//! acknowledgements carried — other cases again, two more counter keys per
//! peer and each peer's table of acks owed, which leaves 25 below the
//! budget. The budget leaves room for a standard library that sizes a map
//! node or grows a `String` differently, not for one of those coming back.
//!
//! `common/mod.rs` holds the counting `GlobalAlloc`.

mod common;

use axml_chaos::{run_case, CaseConfig, Profile, SCENARIOS};
use common::allocations;

/// Allocations one case may make, averaged over the 25 cells.
const PER_CASE_BUDGET: u64 = 1_200;

/// Runs the 25 cells at case seed 0; returns the allocations they made.
fn allocations_over_the_cells() -> u64 {
    let before = allocations();
    for scenario in SCENARIOS {
        for &profile in Profile::all() {
            let result = run_case(&CaseConfig::new(scenario, profile, 0));
            assert!(result.verdict.ok, "{scenario}/{}: {}", profile.name(), result.verdict.reason);
        }
    }
    allocations() - before
}

#[test]
fn a_chaos_case_stays_within_its_allocation_budget() {
    allocations_over_the_cells(); // warm-up: the intern table
    let first = allocations_over_the_cells();
    let second = allocations_over_the_cells();
    let per_case = first / 25;
    assert!(per_case <= PER_CASE_BUDGET, "{per_case} allocations per case, budget {PER_CASE_BUDGET}");
    assert_eq!(first, second, "a case's allocations depend on the cases run before it");
}
