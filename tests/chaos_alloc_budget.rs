//! Heap allocations per chaos case, as a deterministic test.
//!
//! One case seed of every scenario × profile cell through
//! `axml_chaos::run_case` — the path the sweeps' shrinker and the
//! benchmark's `fault-matrix` take — and through
//! `axml_chaos::run_with_plane_traced`, the path every sweep cell, the
//! corpus replay and the benchmark's `traced-matrix` take. A case is seeded and single-threaded,
//! so its allocation count is a pure function of the code.
//!
//! `run_case`: 2,294 per case at the commit before a case stopped
//! serialising its documents three times, deep-copying the fabric tables
//! into every peer and filling its counter registry one key at a time;
//! 1,267 after it; 1,224 with logged subtrees shared, the fabric tables
//! handed to each peer's constructor and no scan of a directory whose
//! parents were missing; 1,149 with a service's results captured into one
//! table and document nodes that own no strings; 1,152 with an idle-link
//! keep-alive — other cases, since faults are drawn per message and fewer
//! are sent, and two more counter keys per peer in the snapshot; 1,175
//! with acknowledgements carried — other cases again, two more counter
//! keys per peer and each peer's table of acks owed; 1,172 with a
//! `Commit` naming the peers it told; 1,181 with decisions pulled (one
//! more counter key per peer and `chaos.false_suspicions`); 938 once a
//! case kept its counters typed — no registry of some 190 `String` keys,
//! no copied fault trace, one scenario builder; 917 once a case's WAL
//! segments lived in memory (no scratch directory path, no file handle or
//! buffered writer per peer, no directory listing on recovery); 906 once
//! gauge samples stayed out of the observers; 860 once a case kept no
//! flight ring of its own (a violation's dump is cut from a traced
//! journal); 835 once a journal entry is held once (no second copy in a
//! peer's default sink); 834 once the cells were built before the count
//! started (the scenario name each `CaseConfig` allocates is no longer
//! counted); 835 once a restarted peer presumes abort through the abort
//! every peer runs.
//!
//! Traced: 1,668 per case with the journal rendered to JSON lines, its
//! causal tree and the counter registry rendered to text for every case;
//! 1,174 with the journal kept as events, the counters typed and a gauge
//! point that names a metric already seen allocating nothing; 1,152 with
//! WAL segments in memory; 1,065 once gauge samples stayed out of the
//! observers and sat in a journal column of their own (no flight-ring
//! copy of a sample, no per-case series registry, one reading buffer per
//! simulator instead of one per window); 1,008 once a case kept no flight
//! ring and conformance kept no per-peer context queues (both cut from
//! the journal when there is something to report); 982 once a journal
//! entry is held once; 981 with the cells built before the count; 982
//! once a restarted peer's presumed abort is traced like any abort; 879
//! once a case built no phase profile nobody printed and no longer
//! replayed its journal through a second copy of the rules the online
//! monitor had already run.
//!
//! Those are release counts; a debug build's assertions add about 12 per
//! case. Each budget leaves 25 allocations of room above the release
//! count for a standard library that sizes a map node or grows a `String`
//! differently, not for one of those coming back.
//!
//! `common/mod.rs` holds the counting `GlobalAlloc`.

mod common;

use axml_chaos::{builder_for, plane_for, run_case, run_with_plane_traced, CaseConfig, CaseResult, Profile, SCENARIOS};
use common::allocations;

/// Allocations one `run_case` may make, averaged over the 25 cells.
const PER_CASE_BUDGET: u64 = 859;

/// Allocations one traced case may make, averaged over the 25 cells.
const PER_TRACED_CASE_BUDGET: u64 = 904;

/// Runs the 25 cells at case seed 0 through `run`; returns the
/// allocations they made. The cells are built before the count starts.
fn allocations_over_the_cells(run: fn(&CaseConfig) -> CaseResult) -> u64 {
    let cases: Vec<CaseConfig> = SCENARIOS
        .iter()
        .flat_map(|scenario| Profile::all().iter().map(move |&profile| CaseConfig::new(scenario, profile, 0)))
        .collect();
    let before = allocations();
    for case in &cases {
        let result = run(case);
        assert!(result.verdict.ok, "{}: {}", case.label(), result.verdict.reason);
    }
    allocations() - before
}

/// The per-case count of `run`, checked for repeatability and against
/// `budget`; printed as `alloc-count TAG N` (the 25-cell total).
fn within_budget(tag: &str, run: fn(&CaseConfig) -> CaseResult, budget: u64) {
    allocations_over_the_cells(run); // warm-up: the intern table
    let first = allocations_over_the_cells(run);
    let second = allocations_over_the_cells(run);
    println!("alloc-count {tag} {first}");
    let per_case = first / 25;
    assert!(per_case <= budget, "{tag}: {per_case} allocations per case, budget {budget}");
    assert_eq!(first, second, "{tag}: a case's allocations depend on the cases run before it");
}

#[test]
fn a_chaos_case_stays_within_its_allocation_budget() {
    within_budget("run_case", run_case, PER_CASE_BUDGET);
}

#[test]
fn a_traced_chaos_case_stays_within_its_allocation_budget() {
    within_budget(
        "traced",
        |case| {
            let plane = plane_for(case.profile, case.seed, &builder_for(&case.scenario).expect("known").peers());
            run_with_plane_traced(case, plane).0
        },
        PER_TRACED_CASE_BUDGET,
    );
}
