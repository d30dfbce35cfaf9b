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
//! This is its own test crate so the counting `GlobalAlloc` stays outside
//! every `#![forbid(unsafe_code)]` crate (the only other `unsafe` in the
//! repository is the profiler, `examples/hot_path_profile.rs`).

use axml::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations per committed transaction the commit path may perform
/// (817 at the parent of the commit that introduced this test).
const PER_TXN_BUDGET: u64 = 420;
/// Ticks between submissions (`benchmark/src/inputs.rs`).
const SUBMIT_EVERY: u64 = 400;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter bump that neither allocates nor touches the block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs steps `steps` of the stream and returns the allocations they made.
fn allocations_over(s: &mut Scenario, steps: std::ops::Range<u64>) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for k in steps {
        if k > 0 {
            s.sim.schedule_timer(k * SUBMIT_EVERY, s.origin, 0);
        }
        s.sim.run_until((k + 1) * SUBMIT_EVERY - 1);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
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
