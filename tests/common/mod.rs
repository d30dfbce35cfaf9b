//! A counting `GlobalAlloc` for the allocation-budget tests, which
//! include this file as a module — that keeps the only `unsafe` in the
//! repository outside every `#![forbid(unsafe_code)]` crate.
//!
//! The count is per thread: the harness runs each test on a thread of its
//! own and everything measured here is single-threaded, so a test reads
//! exactly the allocations it made itself, whatever runs beside it.

pub mod big_doc;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and is valid for the whole life of the thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn grow(bytes: usize, by: i64) {
    LIVE_BYTES.with(|n| n.set(n.get() + by * bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a bump of
// thread-local counters that neither allocate nor touch the block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size(), 1);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(layout.size(), -1);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size(), 1);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        grow(new_size, 1);
        grow(layout.size(), -1);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes the calling thread has allocated and not freed so far, less
/// those it freed of other threads' blocks.
#[allow(dead_code)] // `chaos_alloc_budget` counts allocations only
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}
