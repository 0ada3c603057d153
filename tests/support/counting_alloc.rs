//! A counting global allocator, shared by the allocation-budget tests.
//!
//! A test binary takes it in with
//! `#[path = "<relative path to this file>"] mod counting_alloc;`, which
//! makes it the binary's global allocator, and reads what its own thread
//! did with the heap: allocations, reallocations, deallocations and live
//! bytes. The code measured runs on the test's own thread, so nothing
//! another thread of the binary allocates or frees reaches the counts, and
//! the tests of one binary may run in parallel.
//!
//! Lives outside the crates' sources because every library crate forbids
//! the `unsafe` a `GlobalAlloc` impl requires.

#![allow(
    dead_code,
    reason = "each test binary reads only the counts it budgets"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What this thread has done with the heap so far.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Counts {
    pub(crate) allocs: u64,
    pub(crate) reallocs: u64,
    pub(crate) deallocs: u64,
    /// Bytes allocated and not yet freed.
    pub(crate) live: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, reallocs: 0, deallocs: 0, live: 0 })
    };
}

/// This thread's counts.
pub(crate) fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Allocations and reallocations this thread has made: what an
/// allocation budget counts.
pub(crate) fn allocations() -> u64 {
    let c = counts();
    c.allocs + c.reallocs
}

/// Bytes this thread has allocated and not yet freed.
pub(crate) fn live_bytes() -> i64 {
    counts().live
}

/// Applies `f` to this thread's counts.
fn count(f: impl FnOnce(&mut Counts)) {
    COUNTS.with(|counts| {
        let mut c = counts.get();
        f(&mut c);
        counts.set(c);
    });
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Counting;

// SAFETY: delegates every operation verbatim to `System`; the counts are a
// `const`-initialised thread-local `Cell` without a destructor, so
// touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|c| {
            c.allocs += 1;
            c.live += layout.size() as i64;
        });
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|c| {
            c.deallocs += 1;
            c.live -= layout.size() as i64;
        });
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|c| {
            c.reallocs += 1;
            c.live += new_size as i64 - layout.size() as i64;
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
