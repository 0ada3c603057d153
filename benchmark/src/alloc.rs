//! Counting global allocator for the `alloc.*` layer metrics.
//!
//! Every allocation goes straight to the system allocator; while the
//! counters are armed (traced runs only) the call count and requested
//! bytes are tallied first. Disarmed, the cost is one relaxed load per
//! allocation — the same on every commit, so untraced runs compare fairly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Relaxed throughout: the counters are statistics read by the one thread
// that also does the allocating; they publish no other data.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn tally(bytes: usize) {
    if ARMED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallying touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` counts as one call and its growth in bytes.
        tally(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Arms or disarms the counters.
pub fn arm(on: bool) {
    ARMED.store(on, Relaxed);
}

pub fn armed() -> bool {
    ARMED.load(Relaxed)
}

/// `(calls, bytes)` tallied so far while armed.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}
