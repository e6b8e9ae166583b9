//! A counting global allocator for pinning allocations per operation.
//!
//! The big-machine hot paths stripped per-op allocations off warm
//! stat/open: the client's reusable reply channel for blocking calls
//! (each [`hare_core::rpc::send`] of a serial call clones one long-lived
//! sender instead of building a channel) and the pre-sized component
//! vector. This module makes those
//! wins testable: a thin wrapper over the system allocator that bumps a
//! thread-local counter on every `alloc`/`realloc`, so a test can measure
//! exactly how many allocations *its own thread* performs per operation —
//! server threads allocate concurrently and must not pollute the count.
//!
//! The wrapper is only installed by test binaries built with the
//! `count-alloc` feature (see `tests/alloc_counts.rs`); it is never active
//! in benchmarks, where the per-allocation bump would tax cycle numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialized so reading it never allocates (a lazily
    // initialized TLS slot could recurse into the allocator).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Number of `alloc`/`realloc` calls made by the current thread since it
/// started. Take a delta around the operation under test.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// System-allocator wrapper that counts per-thread allocation calls.
/// Install with `#[global_allocator]` in a `count-alloc` test binary.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
