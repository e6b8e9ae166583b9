//! Allocations-per-operation budgets for warm hot paths.
//!
//! Built only with `--features count-alloc`, which swaps in the counting
//! global allocator. The budgets below are *exact thread-local counts* for
//! the client's own thread — virtual time is deterministic and the server
//! threads' allocations don't land on our counter — so any new allocation
//! on a warm path fails the test rather than silently creeping in.
//!
//! Measured before the allocation-lean hot paths with this same harness:
//! warm stat was 2 allocations/op and warm open 3; both are now 1. The
//! savings come from `ClientLib::call`'s reusable reply channel (each
//! blocking call used to build a fresh one: an `Arc` for the shared queue
//! state plus a `VecDeque` buffer on first push) and the pre-sized
//! component vector.
#![cfg(feature = "count-alloc")]

use fsapi::{Mode, OpenFlags, ProcFs};
use hare_bench::alloc_count::{self, CountingAlloc};
use hare_core::{HareConfig, HareInstance};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Warms `f` up, then returns the exact allocations per call over `iters`
/// calls on this thread (asserting the count is stable, i.e. divisible).
fn allocs_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..32 {
        f();
    }
    let before = alloc_count::thread_allocs();
    for _ in 0..iters {
        f();
    }
    (alloc_count::thread_allocs() - before) as f64 / iters as f64
}

#[test]
fn warm_stat_and_open_allocation_budgets() {
    let inst = HareInstance::start(HareConfig::timeshare(4));
    let c = inst.new_client(0).unwrap();
    let fd = c
        .open("/f", OpenFlags::CREAT | OpenFlags::WRONLY, Mode::default())
        .unwrap();
    c.close(fd).unwrap();

    let warm_stat = allocs_per_op(256, || {
        c.stat("/f").unwrap();
    });
    let warm_open = allocs_per_op(256, || {
        let fd = c.open("/f", OpenFlags::RDONLY, Mode::default()).unwrap();
        c.close(fd).unwrap();
    });
    println!("warm stat: {warm_stat} allocs/op, warm open: {warm_open} allocs/op");

    // Budgets are the measured post-PR 8 counts. They are ceilings, not
    // targets: beating them is fine, exceeding them means a warm path
    // grew a per-op allocation and the gate should catch it.
    assert!(
        warm_stat <= 1.0,
        "warm stat allocates {warm_stat}/op (budget 1)"
    );
    assert!(
        warm_open <= 1.0,
        "warm open allocates {warm_open}/op (budget 1)"
    );

    drop(c);
    inst.shutdown();
}
