//! The multi-tenant run allocates per run, not per control period: the
//! control step the harness runs every 20 µs (window p99s, the CBo fill
//! window, the controller's decision) reuses its buffers once grown, so
//! ten times the packets add only the growth steps of the run's logs.
//!
//! The test binary's global allocator delegates to `System` and counts
//! calls per thread, so tests running on other threads do not disturb a
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use engine::Execution;
use tenancy::run::{run_tenancy, Regime, TenancyConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with its arguments
// unchanged. The counter is a const-initialised thread-local `Cell`
// without a destructor, so touching it neither allocates nor re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by one online-regime run of `packets` arrivals per
/// victim tenant: 2 Mpps per victim, so `packets / 40` control periods.
fn run_allocations(packets: usize) -> u64 {
    // Serial: the count is per thread, and pool threads would escape it.
    let cfg = TenancyConfig {
        execution: Execution::Serial,
        ..TenancyConfig::new(Regime::Online, packets)
    };
    let before = allocations();
    let rep = run_tenancy(&cfg);
    let made = allocations() - before;
    assert!(rep.moves + rep.ddio_shrinks > 0, "the controller acted");
    made
}

/// 75 control periods against 750, and the large run rides out ten
/// quiet/storm cycles, so the controller acts many times more. The
/// extra allocations are the doubling steps of the logs that grow with
/// the run (the controller's per-tenant p99 series and fill series, the
/// whole-run latency lists): 21 measured, bounded at 32. A control step
/// that allocated per period would add 675 or more; one that collected the
/// p99s, each window's sorted samples and the CBo readings into fresh
/// `Vec`s made 11,330.
#[test]
fn control_periods_allocate_nothing() {
    let small = run_allocations(3_000);
    let large = run_allocations(30_000);
    let extra = large.saturating_sub(small);
    assert!(
        extra <= 32,
        "675 more control periods made {extra} more allocations ({small} → {large})"
    );
}
