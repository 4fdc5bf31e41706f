//! The open-loop KVS run allocates per run, not per op: ten times the
//! operations cost fewer than 1 % of the extra operations in extra heap
//! allocations. The engine's epochs, the server's outcome logs and the
//! client's per-queue matching all reuse their buffers once grown.
//!
//! The test binary's global allocator delegates to `System` and counts
//! calls per thread, so tests running on other threads do not disturb a
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use engine::Execution;
use kvs::store::{KvStore, Placement};
use kvs::{run_openloop_streaming, CompletionSink, OpenLoopConfig};
use llc_sim::machine::{Machine, MachineConfig};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::OpenLoopGen;

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

const CORES: usize = 4;
const KEYS: usize = 4096;
/// 16 Mops/s over four cores: well under the knee, so no op retries.
const RATE: f64 = 16e6;

/// A sink that keeps nothing, so only the run itself allocates.
struct Discard;

impl CompletionSink for Discard {
    fn record(&mut self, _queue: usize, _completion_ns: f64, _latency_ns: f64) {}
}

/// Allocations made by one open-loop run of `ops` operations (the
/// machine, store, pool and port are built before counting starts).
fn run_allocations(ops: usize) -> u64 {
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20));
    let region = m.mem_mut().alloc(8 << 20, 1 << 20).unwrap();
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let store = KvStore::build(&mut m, &mut alloc, KEYS, Placement::Normal).unwrap();
    // Serial: the count is per thread, and pool threads would escape it.
    let cfg = OpenLoopConfig::new(ops, 7)
        .with_cores(CORES)
        .with_execution(Execution::Serial);
    let mut pool = MbufPool::create(&mut m, (8 * CORES * cfg.queue_depth) as u32, 128, 2048)
        .expect("pool sized to the rings");
    let mut port = Port::new(0, Steering::Rss(Rss::new(CORES)), cfg.queue_depth);
    let mut policy = FixedHeadroom(128);
    let mut arrivals = OpenLoopGen::poisson(RATE, 11);
    let before = allocations();
    let rep = run_openloop_streaming(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut arrivals,
        &cfg,
        &mut Discard,
    );
    let made = allocations() - before;
    assert_eq!(rep.completed, ops as u64, "every op completes");
    made
}

#[test]
fn open_loop_allocations_do_not_grow_with_the_op_count() {
    let small = run_allocations(2_000);
    let large = run_allocations(20_000);
    let extra = large.saturating_sub(small);
    assert!(
        extra < 180,
        "18,000 more ops made {extra} more allocations ({small} → {large})"
    );
}
