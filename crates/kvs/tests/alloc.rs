//! The open-loop KVS run allocates per run, not per op: ten times the
//! operations cost fewer than 1 % of the extra operations in extra heap
//! allocations. The engine's epochs, the server's outcome logs and the
//! client's per-queue matching all reuse their buffers once grown. Its
//! heap is sized by the ops in flight, not the ops issued: ten times the
//! operations at the same rate raise the peak of live heap bytes by at
//! most 16 KiB.
//!
//! The test binary's global allocator delegates to `System` and counts
//! calls and live bytes per thread, so tests running on other threads do
//! not disturb a count.

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
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

// `try_with`: the allocator may run while the thread is torn down.
fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn grow(bytes: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with its arguments
// unchanged. The counters are const-initialised thread-local `Cell`s
// without destructors, so touching them neither allocates nor re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grow(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restarts the peak at this thread's live bytes, which it returns.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
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

/// What one open-loop run of `ops` operations cost the heap (the
/// machine, store, pool and port are built before counting starts).
struct HeapUse {
    /// Allocation calls.
    allocations: u64,
    /// Peak live bytes above those live when the run started.
    peak_bytes: isize,
}

fn run_heap_use(ops: usize) -> HeapUse {
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
    let live = reset_peak();
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
    let heap = HeapUse {
        allocations: allocations() - before,
        peak_bytes: PEAK.with(Cell::get) - live,
    };
    assert_eq!(rep.completed, ops as u64, "every op completes");
    heap
}

#[test]
fn open_loop_allocations_do_not_grow_with_the_op_count() {
    let small = run_heap_use(2_000).allocations;
    let large = run_heap_use(20_000).allocations;
    let extra = large.saturating_sub(small);
    assert!(
        extra < 180,
        "18,000 more ops made {extra} more allocations ({small} → {large})"
    );
}

/// The client keeps state for the ops in flight only: at a fixed rate
/// their number does not grow with the run, so neither does the heap.
#[test]
fn open_loop_peak_heap_does_not_grow_with_the_op_count() {
    let small = run_heap_use(2_000).peak_bytes;
    let large = run_heap_use(20_000).peak_bytes;
    assert!(
        large - small <= 16 << 10,
        "18,000 more ops raised the peak live heap by {} bytes ({small} → {large})",
        large - small
    );
}
