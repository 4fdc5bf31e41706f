//! The engine's steady state allocates nothing: once its buffers have
//! grown, an offered frame in `Execution::Serial` costs no heap
//! allocation — no per-epoch partition lists, shards, RX views, task
//! tables or outcome lists, no per-hook clock snapshot, and no per-miss
//! prefetch candidate list.
//!
//! The test binary's global allocator delegates to `System` and counts
//! calls per thread, so tests running on other threads do not disturb a
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use engine::{
    AdmissionPolicy, Ctx, Engine, EngineConfig, Execution, Hw, QueueApp, Scheduler, Verdict,
    WorkerSpec,
};
use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::prefetch::PrefetchConfig;
use rte::fault::FaultPlan;
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port, RxCompletion, TxDesc};
use rte::steering::{Rss, Steering};
use trafficgen::FlowTuple;

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

const QUEUES: usize = 4;
const DEPTH: usize = 64;
const BURST: usize = 16;
const WARMUP: u32 = 2_000;
const MEASURED: u32 = 20_000;
const SPACING_NS: f64 = 150.0;

/// Echoes every frame after reading its first cache line, so every
/// frame walks the core's caches (and feeds the prefetcher).
struct ReadEcho;

impl QueueApp for ReadEcho {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        let mut line = [0u8; 64];
        ctx.m.read_bytes(ctx.core, comp.data_pa, &mut line);
        Verdict::Tx(TxDesc::echo(comp))
    }
}

/// Allocations made by the measured offers, and the run's epochs with
/// work.
fn steady_state_allocations(prefetch: PrefetchConfig) -> (u64, u64) {
    let cfg = MachineConfig::haswell_e5_2667_v3()
        .with_dram_capacity(64 << 20)
        .with_prefetch(prefetch);
    let mut m = Machine::new(cfg);
    let mut pool = MbufPool::create(&mut m, (4 * QUEUES * DEPTH) as u32, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(QUEUES)), DEPTH);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let mut eng = Engine::new(
        (0..QUEUES).map(|_| ReadEcho).collect(),
        EngineConfig {
            workers: WorkerSpec::run_to_completion(QUEUES),
            queue_depth: DEPTH,
            burst: BURST,
            faults: FaultPlan::none(),
            execution: Execution::Serial,
            admission: AdmissionPolicy::AcceptAll,
            scheduler: Scheduler::default(),
        },
        &mut hw,
    );
    // A no-op epoch hook: every dispatched epoch runs the coordinator's
    // hook path and its clock snapshot.
    eng.set_epoch_hook(Box::new(|_, _| 0));
    let flows: Vec<FlowTuple> = (0..64u32)
        .map(|i| FlowTuple::tcp(0x0a00_0000 + i, 1000 + i as u16, 0xc0a8_0001, 80))
        .collect();
    let frame = [0u8; 64];
    let offer = |eng: &mut Engine<ReadEcho>, hw: &mut Hw<'_>, i: u32| {
        let t = f64::from(i) * SPACING_NS;
        eng.offer(hw, &flows[i as usize % flows.len()], &frame, t)
            .expect("the workers keep up");
    };
    for i in 0..WARMUP {
        offer(&mut eng, &mut hw, i);
    }
    let before = allocations();
    for i in WARMUP..WARMUP + MEASURED {
        offer(&mut eng, &mut hw, i);
    }
    let made = allocations() - before;
    eng.drain(&mut hw);
    let (rep, _) = eng.finish(&mut hw);
    assert_eq!(rep.delivered, u64::from(WARMUP + MEASURED));
    (made, rep.sched.epochs_with_work)
}

#[test]
fn serial_offers_allocate_nothing_without_prefetch() {
    let (made, with_work) = steady_state_allocations(PrefetchConfig::disabled());
    assert!(with_work > 10_000, "only {with_work} epochs had work");
    assert_eq!(made, 0, "{MEASURED} offers made {made} allocations");
}

#[test]
fn serial_offers_allocate_nothing_with_prefetch() {
    let (made, with_work) = steady_state_allocations(PrefetchConfig::bios_default());
    assert!(with_work > 10_000, "only {with_work} epochs had work");
    assert_eq!(made, 0, "{MEASURED} offers made {made} allocations");
}
