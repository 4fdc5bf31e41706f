//! Differential determinism harness: every scenario in a grid of
//! app behaviour × steering × queue geometry × fault plan is executed
//! once under [`Execution::Serial`] and repeatedly under
//! [`Execution::Parallel`] with several thread counts, and every run
//! must produce a bit-identical [`EngineReport`].
//!
//! This is the proof obligation for the engine's parallel mode: both
//! modes run the *same* frozen-LLC epoch algorithm (workers on disjoint
//! shards, coordinator replays their LLC logs in canonical worker
//! order), so equality is expected by construction — this suite is the
//! regression tripwire that keeps it that way. The real applications
//! (NFV chain, pipelined chain, KVS) get the same treatment in the
//! workspace-level `tests/determinism.rs`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use engine::{
    AdmissionPolicy, Ctx, Engine, EngineConfig, EngineReport, Execution, Hw, MergeCtx, QueueApp,
    SchedStats, Scheduler, Verdict, WorkerSpec,
};
use llc_sim::machine::{Machine, MachineConfig};
use llc_sim::mem::Region;
use rte::fault::{FaultPlan, Window};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port, RxCompletion, TxDesc};
use rte::steering::{FlowDirector, Rss, Steering};
use trafficgen::{FlowTuple, Rng64};

/// The app-behaviour axis of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AppKind {
    /// Forward every packet with fixed work (the fast path).
    Echo,
    /// Seeded random forward/drop with variable work (adversarial).
    Chaos,
    /// Consume into a private backlog, re-emit from `pump` next epoch
    /// (the pipeline-shaped path: Consumed + pump + has_backlog).
    Backlog,
}

/// The steering axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SteerKind {
    Rss,
    FlowDirector,
}

/// One per-worker app instance covering all three behaviours.
struct GridApp {
    kind: AppKind,
    rng: Rng64,
    inbox: Vec<RxCompletion>,
    burst: usize,
}

impl QueueApp for GridApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        match self.kind {
            AppKind::Echo => {
                ctx.m.advance(ctx.core, 120);
                Verdict::Tx(TxDesc::echo(comp))
            }
            AppKind::Chaos => {
                ctx.m
                    .advance(ctx.core, 60 + self.rng.gen_range(0u32..300) as u64);
                if self.rng.gen_range(0u32..1000) < 250 {
                    Verdict::Drop
                } else {
                    Verdict::Tx(TxDesc::echo(comp))
                }
            }
            AppKind::Backlog => {
                ctx.m.advance(ctx.core, 80);
                self.inbox.push(*comp);
                Verdict::Consumed
            }
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>, tx: &mut Vec<TxDesc>) -> usize {
        if self.kind != AppKind::Backlog || self.inbox.is_empty() {
            return 0;
        }
        let take = self.burst.min(self.inbox.len());
        for c in self.inbox.drain(..take) {
            ctx.m.advance(ctx.core, 90);
            tx.push(TxDesc::echo(&c));
        }
        take
    }

    fn has_backlog(&self) -> bool {
        !self.inbox.is_empty()
    }
}

/// A fault plan exercising frame faults and every outage window, its
/// windows placed in simulated ns across the run's horizon.
fn mixed_plan(seed: u64, horizon_ns: u64, queues: usize) -> FaultPlan {
    let third = horizon_ns / 3;
    let mut plan = FaultPlan::none()
        .with_seed(seed)
        .with_corrupt_prob(0.04)
        .with_truncate_prob(0.06)
        .with_rx_stall(Window::new(third / 2, third))
        .with_tx_stall(Window::new(third, third + third / 2))
        .with_pool_exhaustion(Window::new(2 * third, 2 * third + third / 3));
    if queues > 1 {
        plan = plan.with_queue_rx_stall(queues - 1, Window::new(third / 4, third / 2));
    }
    plan
}

/// Runs one grid scenario under `execution` (and the default
/// event-driven scheduler) and returns the report. Everything else —
/// arrivals, flows, app decisions — is a pure function of the scenario,
/// so any divergence between two calls is the execution mode's fault.
fn run_scenario(
    app: AppKind,
    steer: SteerKind,
    queues: usize,
    depth: usize,
    burst: usize,
    faulty: bool,
    execution: Execution,
) -> EngineReport {
    let point = Point {
        app,
        steer,
        queues,
        depth,
        burst,
        faulty,
    };
    run_scheduled(point, execution, Scheduler::EventDriven)
}

/// One point of the scenario grid.
#[derive(Clone, Copy)]
struct Point {
    app: AppKind,
    steer: SteerKind,
    queues: usize,
    depth: usize,
    burst: usize,
    faulty: bool,
}

/// [`run_scenario`] with the scheduler as an explicit axis.
fn run_scheduled(point: Point, execution: Execution, scheduler: Scheduler) -> EngineReport {
    let Point {
        app,
        steer,
        queues,
        depth,
        burst,
        faulty,
    } = point;
    let seed = 0xd1f_0000
        ^ (queues as u64) << 4
        ^ (depth as u64) << 8
        ^ (burst as u64) << 16
        ^ (faulty as u64) << 24;
    let offers = 400usize;
    let gap_ns = 250.0f64;
    let horizon = (offers as f64 * gap_ns) as u64;
    let steering = match steer {
        SteerKind::Rss => Steering::Rss(Rss::new(queues)),
        SteerKind::FlowDirector => Steering::FlowDirector(FlowDirector::new(queues)),
    };
    let faults = if faulty {
        mixed_plan(seed, horizon, queues)
    } else {
        FaultPlan::none()
    };
    let apps: Vec<GridApp> = (0..queues)
        .map(|w| GridApp {
            kind: app,
            rng: Rng64::seed_from_u64(seed ^ 0x5eed ^ (w as u64).wrapping_mul(0x9e37)),
            inbox: Vec::new(),
            burst,
        })
        .collect();

    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    let mut pool = MbufPool::create(&mut m, (4 * queues * depth) as u32, 128, 2048).unwrap();
    let mut port = Port::new(0, steering, depth);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let cfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(queues),
        queue_depth: depth,
        burst,
        faults,
        execution,
        admission: AdmissionPolicy::AcceptAll,
        scheduler,
    };
    let mut eng = Engine::new(apps, cfg, &mut hw);

    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut frame = vec![0u8; 128];
    for i in 0..offers {
        t += rng.gen_range(1u32..(2.0 * gap_ns) as u32) as f64;
        let f = FlowTuple::tcp(
            0x0a00_0000 + rng.gen_range(0u32..48),
            2000 + rng.gen_range(0u32..48) as u16,
            0xc0a8_0001,
            443,
        );
        frame[0] = i as u8;
        let _ = eng.offer(&mut hw, &f, &frame, t);
        if rng.gen_range(0u32..5) == 0 {
            eng.step(&mut hw);
        }
    }
    eng.drain(&mut hw);
    let (rep, _) = eng.finish(&mut hw);
    rep
}

const GEOMETRIES: &[(usize, usize, usize)] = &[(1, 16, 8), (2, 64, 32), (4, 32, 1)];

/// The headline grid: serial vs parallel at threads ∈ {1, 2, queues},
/// bit-identical reports everywhere. Every faulty scenario must lose
/// frames to its RX and TX stall windows, so the comparison covers
/// live outages rather than windows that never fire.
#[test]
fn grid_serial_and_parallel_reports_are_bit_identical() {
    for app in [AppKind::Echo, AppKind::Chaos, AppKind::Backlog] {
        for steer in [SteerKind::Rss, SteerKind::FlowDirector] {
            for &(queues, depth, burst) in GEOMETRIES {
                for faulty in [false, true] {
                    let serial =
                        run_scenario(app, steer, queues, depth, burst, faulty, Execution::Serial);
                    if faulty {
                        assert!(
                            serial.nic.rx_stall > 0 && serial.nic.tx_stall > 0,
                            "{app:?}/{steer:?} q={queues} d={depth} b={burst}: \
                             stall windows never fired ({:?})",
                            serial.nic
                        );
                    }
                    for threads in [1usize, 2, queues] {
                        let par = run_scenario(
                            app,
                            steer,
                            queues,
                            depth,
                            burst,
                            faulty,
                            Execution::Parallel { threads },
                        );
                        assert_eq!(
                            serial, par,
                            "{app:?}/{steer:?} q={queues} d={depth} b={burst} \
                             faulty={faulty}: parallel({threads}) diverged from serial"
                        );
                    }
                }
            }
        }
    }
}

/// The reference-vs-event-driven differential: over the entire grid, in
/// both execution modes, the event-driven scheduler's report equals the
/// retained reference tick-stepper's field-for-field — except
/// [`EngineReport::sched`], whose whole point is to differ (the
/// event-driven run must never dispatch *more* epochs).
#[test]
fn event_driven_scheduler_matches_reference_tick_stepper() {
    let sans_sched = |mut rep: EngineReport| {
        rep.sched = SchedStats::default();
        rep
    };
    for app in [AppKind::Echo, AppKind::Chaos, AppKind::Backlog] {
        for steer in [SteerKind::Rss, SteerKind::FlowDirector] {
            for &(queues, depth, burst) in GEOMETRIES {
                for faulty in [false, true] {
                    let point = Point {
                        app,
                        steer,
                        queues,
                        depth,
                        burst,
                        faulty,
                    };
                    for execution in [Execution::Serial, Execution::Parallel { threads: 2 }] {
                        let evt = run_scheduled(point, execution, Scheduler::EventDriven);
                        let tick = run_scheduled(point, execution, Scheduler::ReferenceTick);
                        assert_eq!(
                            sans_sched(evt.clone()),
                            sans_sched(tick.clone()),
                            "{app:?}/{steer:?} q={queues} d={depth} b={burst} faulty={faulty} \
                             {execution:?}: event-driven diverged from the reference tick-stepper"
                        );
                        assert!(
                            evt.sched.epochs_dispatched <= tick.sched.epochs_dispatched,
                            "{app:?}/{steer:?} q={queues} d={depth} b={burst} faulty={faulty} \
                             {execution:?}: event-driven dispatched more epochs ({}) than the \
                             tick-stepper ({})",
                            evt.sched.epochs_dispatched,
                            tick.sched.epochs_dispatched,
                        );
                    }
                }
            }
        }
    }
}

/// Parallel mode must also be deterministic against *itself*: repeated
/// runs of the same scenario with the same thread count, and runs with
/// different thread counts, all agree.
#[test]
fn parallel_is_self_deterministic_across_repeats_and_thread_counts() {
    for app in [AppKind::Chaos, AppKind::Backlog] {
        let reference = run_scenario(
            app,
            SteerKind::Rss,
            4,
            32,
            8,
            true,
            Execution::Parallel { threads: 2 },
        );
        for repeat in 0..3 {
            for threads in [1usize, 2, 4] {
                let rep = run_scenario(
                    app,
                    SteerKind::Rss,
                    4,
                    32,
                    8,
                    true,
                    Execution::Parallel { threads },
                );
                assert_eq!(
                    reference, rep,
                    "{app:?}: parallel run (repeat {repeat}, threads {threads}) \
                     is not reproducible"
                );
            }
        }
    }
}

/// Stress: several *whole engines* running concurrently on OS threads
/// (as a parallel test harness would run them) must each still produce
/// the canonical report — no cross-engine interference through shared
/// process state. Run this suite with `--test-threads=1` and with the
/// default parallel harness; both must pass identically.
#[test]
fn concurrent_engines_do_not_interfere() {
    let expected = run_scenario(
        AppKind::Chaos,
        SteerKind::FlowDirector,
        4,
        32,
        8,
        true,
        Execution::Parallel { threads: 4 },
    );
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    run_scenario(
                        AppKind::Chaos,
                        SteerKind::FlowDirector,
                        4,
                        32,
                        8,
                        true,
                        Execution::Parallel { threads: 4 },
                    )
                })
            })
            .collect();
        for h in handles {
            let rep = h.join().expect("engine thread panicked");
            assert_eq!(expected, rep, "concurrent engines interfered");
        }
    });
}

/// An app whose epoch hook behaves like the cost-aware migrator: it
/// accumulates per-queue access counts, and at epoch merges performs
/// *conditional, batched, timed* machine work on the serving core —
/// with a running cost estimate, an economics veto, and dormancy
/// back-off, exactly the stateful shape of `kvs`'s controller (which
/// gets its own end-to-end differential in the workspace-level
/// `tests/determinism.rs`).
struct EconApp {
    seen: u64,
    charged: u64,
}

impl QueueApp for EconApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        ctx.m.advance(ctx.core, 100);
        self.seen += 1;
        Verdict::Tx(TxDesc::echo(comp))
    }
}

/// Runs the economics-hook scenario and returns the report, the final
/// per-core machine clocks, and the cycles each queue's hook charged.
fn run_econ(execution: Execution, scheduler: Scheduler) -> (EngineReport, Vec<u64>, Vec<u64>) {
    let queues = 2usize;
    let depth = 32usize;
    let apps: Vec<EconApp> = (0..queues)
        .map(|_| EconApp {
            seen: 0,
            charged: 0,
        })
        .collect();
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    let mut pool = MbufPool::create(&mut m, (4 * queues * depth) as u32, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(queues)), depth);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let cfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(queues),
        queue_depth: depth,
        burst: 8,
        faults: FaultPlan::none(),
        execution,
        admission: AdmissionPolicy::AcceptAll,
        scheduler,
    };
    let mut eng = Engine::new(apps, cfg, &mut hw);
    // Controller state captured by the hook: a per-queue cost estimate
    // refined from "realized" charges, calm-epoch counters and dormancy
    // flags. Everything is a pure function of the apps' access counts,
    // so both schedulers and both execution modes must replay it
    // identically. Crucially the hook is a strict no-op at workless
    // epochs: `seen` only moves when packets were processed, and every
    // acting branch resets it.
    let mut est = vec![800u64; queues];
    let mut calm = vec![0u32; queues];
    let mut dormant = vec![false; queues];
    eng.set_epoch_hook(Box::new(
        move |apps: &mut [EconApp], mc: &mut MergeCtx<'_>| {
            for (w, app) in apps.iter_mut().enumerate() {
                if app.seen < 60 {
                    continue;
                }
                let projected = app.seen * 20;
                if dormant[w] && projected <= 2 * est[w] {
                    app.seen = 0;
                    continue;
                }
                if projected > est[w] {
                    // Batched timed work on the serving core (worker w runs
                    // on core w under run_to_completion).
                    let batch = (app.seen / 12).min(4);
                    let cycles = batch * est[w] / 2 + 37;
                    mc.m.advance(w, cycles);
                    app.charged += cycles;
                    est[w] = (est[w] + cycles / batch.max(1)) / 2;
                    calm[w] = 0;
                    dormant[w] = false;
                } else {
                    calm[w] += 1;
                    if calm[w] >= 2 {
                        dormant[w] = true;
                    }
                }
                app.seen = 0;
            }
            0
        },
    ));
    let mut rng = Rng64::seed_from_u64(0xec0_90d);
    let mut t = 0.0f64;
    let mut frame = vec![0u8; 128];
    for i in 0..400usize {
        t += rng.gen_range(1u32..500) as f64;
        let f = FlowTuple::tcp(
            0x0a00_0000 + rng.gen_range(0u32..48),
            2000 + rng.gen_range(0u32..48) as u16,
            0xc0a8_0001,
            443,
        );
        frame[0] = i as u8;
        let _ = eng.offer(&mut hw, &f, &frame, t);
        if rng.gen_range(0u32..5) == 0 {
            eng.step(&mut hw);
        }
    }
    eng.drain(&mut hw);
    let (rep, apps) = eng.finish(&mut hw);
    let clocks = (0..queues).map(|c| hw.m.now(c)).collect();
    let charged = apps.iter().map(|a| a.charged).collect();
    (rep, clocks, charged)
}

/// The tentpole's engine-side obligation: a stateful, economics-driven
/// epoch hook that charges timed machine work at merges must stay
/// bit-identical — report, per-core clocks, and charged cycles — across
/// serial/parallel and event-driven/reference-tick, because its
/// decisions are pure functions of noted access counts and it is a
/// no-op at workless epochs (DESIGN §3f).
#[test]
fn stateful_economics_hook_is_bit_identical_across_modes_and_schedulers() {
    let sans_sched = |mut rep: EngineReport| {
        rep.sched = SchedStats::default();
        rep
    };
    let (ref_rep, ref_clocks, ref_charged) = run_econ(Execution::Serial, Scheduler::EventDriven);
    assert!(
        ref_charged.iter().sum::<u64>() > 0,
        "the hook must actually charge work for this test to mean anything"
    );
    for execution in [
        Execution::Serial,
        Execution::Parallel { threads: 1 },
        Execution::Parallel { threads: 2 },
    ] {
        for scheduler in [Scheduler::EventDriven, Scheduler::ReferenceTick] {
            let (rep, clocks, charged) = run_econ(execution, scheduler);
            assert_eq!(
                sans_sched(ref_rep.clone()),
                sans_sched(rep),
                "{execution:?}/{scheduler:?}: report diverged"
            );
            assert_eq!(
                ref_clocks, clocks,
                "{execution:?}/{scheduler:?}: hook charges landed on different clocks"
            );
            assert_eq!(
                ref_charged, charged,
                "{execution:?}/{scheduler:?}: hook charged different cycles"
            );
        }
    }
}

/// Lines in the table [`ControlledApp`] reads: 4 MiB, which fits the
/// LLC under a full CAT mask but not under a two-way one.
const TABLE_LINES: u32 = 1 << 16;

/// An app shaped like the engine's two control-plane users. It serves
/// packets with table reads whose LLC fills obey the core's CAT mask
/// (set by the control hook, as `tenancy` does), and runs work items
/// the hook pushes into its backlog, logging when each one completes.
struct ControlledApp {
    table: Region,
    rng: Rng64,
    /// Packets served since the hook last drained this app.
    served: u64,
    /// Work items the hook pushed, waiting for `pump`.
    backlog: VecDeque<u64>,
    /// (item, completion time) per pumped item. The test drains it
    /// after every bare catch-up, as `kvs::openloop` drains outcomes.
    done: Vec<(u64, f64)>,
}

impl ControlledApp {
    fn read_line(&self, ctx: &mut Ctx<'_>, line: u32) {
        ctx.m
            .touch_read(ctx.core, self.table.pa(line as usize * 64));
    }
}

impl QueueApp for ControlledApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, comp: &RxCompletion) -> Verdict {
        self.served += 1;
        for _ in 0..4 {
            let line = self.rng.gen_range(0..TABLE_LINES);
            self.read_line(ctx, line);
        }
        Verdict::Tx(TxDesc::echo(comp))
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>, _tx: &mut Vec<TxDesc>) -> usize {
        let Some(item) = self.backlog.pop_front() else {
            return 0;
        };
        self.read_line(ctx, (item as u32).wrapping_mul(0x9e37) % TABLE_LINES);
        ctx.m.advance(ctx.core, 150);
        self.done.push((item, ctx.wall_ns()));
        1
    }

    fn has_backlog(&self) -> bool {
        !self.backlog.is_empty()
    }
}

/// Everything a controlled run observes: the report minus the
/// scheduler counters, what the hook saw at each boundary (time, served
/// count per app), the completions drained after each bare catch-up
/// (offer index, worker, item, time), and each app's final
/// `(served, backlog, done)`.
type ControlledRun = (
    EngineReport,
    Vec<(f64, Vec<u64>)>,
    Vec<(usize, usize, u64, f64)>,
    Vec<(u64, Vec<u64>, Vec<(u64, f64)>)>,
);

/// Drives the engine the way its control-plane front-ends do. A 2 µs
/// control hook — like `tenancy`'s isolation controller — drains each
/// app's served count, narrows that core's CAT mask to two ways when
/// the count reached 2 (else restores it), pushes one follow-up item
/// per served packet into the app's backlog and charges cycles on one
/// worker core. Between arrivals the test makes bare
/// [`Engine::run_until`] calls at retry-timer times and drains
/// completions, as `kvs::openloop` does.
fn run_controlled(execution: Execution, scheduler: Scheduler) -> ControlledRun {
    const WORKERS: usize = 4;
    const DEPTH: usize = 32;
    const CONTROL_NS: f64 = 2_000.0;
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20));
    let table = m.mem_mut().alloc(TABLE_LINES as usize * 64, 4096).unwrap();
    let full_mask = (1u64 << m.config().llc_slice.ways) - 1;
    let mut pool = MbufPool::create(&mut m, (4 * WORKERS * DEPTH) as u32, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(WORKERS)), DEPTH);
    let mut policy = FixedHeadroom(128);
    let mut hw = Hw {
        m: &mut m,
        port: &mut port,
        pool: &mut pool,
        policy: &mut policy,
    };
    let apps: Vec<ControlledApp> = (0..WORKERS)
        .map(|w| ControlledApp {
            table,
            rng: Rng64::seed_from_u64(0xca7 ^ (w as u64).wrapping_mul(0x9e37)),
            served: 0,
            backlog: VecDeque::new(),
            done: Vec::new(),
        })
        .collect();
    let cfg = EngineConfig {
        workers: WorkerSpec::run_to_completion(WORKERS),
        queue_depth: DEPTH,
        burst: 8,
        faults: FaultPlan::none(),
        execution,
        admission: AdmissionPolicy::AcceptAll,
        scheduler,
    };
    let mut eng = Engine::new(apps, cfg, &mut hw);
    let hook_log = Rc::new(RefCell::new(Vec::new()));
    let log = Rc::clone(&hook_log);
    let mut next_item = 0u64;
    eng.set_control_hook(
        CONTROL_NS,
        Box::new(
            move |apps: &mut [ControlledApp], mc: &mut MergeCtx<'_>, t: f64| {
                let mut window = Vec::new();
                for (w, app) in apps.iter_mut().enumerate() {
                    // Worker w runs on core w (run to completion).
                    let served = std::mem::take(&mut app.served);
                    mc.m.set_cat_mask(w, if served >= 2 { 0b11 } else { full_mask });
                    app.backlog.extend(next_item..next_item + served);
                    next_item += served;
                    window.push(served);
                }
                let core = (t / CONTROL_NS) as usize % WORKERS;
                mc.m.advance(core, 400);
                log.borrow_mut().push((t, window));
            },
        ),
    );
    let mut rng = Rng64::seed_from_u64(0xc0de_0b5e);
    let mut frame = vec![0u8; 128];
    let mut drained = Vec::new();
    let mut t_next = 1.0;
    for i in 0..300usize {
        let t = t_next;
        let f = FlowTuple::tcp(
            0x0a00_0000 + rng.gen_range(0u32..48),
            2000 + rng.gen_range(0u32..48) as u16,
            0xc0a8_0001,
            443,
        );
        frame[0] = i as u8;
        let _ = eng.offer(&mut hw, &f, &frame, t);
        t_next = t + rng.gen_range(2u32..800) as f64;
        if rng.gen_range(0u32..3) == 0 {
            // A retry timer strictly between this arrival and the next.
            let te = t + rng.gen_range(1..(t_next - t) as u32) as f64;
            eng.run_until(&mut hw, te);
            for w in 0..WORKERS {
                let done = std::mem::take(&mut eng.app_mut(w).done);
                drained.extend(done.into_iter().map(|(item, at)| (i, w, item, at)));
            }
        }
    }
    // Past the last arrival by two control periods: every boundary
    // that saw traffic has fired.
    eng.run_until(&mut hw, t_next + 2.0 * CONTROL_NS);
    eng.drain(&mut hw);
    let (mut rep, apps) = eng.finish(&mut hw);
    rep.sched = SchedStats::default();
    let states = apps
        .into_iter()
        .map(|a| (a.served, a.backlog.into_iter().collect(), a.done))
        .collect();
    let hooks = Rc::try_unwrap(hook_log).unwrap().into_inner();
    (rep, hooks, drained, states)
}

/// The oracle for the engine's control-plane users. With a hook that
/// does timed work, reprograms CAT masks and creates backlog at fixed
/// boundaries, and with bare catch-ups between arrivals, the
/// event-driven scheduler must match the reference tick-stepper in
/// every execution mode: the report (scheduler counters aside), the
/// hook's observations, every completion time drained between
/// arrivals, and each app's final state.
#[test]
fn control_hook_and_bare_catch_ups_match_reference_tick_stepper() {
    let reference = run_controlled(Execution::Serial, Scheduler::ReferenceTick);
    let (_, hooks, drained, _) = &reference;
    assert!(
        hooks
            .iter()
            .any(|(_, window)| window.iter().any(|&n| n >= 2)),
        "the hook must push backlog and narrow a CAT mask for this test to mean anything"
    );
    assert!(
        !drained.is_empty(),
        "bare catch-ups must observe completions"
    );
    for scheduler in [Scheduler::EventDriven, Scheduler::ReferenceTick] {
        for execution in [
            Execution::Serial,
            Execution::Parallel { threads: 2 },
            Execution::Parallel { threads: 4 },
        ] {
            let (rep, hooks, drained, states) = run_controlled(execution, scheduler);
            let at = format!("{scheduler:?}/{execution:?} vs serial reference tick-stepper");
            assert_eq!(rep, reference.0, "{at}: report");
            assert_eq!(hooks, reference.1, "{at}: hook observations");
            assert_eq!(
                drained, reference.2,
                "{at}: completions seen between arrivals"
            );
            assert_eq!(states, reference.3, "{at}: final app state");
        }
    }
}

/// Over-subscription: more threads than workers (and more threads than
/// host cores would sensibly allow) still yields the canonical report.
#[test]
fn oversubscribed_thread_counts_are_harmless() {
    let serial = run_scenario(
        AppKind::Echo,
        SteerKind::Rss,
        2,
        32,
        8,
        false,
        Execution::Serial,
    );
    for threads in [3usize, 8, 64] {
        let par = run_scenario(
            AppKind::Echo,
            SteerKind::Rss,
            2,
            32,
            8,
            false,
            Execution::Parallel { threads },
        );
        assert_eq!(serial, par, "threads={threads} diverged");
    }
}
