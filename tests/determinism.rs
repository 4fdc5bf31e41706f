//! Real-application differential determinism: the NFV run-to-completion
//! chain, the two-stage pipelined chain, and the KVS server each run the
//! same workload under [`Execution::Serial`] and
//! [`Execution::Parallel`], and the *complete* results — every counter,
//! every recorded latency sample — must be bit-identical.
//!
//! The engine-level grid lives in `crates/engine/tests/differential.rs`;
//! this file proves the property survives the real applications' state
//! (flow tables, LPM lookups, the shared KV store, cross-core
//! handoffs).

use engine::Execution;
use kvs::proto::RequestGen;
use kvs::server::{flow_for_queue, run_server, MigrationMode, ServerConfig, ServerReport};
use kvs::store::{KvStore, Placement};
use llc_sim::machine::{Machine, MachineConfig};
use nfv::pipeline::{run_pipeline, PipelineConfig, PipelineHeadroom};
use nfv::runtime::{run_experiment, ChainSpec, HeadroomMode, RunConfig, RunResult, SteeringKind};
use rte::fault::{FaultPlan, Window};
use rte::mempool::MbufPool;
use rte::nic::{FixedHeadroom, Port};
use rte::steering::{Rss, Steering};
use slice_aware::alloc::SliceAllocator;
use trafficgen::{ArrivalSchedule, CampusTrace, ZipfGen};

/// The NFV chain at one geometry/steering/fault point.
fn nfv_run(
    cores: usize,
    steering: SteeringKind,
    chain: ChainSpec,
    faulty: bool,
    execution: Execution,
) -> RunResult {
    let mut cfg = RunConfig::paper_defaults(
        chain,
        steering,
        HeadroomMode::CacheDirector {
            preferred_slices: 1,
        },
    );
    cfg.cores = cores;
    cfg.queue_depth = 64;
    cfg.mbufs = (4 * cores * 64) as u32;
    cfg.execution = execution;
    if faulty {
        cfg.faults = FaultPlan::none()
            .with_seed(11)
            .with_corrupt_prob(0.03)
            .with_truncate_prob(0.05)
            .with_rx_stall(Window::new(100_000, 180_000));
    }
    let mut trace = CampusTrace::fixed_size(128, 96, 5);
    let mut sched = ArrivalSchedule::constant_pps(4_000_000.0);
    run_experiment(cfg, &mut trace, &mut sched, 4_000).expect("config fits")
}

#[test]
fn nfv_chain_results_are_identical_serial_vs_parallel() {
    for (cores, steering, chain, faulty) in [
        (2, SteeringKind::Rss, ChainSpec::MacSwap, false),
        (
            4,
            SteeringKind::FlowDirector,
            ChainSpec::RouterNaptLb {
                routes: 256,
                offload: true,
            },
            false,
        ),
        (
            4,
            SteeringKind::Rss,
            ChainSpec::RouterNaptLb {
                routes: 256,
                offload: false,
            },
            true,
        ),
    ] {
        let serial = nfv_run(cores, steering, chain, faulty, Execution::Serial);
        if faulty {
            // The [100 µs, 180 µs) stall at 4 Mpps spans 320 arrivals.
            assert_eq!(
                serial.drops.nic.rx_stall, 320,
                "the RX stall window loses exactly its span: {}",
                serial.drops
            );
        }
        for threads in [1usize, 2, cores] {
            let par = nfv_run(
                cores,
                steering,
                chain,
                faulty,
                Execution::Parallel { threads },
            );
            // `RunResult` carries f64 latency vectors; Debug formatting
            // captures every bit that matters and makes the diff
            // readable on failure.
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "nfv cores={cores} {steering:?} faulty={faulty}: \
                 parallel({threads}) diverged"
            );
        }
    }
}

#[test]
fn pipelined_chain_results_are_identical_serial_vs_parallel() {
    for headroom in [PipelineHeadroom::Stock, PipelineHeadroom::Compromise] {
        let run = |execution: Execution| {
            run_pipeline(
                &PipelineConfig::new(headroom).with_execution(execution),
                64,
                2_000_000.0,
                6_000,
            )
            .expect("config fits")
        };
        let serial = run(Execution::Serial);
        for threads in [1usize, 2, 3] {
            let par = run(Execution::Parallel { threads });
            assert_eq!(
                format!("{serial:?}"),
                format!("{par:?}"),
                "pipeline {headroom:?}: parallel({threads}) diverged"
            );
        }
    }
}

/// The 4-core KVS server (§8 extension): striped key classes, one
/// client generator per queue. With migration on, the placement becomes
/// StripedHot, clients scramble their keys, and every core runs the
/// hot-set migration loop at engine-epoch boundaries — the timed swaps
/// go through the coordinator-side merge hook, which this suite must
/// prove bit-identical across execution modes.
fn kvs_run_on(
    execution: Execution,
    migration: MigrationMode,
    theta: f64,
    requests: usize,
) -> ServerReport {
    let cores = 4;
    let migrate = migration != MigrationMode::Off;
    let mut m = Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(512 << 20));
    let region = m.mem_mut().alloc(32 << 20, 1 << 20).unwrap();
    let mut alloc = SliceAllocator::new(region, m.slice_oracle());
    let slices: Vec<usize> = (0..cores).map(|c| m.closest_slice(c)).collect();
    let placement = if migrate {
        Placement::StripedHot {
            slices,
            hot_per_core: 64,
        }
    } else {
        Placement::Striped { slices }
    };
    let store = KvStore::build(&mut m, &mut alloc, 4096, placement).unwrap();
    let mut pool = MbufPool::create(&mut m, 4096, 128, 2048).unwrap();
    let mut port = Port::new(0, Steering::Rss(Rss::new(cores)), 256);
    let base = trafficgen::FlowTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 11211);
    let mut gens: Vec<RequestGen> = (0..cores)
        .map(|q| {
            let flow = flow_for_queue(&mut port, base, q);
            let keygen = ZipfGen::new(4096 / cores as u64, theta, 11 + q as u64);
            let mut gen = RequestGen::new(keygen, 900, 7 + q as u64)
                .with_flow(flow)
                .with_key_partition(cores as u32, q as u32);
            if migrate {
                gen = gen.with_key_scramble(31 + q as u64);
            }
            gen
        })
        .collect();
    let mut policy = FixedHeadroom(128);
    let mut cfg = ServerConfig::fig8(requests, 900, 1)
        .with_cores(cores)
        .with_execution(execution);
    cfg.migration = migration;
    run_server(
        &mut m,
        &store,
        &mut pool,
        &mut port,
        &mut policy,
        &mut gens,
        &cfg,
    )
}

/// Shorthand for the pre-existing cases: the always-migrate policy at
/// epoch 500 when `migrate` is set.
fn kvs_run(execution: Execution, migrate: bool, theta: f64) -> ServerReport {
    let migration = if migrate {
        MigrationMode::Always { epoch: 500 }
    } else {
        MigrationMode::Off
    };
    kvs_run_on(execution, migration, theta, 6_000)
}

#[test]
fn kvs_server_results_are_identical_serial_vs_parallel() {
    let serial = kvs_run(Execution::Serial, false, 0.99);
    for threads in [1usize, 2, 4] {
        let par = kvs_run(Execution::Parallel { threads }, false, 0.99);
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "kvs: parallel({threads}) diverged"
        );
    }
    // And parallel is reproducible against itself.
    let a = kvs_run(Execution::Parallel { threads: 4 }, false, 0.99);
    let b = kvs_run(Execution::Parallel { threads: 4 }, false, 0.99);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "kvs parallel repeat");
}

#[test]
fn kvs_migration_results_are_identical_serial_vs_parallel() {
    // Skewed keys: real migration traffic through the merge hook.
    let serial = kvs_run(Execution::Serial, true, 0.99);
    assert!(serial.migrated > 0, "the skewed case must actually migrate");
    for threads in [1usize, 2, 4] {
        let par = kvs_run(Execution::Parallel { threads }, true, 0.99);
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "kvs migrate zipf: parallel({threads}) diverged"
        );
    }
    let a = kvs_run(Execution::Parallel { threads: 4 }, true, 0.99);
    let b = kvs_run(Execution::Parallel { threads: 4 }, true, 0.99);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "kvs migrate parallel repeat"
    );
}

#[test]
fn kvs_cost_aware_migration_is_identical_across_modes() {
    // The cost-aware controller is stateful across epochs (cost
    // estimate, calm counter, dormancy, epoch-length tuner), so any
    // dependence on thread scheduling — rather than on the noted access
    // counts — would diverge here. Decisions must be pure functions of
    // per-epoch counts. (That they also ignore how many workless epochs
    // the engine dispatches is the engine suites' oracle, see
    // `stateful_economics_hook_is_bit_identical_across_modes_and_schedulers`.)
    // Epoch 1000 over partitioned Zipf(0.99): the hottest keys' nets
    // clear the ~800-cycle measured swap cost while the tail stays
    // below it, so every decision path (execute, veto, ledger) is live.
    let mode = MigrationMode::CostAware { epoch: 1000 };
    let reference = kvs_run_on(Execution::Serial, mode, 0.99, 12_000);
    assert!(
        reference.migrated > 0,
        "the skewed cost-aware case must actually migrate"
    );
    assert!(
        reference.swaps_vetoed > 0,
        "the Zipf tail must produce vetoed candidates"
    );
    assert_eq!(
        reference.swaps_at_loss, 0,
        "cost-aware must never execute a swap at a projected loss"
    );
    for execution in [
        Execution::Serial,
        Execution::Parallel { threads: 2 },
        Execution::Parallel { threads: 4 },
    ] {
        let run = kvs_run_on(execution, mode, 0.99, 12_000);
        assert_eq!(
            format!("{reference:?}"),
            format!("{run:?}"),
            "kvs cost-aware: {execution:?} diverged"
        );
    }
}

#[test]
fn kvs_migration_with_tied_counts_is_identical_serial_vs_parallel() {
    // Uniform keys: per-epoch access counts are riddled with ties, so
    // any HashMap-iteration-order dependence in the migrator's
    // promote/evict ordering would diverge here. The (count, key) total
    // order must keep it bit-identical.
    let serial = kvs_run(Execution::Serial, true, 0.0);
    assert!(serial.migrated > 0, "uniform churn must still migrate");
    for threads in [1usize, 2, 4] {
        let par = kvs_run(Execution::Parallel { threads }, true, 0.0);
        assert_eq!(
            format!("{serial:?}"),
            format!("{par:?}"),
            "kvs migrate uniform ties: parallel({threads}) diverged"
        );
    }
}

/// The multi-tenant chaos harness at one mode point.
fn tenancy_run(execution: Execution) -> tenancy::run::TenancyReport {
    let cfg = tenancy::run::TenancyConfig {
        execution,
        ..tenancy::run::TenancyConfig::new(tenancy::run::Regime::Online, 6_000)
    };
    tenancy::run::run_tenancy(&cfg)
}

#[test]
fn tenancy_controller_results_are_identical_across_modes() {
    // The isolation controller is stateful across control epochs
    // (streaks, cooldown, calm counter, the held-p99 series), and its
    // observations come from worker-produced latency logs and merged
    // uncore counters — the maximal surface for a thread-count
    // dependence to leak in. The full report (per-tenant ledgers,
    // violation integrals, every controller action count) must be
    // bit-identical across execution modes. (The control hook's
    // independence of the scheduler is the engine suites' oracle, see
    // `control_hook_and_bare_catch_ups_match_reference_tick_stepper`.)
    let reference = tenancy_run(Execution::Serial);
    assert!(
        reference.moves > 0 && reference.ddio_shrinks > 0,
        "the online case must actually exercise the controller"
    );
    for execution in [
        Execution::Serial,
        Execution::Parallel { threads: 1 },
        Execution::Parallel { threads: 2 },
        Execution::Parallel { threads: 4 },
    ] {
        let run = tenancy_run(execution);
        assert_eq!(
            format!("{reference:?}"),
            format!("{run:?}"),
            "tenancy: {execution:?} diverged"
        );
    }
}

#[test]
fn tenancy_per_tenant_ledgers_partition_the_aggregate_identities() {
    // Aggregate conservation must equal the sum of per-tenant
    // identities: each tenant's group ledger balances on its own, and
    // the groups sum to the run's totals — no frame is lost between or
    // double-counted across tenants. Checked in both execution modes.
    for execution in [Execution::Serial, Execution::Parallel { threads: 2 }] {
        let rep = tenancy_run(execution);
        let mut sums = (0u64, 0u64, 0u64, 0u64);
        for (group, tenant) in rep.per_group.iter().zip(&rep.tenants) {
            assert_eq!(
                group.offered + group.carried,
                group.delivered
                    + group.nic.total()
                    + group.admit.total()
                    + group.app_drops
                    + group.in_flight,
                "{} ({execution:?}): tenant ledger leaks frames",
                tenant.name
            );
            assert_eq!(group.offered, tenant.offered);
            assert_eq!(group.delivered, tenant.served);
            sums.0 += group.offered;
            sums.1 += group.delivered;
            sums.2 += group.nic.total() + group.admit.total();
            sums.3 += group.app_drops + group.in_flight + group.carried;
        }
        let offered: u64 = rep.tenants.iter().map(|t| t.offered).sum();
        let served: u64 = rep.tenants.iter().map(|t| t.served).sum();
        let rejected: u64 = rep.tenants.iter().map(|t| t.rejected).sum();
        assert_eq!(sums.0, offered, "{execution:?}: offered partition broken");
        assert_eq!(sums.1, served, "{execution:?}: delivered partition broken");
        assert_eq!(
            sums.2, rejected,
            "{execution:?}: rejection partition broken"
        );
        // The run has fully drained: nothing is still queued, in flight,
        // or silently dropped inside an app across any tenant.
        assert_eq!(sums.3, 0, "{execution:?}: residual frames after drain");
    }
}
