//! Multi-tenant SLO defense: an online LLC isolation controller under
//! noisy-neighbour chaos.
//!
//! The paper's isolation story (§5–§8) is static: measure, choose a
//! slice/CAT/DDIO partition, pin it. This crate closes the loop. N
//! tenants — a KVS instance, an NFV chain, and a cache-thrashing
//! antagonist — share one simulated socket, each with its own queues,
//! key/flow space and p99 SLO. A controller polls the simulated CBo
//! occupancy/fill counters and per-tenant latency windows on a fixed
//! control epoch and re-partitions CAT ways and DDIO ways *online*,
//! with hysteresis, a per-tenant allocation floor (graceful
//! degradation, never starvation) and a typed error when no feasible
//! partition exists.
//!
//! * [`controller`] — the pure decision logic ([`IsolationController`])
//!   and its typed error ([`ControlError`]).
//! * [`apps`] — the per-worker tenant services and the phased
//!   noisy-neighbour arrival process ([`PhasedGaps`]).
//! * [`run`] — the chaos harness: scenario, control hook, reports.
//!
//! Everything is deterministic: [`run::run_tenancy`] reports are
//! bit-identical across execution modes.

pub mod apps;
pub mod controller;
pub mod run;

pub use apps::{PhasedGaps, TenantApp, TenantKind};
pub use controller::{
    ControlAction, ControlError, ControlLog, ControllerConfig, IsolationController,
};
pub use run::{run_tenancy, Regime, TenancyConfig, TenancyReport, TenantReport};
