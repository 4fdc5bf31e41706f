//! Hot-set monitoring and migration (paper §8).
//!
//! "Applications which only use slice-aware memory management for the
//! 'hot' data due to their very large working set should employ
//! monitoring/migration techniques to deal with variability of hot
//! data." This module implements that loop for the KVS: count key
//! accesses per epoch, and at each epoch boundary swap newly-hot keys
//! into the store's slice-local hot slots (evicting keys that cooled
//! off). A swap exchanges both the index entries and the 64 B values,
//! all through timed machine operations, so migration cost is visible to
//! the experiment that decides whether it pays off.
//!
//! Two [`MigrationPolicy`]s drive the swap decision:
//!
//! * [`MigrationPolicy::Always`] promotes the whole observed top set
//!   every epoch — the original unconditional policy, kept as the
//!   baseline. EXPERIMENTS.md §F8b measures it losing 16-29 % TPS:
//!   most of its swaps move tail keys whose few future accesses can
//!   never repay the swap.
//! * [`MigrationPolicy::CostAware`] only executes a swap when its
//!   projected benefit exceeds its cost: `projected_accesses ×
//!   slice_distance_saving > swap_cost`, with both constants read from
//!   the machine model ([`CostModel::measure`]) and the swap cost
//!   refined from the realized cycles of every executed batch. Swaps
//!   are batched at epoch merges (at most [`CostModel::max_batch`] per
//!   merge; the approved remainder is *deferred* to the next merge),
//!   the epoch length self-tunes on the realized benefit/cost ratio,
//!   and a hysteresis back-off puts the controller *dormant* after
//!   [`CostModel::backoff_epochs`] swap-free epochs — waking only when
//!   a candidate clears [`CostModel::wake_mult`]× the swap cost, so a
//!   uniform workload performs zero swaps. See DESIGN.md §3g.
//!
//! A [`HotMigrator`] is constructed *from* a [`KvStore`]
//! ([`HotMigrator::for_store`]): it reads the store's placement for the
//! hot-slot geometry and the store's live index for the current
//! residents, so it is correct against a freshly built store, an
//! already-migrated store, and the one placement that declares a hot
//! area ([`crate::store::Placement::StripedHot`]). Placements
//! without one are rejected with a typed [`MigrateError`] instead of
//! silently corrupting the index on the first swap. In the multi-queue
//! server one migrator exists per queue (core), each owning its key
//! class's hot area, driven at engine-epoch boundaries — see
//! [`crate::server`].

use crate::store::{KvStore, SwapError};
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use rte::steering::FixedHasher;
use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;

/// The migrator's tables hash with the fixed hasher of `rte::steering`:
/// every read is a lookup, or the iteration of `counts` that a sort
/// under a total order follows, so their order is never observed.
type Fixed = BuildHasherDefault<FixedHasher>;

/// The migration economics, read from the machine model. All constants
/// are in core cycles; all decisions built on them are integer
/// arithmetic over deterministic access counts, so runs stay
/// bit-identical across execution modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cycles one hot-area hit saves versus serving the same LLC hit
    /// from an average-distance slice: `mean(llc_latency(core, *)) -
    /// llc_latency(core, closest)`.
    pub(crate) saving_per_hit: u64,
    /// Initial estimate of one swap's cycle cost. [`HotMigrator`]
    /// refines it with the realized per-swap cycles after every
    /// executed batch, so the veto threshold tracks what swaps
    /// actually cost on this machine.
    pub(crate) swap_cost: u64,
    /// Floor for the self-tuned epoch length (accesses per epoch).
    pub(crate) min_epoch: usize,
    /// Ceiling for the self-tuned epoch length.
    pub(crate) max_epoch: usize,
    /// Most swaps one epoch merge may execute; approved candidates
    /// beyond it are deferred to the next merge, bounding the timed
    /// burst a single merge injects on the serving core.
    pub(crate) max_batch: usize,
    /// Consecutive swap-free epochs before the controller goes dormant.
    pub(crate) backoff_epochs: u32,
    /// Hysteresis margin: a dormant controller wakes only when the best
    /// candidate's projected benefit exceeds `wake_mult ×` the swap
    /// cost (an active one already swaps at `> 1×`).
    pub(crate) wake_mult: u64,
}

impl CostModel {
    /// Measures the economics from `m`'s calibrated constants, for a
    /// migrator serving on `core`.
    ///
    /// The per-hit saving is the machine's mean LLC slice latency from
    /// `core` minus its closest slice's — the cycles a hot-slot hit
    /// saves over the average slice a cold value lands in. The initial
    /// swap-cost estimate prices the swap's eight memory operations
    /// (two index reads, two value reads, four writes — see
    /// [`KvStore::swap_keys`]) at their worst case: DRAM latency per
    /// read, the store-miss cost per write. Deliberately conservative —
    /// the first executed batch replaces it with measured reality.
    pub fn measure(m: &Machine, core: usize) -> Self {
        let cfg = m.config();
        let near = u64::from(m.llc_latency(core, m.closest_slice(core)));
        let sum: u64 = (0..cfg.slices)
            .map(|s| u64::from(m.llc_latency(core, s)))
            .sum();
        let avg = sum / cfg.slices as u64;
        Self {
            saving_per_hit: avg.saturating_sub(near).max(1),
            swap_cost: 4 * u64::from(cfg.dram_latency) + 4 * u64::from(cfg.store_miss_cost),
            min_epoch: 256,
            max_epoch: 1 << 20,
            max_batch: 64,
            backoff_epochs: 3,
            wake_mult: 2,
        }
    }

    /// The same model with different epoch-tuning bounds.
    ///
    /// # Panics
    ///
    /// Panics when `min == 0` or `min > max`.
    #[must_use]
    pub fn with_epoch_bounds(mut self, min: usize, max: usize) -> Self {
        assert!(min > 0 && min <= max, "need 0 < min_epoch <= max_epoch");
        self.min_epoch = min;
        self.max_epoch = max;
        self
    }
}

/// Which swaps an epoch boundary executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Promote the whole observed top set every epoch, unconditionally
    /// (the §F8b baseline). The migrator still prices each swap against
    /// the measured [`CostModel`] to report how many executed at a
    /// projected loss ([`MigrationReport::at_loss`]).
    Always,
    /// Execute only swaps whose projected benefit exceeds the measured
    /// cost, batched per merge, with epoch auto-tuning and dormancy
    /// back-off.
    CostAware(CostModel),
}

impl MigrationPolicy {
    /// The cost-aware policy with its model measured from `m` for
    /// `core` ([`CostModel::measure`]).
    pub(crate) fn cost_aware(m: &Machine, core: usize) -> Self {
        MigrationPolicy::CostAware(CostModel::measure(m, core))
    }
}

/// What one epoch's migration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Keys moved into the hot area (same number moved out).
    pub(crate) migrated: usize,
    /// Cycles spent copying values and rewriting index entries.
    pub(crate) cycles: Cycles,
    /// Accesses in this epoch that found their key already resident in
    /// the hot area (counted at access time, before this migration).
    pub hot_hits: u64,
    /// Accesses observed in this epoch.
    pub accesses: u64,
    /// Candidate swaps rejected by the economics test (projected
    /// benefit ≤ swap cost), including every candidate of a dormant
    /// epoch that failed to wake the controller.
    pub(crate) vetoed: u64,
    /// Candidate swaps that passed the economics test but exceeded the
    /// per-merge batch cap; they stay candidates for the next merge.
    pub(crate) deferred: u64,
    /// Executed swaps whose projected benefit was ≤ the measured swap
    /// cost — structurally zero under [`MigrationPolicy::CostAware`]
    /// (such candidates are vetoed, never executed); under
    /// [`MigrationPolicy::Always`] it counts the swaps the economics
    /// would have refused.
    pub(crate) at_loss: u64,
}

/// Why a [`HotMigrator`] could not be built or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// The store's placement declares no hot area (for this core):
    /// there is nothing to migrate into, and swapping against an
    /// assumed layout would corrupt the index.
    NoHotArea {
        /// The serving core the migrator was requested for.
        core: usize,
        /// A rendering of the store's placement.
        placement: String,
    },
    /// A migration swap was rejected by the store.
    Swap(SwapError),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::NoHotArea { core, placement } => write!(
                f,
                "placement {placement} has no hot area for core {core}; \
                 migration needs StripedHot with a slice for every serving core"
            ),
            MigrateError::Swap(e) => write!(f, "migration swap rejected: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<SwapError> for MigrateError {
    fn from(e: SwapError) -> Self {
        MigrateError::Swap(e)
    }
}

/// Epoch-based hot-set tracker driving [`KvStore::swap_keys`].
#[derive(Debug)]
pub struct HotMigrator {
    /// Access counts within the current epoch.
    counts: HashMap<u32, u32, Fixed>,
    /// Accesses per epoch (self-tuned under the cost-aware policy).
    epoch_len: usize,
    /// Accesses seen in the current epoch.
    seen: usize,
    /// Hot accesses seen in the current epoch.
    epoch_hits: u64,
    /// The serving core whose hot area this migrator owns.
    core: usize,
    /// The hot slot numbers, in the store's hot-area order.
    slots: Vec<usize>,
    /// The key currently stored in each hot slot (parallel to `slots`).
    resident: Vec<u32>,
    /// Membership view of `resident` for O(1) hot checks.
    hot_set: HashSet<u32, Fixed>,
    /// The swap-decision policy.
    policy: MigrationPolicy,
    /// The economics constants ([`CostModel::measure`]d at
    /// construction; replaced by the policy's own model under
    /// [`MigrationPolicy::CostAware`]).
    model: CostModel,
    /// Running swap-cost estimate: starts at the model's, refined with
    /// the realized per-swap cycles of every executed batch.
    swap_cost_est: u64,
    /// Consecutive epochs that executed zero swaps.
    calm_epochs: u32,
    /// Back-off state: a dormant controller vetoes everything below the
    /// wake margin.
    dormant: bool,
    /// Cycle cost of the previous epoch's executed batch — the cost
    /// side of the realized benefit/cost ratio the epoch tuner reads.
    last_batch_cost: u64,
    /// Epochs whose realized benefit failed to cover the previous
    /// batch's cost (each lengthens the epoch).
    loss_epochs: u64,
}

impl HotMigrator {
    /// A migrator for `core`'s hot area of `store`, reading the store's
    /// *actual* placement geometry and live index layout (one untimed
    /// scan). Stores whose placement declares no hot area for `core`
    /// ([`crate::store::Placement::Normal`],
    /// [`crate::store::Placement::SliceAware`],
    /// [`crate::store::Placement::Striped`]) are rejected with
    /// [`MigrateError::NoHotArea`].
    ///
    /// The policy defaults to [`MigrationPolicy::Always`]; select the
    /// cost-aware controller with [`HotMigrator::with_policy`].
    ///
    /// # Panics
    ///
    /// Panics when `epoch_len == 0`.
    pub fn for_store(
        m: &Machine,
        store: &KvStore,
        core: usize,
        epoch_len: usize,
    ) -> Result<Self, MigrateError> {
        assert!(epoch_len > 0, "epoch must be positive");
        let slots = store
            .hot_slots(core)
            .ok_or_else(|| MigrateError::NoHotArea {
                core,
                placement: format!("{:?}", store.placement()),
            })?;
        let resident = store.residents(m, &slots);
        let hot_set = resident.iter().copied().collect();
        let model = CostModel::measure(m, core);
        Ok(Self {
            counts: HashMap::default(),
            epoch_len,
            seen: 0,
            epoch_hits: 0,
            core,
            slots,
            resident,
            hot_set,
            policy: MigrationPolicy::Always,
            model,
            swap_cost_est: model.swap_cost,
            calm_epochs: 0,
            dormant: false,
            last_batch_cost: 0,
            loss_epochs: 0,
        })
    }

    /// The same migrator under `policy`. Selecting
    /// [`MigrationPolicy::CostAware`] adopts the policy's model and
    /// clamps the epoch length into its tuning bounds.
    #[must_use]
    pub fn with_policy(mut self, policy: MigrationPolicy) -> Self {
        if let MigrationPolicy::CostAware(model) = policy {
            self.model = model;
            self.swap_cost_est = model.swap_cost;
            self.epoch_len = self.epoch_len.clamp(model.min_epoch, model.max_epoch);
        }
        self.policy = policy;
        self
    }

    /// True when `key`'s value currently lives in a hot slot.
    pub(crate) fn is_hot(&self, key: u32) -> bool {
        self.hot_set.contains(&key)
    }

    /// Counts one access without driving migration; returns whether the
    /// key was hot at access time. The engine-driven server calls this
    /// from `on_packet` (shards cannot swap — index entries of
    /// different classes share cache lines) and runs
    /// [`HotMigrator::run_epoch`] at the merge when
    /// [`HotMigrator::epoch_due`] reports a boundary.
    pub fn note(&mut self, key: u32) -> bool {
        *self.counts.entry(key).or_insert(0) += 1;
        self.seen += 1;
        let hot = self.is_hot(key);
        self.epoch_hits += hot as u64;
        hot
    }

    /// True when a full epoch of accesses has been observed and
    /// [`HotMigrator::run_epoch`] should run.
    pub fn epoch_due(&self) -> bool {
        self.seen >= self.epoch_len
    }

    /// Performs this epoch's migration through timed
    /// [`KvStore::swap_keys`] calls on the migrator's core, resets the
    /// epoch counters, and reports what happened. Under
    /// [`MigrationPolicy::CostAware`] this is where the economics veto,
    /// batch cap, dormancy hysteresis and epoch tuner all run.
    pub fn run_epoch(
        &mut self,
        m: &mut Machine,
        store: &KvStore,
    ) -> Result<MigrationReport, MigrateError> {
        // This epoch's top keys in a *total* order — (count desc, key
        // asc) — so ties cannot depend on the counts map's iteration
        // order and serial/parallel runs stay bit-identical.
        let mut by_count: Vec<(u32, u32)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        by_count.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let want: Vec<(u32, u32)> = by_count.iter().take(self.slots.len()).copied().collect();
        let want_set: HashSet<u32, Fixed> = want.iter().map(|&(k, _)| k).collect();
        // Hot-slot occupants that cooled off, coldest first under the
        // same total order — (count asc, key asc); missing from the
        // counts map is coldest of all.
        let mut evictable: Vec<(usize, u32)> = self
            .resident
            .iter()
            .enumerate()
            .filter(|(_, k)| !want_set.contains(k))
            .map(|(i, &k)| (i, k))
            .collect();
        evictable.sort_unstable_by_key(|&(_, k)| (self.counts.get(&k).copied().unwrap_or(0), k));
        // Pair the hottest wanted key with the coldest evictable
        // occupant: each pair's net projected benefit, (count_in -
        // count_out) × saving, is non-increasing along the list, so the
        // economics scan below can stop at the first veto.
        let mut pairs: Vec<(u32, u32, usize, u32, u32)> = Vec::new();
        let mut ev = evictable.into_iter();
        for &(key, cin) in &want {
            if self.hot_set.contains(&key) {
                continue;
            }
            let Some((slot_idx, out_key)) = ev.next() else {
                break;
            };
            let cout = self.counts.get(&out_key).copied().unwrap_or(0);
            pairs.push((key, cin, slot_idx, out_key, cout));
        }
        let cost_aware = matches!(self.policy, MigrationPolicy::CostAware(_));
        let saving = self.model.saving_per_hit;
        let net = |cin: u32, cout: u32| u64::from(cin.saturating_sub(cout)) * saving;
        let mut migrated = 0usize;
        let mut cycles: Cycles = 0;
        let mut vetoed = 0u64;
        let mut deferred = 0u64;
        let mut at_loss = 0u64;
        // Hysteresis: a dormant controller only wakes when the best
        // candidate clears the wake margin; until then every candidate
        // is vetoed without touching the store.
        let mut execute = true;
        if cost_aware && self.dormant {
            let wake = pairs.first().is_some_and(|&(_, cin, _, _, cout)| {
                net(cin, cout) > self.model.wake_mult * self.swap_cost_est
            });
            if wake {
                self.dormant = false;
                self.calm_epochs = 0;
            } else {
                execute = false;
                vetoed = pairs.len() as u64;
            }
        }
        if execute {
            for (i, &(key, cin, slot_idx, out_key, cout)) in pairs.iter().enumerate() {
                if cost_aware {
                    if net(cin, cout) <= self.swap_cost_est {
                        // Benefit is non-increasing along the pair
                        // list: everything from here on is a loss.
                        vetoed += (pairs.len() - i) as u64;
                        break;
                    }
                    if migrated >= self.model.max_batch {
                        deferred += (pairs.len() - i) as u64;
                        break;
                    }
                } else if net(cin, cout) <= self.swap_cost_est {
                    at_loss += 1;
                }
                cycles += store.swap_keys(m, self.core, key, out_key)?;
                self.hot_set.remove(&out_key);
                self.hot_set.insert(key);
                self.resident[slot_idx] = key;
                migrated += 1;
            }
        }
        // Refine the swap-cost estimate with this batch's realized
        // per-swap cycles (equal-weight blend: stable, deterministic).
        if migrated > 0 {
            let measured = (cycles / migrated as u64).max(1);
            self.swap_cost_est = ((self.swap_cost_est + measured) / 2).max(1);
        }
        if cost_aware {
            // Back-off bookkeeping.
            if migrated == 0 {
                self.calm_epochs += 1;
                if self.calm_epochs >= self.model.backoff_epochs {
                    self.dormant = true;
                }
            } else {
                self.calm_epochs = 0;
            }
            // Epoch auto-tuning on the realized benefit/cost ratio: the
            // previous batch's swaps were supposed to earn this epoch's
            // hot hits. Paid more than harvested → double the epoch
            // (amortize further); harvested ≥ 8× → halve it (afford
            // faster tracking).
            if self.last_batch_cost > 0 {
                let realized = self.epoch_hits * saving;
                if realized < self.last_batch_cost {
                    self.loss_epochs += 1;
                    self.epoch_len = self.epoch_len.saturating_mul(2).min(self.model.max_epoch);
                } else if realized >= 8 * self.last_batch_cost {
                    self.epoch_len = (self.epoch_len / 2).max(self.model.min_epoch);
                }
            }
            self.last_batch_cost = cycles;
        }
        let report = MigrationReport {
            migrated,
            cycles,
            hot_hits: self.epoch_hits,
            accesses: self.seen as u64,
            vetoed,
            deferred,
            at_loss,
        };
        self.counts.clear();
        self.seen = 0;
        self.epoch_hits = 0;
        Ok(report)
    }

    /// Records one access; at epoch boundaries performs migration and
    /// returns the report. The convenience form of
    /// [`HotMigrator::note`] + [`HotMigrator::run_epoch`] for callers
    /// that own the whole machine (unit tests, single-threaded loops).
    pub fn record(
        &mut self,
        m: &mut Machine,
        store: &KvStore,
        key: u32,
    ) -> Result<Option<MigrationReport>, MigrateError> {
        self.note(key);
        if !self.epoch_due() {
            return Ok(None);
        }
        self.run_epoch(m, store).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Placement;
    use llc_sim::machine::MachineConfig;
    use slice_aware::alloc::SliceAllocator;
    use trafficgen::Rng64;

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(256 << 20))
    }

    fn build(m: &mut Machine, n: usize, placement: Placement) -> KvStore {
        let region = m.mem_mut().alloc(64 << 20, 1 << 20).unwrap();
        let mut alloc = SliceAllocator::new(region, m.slice_oracle());
        KvStore::build(m, &mut alloc, n, placement).unwrap()
    }

    fn setup(n: usize, hot: usize) -> (Machine, KvStore) {
        let mut m = machine();
        let store = build(
            &mut m,
            n,
            Placement::StripedHot {
                slices: vec![0],
                hot_per_core: hot,
            },
        );
        (m, store)
    }

    #[test]
    fn migration_moves_hot_keys_into_the_slice() {
        let (mut m, store) = setup(4096, 16);
        let mut mig = HotMigrator::for_store(&m, &store, 0, 1000).unwrap();
        // Hammer keys 2000..2016 (initially in the cold, contiguous area).
        for i in 0..1000u32 {
            let key = 2000 + (i % 16);
            mig.record(&mut m, &store, key).unwrap();
        }
        for key in 2000..2016 {
            assert!(mig.is_hot(key), "key {key} should have migrated");
            let pa = store.value_pa(&mut m, key);
            assert_eq!(m.slice_of(pa), 0, "migrated value must live in slice 0");
        }
    }

    #[test]
    fn migration_preserves_values() {
        let (mut m, store) = setup(1024, 8);
        // Give distinctive contents to a future-hot key and a current
        // occupant.
        store.set(&mut m, 0, 500, &[0xaa; 64]);
        store.set(&mut m, 0, 3, &[0xbb; 64]);
        let mut mig = HotMigrator::for_store(&m, &store, 0, 100).unwrap();
        for _ in 0..100 {
            mig.record(&mut m, &store, 500).unwrap();
        }
        let mut out = [0u8; 64];
        store.get(&mut m, 0, 500, &mut out);
        assert_eq!(out, [0xaa; 64], "migrated value intact");
        store.get(&mut m, 0, 3, &mut out);
        assert_eq!(out, [0xbb; 64], "evicted value intact");
    }

    #[test]
    fn stable_hot_set_stops_migrating() {
        let (mut m, store) = setup(1024, 4);
        let mut mig = HotMigrator::for_store(&m, &store, 0, 200).unwrap();
        let mut reports = Vec::new();
        for round in 0..3 {
            for i in 0..200u32 {
                let key = 700 + (i % 4);
                if let Some(r) = mig.record(&mut m, &store, key).unwrap() {
                    reports.push((round, r));
                }
            }
        }
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].1.migrated, 4, "first epoch migrates the set");
        assert_eq!(reports[1].1.migrated, 0, "steady state is free");
        assert_eq!(reports[2].1.migrated, 0);
        assert_eq!(reports[1].1.cycles, 0);
        // Epoch hot-hit accounting: epoch 1 saw only cold keys; once the
        // set is resident every access is a hot hit.
        assert_eq!(reports[0].1.hot_hits, 0);
        assert_eq!(reports[1].1.hot_hits, 200);
        assert_eq!(reports[1].1.accesses, 200);
    }

    #[test]
    fn migration_adapts_when_the_hot_set_shifts() {
        // §8's motivating case: "variability of hot data".
        let (mut m, store) = setup(4096, 8);
        let mut mig = HotMigrator::for_store(&m, &store, 0, 400).unwrap();
        for i in 0..400u32 {
            mig.record(&mut m, &store, 1000 + (i % 8)).unwrap();
        }
        assert!(mig.is_hot(1000));
        for i in 0..400u32 {
            mig.record(&mut m, &store, 3000 + (i % 8)).unwrap();
        }
        assert!(mig.is_hot(3000), "new hot set migrated in");
        assert!(!mig.is_hot(1000), "old hot set migrated out");
        let pa = store.value_pa(&mut m, 3000);
        assert_eq!(m.slice_of(pa), 0);
    }

    #[test]
    fn migration_cost_is_accounted() {
        let (mut m, store) = setup(1024, 4);
        let mut mig = HotMigrator::for_store(&m, &store, 0, 50).unwrap();
        let mut report = None;
        for i in 0..50u32 {
            report = mig
                .record(&mut m, &store, 900 + (i % 4))
                .unwrap()
                .or(report);
        }
        let r = report.expect("epoch boundary reached");
        assert_eq!(r.migrated, 4);
        // Each swap copies two 64 B values and rewrites two index entries.
        assert!(r.cycles > 0);
    }

    #[test]
    fn placements_without_a_hot_area_are_rejected() {
        let mut m = machine();
        for placement in [
            Placement::Normal,
            Placement::SliceAware { slice: 0 },
            Placement::Striped {
                slices: vec![0, 2, 4, 6],
            },
        ] {
            let store = build(&mut m, 512, placement.clone());
            let err = HotMigrator::for_store(&m, &store, 0, 100).unwrap_err();
            assert!(
                matches!(err, MigrateError::NoHotArea { core: 0, .. }),
                "{placement:?} must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn striped_hot_migrates_per_core_and_every_get_survives() {
        // The regression the for_store redesign exists for: a *striped*
        // store's resident layout is its key class, not (0..hot_count).
        // The old identity-assuming constructor would corrupt the index
        // on the first swap; for_store must migrate correctly and leave
        // every key's value reachable.
        let cores = 4;
        let n = 1024u32;
        let mut m = machine();
        let slices: Vec<usize> = (0..cores).map(|c| m.closest_slice(c)).collect();
        let store = build(
            &mut m,
            n as usize,
            Placement::StripedHot {
                slices: slices.clone(),
                hot_per_core: 8,
            },
        );
        // Every key gets a distinctive value derived from its id.
        let pattern = |k: u32| [k as u8 ^ (k >> 8) as u8; 64];
        for k in 0..n {
            store.set(&mut m, (k % 4) as usize, k, &pattern(k));
        }
        // Each core hammers a cold stretch of its own class.
        for (core, &home_slice) in slices.iter().enumerate() {
            let mut mig = HotMigrator::for_store(&m, &store, core, 400).unwrap();
            assert_eq!(
                mig.resident,
                store
                    .hot_slots(core)
                    .unwrap()
                    .iter()
                    .map(|&s| s as u32)
                    .collect::<Vec<_>>(),
                "fresh striped store: hot slots hold their own keys"
            );
            let mut migrated = 0;
            for i in 0..400u32 {
                let key = 512 + (core as u32) + 4 * (i % 8);
                if let Some(r) = mig.record(&mut m, &store, key).unwrap() {
                    migrated += r.migrated;
                }
            }
            assert_eq!(migrated, 8, "core {core} migrates its observed set");
            for j in 0..8u32 {
                let key = 512 + (core as u32) + 4 * j;
                assert!(mig.is_hot(key));
                let pa = store.value_pa(&mut m, key);
                assert_eq!(
                    m.slice_of(pa),
                    home_slice,
                    "core {core}'s hot key {key} must live in its slice"
                );
            }
        }
        // The index is still a permutation: every key returns its value.
        let mut out = [0u8; 64];
        for k in 0..n {
            store.get(&mut m, (k % 4) as usize, k, &mut out);
            assert_eq!(out, pattern(k), "key {k} corrupted by migration");
        }
    }

    #[test]
    fn for_store_reads_a_migrated_layout_not_identity() {
        // Second half of the regression: a *new* migrator built against
        // an already-migrated store must see the real residents. The old
        // constructor assumed identity and would have evicted key 900's
        // slot while believing key 0 lived there.
        let (mut m, store) = setup(1024, 4);
        let mut first = HotMigrator::for_store(&m, &store, 0, 50).unwrap();
        for i in 0..50u32 {
            first.record(&mut m, &store, 900 + (i % 4)).unwrap();
        }
        assert!(first.is_hot(900));
        drop(first);
        let second = HotMigrator::for_store(&m, &store, 0, 50).unwrap();
        assert_eq!(
            second.resident,
            &[900, 901, 902, 903],
            "a fresh migrator must read the migrated layout"
        );
        assert!(second.is_hot(901));
        assert!(!second.is_hot(0), "identity assumption is gone");
    }

    #[test]
    fn tied_counts_break_by_key_order() {
        // Every candidate and every evictable occupant has the same
        // count: promotion must pick ascending keys, eviction must evict
        // ascending keys, regardless of hash-map iteration order.
        let (mut m, store) = setup(1024, 4);
        let mut mig = HotMigrator::for_store(&m, &store, 0, 8).unwrap();
        for key in [500u32, 800, 600, 700, 100, 300, 200, 400] {
            mig.record(&mut m, &store, key).unwrap();
        }
        // Top 4 under (count desc, key asc) with all counts == 1:
        // 100, 200, 300, 400.
        assert_eq!(mig.resident, &[100, 200, 300, 400]);
    }

    /// A fixed economics model for boundary tests: saving 10, swap cost
    /// 100, no batch cap, back-off after 3 calm epochs.
    fn fixed_model() -> CostModel {
        CostModel {
            saving_per_hit: 10,
            swap_cost: 100,
            min_epoch: 1,
            max_epoch: 1 << 20,
            max_batch: usize::MAX,
            backoff_epochs: 3,
            wake_mult: 2,
        }
    }

    fn cost_aware_migrator(
        m: &Machine,
        store: &KvStore,
        epoch: usize,
        model: CostModel,
    ) -> HotMigrator {
        HotMigrator::for_store(m, store, 0, epoch)
            .unwrap()
            .with_policy(MigrationPolicy::CostAware(model))
    }

    #[test]
    fn break_even_boundary_vetoes_at_cost_and_swaps_above_it() {
        // saving 10, cost 100: a candidate with net 10 accesses
        // projects exactly 100 — the break-even boundary — and must be
        // vetoed (strict >); net 11 projects 110 and must swap.
        for (net_accesses, expect_swap) in [(9u32, false), (10, false), (11, true)] {
            let (mut m, store) = setup(1024, 4);
            let mut mig = cost_aware_migrator(&m, &store, net_accesses as usize, fixed_model());
            let mut last = None;
            for _ in 0..net_accesses {
                last = mig.record(&mut m, &store, 500).unwrap().or(last);
            }
            let r = last.expect("epoch boundary reached");
            if expect_swap {
                assert_eq!(r.migrated, 1, "net {net_accesses}: must swap");
                assert_eq!(r.vetoed, 0);
                assert!(mig.is_hot(500));
            } else {
                assert_eq!(r.migrated, 0, "net {net_accesses}: must veto");
                assert_eq!(r.vetoed, 1, "the boundary candidate is vetoed");
                assert!(!mig.is_hot(500));
            }
            assert_eq!(r.at_loss, 0, "cost-aware never swaps at a loss");
        }
    }

    #[test]
    fn boundary_nets_out_the_evicted_occupants_accesses() {
        // The swap also moves the occupant *out*: its accesses count
        // against the candidate. 20 hits on the newcomer minus 12 on
        // the coldest occupant = net 8 → 80 ≤ 100 → veto, even though
        // the newcomer alone would clear the bar.
        let (mut m, store) = setup(1024, 1);
        let mut mig = cost_aware_migrator(&m, &store, 32, fixed_model());
        let occupant = mig.resident[0];
        for _ in 0..12 {
            mig.record(&mut m, &store, occupant).unwrap();
        }
        let mut last = None;
        for _ in 0..20 {
            last = mig.record(&mut m, &store, 500).unwrap().or(last);
        }
        let r = last.expect("epoch boundary reached");
        assert_eq!(r.migrated, 0, "net benefit must subtract the occupant");
        assert_eq!(r.vetoed, 1);
    }

    #[test]
    fn batch_cap_defers_approved_swaps_to_the_next_merge() {
        let (mut m, store) = setup(4096, 8);
        let model = CostModel {
            max_batch: 3,
            ..fixed_model()
        };
        let mut mig = cost_aware_migrator(&m, &store, 8 * 200, model);
        // Eight keys, 200 accesses each: profitable (net 2000) by a
        // margin that survives the measured-cost refinement after the
        // first executed batch.
        let hammer = |mig: &mut HotMigrator, m: &mut Machine| {
            let mut last = None;
            for i in 0..8 * 200u32 {
                last = mig.record(m, &store, 2000 + (i % 8)).unwrap().or(last);
            }
            last.expect("epoch boundary reached")
        };
        let r1 = hammer(&mut mig, &mut m);
        assert_eq!(r1.migrated, 3, "first merge executes the batch cap");
        assert_eq!(r1.deferred, 5, "approved remainder is deferred");
        assert_eq!(r1.vetoed, 0);
        let r2 = hammer(&mut mig, &mut m);
        assert_eq!(r2.migrated, 3, "deferred candidates re-qualify");
        assert_eq!(r2.deferred, 2);
        let r3 = hammer(&mut mig, &mut m);
        assert_eq!(r3.migrated, 2, "the tail lands on the third merge");
        assert_eq!(r3.deferred, 0);
        for key in 2000..2008 {
            assert!(mig.is_hot(key), "key {key} eventually migrated");
        }
    }

    #[test]
    fn uniform_traffic_backs_off_and_never_swaps() {
        // Stationary uniform draws: per-epoch counts are all ~equal, no
        // candidate clears the break-even bar, and after backoff_epochs
        // calm epochs the controller goes dormant. Zero swaps, ever.
        let (mut m, store) = setup(1024, 16);
        let mut mig = cost_aware_migrator(&m, &store, 512, fixed_model());
        let mut rng = Rng64::seed_from_u64(0xfeed);
        let mut total_migrated = 0;
        let mut total_at_loss = 0;
        for _ in 0..8 * 512 {
            let key = rng.gen_range(0u32..1024);
            if let Some(r) = mig.record(&mut m, &store, key).unwrap() {
                total_migrated += r.migrated;
                total_at_loss += r.at_loss;
            }
        }
        assert_eq!(total_migrated, 0, "uniform traffic must never migrate");
        assert_eq!(total_at_loss, 0);
        assert!(mig.dormant, "back-off must have engaged");
    }

    #[test]
    fn never_migrates_at_a_loss_under_stationary_uniform_grid() {
        // Seeded property grid over (store size, hot-area size, epoch,
        // measured machine model, seed): under stationary uniform
        // traffic the cost-aware controller executes zero swaps and
        // reports zero at-loss swaps, whatever the geometry.
        let mut meta = Rng64::seed_from_u64(0x10_55);
        for iter in 0..12u64 {
            let n = 1usize << meta.gen_range(8u32..12);
            let hot = 1usize << meta.gen_range(2u32..6);
            let epoch = 128usize << meta.gen_range(0u32..3);
            let seed = meta.next_u64();
            let (mut m, store) = setup(n, hot);
            let model = CostModel::measure(&m, 0);
            let mut mig = cost_aware_migrator(&m, &store, epoch, model);
            let mut rng = Rng64::seed_from_u64(seed);
            let mut migrated = 0usize;
            let mut at_loss = 0u64;
            for _ in 0..6 * epoch {
                let key = rng.gen_range(0u32..n as u32);
                if let Some(r) = mig.record(&mut m, &store, key).unwrap() {
                    migrated += r.migrated;
                    at_loss += r.at_loss;
                }
            }
            assert_eq!(
                migrated, 0,
                "iter {iter} (n {n}, hot {hot}, epoch {epoch}, seed {seed:#x}): \
                 migrated at a loss under uniform traffic"
            );
            assert_eq!(at_loss, 0, "iter {iter}: at-loss swaps reported");
            assert!(mig.dormant, "iter {iter}: back-off never engaged");
        }
    }

    #[test]
    fn dormant_controller_wakes_on_a_clear_hot_set_shift() {
        // Hysteresis: uniform traffic puts the controller to sleep;
        // a genuine hot-set (net benefit > wake_mult × cost) wakes it.
        let (mut m, store) = setup(1024, 4);
        let mut mig = cost_aware_migrator(&m, &store, 256, fixed_model());
        let mut rng = Rng64::seed_from_u64(0xd0d0);
        for _ in 0..4 * 256 {
            let key = rng.gen_range(0u32..1024);
            mig.record(&mut m, &store, key).unwrap();
        }
        assert!(mig.dormant);
        // A skewed phase: 4 keys absorb the whole epoch (64 accesses
        // each → net 640 > 2 × 100).
        let mut migrated = 0;
        for i in 0..2 * 256u32 {
            if let Some(r) = mig.record(&mut m, &store, 600 + (i % 4)).unwrap() {
                migrated += r.migrated;
            }
        }
        assert!(!mig.dormant, "a real hot set must wake the controller");
        assert_eq!(migrated, 4, "the shifted hot set migrated in");
        assert!(mig.is_hot(600));
    }

    #[test]
    fn marginal_candidates_do_not_wake_a_dormant_controller() {
        // Between 1× and wake_mult× the swap cost: an active controller
        // would swap, a dormant one stays asleep — that asymmetry is
        // the hysteresis.
        let (mut m, store) = setup(1024, 1);
        let mut mig = cost_aware_migrator(&m, &store, 16, fixed_model());
        let mut rng = Rng64::seed_from_u64(0xbace);
        for _ in 0..4 * 16 {
            let key = rng.gen_range(0u32..1024);
            mig.record(&mut m, &store, key).unwrap();
        }
        assert!(mig.dormant);
        // One key with 16 accesses: net 160 > 100 (would swap awake)
        // but ≤ 2 × 100 (stays dormant).
        let mut last = None;
        for _ in 0..16 {
            last = mig.record(&mut m, &store, 700).unwrap().or(last);
        }
        let r = last.expect("epoch boundary reached");
        assert_eq!(
            r.migrated, 0,
            "marginal benefit must not wake the controller"
        );
        assert_eq!(r.vetoed, 1);
        assert!(mig.dormant);
    }

    #[test]
    fn swap_cost_estimate_is_refined_from_measured_batches() {
        let (mut m, store) = setup(4096, 8);
        let model = CostModel::measure(&m, 0);
        let initial = model.swap_cost;
        let mut mig = cost_aware_migrator(&m, &store, 2048, model);
        assert_eq!(mig.swap_cost_est, initial);
        // Warm the future-hot keys' index and value lines so their
        // swap reads hit cache: the realized swap is measurably cheaper
        // than the all-miss worst case the model seeds.
        let mut buf = [0u8; 64];
        for key in 2000..2008u32 {
            store.get(&mut m, 0, key, &mut buf);
        }
        // 256 accesses per key: net 2560 clears the 800-cycle seed.
        for i in 0..2048u32 {
            mig.record(&mut m, &store, 2000 + (i % 8)).unwrap();
        }
        assert!(
            mig.swap_cost_est < initial,
            "an executed batch must refine the estimate below the \
             worst-case seed (got {} vs {initial})",
            mig.swap_cost_est
        );
    }

    #[test]
    fn epoch_lengthens_when_a_batch_fails_to_pay_back() {
        // Epoch 1 migrates a hot set; epoch 2's traffic shifts entirely
        // away from it (uniform), so the realized benefit of the paid
        // batch is ~0 < its cost: the tuner must double the epoch and
        // count a loss epoch.
        let (mut m, store) = setup(4096, 8);
        let mut mig = cost_aware_migrator(&m, &store, 512, fixed_model());
        for i in 0..512u32 {
            mig.record(&mut m, &store, 2000 + (i % 8)).unwrap();
        }
        assert_eq!(mig.epoch_len, 512, "no tuning signal after one batch");
        assert_eq!(mig.loss_epochs, 0);
        let mut rng = Rng64::seed_from_u64(0xabad);
        for _ in 0..512 {
            let key = rng.gen_range(0u32..1024);
            mig.record(&mut m, &store, key).unwrap();
        }
        assert_eq!(mig.loss_epochs, 1, "the unpaid batch is a loss epoch");
        assert_eq!(mig.epoch_len, 1024, "loss must double the epoch");
    }

    #[test]
    fn epoch_shortens_when_the_batch_pays_back_richly() {
        // A stable hot set: the batch's cost is recouped many times
        // over by the next epoch's hot hits, so the tuner shortens the
        // epoch (down to min_epoch) to track churn faster.
        let (mut m, store) = setup(4096, 8);
        let model = fixed_model().with_epoch_bounds(128, 1 << 20);
        let mut mig = cost_aware_migrator(&m, &store, 2048, model);
        // Two hot keys: the batch costs ~2 swaps, the following epoch's
        // 2048 hot hits realize ≥ 8× that.
        for _round in 0..3 {
            for i in 0..2048u32 {
                mig.record(&mut m, &store, 2000 + (i % 2)).unwrap();
            }
        }
        assert!(
            mig.epoch_len < 2048,
            "a richly paying batch must shorten the epoch, got {}",
            mig.epoch_len
        );
        assert_eq!(mig.loss_epochs, 0);
    }

    #[test]
    fn always_policy_reports_its_at_loss_swaps() {
        // The baseline policy swaps unconditionally; the measured
        // economics must flag tail swaps that project a loss.
        let (mut m, store) = setup(1024, 8);
        let mut mig = HotMigrator::for_store(&m, &store, 0, 64).unwrap();
        // One genuinely hot key, seven one-hit wonders.
        let mut last = None;
        for i in 0..64u32 {
            let key = if i < 57 { 500 } else { 600 + i };
            last = mig.record(&mut m, &store, key).unwrap().or(last);
        }
        let r = last.expect("epoch boundary reached");
        assert_eq!(r.migrated, 8, "Always promotes the full top set");
        assert!(
            r.at_loss >= 7,
            "the one-hit wonders project a loss, got {}",
            r.at_loss
        );
        assert_eq!(r.vetoed, 0, "Always never vetoes");
        assert_eq!(r.deferred, 0, "Always never defers");
    }

    #[test]
    fn cost_model_is_measured_from_the_machine() {
        let m = machine();
        let model = CostModel::measure(&m, 0);
        // The saving is the real slice-latency spread, not a constant.
        let near = u64::from(m.llc_latency(0, m.closest_slice(0)));
        let far: u64 = (0..m.config().slices)
            .map(|s| u64::from(m.llc_latency(0, s)))
            .max()
            .unwrap();
        assert!(model.saving_per_hit >= 1);
        assert!(model.saving_per_hit <= far - near);
        // The swap-cost seed prices the swap's memory operations from
        // the machine's own constants.
        assert_eq!(
            model.swap_cost,
            4 * u64::from(m.config().dram_latency) + 4 * u64::from(m.config().store_miss_cost)
        );
        // Different cores can see different slice geometry but must
        // measure a positive saving everywhere.
        for core in 0..m.config().cores {
            assert!(CostModel::measure(&m, core).saving_per_hit >= 1);
        }
    }

    #[test]
    fn migrate_error_exhaustive_match_and_display() {
        // Exhaustive match: adding a MigrateError variant must break
        // this test (no wildcard arm), and every variant's Display must
        // carry its diagnostic payload.
        let errs = [
            MigrateError::NoHotArea {
                core: 3,
                placement: "Striped".into(),
            },
            MigrateError::Swap(SwapError::KeyOutOfRange { key: 9, len: 4 }),
        ];
        for e in errs {
            let msg = match &e {
                MigrateError::NoHotArea { core, placement } => {
                    let m = e.to_string();
                    assert!(m.contains(&core.to_string()) && m.contains(placement.as_str()));
                    m
                }
                MigrateError::Swap(SwapError::KeyOutOfRange { key, len }) => {
                    let m = e.to_string();
                    assert!(m.contains(&key.to_string()) && m.contains(&len.to_string()));
                    m
                }
            };
            assert!(!msg.is_empty());
            // MigrateError is a std::error::Error with a useful Debug.
            let _: &dyn std::error::Error = &e;
            assert!(!format!("{e:?}").is_empty());
        }
        // From<SwapError> keeps the payload intact.
        let e: MigrateError = SwapError::KeyOutOfRange { key: 7, len: 2 }.into();
        assert_eq!(
            e,
            MigrateError::Swap(SwapError::KeyOutOfRange { key: 7, len: 2 })
        );
    }
}
