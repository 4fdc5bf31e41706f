//! The value store: index array + 64 B value slots.

use llc_sim::addr::PhysAddr;
use llc_sim::epoch::CoreMem;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use llc_sim::mem::Region;
use llc_sim::CACHE_LINE;
use slice_aware::alloc::{AllocError, SliceAllocator, SliceBuffer};

/// Where value slots are placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Contiguous allocation: values spread over all slices (baseline).
    Normal,
    /// Every value slot maps to `slice` (the serving core's closest).
    SliceAware {
        /// Target slice.
        slice: usize,
    },
    /// Slot `k` maps to `slices[k % slices.len()]`: the multi-queue
    /// server's per-core partition (§8 applied across cores). Core *i*
    /// of *N* serves the key class `k ≡ i (mod N)`, so giving
    /// `slices[i] = closest_slice(i)` homes every value a core serves
    /// in that core's closest slice.
    Striped {
        /// One target slice per serving core, in core order.
        slices: Vec<usize>,
    },
    /// The composition of §8's two refinements: the per-core residue
    /// partition of [`Placement::Striped`] *and* a hot/cold split.
    /// Core *i* of *N* still owns the key class `k ≡ i (mod N)` (so
    /// concurrent workers' SETs stay disjoint), but only the class's
    /// *hot area* — its first `hot_per_core` slots — is pinned to
    /// `slices[i]`, the core's closest slice. The cold tail is allocated
    /// contiguously and spreads over every slice, so a store much larger
    /// than one slice keeps the whole LLC's capacity for its long tail
    /// instead of confining each class to one slice's worth of sets.
    ///
    /// With one slice this is the single-core §8 refinement for stores
    /// larger than a slice ("applications which only use slice-aware
    /// memory management for the 'hot' data"): the hottest
    /// `hot_per_core` slots (the lowest key ranks) map to `slices[0]`
    /// and the rest are contiguous, which keeps the latency advantage
    /// for the popular keys without forfeiting the other slices'
    /// capacity for the long tail.
    ///
    /// The hot slots are the migration target of
    /// [`crate::migrate::HotMigrator`]: at epoch boundaries the
    /// observed-hot keys of each class are swapped into that class's
    /// hot area.
    StripedHot {
        /// One target slice per serving core, in core order.
        slices: Vec<usize>,
        /// Hot (slice-local) slots per core's class.
        hot_per_core: usize,
    },
}

impl Placement {
    /// The hot (slice-local, migration-target) slot numbers `core` owns
    /// under this placement in a store of `n` slots, or `None` when the
    /// placement has no hot area (or none for that core).
    pub(crate) fn hot_slots(&self, core: usize, n: usize) -> Option<Vec<usize>> {
        match self {
            Placement::StripedHot {
                slices,
                hot_per_core,
            } => {
                let stride = slices.len();
                if core >= stride {
                    return None;
                }
                Some(
                    (0..*hot_per_core)
                        .map(|j| j * stride + core)
                        .take_while(|&k| k < n)
                        .collect(),
                )
            }
            Placement::Normal | Placement::SliceAware { .. } | Placement::Striped { .. } => None,
        }
    }
}

/// The emulated store.
#[derive(Debug)]
pub struct KvStore {
    /// One 64 B line per value: the striped placements' slice-local
    /// lines, then the contiguous cold run as a base address.
    slots: SliceBuffer,
    /// Direct-mapped index: `n` little-endian u32 slot numbers in
    /// simulated memory (contiguous in both modes).
    index: Region,
    placement: Placement,
}

/// Per-operation fixed work: request dispatch, bounds checks, response
/// bookkeeping.
pub(crate) const OP_WORK: Cycles = 20;

impl KvStore {
    /// Builds a store of `n` values placed per `placement`.
    ///
    /// The index is initialised to the identity permutation (slot *k*
    /// holds key *k*'s value), which mirrors the paper's key range
    /// `[0, 2^24)`.
    pub fn build<F: FnMut(PhysAddr) -> usize>(
        m: &mut Machine,
        alloc: &mut SliceAllocator<F>,
        n: usize,
        placement: Placement,
    ) -> Result<Self, BuildError> {
        let slots = match &placement {
            Placement::Normal => alloc.alloc_contiguous_lines(n)?,
            Placement::SliceAware { slice } => alloc.alloc_lines_exclusive(*slice, n)?,
            Placement::Striped { slices } => {
                assert!(!slices.is_empty(), "striped placement needs a slice list");
                striped_slots(alloc, n, slices, usize::MAX)?
            }
            Placement::StripedHot {
                slices,
                hot_per_core,
            } => {
                assert!(
                    !slices.is_empty(),
                    "striped-hot placement needs a slice list"
                );
                assert!(*hot_per_core > 0, "striped-hot placement needs a hot area");
                striped_slots(alloc, n, slices, *hot_per_core)?
            }
        };
        let index = m
            .mem_mut()
            .alloc(n * 4, CACHE_LINE)
            .map_err(BuildError::Mem)?;
        for k in 0..n {
            m.mem_mut()
                .write(index.pa(k * 4), &(k as u32).to_le_bytes());
        }
        Ok(Self {
            slots,
            index,
            placement,
        })
    }

    /// Number of values.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The configured placement.
    pub(crate) fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The hot (slice-local, migration-target) slots `core` owns, or
    /// `None` when the placement has no hot area for that core. See
    /// [`Placement::hot_slots`].
    pub(crate) fn hot_slots(&self, core: usize) -> Option<Vec<usize>> {
        self.placement.hot_slots(core, self.len())
    }

    /// The keys currently homed in `slots`, in slot order — the store's
    /// *actual* resident layout, read from the live index with one
    /// untimed scan. [`crate::migrate::HotMigrator::for_store`] uses
    /// this instead of assuming the identity layout, so a store that
    /// has already been migrated (or striped) is described faithfully.
    ///
    /// # Panics
    ///
    /// Panics when a requested slot is out of range or unoccupied (the
    /// index is a permutation, so every in-range slot has exactly one
    /// key).
    pub(crate) fn residents(&self, m: &Machine, slots: &[usize]) -> Vec<u32> {
        let n = self.len();
        // Dense position table: `pos[slot]` is the slot's index in `slots`,
        // `usize::MAX` for a slot nobody asked for.
        let mut pos = vec![usize::MAX; slots.iter().max().map_or(0, |&s| s + 1)];
        for (i, &s) in slots.iter().enumerate() {
            assert!(s < n, "hot slot {s} out of range");
            pos[s] = i;
        }
        let mut out = vec![u32::MAX; slots.len()];
        let mut found = 0usize;
        let index = m.mem().slice(self.index.base(), n * 4);
        for (key, b) in index.chunks_exact(4).enumerate() {
            if found == slots.len() {
                break;
            }
            let slot = u32::from_le_bytes(b.try_into().expect("4-byte chunk")) as usize;
            if let Some(&i) = pos.get(slot).filter(|&&i| i != usize::MAX) {
                out[i] = key as u32;
                found += 1;
            }
        }
        assert_eq!(found, slots.len(), "index must cover every hot slot");
        out
    }

    /// Timed index lookup: one memory access into the index array.
    fn slot_of<M: CoreMem + ?Sized>(&self, m: &mut M, core: usize, key: u32) -> (usize, Cycles) {
        let mut b = [0u8; 4];
        let c = m.read_bytes(core, self.index.pa(key as usize * 4), &mut b);
        (u32::from_le_bytes(b) as usize, c)
    }

    /// GET: index lookup + 64 B value read into `out`.
    ///
    /// Generic over [`CoreMem`] so it can run against a per-worker
    /// machine shard during engine epochs as well as a whole
    /// [`Machine`].
    ///
    /// # Panics
    ///
    /// Panics when `key` is out of range or `out` is shorter than 64 B.
    pub fn get<M: CoreMem + ?Sized>(
        &self,
        m: &mut M,
        core: usize,
        key: u32,
        out: &mut [u8],
    ) -> Cycles {
        assert!((key as usize) < self.len(), "key out of range");
        let (slot, mut cycles) = self.slot_of(m, core, key);
        cycles += m.read_bytes(core, self.slots.line(slot), &mut out[..CACHE_LINE]);
        m.advance(core, OP_WORK);
        cycles + OP_WORK
    }

    /// SET: index lookup + 64 B value write.
    ///
    /// Takes `&self`: the mutation lives entirely in simulated memory
    /// (behind `m`), so concurrent workers may share one store as long
    /// as their key classes are disjoint — the multi-queue partition of
    /// §8, and the [`llc_sim::epoch::SharedMem`] write-disjointness
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics when `key` is out of range or `data` is shorter than 64 B.
    pub fn set<M: CoreMem + ?Sized>(
        &self,
        m: &mut M,
        core: usize,
        key: u32,
        data: &[u8],
    ) -> Cycles {
        assert!((key as usize) < self.len(), "key out of range");
        let (slot, mut cycles) = self.slot_of(m, core, key);
        cycles += m.write_bytes(core, self.slots.line(slot), &data[..CACHE_LINE]);
        m.advance(core, OP_WORK);
        cycles + OP_WORK
    }

    /// The physical address of `key`'s value (inspection).
    pub fn value_pa(&self, m: &mut Machine, key: u32) -> PhysAddr {
        let mut b = [0u8; 4];
        m.mem().read(self.index.pa(key as usize * 4), &mut b);
        self.slots.line(u32::from_le_bytes(b) as usize)
    }

    /// Exchanges the storage homes of two keys: swaps their 64 B values
    /// and their index entries, all timed on `core`. The migration
    /// primitive of [`crate::migrate`] (paper §8): swapping a hot key
    /// with a hot-slot occupant moves the hot value into the slice-local
    /// area.
    ///
    /// `a == b` is a free no-op (`Ok(0)`, no cycles charged); a key
    /// outside the store is a typed [`SwapError`], with no partial
    /// write and no cycles charged. Takes `&self` like [`KvStore::set`]:
    /// the mutation lives entirely in simulated memory. Index entries of
    /// different key classes share cache lines, so concurrent workers
    /// must NOT swap during engine epochs — the migration loop runs at
    /// the epoch merge, on the coordinator.
    pub(crate) fn swap_keys(
        &self,
        m: &mut Machine,
        core: usize,
        a: u32,
        b: u32,
    ) -> Result<Cycles, SwapError> {
        for key in [a, b] {
            if key as usize >= self.len() {
                return Err(SwapError::KeyOutOfRange {
                    key,
                    len: self.len(),
                });
            }
        }
        if a == b {
            return Ok(0);
        }
        let (slot_a, mut cycles) = self.slot_of(m, core, a);
        let (slot_b, c) = self.slot_of(m, core, b);
        cycles += c;
        // Swap the values.
        let mut va = [0u8; CACHE_LINE];
        let mut vb = [0u8; CACHE_LINE];
        cycles += m.read_bytes(core, self.slots.line(slot_a), &mut va);
        cycles += m.read_bytes(core, self.slots.line(slot_b), &mut vb);
        cycles += m.write_bytes(core, self.slots.line(slot_a), &vb);
        cycles += m.write_bytes(core, self.slots.line(slot_b), &va);
        // Swap the index entries.
        cycles += m.write_bytes(
            core,
            self.index.pa(a as usize * 4),
            &(slot_b as u32).to_le_bytes(),
        );
        cycles += m.write_bytes(
            core,
            self.index.pa(b as usize * 4),
            &(slot_a as u32).to_le_bytes(),
        );
        Ok(cycles)
    }
}

/// The slots of a striped store: slot `k` with `k / s < hot_per_core`
/// (`s = slices.len()`) is the next line of class `k mod s`'s pool in
/// `slices[k mod s]`, and the slots from `s × hot_per_core` on are one
/// contiguous run that spreads over every slice, kept as its base
/// address. `Striped` is the case with no cold run.
fn striped_slots<F: FnMut(PhysAddr) -> usize>(
    alloc: &mut SliceAllocator<F>,
    n: usize,
    slices: &[usize],
    hot_per_core: usize,
) -> Result<SliceBuffer, AllocError> {
    let s = slices.len();
    let hot = n.min(s.saturating_mul(hot_per_core));
    // Class r's pool: its slots below `hot`, pinned to slices[r].
    let pools = slices
        .iter()
        .enumerate()
        .map(|(r, &slice)| {
            let count = if r < hot { (hot - r).div_ceil(s) } else { 0 };
            alloc.alloc_lines(slice, count)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cold = alloc.alloc_contiguous_lines(n - hot)?;
    let mut cursors: Vec<_> = pools.iter().map(SliceBuffer::lines).collect();
    let head = (0..hot)
        .map(|k| cursors[k % s].next().expect("pool sized per class"))
        .collect();
    Ok(cold.prepend(head))
}

/// A rejected [`KvStore::swap_keys`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapError {
    /// One of the keys is outside the store.
    KeyOutOfRange {
        /// The offending key.
        key: u32,
        /// The store's size.
        len: usize,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::KeyOutOfRange { key, len } => {
                write!(f, "cannot swap key {key}: store holds {len} keys")
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// Store construction failures.
#[derive(Debug)]
pub enum BuildError {
    /// Slice-aware carving failed.
    Alloc(AllocError),
    /// Index reservation failed.
    Mem(llc_sim::mem::MemError),
}

impl From<AllocError> for BuildError {
    fn from(e: AllocError) -> Self {
        BuildError::Alloc(e)
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Alloc(e) => write!(f, "value allocation failed: {e}"),
            BuildError::Mem(e) => write!(f, "index allocation failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn setup(region_mb: usize) -> (Machine, SliceAllocator<impl FnMut(PhysAddr) -> usize>) {
        let mut m = Machine::new(
            MachineConfig::haswell_e5_2667_v3().with_dram_capacity((region_mb * 3) << 20),
        );
        let r = m.mem_mut().alloc(region_mb << 20, 1 << 20).unwrap();
        let alloc = SliceAllocator::new(r, m.slice_oracle());
        (m, alloc)
    }

    /// The reference layout, one explicit address per slot: per-class
    /// pools interleaved, then the cold slots taken one by one from a
    /// contiguous run.
    fn explicit_slot_list<F: FnMut(PhysAddr) -> usize>(
        alloc: &mut SliceAllocator<F>,
        n: usize,
        placement: &Placement,
    ) -> Vec<PhysAddr> {
        let (slices, hot_per_core) = match placement {
            Placement::Normal => return alloc.alloc_contiguous_lines(n).unwrap().lines().collect(),
            Placement::SliceAware { slice } => {
                return alloc
                    .alloc_lines_exclusive(*slice, n)
                    .unwrap()
                    .lines()
                    .collect()
            }
            Placement::Striped { slices } => (slices, None),
            Placement::StripedHot {
                slices,
                hot_per_core,
            } => (slices, Some(*hot_per_core)),
        };
        let s = slices.len();
        let mut pools: Vec<std::vec::IntoIter<PhysAddr>> = Vec::new();
        let mut pooled = 0;
        for (r, &slice) in slices.iter().enumerate() {
            let class_len = if r < n { (n - r).div_ceil(s) } else { 0 };
            let count = hot_per_core.map_or(class_len, |h| h.min(class_len));
            pooled += count;
            let pool: Vec<PhysAddr> = alloc.alloc_lines(slice, count).unwrap().lines().collect();
            pools.push(pool.into_iter());
        }
        let cold: Vec<PhysAddr> = match hot_per_core {
            Some(_) => alloc
                .alloc_contiguous_lines(n - pooled)
                .unwrap()
                .lines()
                .collect(),
            None => Vec::new(),
        };
        let mut cold = cold.into_iter();
        (0..n)
            .map(|k| match hot_per_core {
                Some(h) if k / s >= h => cold.next().unwrap(),
                _ => pools[k % s].next().unwrap(),
            })
            .collect()
    }

    /// The store keeps its cold run as a base address, not a list: every
    /// slot must sit on the line the explicit reference layout gives it,
    /// or every KVS figure and digest moves.
    #[test]
    fn slot_addresses_match_the_explicit_slot_list() {
        let four = vec![0usize, 2, 4, 6];
        let striped_hot = |slices: &[usize], hot_per_core| Placement::StripedHot {
            slices: slices.to_vec(),
            hot_per_core,
        };
        let cases = [
            (2048, Placement::Normal),
            (1027, Placement::SliceAware { slice: 5 }),
            (
                1027,
                Placement::Striped {
                    slices: four.clone(),
                },
            ),
            (4096, striped_hot(&four, 64)),
            (4099, striped_hot(&four, 64)),
            // Fewer slots than hot places: every slot hot, empty tail.
            (250, striped_hot(&four, 100)),
            (1000, striped_hot(&[3, 5, 7], 333)),
            (1000, striped_hot(&[3], 100)),
        ];
        for (n, placement) in cases {
            let (mut m, mut a) = setup(16);
            let kv = KvStore::build(&mut m, &mut a, n, placement.clone()).unwrap();
            let (_, mut twin) = setup(16);
            let want = explicit_slot_list(&mut twin, n, &placement);
            assert_eq!(kv.len(), want.len(), "{placement:?}");
            for (k, &pa) in want.iter().enumerate() {
                assert_eq!(kv.value_pa(&mut m, k as u32), pa, "{placement:?} slot {k}");
            }
        }
    }

    #[test]
    fn get_returns_what_set_stored() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(&mut m, &mut a, 1024, Placement::Normal).unwrap();
        let value = [0xabu8; 64];
        kv.set(&mut m, 0, 42, &value);
        let mut out = [0u8; 64];
        kv.get(&mut m, 0, 42, &mut out);
        assert_eq!(out, value);
    }

    #[test]
    fn slice_aware_values_all_in_target_slice() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(&mut m, &mut a, 2048, Placement::SliceAware { slice: 0 }).unwrap();
        for key in [0u32, 1, 100, 2047] {
            let pa = kv.value_pa(&mut m, key);
            assert_eq!(m.slice_of(pa), 0, "key {key}");
        }
    }

    #[test]
    fn striped_values_follow_their_residue_class() {
        let (mut m, mut a) = setup(16);
        let slices = vec![0usize, 2, 4, 6];
        let kv = KvStore::build(
            &mut m,
            &mut a,
            1024,
            Placement::Striped {
                slices: slices.clone(),
            },
        )
        .unwrap();
        for k in 0..128u32 {
            let pa = kv.value_pa(&mut m, k);
            assert_eq!(
                m.slice_of(pa),
                slices[(k % 4) as usize],
                "key {k} must live in its core's slice"
            );
        }
    }

    #[test]
    fn normal_values_spread_over_slices() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(&mut m, &mut a, 2048, Placement::Normal).unwrap();
        let slices: std::collections::HashSet<usize> = (0..2048u32)
            .map(|k| {
                let pa = kv.value_pa(&mut m, k);
                m.slice_of(pa)
            })
            .collect();
        assert_eq!(slices.len(), 8, "contiguous memory covers every slice");
    }

    #[test]
    fn hot_get_is_cheaper_slice_aware() {
        let (mut m, mut a) = setup(32);
        let mut out = [0u8; 64];
        let closest = m.closest_slice(0);
        let kv_aware = KvStore::build(
            &mut m,
            &mut a,
            4096,
            Placement::SliceAware { slice: closest },
        )
        .unwrap();
        let kv_norm = KvStore::build(&mut m, &mut a, 4096, Placement::Normal).unwrap();
        // Find keys whose value is in a far slice under normal placement.
        let far = *m.slices_by_distance(0).last().unwrap();
        let far_key = (0..4096u32)
            .find(|&k| {
                let pa = kv_norm.value_pa(&mut m, k);
                m.slice_of(pa) == far
            })
            .unwrap();
        // Warm both values into the LLC only (via DMA placement).
        let pa_aware = kv_aware.value_pa(&mut m, 7);
        let pa_norm = kv_norm.value_pa(&mut m, far_key);
        m.dma_place(pa_aware, 64);
        m.dma_place(pa_norm, 64);
        // Also warm the index lines so both GETs differ only in the value.
        kv_aware.get(&mut m, 0, 7, &mut out);
        kv_norm.get(&mut m, 0, far_key, &mut out);
        m.dma_place(pa_aware, 64);
        m.dma_place(pa_norm, 64);
        m.clflush(0, pa_aware); // Force back out of L1/L2...
        m.clflush(0, pa_norm);
        m.dma_place(pa_aware, 64); // ...and back into LLC only.
        m.dma_place(pa_norm, 64);
        let c_aware = kv_aware.get(&mut m, 0, 7, &mut out);
        let c_norm = kv_norm.get(&mut m, 0, far_key, &mut out);
        assert!(
            c_aware < c_norm,
            "near-slice GET {c_aware} must beat far-slice GET {c_norm}"
        );
    }

    #[test]
    #[should_panic(expected = "key out of range")]
    fn get_rejects_out_of_range() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(&mut m, &mut a, 64, Placement::Normal).unwrap();
        let mut out = [0u8; 64];
        kv.get(&mut m, 0, 64, &mut out);
    }

    #[test]
    fn striped_hot_pins_hot_slots_and_spreads_the_tail() {
        let (mut m, mut a) = setup(32);
        let slices = vec![0usize, 2, 4, 6];
        let kv = KvStore::build(
            &mut m,
            &mut a,
            4096,
            Placement::StripedHot {
                slices: slices.clone(),
                hot_per_core: 64,
            },
        )
        .unwrap();
        // Hot slots (k/4 < 64) live in their class's slice.
        for k in 0..(64 * 4) as u32 {
            let pa = kv.value_pa(&mut m, k);
            assert_eq!(
                m.slice_of(pa),
                slices[(k % 4) as usize],
                "hot key {k} must be slice-local"
            );
        }
        // The cold tail spreads over every slice (full-LLC capacity).
        let tail_slices: std::collections::HashSet<usize> = ((64 * 4)..4096u32)
            .map(|k| {
                let pa = kv.value_pa(&mut m, k);
                m.slice_of(pa)
            })
            .collect();
        assert_eq!(tail_slices.len(), 8, "cold tail covers every slice");
    }

    #[test]
    fn striped_hot_declares_per_core_hot_slots() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(
            &mut m,
            &mut a,
            1024,
            Placement::StripedHot {
                slices: vec![0, 2],
                hot_per_core: 3,
            },
        )
        .unwrap();
        assert_eq!(kv.hot_slots(0), Some(vec![0, 2, 4]));
        assert_eq!(kv.hot_slots(1), Some(vec![1, 3, 5]));
        assert_eq!(kv.hot_slots(2), None, "core 2 serves no class");
        let residents = kv.residents(&m, &[1, 3, 5]);
        assert_eq!(residents, vec![1, 3, 5], "identity index at build time");
    }

    #[test]
    fn residents_match_a_brute_force_index_scan() {
        let (mut m, mut a) = setup(32);
        let n = 4096;
        let kv = KvStore::build(
            &mut m,
            &mut a,
            n,
            Placement::StripedHot {
                slices: vec![0, 2, 4, 6],
                hot_per_core: 64,
            },
        )
        .unwrap();
        // Scramble the index so residents are no longer the identity.
        let mut rng = trafficgen::Rng64::seed_from_u64(7);
        for _ in 0..2000 {
            let (x, y) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            kv.swap_keys(&mut m, 0, x, y).unwrap();
        }
        let slot_of = |key: usize| {
            let mut b = [0u8; 4];
            m.mem().read(kv.index.pa(key * 4), &mut b);
            u32::from_le_bytes(b) as usize
        };
        let brute = |slots: &[usize]| -> Vec<u32> {
            slots
                .iter()
                .map(|&s| (0..n).find(|&k| slot_of(k) == s).unwrap() as u32)
                .collect()
        };
        for core in 0..4 {
            let slots = kv.hot_slots(core).unwrap();
            let residents = kv.residents(&m, &slots);
            assert_ne!(
                residents,
                slots.iter().map(|&s| s as u32).collect::<Vec<_>>()
            );
            assert_eq!(residents, brute(&slots), "core {core}");
        }
        // Any slots in any order, the last slot and the empty list too.
        for slots in [vec![n - 1, 0, 17, 1000], vec![]] {
            assert_eq!(kv.residents(&m, &slots), brute(&slots));
        }
    }

    #[test]
    fn striped_and_normal_declare_no_hot_area() {
        let (mut m, mut a) = setup(16);
        let kv =
            KvStore::build(&mut m, &mut a, 256, Placement::Striped { slices: vec![0] }).unwrap();
        assert_eq!(kv.hot_slots(0), None);
        let kv = KvStore::build(&mut m, &mut a, 256, Placement::Normal).unwrap();
        assert_eq!(kv.hot_slots(0), None);
    }

    #[test]
    fn swap_self_is_a_free_noop() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(&mut m, &mut a, 128, Placement::Normal).unwrap();
        kv.set(&mut m, 0, 9, &[0x5a; 64]);
        let home = kv.value_pa(&mut m, 9);
        let before = m.now(0);
        assert_eq!(kv.swap_keys(&mut m, 0, 9, 9), Ok(0), "self-swap is free");
        assert_eq!(m.now(0), before, "no cycles charged");
        assert_eq!(kv.value_pa(&mut m, 9), home, "index entry untouched");
        let mut out = [0u8; 64];
        kv.get(&mut m, 0, 9, &mut out);
        assert_eq!(out, [0x5a; 64]);
    }

    #[test]
    fn swap_absent_key_is_a_typed_error_not_a_panic() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(&mut m, &mut a, 128, Placement::Normal).unwrap();
        let home5 = kv.value_pa(&mut m, 5);
        let before = m.now(0);
        assert_eq!(
            kv.swap_keys(&mut m, 0, 5, 128),
            Err(SwapError::KeyOutOfRange { key: 128, len: 128 })
        );
        assert_eq!(
            kv.swap_keys(&mut m, 0, 4096, 5),
            Err(SwapError::KeyOutOfRange {
                key: 4096,
                len: 128
            })
        );
        assert_eq!(m.now(0), before, "rejected swaps charge nothing");
        // And the store is untouched: key 5 still maps to slot 5, and
        // the surviving key of each rejected pair kept its home — no
        // partial write even when the *second* key is the bad one.
        assert_eq!(kv.residents(&m, &[5]), vec![5]);
        assert_eq!(kv.value_pa(&mut m, 5), home5, "index untouched");
    }

    #[test]
    fn swap_error_exhaustive_match_and_display() {
        // No wildcard arm: adding a SwapError variant must break this
        // test, and the Display must carry the diagnostic payload.
        let e = SwapError::KeyOutOfRange {
            key: 4096,
            len: 128,
        };
        match e {
            SwapError::KeyOutOfRange { key, len } => {
                assert_eq!((key, len), (4096, 128));
            }
        }
        let msg = e.to_string();
        assert!(msg.contains("4096") && msg.contains("128"), "{msg}");
        let _: &dyn std::error::Error = &e;
        assert_eq!(e, e.clone(), "SwapError is comparable for test use");
    }

    #[test]
    fn swap_exchanges_homes_and_residents_reflect_it() {
        let (mut m, mut a) = setup(16);
        let kv = KvStore::build(&mut m, &mut a, 128, Placement::Normal).unwrap();
        kv.set(&mut m, 0, 3, &[0x33; 64]);
        kv.set(&mut m, 0, 77, &[0x77; 64]);
        let cycles = kv.swap_keys(&mut m, 0, 3, 77).unwrap();
        assert!(cycles > 0, "a real swap costs cycles");
        assert_eq!(kv.residents(&m, &[3, 77]), vec![77, 3], "homes exchanged");
        let mut out = [0u8; 64];
        kv.get(&mut m, 0, 3, &mut out);
        assert_eq!(out, [0x33; 64], "values follow their keys");
        kv.get(&mut m, 0, 77, &mut out);
        assert_eq!(out, [0x77; 64]);
    }
}
