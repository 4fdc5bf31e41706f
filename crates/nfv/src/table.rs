//! An open-addressing flow table in simulated memory.
//!
//! The stateful elements (NAPT, load balancer) key per-flow state on the
//! 5-tuple. Each bucket occupies exactly one cache line, so a lookup is
//! one hash computation plus (usually) one memory access — and that
//! access walks the simulated hierarchy, which is where the real cost of
//! stateful NFs comes from.

use llc_sim::addr::PhysAddr;
use llc_sim::epoch::CoreMem;
use llc_sim::hierarchy::Cycles;
use llc_sim::machine::Machine;
use llc_sim::mem::{MemError, Region};
use llc_sim::CACHE_LINE;
use trafficgen::FlowTuple;

/// Bucket layout within a 64 B line:
/// `[0] state (0 empty / 1 used)`, `[1..14] packed key`, `[16..24] value`.
const STATE_OFF: u64 = 0;
const KEY_OFF: u64 = 1;
const VAL_OFF: u64 = 16;
const KEY_LEN: usize = 13;

/// Hash-computation work charged per operation.
pub(crate) const HASH_WORK: Cycles = 15;

/// Serialises a flow key into 13 bytes.
fn pack_key(f: &FlowTuple) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[0..4].copy_from_slice(&f.src_ip.to_be_bytes());
    k[4..8].copy_from_slice(&f.dst_ip.to_be_bytes());
    k[8..10].copy_from_slice(&f.src_port.to_be_bytes());
    k[10..12].copy_from_slice(&f.dst_port.to_be_bytes());
    k[12] = f.proto;
    k
}

/// FNV-1a over the packed key (host-side arithmetic; charged as
/// [`HASH_WORK`]).
fn hash_key(k: &[u8; KEY_LEN]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in k {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors from flow-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// All buckets along the probe path are occupied.
    Full,
}

/// An open-addressing (linear probing) flow table of `2^k` one-line
/// buckets in simulated memory.
#[derive(Debug)]
pub struct FlowTable {
    region: Region,
    buckets: usize,
    used: usize,
    /// Probe cap: linear probing degrades past ~70 % load; the table
    /// refuses inserts that would probe further.
    max_probes: usize,
}

impl FlowTable {
    /// Creates an empty table of `buckets` (a power of two) buckets.
    ///
    /// # Panics
    ///
    /// Panics when `buckets` is not a power of two.
    pub fn create(m: &mut Machine, buckets: usize) -> Result<Self, MemError> {
        assert!(buckets.is_power_of_two(), "bucket count must be 2^k");
        let region = m.mem_mut().alloc(buckets * CACHE_LINE, CACHE_LINE)?;
        // Simulated memory starts zeroed; state 0 = empty.
        Ok(Self {
            region,
            buckets,
            used: 0,
            max_probes: 32,
        })
    }

    /// Occupied buckets.
    pub fn len(&self) -> usize {
        self.used
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.used == 0
    }

    fn bucket_pa(&self, i: usize) -> PhysAddr {
        self.region.pa((i & (self.buckets - 1)) * CACHE_LINE)
    }

    /// Timed lookup. Returns the value and the cycles spent probing.
    pub fn lookup<M: CoreMem + ?Sized>(
        &self,
        m: &mut M,
        core: usize,
        flow: &FlowTuple,
    ) -> (Option<u64>, Cycles) {
        let key = pack_key(flow);
        let h = hash_key(&key) as usize;
        m.advance(core, HASH_WORK);
        let mut cycles = HASH_WORK;
        for p in 0..self.max_probes {
            let pa = self.bucket_pa(h + p);
            let mut line = [0u8; 24];
            cycles += m.read_bytes(core, pa, &mut line);
            if line[STATE_OFF as usize] == 0 {
                return (None, cycles);
            }
            if line[KEY_OFF as usize..KEY_OFF as usize + KEY_LEN] == key {
                let v = u64::from_le_bytes(
                    line[VAL_OFF as usize..VAL_OFF as usize + 8]
                        .try_into()
                        .expect("8 bytes"),
                );
                return (Some(v), cycles);
            }
        }
        (None, cycles)
    }

    /// Timed insert (or overwrite). Returns the cycles spent.
    pub fn insert<M: CoreMem + ?Sized>(
        &mut self,
        m: &mut M,
        core: usize,
        flow: &FlowTuple,
        value: u64,
    ) -> Result<Cycles, TableError> {
        let key = pack_key(flow);
        let h = hash_key(&key) as usize;
        m.advance(core, HASH_WORK);
        let mut cycles = HASH_WORK;
        for p in 0..self.max_probes {
            let pa = self.bucket_pa(h + p);
            let mut line = [0u8; 24];
            cycles += m.read_bytes(core, pa, &mut line);
            let empty = line[STATE_OFF as usize] == 0;
            let ours = !empty && line[KEY_OFF as usize..KEY_OFF as usize + KEY_LEN] == key;
            if empty || ours {
                let mut out = [0u8; 24];
                out[STATE_OFF as usize] = 1;
                out[KEY_OFF as usize..KEY_OFF as usize + KEY_LEN].copy_from_slice(&key);
                out[VAL_OFF as usize..VAL_OFF as usize + 8].copy_from_slice(&value.to_le_bytes());
                cycles += m.write_bytes(core, pa, &out);
                if empty {
                    self.used += 1;
                }
                return Ok(cycles);
            }
        }
        Err(TableError::Full)
    }

    /// Timed lookup that inserts `make()`'s value on a miss — the
    /// standard per-flow state pattern of NAPT/LB.
    pub(crate) fn lookup_or_insert_with<M: CoreMem + ?Sized>(
        &mut self,
        m: &mut M,
        core: usize,
        flow: &FlowTuple,
        make: impl FnOnce() -> u64,
    ) -> Result<(u64, bool, Cycles), TableError> {
        let (found, c1) = self.lookup(m, core, flow);
        match found {
            Some(v) => Ok((v, false, c1)),
            None => {
                let v = make();
                let c2 = self.insert(m, core, flow, v)?;
                Ok((v, true, c1 + c2))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(128 << 20))
    }

    fn flow(i: u32) -> FlowTuple {
        FlowTuple::tcp(0x0a000000 + i, 1000 + (i % 50000) as u16, 0xc0a80001, 80)
    }

    #[test]
    fn insert_then_lookup() {
        let mut m = machine();
        let mut t = FlowTable::create(&mut m, 1024).unwrap();
        t.insert(&mut m, 0, &flow(1), 42).unwrap();
        assert_eq!(t.lookup(&mut m, 0, &flow(1)).0, Some(42));
        assert_eq!(t.lookup(&mut m, 0, &flow(2)).0, None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut m = machine();
        let mut t = FlowTable::create(&mut m, 64).unwrap();
        t.insert(&mut m, 0, &flow(1), 1).unwrap();
        t.insert(&mut m, 0, &flow(1), 2).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&mut m, 0, &flow(1)).0, Some(2));
    }

    #[test]
    fn many_flows_roundtrip() {
        let mut m = machine();
        let mut t = FlowTable::create(&mut m, 4096).unwrap();
        for i in 0..2000 {
            t.insert(&mut m, 0, &flow(i), u64::from(i) * 3).unwrap();
        }
        assert_eq!(t.len(), 2000);
        for i in 0..2000 {
            assert_eq!(t.lookup(&mut m, 0, &flow(i)).0, Some(u64::from(i) * 3));
        }
    }

    #[test]
    fn lookup_or_insert_with_semantics() {
        let mut m = machine();
        let mut t = FlowTable::create(&mut m, 256).unwrap();
        let (v, fresh, _) = t
            .lookup_or_insert_with(&mut m, 0, &flow(9), || 123)
            .unwrap();
        assert!(fresh);
        assert_eq!(v, 123);
        let (v, fresh, _) = t
            .lookup_or_insert_with(&mut m, 0, &flow(9), || 999)
            .unwrap();
        assert!(!fresh, "second hit must not insert");
        assert_eq!(v, 123);
    }

    #[test]
    fn probing_costs_memory_accesses() {
        let mut m = machine();
        let mut t = FlowTable::create(&mut m, 1024).unwrap();
        t.insert(&mut m, 0, &flow(5), 1).unwrap();
        // A hot lookup: hash work + one L1 hit.
        let (_, _) = t.lookup(&mut m, 0, &flow(5));
        let (_, hot) = t.lookup(&mut m, 0, &flow(5));
        assert_eq!(hot, HASH_WORK + 4);
    }

    #[test]
    fn full_table_reports_error() {
        let mut m = machine();
        // Tiny table with a probe cap larger than the table: fill it up.
        let mut t = FlowTable::create(&mut m, 16).unwrap();
        let mut err = None;
        for i in 0..32 {
            if let Err(e) = t.insert(&mut m, 0, &flow(i), 0) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(TableError::Full));
        assert!(t.len() <= 16);
    }

    #[test]
    fn empty_and_bytes() {
        let mut m = machine();
        let t = FlowTable::create(&mut m, 128).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.buckets, 128);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_pow2() {
        let mut m = machine();
        let _ = FlowTable::create(&mut m, 100);
    }
}
