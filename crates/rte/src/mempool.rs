//! Hugepage-backed pools of fixed-size mbuf objects (`librte_mempool`).
//!
//! "After initialization, one or more memory pools are allocated from
//! hugepage(s) in memory. These memory pools include fixed-size elements
//! (objects)" (§4.1). Each object is metadata + headroom capacity + data
//! room, cache-line aligned so that Complex Addressing sees each object's
//! lines individually.

use crate::mbuf::{MbufMeta, MBUF_META_SIZE};
use llc_sim::addr::PhysAddr;
use llc_sim::machine::Machine;
use llc_sim::mem::{MemError, Region};
use llc_sim::CACHE_LINE;

/// A pool of `n` equally sized mbuf objects carved from one region.
#[derive(Debug)]
pub struct MbufPool {
    region: Region,
    n: u32,
    obj_size: usize,
    headroom_cap: u16,
    dataroom: u16,
    free: Vec<u32>,
    /// Fault injection: while set, `get` behaves as if the pool were
    /// empty (a transient allocation outage).
    outage: bool,
}

impl MbufPool {
    /// Creates a pool of `n` mbufs whose buffer area is `headroom_cap`
    /// bytes of (maximum) headroom plus `dataroom` bytes of data room.
    ///
    /// Stock DPDK uses a 128 B headroom; CacheDirector enlarges it to
    /// 832 B so the dynamic placement never shrinks the data area below a
    /// full frame (§4.2).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn create(
        m: &mut Machine,
        n: u32,
        headroom_cap: u16,
        dataroom: u16,
    ) -> Result<Self, MemError> {
        assert!(n > 0, "empty pool");
        let obj_size = (MBUF_META_SIZE + headroom_cap as usize + dataroom as usize)
            .next_multiple_of(CACHE_LINE);
        let region = m.mem_mut().alloc(obj_size * n as usize, CACHE_LINE)?;
        // LIFO free list: DPDK pools hand back recently returned (cache
        // hot) objects first.
        let free = (0..n).rev().collect();
        Ok(Self {
            region,
            n,
            obj_size,
            headroom_cap,
            dataroom,
            free,
            outage: false,
        })
    }

    /// Total objects.
    pub fn capacity(&self) -> u32 {
        self.n
    }

    /// Objects currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Bytes of one object.
    pub fn obj_size(&self) -> usize {
        self.obj_size
    }

    /// Maximum headroom an mbuf of this pool can hold.
    pub fn headroom_cap(&self) -> u16 {
        self.headroom_cap
    }

    /// Data-room size.
    pub fn dataroom(&self) -> u16 {
        self.dataroom
    }

    /// Base physical address of object `idx`.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range index.
    pub fn obj_base(&self, idx: u32) -> PhysAddr {
        assert!(idx < self.n, "mbuf index out of range");
        self.region.pa(idx as usize * self.obj_size)
    }

    /// Metadata overlay for object `idx`.
    pub fn meta(&self, idx: u32) -> MbufMeta {
        MbufMeta::at(self.obj_base(idx))
    }

    /// Allocates an mbuf; `None` when the pool is empty or a fault
    /// window has it in outage.
    pub fn get(&mut self) -> Option<u32> {
        if self.outage {
            return None;
        }
        self.free.pop()
    }

    /// Fault injection: while `true`, allocations fail as if the pool
    /// were drained; returns (`put`) still work, so the pool recovers
    /// as soon as the outage lifts.
    pub fn set_outage(&mut self, blocked: bool) {
        self.outage = blocked;
    }

    /// Whether an injected outage is active.
    pub fn in_outage(&self) -> bool {
        self.outage
    }

    /// Returns an mbuf to the pool.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices (double frees are the caller's to
    /// avoid, as in DPDK; debug builds check via the length invariant).
    pub fn put(&mut self, idx: u32) {
        assert!(idx < self.n, "mbuf index out of range");
        debug_assert!(
            !self.free.contains(&idx),
            "double free of mbuf {idx} detected"
        );
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llc_sim::machine::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig::haswell_e5_2667_v3().with_dram_capacity(64 << 20))
    }

    #[test]
    fn objects_are_distinct_and_aligned() {
        let mut m = machine();
        let pool = MbufPool::create(&mut m, 64, 128, 2048).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let pa = pool.obj_base(i);
            assert!(pa.is_line_aligned());
            assert!(seen.insert(pa));
        }
        assert_eq!(pool.obj_size() % CACHE_LINE, 0);
    }

    #[test]
    fn get_put_cycle() {
        let mut m = machine();
        let mut pool = MbufPool::create(&mut m, 4, 128, 512).unwrap();
        assert_eq!(pool.available(), 4);
        let a = pool.get().unwrap();
        let b = pool.get().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.available(), 2);
        pool.put(a);
        assert_eq!(pool.available(), 3);
        // LIFO: the most recently returned object comes back first.
        assert_eq!(pool.get(), Some(a));
    }

    #[test]
    fn outage_blocks_get_but_not_put() {
        let mut m = machine();
        let mut pool = MbufPool::create(&mut m, 4, 128, 512).unwrap();
        let a = pool.get().unwrap();
        pool.set_outage(true);
        assert!(pool.in_outage());
        assert_eq!(pool.get(), None, "outage blocks allocation");
        pool.put(a);
        assert_eq!(pool.available(), 4, "returns still land");
        pool.set_outage(false);
        assert_eq!(pool.get(), Some(a), "recovers after the window");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut m = machine();
        let mut pool = MbufPool::create(&mut m, 2, 128, 512).unwrap();
        assert!(pool.get().is_some());
        assert!(pool.get().is_some());
        assert_eq!(pool.get(), None);
    }

    #[test]
    fn object_layout_spans_meta_headroom_dataroom() {
        let mut m = machine();
        let pool = MbufPool::create(&mut m, 2, 832, 2048).unwrap();
        assert!(pool.obj_size() >= 128 + 832 + 2048);
        let meta = pool.meta(1);
        // The second object's buffer area must not overlap the first.
        assert!(meta.base().raw() >= pool.obj_base(0).raw() + pool.obj_size() as u64);
        assert_eq!(pool.headroom_cap(), 832);
        assert_eq!(pool.dataroom(), 2048);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let mut m = machine();
        let pool = MbufPool::create(&mut m, 2, 128, 512).unwrap();
        pool.obj_base(2);
    }
}
