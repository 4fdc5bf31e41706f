//! Simulated physical memory, hugepages and pagemap translation.
//!
//! The paper's user-space technique needs three things from the OS/memory
//! system: (i) large contiguous physical ranges (1 GB hugepages allocated
//! with `mmap`), (ii) knowledge of the physical address behind a virtual
//! one (`/proc/self/pagemap`), and (iii) actual bytes to read and write.
//! [`PhysMem`] provides all three against a deterministic simulated
//! physical address space.
//!
//! Layout determinism matters: slice-aware allocation carves a hugepage by
//! physical address, so experiments must see the same carving on every run.
//! Reservations are placed sequentially with alignment, optionally after a
//! seeded fragmentation offset, and the whole space starts zeroed.

use crate::addr::PhysAddr;
use std::fmt;

/// 1 GiB hugepage, the granularity used throughout the paper.
pub(crate) const PAGE_1G: usize = 1024 * 1024 * 1024;

/// Errors from physical-memory reservations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The request does not fit in the remaining simulated DRAM.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: u64,
    },
    /// Size/alignment arguments were invalid.
    BadRequest,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of simulated DRAM: requested {requested} bytes, {available} available"
            ),
            MemError::BadRequest => write!(f, "invalid size or alignment"),
        }
    }
}

impl std::error::Error for MemError {}

/// A reserved physically contiguous region (a hugepage or page run).
///
/// Cloneable handle; the backing bytes live in [`PhysMem`]. This plays the
/// role of the paper's `mmap`-ed hugepage plus the pagemap lookup: the
/// holder knows both the region's size and its physical base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: PhysAddr,
    len: usize,
}

impl Region {
    /// Physical base address.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length region (not constructable via [`PhysMem`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The physical address `offset` bytes into the region — the simulated
    /// equivalent of translating a VA through `/proc/self/pagemap`.
    ///
    /// # Panics
    ///
    /// Panics when `offset >= len`.
    pub fn pa(&self, offset: usize) -> PhysAddr {
        assert!(offset < self.len, "offset {offset} outside region");
        self.base.add(offset as u64)
    }

    /// Whether `pa` falls inside this region.
    pub fn contains(&self, pa: PhysAddr) -> bool {
        pa.raw() >= self.base.raw() && pa.raw() < self.base.raw() + self.len as u64
    }
}

/// The simulated DRAM: a flat physical address space with bump reservation.
#[derive(Debug)]
pub struct PhysMem {
    bytes: Vec<u8>,
    next: u64,
    capacity: u64,
}

impl PhysMem {
    /// A physical address space of `capacity` bytes, all zero.
    ///
    /// The backing store is allocated lazily per reservation would be more
    /// frugal, but experiments reserve at most a few GB and the simulator
    /// zero-fills once, so one flat `Vec` keeps the hot paths branch-free.
    pub fn new(capacity: usize) -> Self {
        Self {
            bytes: vec![0; capacity],
            next: 0,
            capacity: capacity as u64,
        }
    }

    /// Bytes not yet reserved.
    pub(crate) fn available(&self) -> u64 {
        self.capacity - self.next
    }

    /// Reserves `len` bytes aligned to `align` (a power of two).
    pub fn alloc(&mut self, len: usize, align: usize) -> Result<Region, MemError> {
        if len == 0 || align == 0 || !align.is_power_of_two() {
            return Err(MemError::BadRequest);
        }
        let base = (self.next + align as u64 - 1) & !(align as u64 - 1);
        let end = base + len as u64;
        if end > self.capacity {
            return Err(MemError::OutOfMemory {
                requested: len,
                available: self.available(),
            });
        }
        self.next = end;
        Ok(Region {
            base: PhysAddr(base),
            len,
        })
    }

    /// Reserves a naturally aligned 1 GiB hugepage (paper §2.2, §3).
    pub fn alloc_hugepage_1g(&mut self) -> Result<Region, MemError> {
        self.alloc(PAGE_1G, PAGE_1G)
    }

    /// The raw backing bytes, for [`crate::epoch::SharedMem`]'s
    /// cross-shard view.
    pub(crate) fn raw_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Reads `buf.len()` bytes at `pa` (no timing — see
    /// [`crate::machine::Machine`] for timed access).
    ///
    /// # Panics
    ///
    /// Panics when the range is outside the physical space.
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) {
        let s = pa.raw() as usize;
        buf.copy_from_slice(&self.bytes[s..s + buf.len()]);
    }

    /// Writes `data` at `pa` (no timing).
    ///
    /// # Panics
    ///
    /// Panics when the range is outside the physical space.
    pub fn write(&mut self, pa: PhysAddr, data: &[u8]) {
        let s = pa.raw() as usize;
        self.bytes[s..s + data.len()].copy_from_slice(data);
    }

    /// Writes a little-endian `u64` at `pa`.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) {
        self.write(pa, &v.to_le_bytes());
    }

    /// Borrows the raw bytes of a range (zero-copy inspection).
    ///
    /// # Panics
    ///
    /// Panics when the range is outside the physical space.
    pub fn slice(&self, pa: PhysAddr, len: usize) -> &[u8] {
        let s = pa.raw() as usize;
        &self.bytes[s..s + len]
    }

    /// Mutably borrows the raw bytes of a range.
    ///
    /// # Panics
    ///
    /// Panics when the range is outside the physical space.
    pub fn slice_mut(&mut self, pa: PhysAddr, len: usize) -> &mut [u8] {
        let s = pa.raw() as usize;
        &mut self.bytes[s..s + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_sequential() {
        let mut m = PhysMem::new(1 << 20);
        let a = m.alloc(100, 64).unwrap();
        let b = m.alloc(100, 64).unwrap();
        assert_eq!(a.base().raw() % 64, 0);
        assert_eq!(b.base().raw() % 64, 0);
        assert!(b.base().raw() >= a.base().raw() + 100);
    }

    #[test]
    fn alloc_rejects_bad_requests() {
        let mut m = PhysMem::new(1 << 20);
        assert_eq!(m.alloc(0, 64), Err(MemError::BadRequest));
        assert_eq!(m.alloc(16, 3), Err(MemError::BadRequest));
        assert_eq!(m.alloc(16, 0), Err(MemError::BadRequest));
    }

    #[test]
    fn alloc_out_of_memory() {
        let mut m = PhysMem::new(4096);
        assert!(m.alloc(4096, 1).is_ok());
        let err = m.alloc(1, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn region_pa_translation() {
        let mut m = PhysMem::new(1 << 20);
        let r = m.alloc(4096, 4096).unwrap();
        assert_eq!(r.pa(0), r.base());
        assert_eq!(r.pa(100).raw(), r.base().raw() + 100);
        assert!(r.contains(r.pa(4095)));
        assert!(!r.contains(PhysAddr(r.base().raw() + 4096)));
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn region_pa_out_of_bounds_panics() {
        let mut m = PhysMem::new(1 << 20);
        let r = m.alloc(64, 64).unwrap();
        r.pa(64);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysMem::new(1 << 16);
        let r = m.alloc(128, 64).unwrap();
        m.write(r.pa(8), &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        m.read(r.pa(8), &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn u64_roundtrip_little_endian() {
        let mut m = PhysMem::new(1 << 16);
        let r = m.alloc(64, 64).unwrap();
        m.write_u64(r.pa(0), 0x0102_0304_0506_0708);
        let mut b = [0u8; 8];
        m.read(r.pa(0), &mut b);
        assert_eq!(u64::from_le_bytes(b), 0x0102_0304_0506_0708);
        assert_eq!(m.slice(r.pa(0), 1)[0], 0x08);
    }

    #[test]
    fn memory_starts_zeroed() {
        let m = PhysMem::new(4096);
        assert!(m.slice(PhysAddr(0), 4096).iter().all(|&b| b == 0));
    }
}
