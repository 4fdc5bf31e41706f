//! Physical addresses and cache-line geometry.

use std::fmt;

/// Size of one cache line in bytes, the minimum caching unit (paper §2).
pub const CACHE_LINE: usize = 64;

/// log2 of [`CACHE_LINE`]: number of offset bits below the line number.
pub(crate) const LINE_SHIFT: u32 = 6;

/// A physical memory address.
///
/// Newtype over `u64` so that physical and virtual offsets cannot be mixed
/// up; the Complex Addressing hash and all cache indexing operate on
/// physical addresses only (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The raw 64-bit address value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The cache-line number (address divided by 64).
    pub fn line(self) -> u64 {
        self.0 >> LINE_SHIFT
    }

    /// The address of the start of the containing cache line.
    pub fn line_base(self) -> PhysAddr {
        PhysAddr(self.0 & !((CACHE_LINE as u64) - 1))
    }

    /// Byte offset within the containing cache line.
    pub(crate) fn line_offset(self) -> usize {
        (self.0 & ((CACHE_LINE as u64) - 1)) as usize
    }

    /// Address `bytes` further along.
    // Named after pointer arithmetic, not `std::ops::Add` (which would
    // allow `PhysAddr + PhysAddr`, a type error we want to keep illegal).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }

    /// True when the address is aligned to the start of a cache line.
    pub fn is_line_aligned(self) -> bool {
        self.line_offset() == 0
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#x})", self.0)
    }
}

/// Splits the byte range `[addr, addr + len)` into per-cache-line pieces.
///
/// Yields `(line_base, offset_within_line, piece_len)` triples. Used by the
/// data-movement paths (DMA, typed reads/writes) that must walk the
/// hierarchy once per touched line.
pub fn split_lines(addr: PhysAddr, len: usize) -> impl Iterator<Item = (PhysAddr, usize, usize)> {
    let mut cursor = addr.raw();
    let end = addr.raw() + len as u64;
    std::iter::from_fn(move || {
        if cursor >= end {
            return None;
        }
        let base = cursor & !((CACHE_LINE as u64) - 1);
        let off = (cursor - base) as usize;
        let take = ((CACHE_LINE - off) as u64).min(end - cursor) as usize;
        cursor += take as u64;
        Some((PhysAddr(base), off, take))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_numbering() {
        assert_eq!(PhysAddr(0).line(), 0);
        assert_eq!(PhysAddr(63).line(), 0);
        assert_eq!(PhysAddr(64).line(), 1);
        assert_eq!(PhysAddr(0x1000).line(), 64);
    }

    #[test]
    fn line_base_and_offset() {
        let a = PhysAddr(0x1234);
        assert_eq!(a.line_base(), PhysAddr(0x1200));
        assert_eq!(a.line_offset(), 0x34);
        assert!(a.line_base().is_line_aligned());
        assert!(!a.is_line_aligned());
    }

    #[test]
    fn split_single_aligned_line() {
        let v: Vec<_> = split_lines(PhysAddr(0x40), 64).collect();
        assert_eq!(v, vec![(PhysAddr(0x40), 0, 64)]);
    }

    #[test]
    fn split_unaligned_spans_two_lines() {
        let v: Vec<_> = split_lines(PhysAddr(0x30), 32).collect();
        assert_eq!(v, vec![(PhysAddr(0x0), 0x30, 16), (PhysAddr(0x40), 0, 16)]);
    }

    #[test]
    fn split_large_range_covers_everything() {
        let v: Vec<_> = split_lines(PhysAddr(10), 200).collect();
        let total: usize = v.iter().map(|p| p.2).sum();
        assert_eq!(total, 200);
        // Pieces are contiguous.
        let mut expect = 10u64;
        for (base, off, len) in v {
            assert_eq!(base.raw() + off as u64, expect);
            expect += len as u64;
        }
    }

    #[test]
    fn split_empty_range() {
        assert_eq!(split_lines(PhysAddr(0), 0).count(), 0);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(PhysAddr(0xff).to_string(), "PA(0xff)");
    }
}
