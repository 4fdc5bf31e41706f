//! A single set-associative, write-back cache array.
//!
//! Both the private L1/L2 caches and every LLC slice are instances of
//! [`SetAssocCache`]; the hierarchy logic in [`crate::hierarchy`] wires
//! them together. A cache stores *line numbers* (physical address >> 6)
//! only — data bytes live in [`crate::mem::PhysMem`], which is sound for a
//! behavioural model because a hit/miss decision never depends on data.
//!
//! The cache is one flat struct of arrays: a `sets × ways` tag array in
//! which a sentinel tag marks a free way, one dirty bitmask per set, and the
//! whole cache's replacement state ([`crate::replacement`]). A lookup
//! scans one contiguous row of tags.

use crate::replacement::{Replacement, ReplacementKind};

/// The tag of a free way. No physical line number reaches it (line
/// numbers are addresses >> 6), so it never matches a lookup.
const INVALID: u64 = u64::MAX;

/// A line evicted to make room, reported to the caller for write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line number (physical address >> 6).
    pub line: u64,
    /// Whether the line held modified data that must be written downstream.
    pub dirty: bool,
}

/// Hit/miss/fill statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Lines inserted.
    pub fills: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

/// A set-associative cache of line numbers with write-back semantics.
#[derive(Debug)]
pub struct SetAssocCache {
    /// Resident line per way, row-major by set; [`INVALID`] when free.
    tags: Vec<u64>,
    /// Per set: bit `w` set ⇔ way `w` holds modified data.
    dirty: Vec<u64>,
    repl: Replacement,
    ways: usize,
    set_mask: u64,
    /// One bit per existing way.
    all_ways: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache of `set_count` sets × `ways` ways.
    ///
    /// `set_count` must be a power of two (the set index is a bit-field of
    /// the line number, as in Table 1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `set_count` is not a power of two, `ways` is 0 or above
    /// 64 (one dirty-mask bit per way), or the replacement policy rejects
    /// the way count.
    pub fn new(set_count: usize, ways: usize, kind: ReplacementKind, seed: u64) -> Self {
        assert!(set_count.is_power_of_two(), "set count must be 2^k");
        assert!(ways > 0, "need at least one way");
        assert!(ways <= 64, "at most 64 ways");
        Self {
            tags: vec![INVALID; set_count * ways],
            dirty: vec![0; set_count],
            repl: Replacement::new(kind, set_count, ways, seed),
            ways,
            set_mask: (set_count - 1) as u64,
            all_ways: u64::MAX >> (64 - ways),
            stats: CacheStats::default(),
        }
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.dirty.len()
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.tags.len() * crate::addr::CACHE_LINE
    }

    /// The set index a line maps to.
    pub fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The tags of `set`'s ways.
    #[inline]
    fn row(&self, set: usize) -> &[u64] {
        &self.tags[set * self.ways..(set + 1) * self.ways]
    }

    /// The set `line` maps to and the way holding it, if resident.
    #[inline]
    fn find(&self, line: u64) -> (usize, Option<usize>) {
        debug_assert_ne!(line, INVALID, "line number out of range");
        let set = self.set_of(line);
        (set, self.row(set).iter().position(|&t| t == line))
    }

    /// Looks up `line`; on a hit updates recency and returns whether the
    /// line was dirty.
    pub fn lookup(&mut self, line: u64) -> Option<bool> {
        let (set, way) = self.find(line);
        match way {
            Some(w) => {
                self.repl.touch(set, w);
                self.stats.hits += 1;
                Some(self.dirty[set] >> w & 1 != 0)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// True when `line` is resident; does **not** touch recency or stats
    /// (an observation, not a simulated access).
    pub fn probe(&self, line: u64) -> bool {
        self.find(line).1.is_some()
    }

    /// Marks a resident line dirty; returns false when not resident.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (set, way) = self.find(line);
        if let Some(w) = way {
            self.dirty[set] |= 1 << w;
        }
        way.is_some()
    }

    /// Inserts `line`, evicting if the set is full. Equivalent to
    /// [`SetAssocCache::insert_masked`] with an all-ways mask.
    pub fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        self.insert_masked(line, dirty, u64::MAX)
    }

    /// Inserts `line` with the victim restricted to the ways in `mask`.
    ///
    /// Way masking models both Intel CAT (classes of service get disjoint
    /// way masks, §7) and DDIO's limited I/O ways (§8). Rules, matching the
    /// hardware:
    ///
    /// * If the line is already resident (in **any** way), it is updated in
    ///   place — masks restrict allocation, not hits.
    /// * Otherwise the lowest free way *within the mask* is used, else the
    ///   replacement policy picks a victim within the mask.
    ///
    /// Returns the evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics when `mask` selects no existing way.
    pub fn insert_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Option<Evicted> {
        debug_assert_ne!(line, INVALID, "line number out of range");
        let set = self.set_of(line);
        let base = set * self.ways;
        let mask = mask & self.all_ways;
        // One pass: already resident (update dirtiness and recency), or
        // note the first free way inside the mask.
        let mut free = None;
        for (w, &tag) in self.row(set).iter().enumerate() {
            if tag == line {
                self.dirty[set] |= u64::from(dirty) << w;
                self.repl.touch(set, w);
                return None;
            }
            if free.is_none() && tag == INVALID && mask >> w & 1 != 0 {
                free = Some(w);
            }
        }
        self.stats.fills += 1;
        let (w, evicted) = match free {
            Some(w) => (w, None),
            None => {
                let w = self.repl.victim(set, mask);
                self.stats.evictions += 1;
                let old = Evicted {
                    line: self.tags[base + w],
                    dirty: self.dirty[set] >> w & 1 != 0,
                };
                (w, Some(old))
            }
        };
        self.tags[base + w] = line;
        self.dirty[set] = self.dirty[set] & !(1 << w) | u64::from(dirty) << w;
        self.repl.touch(set, w);
        evicted
    }

    /// Removes `line` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (set, way) = self.find(line);
        let w = way?;
        self.tags[set * self.ways + w] = INVALID;
        let was_dirty = self.dirty[set] >> w & 1 != 0;
        self.dirty[set] &= !(1 << w);
        Some(was_dirty)
    }

    /// Number of currently valid lines (test/inspection helper).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Iterates over all resident `(line, dirty)` pairs, set by set and
    /// way by way (inspection only).
    pub fn resident_lines(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != INVALID)
            .map(|(i, &t)| {
                let (set, w) = (i / self.ways, i % self.ways);
                (t, self.dirty[set] >> w & 1 != 0)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(sets: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(sets, ways, ReplacementKind::Lru, 1)
    }

    #[test]
    fn geometry() {
        let c = cache(64, 8);
        assert_eq!(c.capacity_bytes(), 32 * 1024);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(63), 63);
        assert_eq!(c.set_of(64), 0);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(4, 2);
        assert!(c.lookup(10).is_none());
        assert!(c.insert(10, false).is_none());
        assert_eq!(c.lookup(10), Some(false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn fills_use_free_ways_before_evicting() {
        let mut c = cache(1, 4);
        for line in 0..4 {
            assert!(c.insert(line, false).is_none());
        }
        assert_eq!(c.occupancy(), 4);
        let ev = c.insert(4, false).expect("set full, must evict");
        assert_eq!(ev.line, 0, "LRU victim is the oldest line");
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = cache(1, 2);
        c.insert(0, true);
        c.insert(1, false);
        let ev = c.insert(2, false).unwrap();
        assert!(ev.dirty && ev.line == 0);
    }

    #[test]
    fn reinsert_merges_dirty_without_evicting() {
        let mut c = cache(1, 1);
        c.insert(5, false);
        assert!(c.insert(5, true).is_none(), "same line: update in place");
        let ev = c.insert(6, false).unwrap();
        assert!(ev.dirty, "dirtiness must have been merged");
    }

    #[test]
    fn mark_dirty_and_invalidate() {
        let mut c = cache(2, 2);
        c.insert(7, false);
        assert!(c.mark_dirty(7));
        assert!(!c.mark_dirty(9));
        assert_eq!(c.invalidate(7), Some(true));
        assert_eq!(c.invalidate(7), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = cache(1, 2);
        c.insert(0, false);
        c.insert(1, false);
        let before = c.stats();
        // Probing line 0 must not make it recently used.
        assert!(c.probe(0));
        assert_eq!(c.stats(), before);
        let ev = c.insert(2, false).unwrap();
        assert_eq!(ev.line, 0, "probe must not have refreshed line 0");
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut c = cache(1, 2);
        c.insert(0, false);
        c.insert(1, false);
        c.lookup(0);
        let ev = c.insert(2, false).unwrap();
        assert_eq!(ev.line, 1);
    }

    #[test]
    fn masked_insert_respects_way_mask() {
        let mut c = cache(1, 4);
        for line in 0..4 {
            c.insert(line, false);
        }
        // Only ways 2 and 3 allowed: victim must be line 2 (LRU among them).
        let ev = c.insert_masked(10, false, 0b1100).unwrap();
        assert_eq!(ev.line, 2);
        assert!(c.probe(0) && c.probe(1), "masked ways untouched");
    }

    #[test]
    fn masked_insert_hits_outside_mask() {
        let mut c = cache(1, 4);
        c.insert(0, false); // Lands in way 0.
                            // Re-inserting line 0 with a mask excluding way 0 must still update
                            // in place (hit path ignores the mask, like hardware).
        assert!(c.insert_masked(0, true, 0b1000).is_none());
        let mut found_dirty = false;
        for (l, d) in c.resident_lines() {
            if l == 0 {
                found_dirty = d;
            }
        }
        assert!(found_dirty);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn set_isolation() {
        let mut c = cache(2, 1);
        c.insert(0, false); // Set 0.
        c.insert(1, false); // Set 1.
        assert_eq!(c.occupancy(), 2);
        assert!(c.insert(2, false).is_some(), "set 0 conflict evicts");
        assert!(c.probe(1), "set 1 untouched");
    }

    #[test]
    fn stats_count_fills_and_evictions() {
        let mut c = cache(1, 2);
        c.insert(0, false);
        c.insert(1, false);
        c.insert(2, false);
        let s = c.stats();
        assert_eq!(s.fills, 3);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_pow2_sets() {
        cache(3, 2);
    }
}
