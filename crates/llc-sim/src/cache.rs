//! A single set-associative, write-back cache array.
//!
//! Both the private L1/L2 caches and every LLC slice are instances of
//! [`SetAssocCache`]; the hierarchy logic in [`crate::hierarchy`] wires
//! them together. A cache stores *line numbers* (physical address >> 6)
//! only — data bytes live in [`crate::mem::PhysMem`], which is sound for a
//! behavioural model because a hit/miss decision never depends on data.
//!
//! Each set is one contiguous row of `u64` words:
//!
//! * the tags, two `u32` to a word: a way's tag is its line number with
//!   the set-index bits shifted out (`line >> log2(sets)`), and [`FREE`]
//!   marks a free way (and the unused half of an odd way count);
//! * the LRU recency ranks, one `u8` per way, eight to a word (see
//!   [`crate::replacement`]; a random-replacement row has none);
//! * the dirty mask: bit `w` set ⇔ way `w` holds modified data.
//!
//! A 20-way LLC set is 14 words (112 B) and an 8-way L1/L2 set 6 words
//! (48 B), so a lookup, a fill and its victim choice read one short run
//! of contiguous memory.

use crate::replacement::{Replacement, ReplacementKind};

/// The tag of a free way. [`SetAssocCache`] rejects every line whose tag
/// would reach it, so it never matches a lookup.
const FREE: u32 = u32::MAX;

/// A line evicted to make room, reported to the caller for write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line number (physical address >> 6).
    pub line: u64,
    /// Whether the line held modified data that must be written downstream.
    pub dirty: bool,
}

/// What [`SetAssocCache::fill_masked`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// The line was already resident and was updated in place.
    Hit,
    /// The line took a free way.
    Free,
    /// The line replaced a victim.
    Evicted(Evicted),
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
///
/// # Panics
///
/// Lookups, probes, inserts, `mark_dirty` and `invalidate` panic when
/// the line is at or above `u32::MAX << log2(set_count)`: its tag would
/// not fit the row's 32-bit tags. Even for a one-set cache that bound is 256 GiB of
/// physical address space, far above any [`crate::machine::Machine`]
/// line (the default DRAM is 4 GiB).
#[derive(Debug)]
pub struct SetAssocCache {
    /// One row per set; see the module docs.
    rows: Vec<u64>,
    /// Words per row.
    stride: usize,
    /// Where a row's rank words start: after its tag words.
    ranks_at: usize,
    repl: Replacement,
    ways: usize,
    /// log2 of the set count: a line's tag is `line >> set_bits`.
    set_bits: u32,
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
    /// Panics if `set_count` is not a power of two, or `ways` is 0 or above
    /// 64 (one dirty-mask bit per way).
    pub fn new(set_count: usize, ways: usize, kind: ReplacementKind, seed: u64) -> Self {
        assert!(set_count.is_power_of_two(), "set count must be 2^k");
        assert!(ways > 0, "need at least one way");
        assert!(ways <= 64, "at most 64 ways");
        let repl = Replacement::new(kind, ways, seed);
        let ranks_at = ways.div_ceil(2);
        let stride = ranks_at + repl.rank_words() + 1;
        let mut row = vec![u64::MAX; stride];
        Replacement::init_ranks(&mut row[ranks_at..stride - 1]);
        row[stride - 1] = 0;
        Self {
            rows: row.repeat(set_count),
            stride,
            ranks_at,
            repl,
            ways,
            set_bits: set_count.trailing_zeros(),
            set_mask: (set_count - 1) as u64,
            all_ways: u64::MAX >> (64 - ways),
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub(crate) fn set_count(&self) -> usize {
        self.rows.len() / self.stride
    }

    /// The set index a line maps to.
    pub(crate) fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the counters.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The set `line` maps to and its tag.
    #[inline]
    fn locate(&self, line: u64) -> (usize, u32) {
        let tag = line >> self.set_bits;
        assert!(
            tag < u64::from(FREE),
            "line {line:#x} is beyond the cache's 32-bit tag range"
        );
        (self.set_of(line), tag as u32)
    }

    /// The row of `set`.
    #[inline]
    fn row_mut(&mut self, set: usize) -> &mut [u64] {
        &mut self.rows[set * self.stride..(set + 1) * self.stride]
    }

    /// Looks up `line`; on a hit updates recency and returns whether the
    /// line was dirty.
    pub fn lookup(&mut self, line: u64) -> Option<bool> {
        let (set, tag) = self.locate(line);
        let ranks_at = self.ranks_at;
        let (tags, ranks, dirty) = split(self.row_mut(set), ranks_at);
        let hit = way_of(tags, tag).map(|w| {
            Replacement::touch(ranks, w);
            *dirty >> w & 1 != 0
        });
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    /// True when `line` is resident; does **not** touch recency or stats
    /// (an observation, not a simulated access).
    pub fn probe(&self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        way_of(&self.rows[set * self.stride..][..self.ranks_at], tag).is_some()
    }

    /// Marks a resident line dirty; returns false when not resident.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        let ranks_at = self.ranks_at;
        let (tags, _, dirty) = split(self.row_mut(set), ranks_at);
        let way = way_of(tags, tag);
        if let Some(w) = way {
            *dirty |= 1 << w;
        }
        way.is_some()
    }

    /// Inserts `line`, evicting if the set is full. Equivalent to
    /// [`SetAssocCache::insert_masked`] with an all-ways mask.
    pub fn insert(&mut self, line: u64, dirty: bool) -> Option<Evicted> {
        self.insert_masked(line, dirty, u64::MAX)
    }

    /// Inserts `line` with the victim restricted to the ways in `mask`;
    /// returns the evicted line, if any. See
    /// [`SetAssocCache::fill_masked`] for the rules.
    ///
    /// # Panics
    ///
    /// Panics when `mask` selects no existing way and a victim is needed.
    pub fn insert_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Option<Evicted> {
        match self.fill_masked(line, dirty, mask) {
            Fill::Evicted(ev) => Some(ev),
            Fill::Hit | Fill::Free => None,
        }
    }

    /// Inserts `line` with the victim restricted to the ways in `mask`,
    /// reporting whether the line was resident, took a free way or
    /// evicted one — a probe and an insert in one pass over the set.
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
    /// # Panics
    ///
    /// Panics when `mask` selects no existing way and a victim is needed.
    pub(crate) fn fill_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Fill {
        let (set, tag) = self.locate(line);
        let mask = mask & self.all_ways;
        let ranks_at = self.ranks_at;
        let row = &mut self.rows[set * self.stride..(set + 1) * self.stride];
        let (tags, ranks, dirty_mask) = split(row, ranks_at);
        if let Some(w) = way_of(tags, tag) {
            *dirty_mask |= u64::from(dirty) << w;
            Replacement::touch(ranks, w);
            return Fill::Hit;
        }
        self.stats.fills += 1;
        let free = free_ways(tags) & mask;
        let (w, fill) = if free != 0 {
            (free.trailing_zeros() as usize, Fill::Free)
        } else {
            let w = self.repl.victim(ranks, mask);
            self.stats.evictions += 1;
            let old = Evicted {
                line: u64::from(tag_at(tags, w)) << self.set_bits | set as u64,
                dirty: *dirty_mask >> w & 1 != 0,
            };
            (w, Fill::Evicted(old))
        };
        set_tag(tags, w, tag);
        *dirty_mask = *dirty_mask & !(1 << w) | u64::from(dirty) << w;
        Replacement::touch(ranks, w);
        fill
    }

    /// Removes `line` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (set, tag) = self.locate(line);
        let ranks_at = self.ranks_at;
        let (tags, _, dirty) = split(self.row_mut(set), ranks_at);
        let w = way_of(tags, tag)?;
        set_tag(tags, w, FREE);
        let was_dirty = *dirty >> w & 1 != 0;
        *dirty &= !(1 << w);
        Some(was_dirty)
    }

    /// Number of currently valid lines (test/inspection helper).
    pub fn occupancy(&self) -> usize {
        self.rows
            .chunks_exact(self.stride)
            .map(|row| (!free_ways(&row[..self.ranks_at]) & self.all_ways).count_ones() as usize)
            .sum()
    }

    /// Iterates over all resident `(line, dirty)` pairs, set by set and
    /// way by way (inspection only).
    pub fn resident_lines(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.rows
            .chunks_exact(self.stride)
            .enumerate()
            .flat_map(move |(set, row)| {
                let dirty = row[self.stride - 1];
                (0..self.ways).filter_map(move |w| {
                    let tag = tag_at(&row[..self.ranks_at], w);
                    let line = u64::from(tag) << self.set_bits | set as u64;
                    (tag != FREE).then_some((line, dirty >> w & 1 != 0))
                })
            })
    }
}

/// Splits a row into its tag words, its rank words and its dirty mask.
#[inline]
fn split(row: &mut [u64], ranks_at: usize) -> (&mut [u64], &mut [u64], &mut u64) {
    let (tags, rest) = row.split_at_mut(ranks_at);
    let (dirty, ranks) = rest.split_last_mut().expect("a row ends in its dirty mask");
    (tags, ranks, dirty)
}

/// The tag of way `w`.
#[inline]
fn tag_at(tags: &[u64], w: usize) -> u32 {
    (tags[w / 2] >> (32 * (w % 2))) as u32
}

/// Sets the tag of way `w`.
#[inline]
fn set_tag(tags: &mut [u64], w: usize, tag: u32) {
    let shift = 32 * (w % 2);
    tags[w / 2] = tags[w / 2] & !(u64::from(FREE) << shift) | u64::from(tag) << shift;
}

/// The way holding `tag`, if any.
#[inline]
fn way_of(tags: &[u64], tag: u32) -> Option<usize> {
    for (i, &pair) in tags.iter().enumerate() {
        if pair as u32 == tag {
            return Some(2 * i);
        }
        if (pair >> 32) as u32 == tag {
            return Some(2 * i + 1);
        }
    }
    None
}

/// Bit `w` set ⇔ way `w` is free. The unused half of an odd way count
/// shows as free too; callers mask it off.
#[inline]
fn free_ways(tags: &[u64]) -> u64 {
    let mut free = 0;
    for (i, &pair) in tags.iter().enumerate() {
        free |= u64::from(pair as u32 == FREE) << (2 * i)
            | u64::from((pair >> 32) as u32 == FREE) << (2 * i + 1);
    }
    free
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
