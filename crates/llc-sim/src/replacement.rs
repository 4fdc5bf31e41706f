//! Cache replacement policies.
//!
//! The paper notes that CPUs use "different variations of LRU" (§2) and our
//! DESIGN.md calls out replacement as an ablation axis, so the policy is
//! pluggable per cache: true LRU (default, matches the set-filling
//! methodology of §2.2), tree-PLRU (closer to real silicon) and seeded
//! random (worst-case baseline).
//!
//! The state of every set lives in one flat `Replacement` per cache
//! (folded into [`crate::cache::SetAssocCache`]), so a touch or a victim
//! choice indexes a contiguous array instead of chasing a per-set heap
//! allocation.

use trafficgen::Rng64;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True least-recently-used.
    Lru,
    /// Tree pseudo-LRU over a power-of-two way count.
    TreePlru,
    /// Uniform random victim (seeded, deterministic).
    Random,
}

/// The replacement state of all sets of one cache.
///
/// * `Lru` keeps one last-use stamp per way (`sets × ways`, row-major)
///   under a single monotone clock for the whole cache. Within a set this
///   orders uses exactly as a per-set clock would, so victims are the same.
/// * `TreePlru` keeps one tree word per set (one bit per internal node).
/// * `Random` keeps no per-set state.
///
/// Victims are always chosen under a way mask (CAT, DDIO, or all ways).
/// The tree path cannot be restricted to a mask cheaply, so `TreePlru`
/// draws its masked victim uniformly from the allowed ways with the
/// cache's seeded RNG — the same draw `Random` makes.
#[derive(Debug, Clone)]
pub(crate) struct Replacement {
    kind: ReplacementKind,
    ways: usize,
    /// LRU stamps or PLRU tree words (see the type docs); empty for Random.
    state: Vec<u64>,
    /// The cache-wide LRU use counter.
    clock: u64,
    rng: Rng64,
}

impl Replacement {
    /// Fresh state for `sets` sets of `ways` lines; `seed` feeds the
    /// victim RNG.
    ///
    /// # Panics
    ///
    /// Panics for [`ReplacementKind::TreePlru`] when `ways` is not a power
    /// of two (the tree needs a complete shape).
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize, seed: u64) -> Self {
        let len = match kind {
            ReplacementKind::Lru => sets * ways,
            ReplacementKind::TreePlru => {
                assert!(ways.is_power_of_two(), "tree-PLRU needs 2^k ways");
                sets
            }
            ReplacementKind::Random => 0,
        };
        Self {
            kind,
            ways,
            state: vec![0; len],
            clock: 0,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// Records a use of `way` in `set` (hit or fill).
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        match self.kind {
            ReplacementKind::Lru => {
                self.clock += 1;
                self.state[set * self.ways + way] = self.clock;
            }
            ReplacementKind::TreePlru => {
                // Walk root→leaf; at each node point the bit *away* from the
                // taken direction so the tree walk avoids this way.
                let bits = &mut self.state[set];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = self.ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way >= mid {
                        *bits &= !(1u64 << node);
                        lo = mid;
                        node = 2 * node + 2;
                    } else {
                        *bits |= 1u64 << node;
                        hi = mid;
                        node = 2 * node + 1;
                    }
                }
            }
            ReplacementKind::Random => {}
        }
    }

    /// Chooses the victim in `set` among the ways allowed by `mask` (bit
    /// `i` set ⇒ way `i` allowed; no bit at or above the way count). Used
    /// for CAT way partitioning and DDIO's limited I/O ways (paper §7, §8).
    ///
    /// LRU takes the lowest-numbered way with the oldest stamp; the other
    /// policies draw one `gen_range(0..allowed)` and take that allowed way.
    ///
    /// # Panics
    ///
    /// Panics when `mask` allows no way.
    #[inline]
    pub(crate) fn victim(&mut self, set: usize, mask: u64) -> usize {
        assert!(mask != 0, "way mask allows no victim");
        match self.kind {
            ReplacementKind::Lru => {
                let stamps = &self.state[set * self.ways..(set + 1) * self.ways];
                let mut best = mask.trailing_zeros() as usize;
                let mut rest = mask & (mask - 1);
                while rest != 0 {
                    let w = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if stamps[w] < stamps[best] {
                        best = w;
                    }
                }
                best
            }
            ReplacementKind::TreePlru | ReplacementKind::Random => {
                let k = self.rng.gen_range(0..mask.count_ones() as usize);
                nth_set_bit(mask, k)
            }
        }
    }
}

/// The index of the `k`-th (0-based, from the least significant) set bit.
fn nth_set_bit(mut mask: u64, k: usize) -> usize {
    for _ in 0..k {
        mask &= mask - 1;
    }
    mask.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SetAssocCache;

    /// A one-set cache: every line lands in the same set, so the victim
    /// sequence is the policy's alone.
    fn one_set(kind: ReplacementKind, ways: usize, seed: u64) -> SetAssocCache {
        SetAssocCache::new(1, ways, kind, seed)
    }

    fn fill(c: &mut SetAssocCache, lines: std::ops::Range<u64>) {
        for line in lines {
            assert!(c.insert(line, false).is_none(), "free way expected");
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = one_set(ReplacementKind::Lru, 4, 7);
        fill(&mut c, 0..4);
        c.lookup(0);
        c.lookup(2);
        assert_eq!(c.insert(9, false).map(|e| e.line), Some(1));
    }

    #[test]
    fn lru_refills_a_freed_way_before_evicting() {
        let mut c = one_set(ReplacementKind::Lru, 4, 7);
        fill(&mut c, 0..4);
        c.invalidate(0);
        assert!(c.insert(9, false).is_none(), "the freed way takes the fill");
        assert_eq!(c.insert(10, false).map(|e| e.line), Some(1));
    }

    #[test]
    fn lru_masked_respects_mask() {
        let mut c = one_set(ReplacementKind::Lru, 4, 7);
        fill(&mut c, 0..4);
        // Way 0 is the true LRU but the mask excludes it.
        assert_eq!(c.insert_masked(10, false, 0b1110).map(|e| e.line), Some(1));
        assert_eq!(c.insert_masked(11, false, 0b1000).map(|e| e.line), Some(3));
    }

    #[test]
    #[should_panic(expected = "allows no victim")]
    fn masked_rejects_empty_mask() {
        let mut c = one_set(ReplacementKind::Lru, 4, 7);
        c.insert_masked(0, false, 0);
    }

    #[test]
    fn plru_and_random_draw_the_same_masked_victims() {
        let mut plru = one_set(ReplacementKind::TreePlru, 8, 42);
        let mut random = one_set(ReplacementKind::Random, 8, 42);
        fill(&mut plru, 0..8);
        fill(&mut random, 0..8);
        for (i, line) in (100..164u64).enumerate() {
            let mask = if i % 2 == 0 { u64::MAX } else { 0b0110_0000 };
            let a = plru.insert_masked(line, false, mask);
            let b = random.insert_masked(line, false, mask);
            assert_eq!(a, b, "insert {i}");
        }
    }

    #[test]
    #[should_panic(expected = "2^k ways")]
    fn plru_rejects_non_pow2() {
        one_set(ReplacementKind::TreePlru, 20, 7);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let victims = |seed: u64| {
            let mut c = one_set(ReplacementKind::Random, 16, seed);
            fill(&mut c, 0..16);
            (16..24u64)
                .map(|line| c.insert(line, false).expect("set is full").line)
                .collect::<Vec<_>>()
        };
        assert_eq!(victims(42), victims(42));
    }

    #[test]
    fn random_stays_within_the_mask() {
        let mut c = one_set(ReplacementKind::Random, 3, 7);
        fill(&mut c, 0..3);
        for line in 3..103u64 {
            let ev = c.insert_masked(line, false, 0b101).expect("set is full");
            assert!(!c.probe(ev.line));
        }
        let resident: Vec<u64> = c.resident_lines().map(|(l, _)| l).collect();
        assert_eq!(resident[1], 1, "way 1 is outside the mask");
    }
}
