//! Cache replacement policies.
//!
//! The paper notes that CPUs use "different variations of LRU" (§2) and our
//! DESIGN.md calls out replacement as an ablation axis, so the policy is
//! pluggable per cache: true LRU (default, matches the set-filling
//! methodology of §2.2) and seeded random (worst-case baseline).
//!
//! The per-set state lives inside each cache row of
//! [`crate::cache::SetAssocCache`]: LRU keeps one `u8` recency rank per
//! way, eight to a `u64` word; random keeps none. The functions here work
//! on a row's rank words with a few SWAR (SIMD-within-a-register) word
//! operations, so a touch or a victim choice reads one or a few words
//! instead of a per-way array.

use trafficgen::Rng64;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True least-recently-used.
    Lru,
    /// Uniform random victim (seeded, deterministic).
    Random,
}

/// One in every byte lane.
const LANES: u64 = 0x0101_0101_0101_0101;
/// The top bit of every byte lane.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The per-cache part of a replacement policy: the kind and the victim
/// RNG. The per-set part is a row's rank words.
///
/// LRU ranks are a move-to-front permutation: byte lane `w` holds the
/// number of distinct ways used since way `w` was last used, so rank 0 is
/// the most recent way and the victim is the allowed way with the largest
/// rank. A fresh row holds rank `i` in lane `i`, padding lanes past the
/// way count included; a padding lane's rank is never below a real way's,
/// so it never moves.
///
/// Every valid way was touched when it was filled, and a victim is only
/// chosen among valid ways, so the rank order of the candidates is the
/// order of their last uses — the order a last-use timestamp would give.
#[derive(Debug, Clone)]
pub(crate) struct Replacement {
    kind: ReplacementKind,
    ways: usize,
    rng: Rng64,
}

impl Replacement {
    /// The policy for sets of `ways` lines; `seed` feeds the victim RNG.
    pub(crate) fn new(kind: ReplacementKind, ways: usize, seed: u64) -> Self {
        Self {
            kind,
            ways,
            rng: Rng64::seed_from_u64(seed),
        }
    }

    /// Number of rank words a row carries: eight ways per word for LRU,
    /// none for random.
    pub(crate) fn rank_words(&self) -> usize {
        match self.kind {
            ReplacementKind::Lru => self.ways.div_ceil(8),
            ReplacementKind::Random => 0,
        }
    }

    /// Fills `ranks` with a fresh row's ranks: rank `i` in lane `i`.
    pub(crate) fn init_ranks(ranks: &mut [u64]) {
        for (i, word) in ranks.iter_mut().enumerate() {
            *word = LANES * (8 * i as u64) + 0x0706_0504_0302_0100;
        }
    }

    /// Records a use of `way` (hit or fill) in a row's rank words: every
    /// way used more recently than `way` ages by one and `way` takes rank
    /// 0. A no-op on a row without ranks (random).
    #[inline]
    pub(crate) fn touch(ranks: &mut [u64], way: usize) {
        let Some(&word) = ranks.get(way / 8) else {
            return;
        };
        let shift = 8 * (way % 8);
        let rank = word >> shift & 0xFF;
        if rank == 0 {
            return;
        }
        // Per lane, (0x80 | (rank - 1)) - x keeps its top bit exactly when
        // x < rank, and never borrows from the next lane: every rank,
        // padding included, is below 64.
        let below = LANES * (0x80 | (rank - 1));
        for w in ranks.iter_mut() {
            *w += ((below - *w) & HIGH) >> 7;
        }
        ranks[way / 8] &= !(0xFF << shift);
    }

    /// Chooses the victim among the ways allowed by `mask` (bit `i` set ⇒
    /// way `i` allowed; no bit at or above the way count). Used for CAT
    /// way partitioning and DDIO's limited I/O ways (paper §7, §8).
    ///
    /// LRU takes the allowed way with the largest rank in `ranks`; random
    /// draws one `gen_range(0..allowed)` and takes that allowed way.
    ///
    /// # Panics
    ///
    /// Panics when `mask` allows no way.
    #[inline]
    pub(crate) fn victim(&mut self, ranks: &[u64], mask: u64) -> usize {
        assert!(mask != 0, "way mask allows no victim");
        match self.kind {
            ReplacementKind::Lru if mask == u64::MAX >> (64 - self.ways) => {
                oldest(ranks, self.ways)
            }
            ReplacementKind::Lru => {
                let rank = |w: usize| ranks[w / 8] >> (8 * (w % 8)) & 0xFF;
                let mut best = mask.trailing_zeros() as usize;
                let mut rest = mask & (mask - 1);
                while rest != 0 {
                    let w = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if rank(w) > rank(best) {
                        best = w;
                    }
                }
                best
            }
            ReplacementKind::Random => {
                let k = self.rng.gen_range(0..mask.count_ones() as usize);
                nth_set_bit(mask, k)
            }
        }
    }
}

/// The way holding rank `ways - 1`: the least recent of all ways. The
/// ranks are a permutation, so exactly one lane holds it.
#[inline]
fn oldest(ranks: &[u64], ways: usize) -> usize {
    let key = LANES * (ways as u64 - 1);
    for (i, &word) in ranks.iter().enumerate() {
        let x = word ^ key;
        // The lowest flagged lane is the lowest zero lane of `x`.
        let zero = x.wrapping_sub(LANES) & !x & HIGH;
        if zero != 0 {
            return 8 * i + zero.trailing_zeros() as usize / 8;
        }
    }
    unreachable!("LRU ranks are a permutation of the ways")
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

    /// The ranks of `ways` lanes.
    fn lanes(ranks: &[u64], ways: usize) -> Vec<u64> {
        (0..ways)
            .map(|w| ranks[w / 8] >> (8 * (w % 8)) & 0xFF)
            .collect()
    }

    #[test]
    fn touch_moves_to_front_and_keeps_a_permutation() {
        for ways in [1, 7, 8, 9, 20, 64] {
            let r = Replacement::new(ReplacementKind::Lru, ways, 1);
            let mut ranks = vec![0; r.rank_words()];
            Replacement::init_ranks(&mut ranks);
            let mut order: Vec<usize> = (0..ways).collect();
            let mut rng = Rng64::seed_from_u64(ways as u64);
            for _ in 0..200 {
                let w = rng.gen_range(0..ways);
                Replacement::touch(&mut ranks, w);
                order.retain(|&x| x != w);
                order.insert(0, w);
                let mut expected = vec![0; ways];
                for (rank, &way) in order.iter().enumerate() {
                    expected[way] = rank as u64;
                }
                assert_eq!(lanes(&ranks, ways), expected, "{ways} ways");
                assert_eq!(oldest(&ranks, ways), order[ways - 1]);
            }
            // Padding lanes never move.
            for lane in ways..8 * ranks.len() {
                assert_eq!(ranks[lane / 8] >> (8 * (lane % 8)) & 0xFF, lane as u64);
            }
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
