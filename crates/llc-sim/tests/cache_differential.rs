//! Differential test of the flat struct-of-arrays [`SetAssocCache`]
//! against the nested-`Vec` cache it replaced, kept below as a test-only
//! reference: one heap `Vec<Option<Entry>>` per set and one
//! `ReplacementState` (with its own stamp `Vec` and clock) per set.
//!
//! Both caches are driven with the same seeded random operations —
//! lookups, probes, plain and CAT/DDIO-masked inserts, `mark_dirty` and
//! invalidations — and must agree after every one on the return value,
//! the statistics, the occupancy and the order of `resident_lines()`.
//! No figure golden runs tree-PLRU or random replacement, so this is
//! their guard.

use llc_sim::cache::{CacheStats, Evicted, SetAssocCache};
use llc_sim::replacement::ReplacementKind;
use trafficgen::Rng64;

/// The cache as it was before the flat layout.
mod reference {
    use llc_sim::cache::{CacheStats, Evicted};
    use llc_sim::replacement::ReplacementKind;
    use trafficgen::Rng64;

    #[derive(Clone, Copy)]
    struct Entry {
        line: u64,
        dirty: bool,
    }

    enum ReplacementState {
        Lru { stamps: Vec<u64>, clock: u64 },
        TreePlru { bits: u64, ways: usize },
        Random { ways: usize },
    }

    impl ReplacementState {
        fn new(kind: ReplacementKind, ways: usize) -> Self {
            match kind {
                ReplacementKind::Lru => ReplacementState::Lru {
                    stamps: vec![0; ways],
                    clock: 0,
                },
                ReplacementKind::TreePlru => {
                    assert!(ways.is_power_of_two(), "tree-PLRU needs 2^k ways");
                    ReplacementState::TreePlru { bits: 0, ways }
                }
                ReplacementKind::Random => ReplacementState::Random { ways },
            }
        }

        fn touch(&mut self, way: usize) {
            match self {
                ReplacementState::Lru { stamps, clock } => {
                    *clock += 1;
                    stamps[way] = *clock;
                }
                ReplacementState::TreePlru { bits, ways } => {
                    let mut node = 0usize;
                    let mut lo = 0usize;
                    let mut hi = *ways;
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
                ReplacementState::Random { .. } => {}
            }
        }

        fn victim_masked(&self, rng: &mut Rng64, mask: u64) -> usize {
            assert!(mask != 0, "way mask allows no victim");
            match self {
                ReplacementState::Lru { stamps, .. } => {
                    let mut best: Option<usize> = None;
                    for (i, &s) in stamps.iter().enumerate() {
                        if mask & (1u64 << i) == 0 {
                            continue;
                        }
                        if best.is_none_or(|b| s < stamps[b]) {
                            best = Some(i);
                        }
                    }
                    best.expect("mask selects at least one existing way")
                }
                ReplacementState::TreePlru { ways, .. } | ReplacementState::Random { ways } => {
                    let allowed: Vec<usize> =
                        (0..*ways).filter(|i| mask & (1u64 << i) != 0).collect();
                    allowed[rng.gen_range(0..allowed.len())]
                }
            }
        }
    }

    pub struct RefCache {
        sets: Vec<Vec<Option<Entry>>>,
        repl: Vec<ReplacementState>,
        ways: usize,
        set_mask: u64,
        rng: Rng64,
        stats: CacheStats,
    }

    impl RefCache {
        pub fn new(set_count: usize, ways: usize, kind: ReplacementKind, seed: u64) -> Self {
            Self {
                sets: vec![vec![None; ways]; set_count],
                repl: (0..set_count)
                    .map(|_| ReplacementState::new(kind, ways))
                    .collect(),
                ways,
                set_mask: (set_count - 1) as u64,
                rng: Rng64::seed_from_u64(seed),
                stats: CacheStats::default(),
            }
        }

        fn set_of(&self, line: u64) -> usize {
            (line & self.set_mask) as usize
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn lookup(&mut self, line: u64) -> Option<bool> {
            let set = self.set_of(line);
            for (w, slot) in self.sets[set].iter().enumerate() {
                if let Some(e) = slot {
                    if e.line == line {
                        self.repl[set].touch(w);
                        self.stats.hits += 1;
                        return Some(e.dirty);
                    }
                }
            }
            self.stats.misses += 1;
            None
        }

        pub fn probe(&self, line: u64) -> bool {
            let set = self.set_of(line);
            self.sets[set].iter().flatten().any(|e| e.line == line)
        }

        pub fn mark_dirty(&mut self, line: u64) -> bool {
            let set = self.set_of(line);
            for slot in self.sets[set].iter_mut().flatten() {
                if slot.line == line {
                    slot.dirty = true;
                    return true;
                }
            }
            false
        }

        pub fn insert_masked(&mut self, line: u64, dirty: bool, mask: u64) -> Option<Evicted> {
            let set = self.set_of(line);
            for (w, slot) in self.sets[set].iter_mut().enumerate() {
                if let Some(e) = slot {
                    if e.line == line {
                        e.dirty |= dirty;
                        self.repl[set].touch(w);
                        return None;
                    }
                }
            }
            self.stats.fills += 1;
            for w in 0..self.ways {
                if mask & (1u64 << w) != 0 && self.sets[set][w].is_none() {
                    self.sets[set][w] = Some(Entry { line, dirty });
                    self.repl[set].touch(w);
                    return None;
                }
            }
            let effective = mask & ((1u64 << self.ways) - 1).max(1);
            let w = self.repl[set].victim_masked(&mut self.rng, effective);
            let old = self.sets[set][w].replace(Entry { line, dirty });
            self.repl[set].touch(w);
            self.stats.evictions += 1;
            old.map(|e| Evicted {
                line: e.line,
                dirty: e.dirty,
            })
        }

        pub fn invalidate(&mut self, line: u64) -> Option<bool> {
            let set = self.set_of(line);
            for slot in self.sets[set].iter_mut() {
                if let Some(e) = *slot {
                    if e.line == line {
                        *slot = None;
                        return Some(e.dirty);
                    }
                }
            }
            None
        }

        pub fn occupancy(&self) -> usize {
            self.sets.iter().map(|s| s.iter().flatten().count()).sum()
        }

        pub fn resident_lines(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
            self.sets
                .iter()
                .flat_map(|s| s.iter().flatten().map(|e| (e.line, e.dirty)))
        }
    }
}

use reference::RefCache;

/// A random way mask of the shapes the machine uses, never empty within
/// `ways`: a CAT-style contiguous run, DDIO's top `k` ways, or either
/// with stray bits above the way count (an unrestricted CAT mask is
/// `u64::MAX`).
fn random_mask(rng: &mut Rng64, ways: usize) -> u64 {
    let run = |len: usize, lo: usize| (u64::MAX >> (64 - len)) << lo;
    let mask = match rng.gen_range(0u32..4) {
        0 => {
            let len = rng.gen_range(1..ways + 1);
            run(len, rng.gen_range(0..ways - len + 1))
        }
        1 => {
            let k = rng.gen_range(1..ways + 1);
            run(k, ways - k)
        }
        2 => u64::MAX,
        _ => (rng.next_u64() | 1 << rng.gen_range(0..ways)) & (u64::MAX >> (64 - ways)),
    };
    if rng.gen_bool(0.25) && ways < 64 {
        mask | rng.next_u64() << ways
    } else {
        mask
    }
}

/// One observable result of an operation, compared across both caches.
#[derive(Debug, PartialEq)]
enum Outcome {
    Hit(Option<bool>),
    Probe(bool),
    Insert(Option<Evicted>),
    Dirty(bool),
    Invalidate(Option<bool>),
}

fn snapshot_flat(c: &SetAssocCache) -> (CacheStats, usize, Vec<(u64, bool)>) {
    (c.stats(), c.occupancy(), c.resident_lines().collect())
}

fn snapshot_ref(c: &RefCache) -> (CacheStats, usize, Vec<(u64, bool)>) {
    (c.stats(), c.occupancy(), c.resident_lines().collect())
}

/// Drives both caches with `ops` seeded operations over a line range
/// about three times the capacity, so sets fill, evict and refill.
fn run(kind: ReplacementKind, sets: usize, ways: usize, seed: u64, ops: usize) {
    let mut flat = SetAssocCache::new(sets, ways, kind, seed);
    let mut reference = RefCache::new(sets, ways, kind, seed);
    let mut rng = Rng64::seed_from_u64(seed ^ 0xd1ff);
    let span = (sets * ways * 3) as u64;
    for i in 0..ops {
        // Mostly small line numbers, sometimes huge ones: the tag is the
        // whole line number, high bits included.
        let line = rng.gen_range(0..span)
            + if rng.gen_bool(0.1) {
                (rng.next_u64() >> 7) / span * span
            } else {
                0
            };
        let dirty = rng.gen_bool(0.3);
        let (a, b) = match rng.gen_range(0u32..10) {
            0 | 1 => (
                Outcome::Hit(flat.lookup(line)),
                Outcome::Hit(reference.lookup(line)),
            ),
            2 => (
                Outcome::Probe(flat.probe(line)),
                Outcome::Probe(reference.probe(line)),
            ),
            3 | 4 => (
                Outcome::Insert(flat.insert(line, dirty)),
                Outcome::Insert(reference.insert_masked(line, dirty, u64::MAX)),
            ),
            5..=7 => {
                let mask = random_mask(&mut rng, ways);
                (
                    Outcome::Insert(flat.insert_masked(line, dirty, mask)),
                    Outcome::Insert(reference.insert_masked(line, dirty, mask)),
                )
            }
            8 => (
                Outcome::Dirty(flat.mark_dirty(line)),
                Outcome::Dirty(reference.mark_dirty(line)),
            ),
            _ => (
                Outcome::Invalidate(flat.invalidate(line)),
                Outcome::Invalidate(reference.invalidate(line)),
            ),
        };
        assert_eq!(
            a, b,
            "{kind:?} {sets}x{ways} seed {seed}: op {i} on line {line}"
        );
        assert_eq!(
            snapshot_flat(&flat),
            snapshot_ref(&reference),
            "{kind:?} {sets}x{ways} seed {seed}: state after op {i}"
        );
    }
}

const WAYS: [usize; 4] = [8, 11, 16, 20];

#[test]
fn lru_matches_reference() {
    for ways in WAYS {
        for seed in 1..=3 {
            run(ReplacementKind::Lru, 8, ways, seed, 6000);
        }
    }
}

#[test]
fn random_matches_reference() {
    for ways in WAYS {
        for seed in 1..=3 {
            run(ReplacementKind::Random, 8, ways, seed, 6000);
        }
    }
}

#[test]
fn tree_plru_matches_reference() {
    for ways in WAYS {
        if ways.is_power_of_two() {
            for seed in 1..=3 {
                run(ReplacementKind::TreePlru, 8, ways, seed, 6000);
            }
        } else {
            // Both reject a way count the tree cannot cover.
            let flat = std::panic::catch_unwind(|| {
                SetAssocCache::new(8, ways, ReplacementKind::TreePlru, 1)
            });
            let reference =
                std::panic::catch_unwind(|| RefCache::new(8, ways, ReplacementKind::TreePlru, 1));
            assert!(flat.is_err() && reference.is_err(), "{ways} ways");
        }
    }
}

/// Single-set and single-way corners, where every insert conflicts.
#[test]
fn degenerate_geometries_match_reference() {
    for kind in [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Random,
    ] {
        run(kind, 1, 8, 11, 4000);
        run(kind, 64, 1, 12, 4000);
    }
}
