//! Phase-shifting key generators: non-stationary workloads whose *key
//! distribution* changes over the run (paper §8's "variability of hot
//! data").
//!
//! [`openloop::RateProfile`](crate::openloop::RateProfile) shifts the
//! arrival *rate* over time; this module shifts *which keys are
//! popular* over the request stream. A [`PhaseSchedule`] partitions the
//! draw sequence into [`Phase`]s — each a span of draws with its own
//! rank-space rotation (Zipf hot-set churn) and optional flash-crowd
//! override (a burst key absorbing a fraction of draws) — and
//! [`PhaseGen`] applies the active phase to every rank a wrapped
//! [`ZipfGen`] emits. A cycling schedule models diurnal rotation: the
//! same phases repeat forever in order.
//!
//! Phases are indexed by *draw count*, not wall time, so a `PhaseGen`
//! composes freely with any arrival process (closed-loop top-ups,
//! [`OpenLoopGen`](crate::openloop::OpenLoopGen) with a `RateProfile`
//! flash, a `FaultPlan` window): the n-th request carries the n-th
//! draw's phase no matter when it is sent. Everything is a pure
//! function of the construction parameters and seeds — repeated runs
//! are bit-identical, and each phase's draw count conserves exactly
//! against the schedule (asserted in `tests/prop.rs`).

use crate::rng::Rng64;
use crate::zipf::ZipfGen;

/// A flash-crowd override active during one phase: `permille`/1000 of
/// the phase's draws are redirected to `rank` (post-rotation rank
/// space), modelling a single suddenly-viral key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlashCrowd {
    /// The rank every redirected draw lands on.
    pub(crate) rank: u64,
    /// Fraction of draws redirected, in permille.
    pub(crate) permille: u32,
}

/// One span of the request stream with a fixed key regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Draws this phase covers.
    pub(crate) len: u64,
    /// Rank-space rotation: rank `r` becomes `(r + rotate) mod n`.
    /// Because Zipf popularity attaches to the *rank*, rotating moves
    /// the whole hot set to a different stretch of the key space —
    /// hot-set churn.
    pub(crate) rotate: u64,
    /// Optional flash-crowd override for this phase.
    pub(crate) flash: Option<FlashCrowd>,
}

impl Phase {
    /// A plain phase of `len` draws with rotation `rotate` and no flash
    /// crowd.
    ///
    /// # Panics
    ///
    /// Panics when `len == 0` (a zero-length phase would be
    /// unreachable, silently breaking per-phase conservation).
    pub fn new(len: u64, rotate: u64) -> Self {
        assert!(len > 0, "phase length must be positive");
        Self {
            len,
            rotate,
            flash: None,
        }
    }

    /// The same phase with a flash crowd redirecting `permille`/1000 of
    /// draws to `rank`.
    ///
    /// # Panics
    ///
    /// Panics when `permille > 1000`.
    #[must_use]
    pub fn with_flash(mut self, rank: u64, permille: u32) -> Self {
        assert!(permille <= 1000, "flash fraction out of range");
        self.flash = Some(FlashCrowd { rank, permille });
        self
    }
}

/// A piecewise schedule over the draw sequence: phase *i* covers draws
/// `[Σ len_0..i, Σ len_0..=i)`. One-shot schedules extend their last
/// phase forever; cycling schedules repeat from the top (diurnal
/// rotation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSchedule {
    phases: Vec<Phase>,
    cycle: bool,
}

impl PhaseSchedule {
    /// A one-shot schedule: after the last phase's span the last phase
    /// stays active forever.
    ///
    /// # Panics
    ///
    /// Panics on an empty phase list.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        Self {
            phases,
            cycle: false,
        }
    }

    /// A cycling schedule: the phases repeat in order forever.
    ///
    /// # Panics
    ///
    /// Panics on an empty phase list.
    pub fn cycling(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        Self {
            phases,
            cycle: true,
        }
    }

    /// Hot-set churn: `phases` spans of `len` draws, each rotating the
    /// rank space by a further `step` — the canonical non-stationary
    /// Zipf workload (the hot set moves to a fresh stretch of the key
    /// space every `len` draws). Cycles, so the rotation pattern
    /// repeats like a schedule of shifts.
    ///
    /// # Panics
    ///
    /// Panics when `phases == 0` (or `len == 0`, via [`Phase::new`]).
    pub fn hot_set_churn(phases: usize, len: u64, step: u64) -> Self {
        assert!(phases > 0, "churn needs at least one phase");
        Self::cycling(
            (0..phases)
                .map(|i| Phase::new(len, step * i as u64))
                .collect(),
        )
    }

    /// The phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total draws covered by one pass over the schedule.
    pub(crate) fn total_len(&self) -> u64 {
        self.phases.iter().map(|p| p.len).sum()
    }

    /// The phase index active at draw `idx` (0-based).
    pub fn phase_at(&self, idx: u64) -> usize {
        let total = self.total_len();
        let mut pos = if self.cycle { idx % total } else { idx };
        for (i, p) in self.phases.iter().enumerate() {
            if pos < p.len {
                return i;
            }
            pos -= p.len;
        }
        // One-shot schedule past its end: the last phase extends.
        self.phases.len() - 1
    }
}

/// A [`ZipfGen`] passed through a [`PhaseSchedule`]: the non-stationary
/// key source for churn studies. Deterministic: the rank sequence is a
/// pure function of the wrapped generator's seed, the schedule, and the
/// flash seed.
#[derive(Debug)]
pub struct PhaseGen {
    base: ZipfGen,
    schedule: PhaseSchedule,
    /// Decides per-draw flash redirection; separate from the Zipf
    /// stream so adding a flash crowd to one phase cannot perturb the
    /// ranks drawn in any other phase.
    flash_rng: Rng64,
    drawn: u64,
}

impl PhaseGen {
    /// Wraps `base` in `schedule`. `seed` drives only the flash-crowd
    /// redirection decisions.
    pub fn new(base: ZipfGen, schedule: PhaseSchedule, seed: u64) -> Self {
        Self {
            base,
            schedule,
            flash_rng: Rng64::seed_from_u64(seed),
            drawn: 0,
        }
    }

    /// The wrapped generator's key-space size.
    pub fn n(&self) -> u64 {
        self.base.n()
    }

    /// Draws made so far.
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// The phase index the *next* draw will use.
    pub fn phase_index(&self) -> usize {
        self.schedule.phase_at(self.drawn)
    }

    /// Draws the next rank under the active phase: Zipf draw → rotation
    /// → flash-crowd override.
    pub fn next_rank(&mut self) -> u64 {
        let phase = self.schedule.phases[self.schedule.phase_at(self.drawn)];
        self.drawn += 1;
        let n = self.base.n();
        let mut rank = self.base.next_rank();
        if phase.rotate > 0 {
            rank = (rank + phase.rotate % n) % n;
        }
        if let Some(flash) = phase.flash {
            if self.flash_rng.gen_range(0u32..1000) < flash.permille {
                rank = flash.rank % n;
            }
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_schedule_extends_its_last_phase() {
        let s = PhaseSchedule::new(vec![Phase::new(10, 0), Phase::new(5, 3)]);
        assert_eq!(s.phase_at(0), 0);
        assert_eq!(s.phase_at(9), 0);
        assert_eq!(s.phase_at(10), 1);
        assert_eq!(s.phase_at(14), 1);
        assert_eq!(s.phase_at(15), 1, "last phase extends forever");
        assert_eq!(s.phase_at(1_000_000), 1);
    }

    #[test]
    fn cycling_schedule_wraps() {
        let s = PhaseSchedule::cycling(vec![Phase::new(4, 0), Phase::new(2, 7)]);
        assert_eq!(s.total_len(), 6);
        for i in 0..24u64 {
            let expect = if i % 6 < 4 { 0 } else { 1 };
            assert_eq!(s.phase_at(i), expect, "draw {i}");
        }
    }

    #[test]
    fn rotation_moves_the_zipf_head() {
        // Same Zipf stream, rotated by 100 in phase 1: the head rank
        // must move from 0 to 100 exactly at the phase boundary.
        let n = 1 << 12;
        let schedule = PhaseSchedule::new(vec![Phase::new(4000, 0), Phase::new(4000, 100)]);
        let mut g = PhaseGen::new(ZipfGen::new(n, 0.99, 42), schedule, 7);
        let head = |g: &mut PhaseGen, draws: usize| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..draws {
                *counts.entry(g.next_rank()).or_insert(0u32) += 1;
            }
            counts.into_iter().max_by_key(|&(k, c)| (c, k)).unwrap().0
        };
        assert_eq!(head(&mut g, 4000), 0);
        assert_eq!(head(&mut g, 4000), 100);
    }

    #[test]
    fn flash_crowd_absorbs_its_share() {
        let schedule = PhaseSchedule::new(vec![Phase::new(10_000, 0).with_flash(99, 300)]);
        let mut g = PhaseGen::new(ZipfGen::new(1 << 10, 0.0, 5), schedule, 11);
        let hits = (0..10_000).filter(|_| g.next_rank() == 99).count();
        // 30 % redirected plus the uniform base rate (~0.1 %).
        assert!((2800..3500).contains(&hits), "flash hits {hits}");
    }

    #[test]
    fn ranks_stay_in_range_under_any_phase() {
        let n = 1000;
        let schedule = PhaseSchedule::cycling(vec![
            Phase::new(50, 0),
            Phase::new(50, 999),
            Phase::new(50, 1234).with_flash(5000, 500),
        ]);
        let mut g = PhaseGen::new(ZipfGen::new(n, 0.9, 3), schedule, 4);
        for _ in 0..2000 {
            assert!(g.next_rank() < n);
        }
    }

    #[test]
    fn flash_in_one_phase_does_not_perturb_other_phases() {
        // The flash RNG is separate from the Zipf stream: phase 0's
        // draws must be identical whether or not phase 1 has a flash.
        let mk = |flash: bool| {
            let p1 = if flash {
                Phase::new(100, 0).with_flash(3, 900)
            } else {
                Phase::new(100, 0)
            };
            let schedule = PhaseSchedule::new(vec![Phase::new(100, 0), p1]);
            PhaseGen::new(ZipfGen::new(1 << 8, 0.99, 9), schedule, 13)
        };
        let (mut a, mut b) = (mk(false), mk(true));
        for i in 0..100 {
            assert_eq!(a.next_rank(), b.next_rank(), "draw {i} in phase 0");
        }
    }

    #[test]
    #[should_panic(expected = "phase length must be positive")]
    fn zero_length_phase_is_rejected() {
        let _ = Phase::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_is_rejected() {
        let _ = PhaseSchedule::new(Vec::new());
    }
}
