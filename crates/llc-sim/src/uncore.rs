//! Uncore performance monitoring: per-slice CBo/CHA event counters.
//!
//! Each LLC slice has a monitoring block — a *C-Box* (CBo) on Haswell, a
//! *Caching and Home Agent* (CHA) on Skylake — that can be programmed to
//! count events such as "all LLC lookups" (paper §2). The paper's
//! polling technique (§2.1) programs every CBo to count lookups, hammers
//! one physical address, and reads back which slice's counter moved.
//!
//! [`Uncore`] reproduces that interface: select an event per counter, read
//! and reset counters, with the [`crate::machine::Machine`] feeding events
//! as the simulated hierarchy runs.

/// Countable uncore events, a small subset of Intel's event list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncoreEvent {
    /// Every lookup that reached this slice (`LLC_LOOKUP.ANY`).
    LlcLookupAny,
    /// Lookups that missed in this slice (`LLC_LOOKUP.MISS`-style).
    LlcMiss,
    /// Lines written back / filled into this slice.
    LlcFill,
    /// Lines evicted from this slice (`LLC_VICTIMS.ANY`-style).
    LlcVictims,
}

/// Raw per-slice tallies; the machine bumps these unconditionally and the
/// programmed [`UncoreEvent`] selects which one a counter read returns.
#[derive(Debug, Clone, Copy, Default)]
struct SliceTally {
    lookups: u64,
    misses: u64,
    fills: u64,
    victims: u64,
}

/// A point-in-time capture of the selected event's per-slice readings,
/// the base of a windowed-delta read ([`Uncore::read_window`]). Lets a
/// controller poll counter *growth* over its own control epochs without
/// resetting counters other observers may be watching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncoreSnapshot {
    event: UncoreEvent,
    counts: Vec<u64>,
}

/// The uncore monitoring unit: one programmable counter per slice.
#[derive(Debug)]
pub struct Uncore {
    tallies: Vec<SliceTally>,
    baseline: Vec<SliceTally>,
    event: UncoreEvent,
}

impl Uncore {
    /// Monitoring for `slices` slices, programmed to count LLC lookups
    /// (the event the paper's polling uses).
    pub(crate) fn new(slices: usize) -> Self {
        Self {
            tallies: vec![SliceTally::default(); slices],
            baseline: vec![SliceTally::default(); slices],
            event: UncoreEvent::LlcLookupAny,
        }
    }

    /// Programs every per-slice counter to `event` (like writing the CBo
    /// event-select MSR) and resets the counters.
    pub fn select(&mut self, event: UncoreEvent) {
        self.event = event;
        self.reset();
    }

    /// Resets all counters to zero (snapshot of the running tallies).
    pub(crate) fn reset(&mut self) {
        self.baseline.copy_from_slice(&self.tallies);
    }

    /// Reads slice `s`'s counter for the selected event.
    pub(crate) fn read(&self, s: usize) -> u64 {
        let t = &self.tallies[s];
        let b = &self.baseline[s];
        match self.event {
            UncoreEvent::LlcLookupAny => t.lookups - b.lookups,
            UncoreEvent::LlcMiss => t.misses - b.misses,
            UncoreEvent::LlcFill => t.fills - b.fills,
            UncoreEvent::LlcVictims => t.victims - b.victims,
        }
    }

    /// Reads all counters at once.
    pub(crate) fn read_all(&self) -> Vec<u64> {
        (0..self.tallies.len()).map(|s| self.read(s)).collect()
    }

    /// The slice whose counter grew the most — the polling decision rule
    /// of §2.1 ("a C-Box counter showing a larger number of lookups will
    /// identify that the slice is mapped to that particular address").
    ///
    /// Tie-break: the **lowest-numbered** slice wins. Polling hammers one
    /// address hard enough that the target slice strictly dominates, so
    /// ties only arise in degenerate inputs (e.g. a freshly reset
    /// uncore) — but a controller branching on this value still needs
    /// the answer to be a pure function of the counters, not of
    /// iterator-combinator ordering quirks.
    pub fn busiest_slice(&self) -> usize {
        let mut best = 0;
        for s in 1..self.tallies.len() {
            if self.read(s) > self.read(best) {
                best = s;
            }
        }
        best
    }

    /// Captures the selected event's current per-slice readings for later
    /// windowed-delta reads via [`Uncore::read_window`]. Unlike
    /// [`Uncore::reset`], taking a snapshot does not disturb the shared
    /// counters, so several observers (a figure's reporting and an
    /// isolation controller, say) can each keep their own window without
    /// clobbering one another.
    pub fn snapshot(&self) -> UncoreSnapshot {
        UncoreSnapshot {
            event: self.event,
            counts: self.read_all(),
        }
    }

    /// Slice `s`'s counter growth since `base` was taken: the windowed
    /// delta `read(s) - base[s]`.
    ///
    /// The window is only meaningful while the programmed event is
    /// unchanged and no [`Uncore::reset`]/[`Uncore::select`] intervened
    /// since the snapshot; a reset can make the live reading smaller
    /// than the snapshot, in which case the delta saturates to 0 rather
    /// than wrapping.
    ///
    /// # Panics
    ///
    /// Panics when `base` was taken under a different programmed event,
    /// or from an uncore with a different slice count.
    pub(crate) fn read_window(&self, base: &UncoreSnapshot, s: usize) -> u64 {
        assert_eq!(
            base.event, self.event,
            "snapshot was taken under a different uncore event"
        );
        assert_eq!(
            base.counts.len(),
            self.tallies.len(),
            "snapshot slice count mismatch"
        );
        self.read(s).saturating_sub(base.counts[s])
    }

    /// The windowed delta since `base` summed over all slices (each
    /// slice's as [`Uncore::read_window`] reads it), with `base` moved up
    /// to the current readings in place — what a fresh
    /// [`Uncore::snapshot`] would hold — so the next call reads the next
    /// window. Allocates nothing.
    ///
    /// # Panics
    ///
    /// As [`Uncore::read_window`].
    pub fn advance_window(&self, base: &mut UncoreSnapshot) -> u64 {
        let mut total = 0;
        for s in 0..self.tallies.len() {
            total += self.read_window(base, s);
            base.counts[s] = self.read(s);
        }
        total
    }

    // Event feeds, called by the machine.

    pub(crate) fn on_lookup(&mut self, slice: usize) {
        self.tallies[slice].lookups += 1;
    }

    pub(crate) fn on_miss(&mut self, slice: usize) {
        self.tallies[slice].misses += 1;
    }

    pub(crate) fn on_fill(&mut self, slice: usize) {
        self.tallies[slice].fills += 1;
    }

    pub(crate) fn on_victim(&mut self, slice: usize) {
        self.tallies[slice].victims += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_selected_event_only() {
        let mut u = Uncore::new(4);
        u.on_lookup(2);
        u.on_lookup(2);
        u.on_miss(2);
        assert_eq!(u.read(2), 2, "lookup event selected by default");
        u.select(UncoreEvent::LlcMiss);
        assert_eq!(u.read(2), 0, "select resets");
        u.on_miss(2);
        assert_eq!(u.read(2), 1);
    }

    #[test]
    fn reset_zeroes_without_losing_feed() {
        let mut u = Uncore::new(2);
        u.on_lookup(0);
        u.reset();
        assert_eq!(u.read(0), 0);
        u.on_lookup(0);
        assert_eq!(u.read(0), 1);
    }

    #[test]
    fn busiest_slice_wins_polling() {
        let mut u = Uncore::new(8);
        for s in 0..8 {
            u.on_lookup(s);
        }
        for _ in 0..100 {
            u.on_lookup(5);
        }
        assert_eq!(u.busiest_slice(), 5);
    }

    #[test]
    fn read_all_matches_individual_reads() {
        let mut u = Uncore::new(3);
        u.on_fill(1);
        u.select(UncoreEvent::LlcFill);
        u.on_fill(1);
        u.on_fill(2);
        assert_eq!(u.read_all(), vec![0, 1, 1]);
    }

    #[test]
    fn busiest_slice_tie_breaks_to_lowest_index() {
        let u = Uncore::new(4);
        assert_eq!(u.busiest_slice(), 0, "all-zero counters: slice 0 wins");
        let mut u = Uncore::new(4);
        u.on_lookup(1);
        u.on_lookup(3);
        assert_eq!(u.busiest_slice(), 1, "tied maxima: lowest index wins");
    }

    #[test]
    fn windowed_deltas_do_not_disturb_counters() {
        let mut u = Uncore::new(3);
        u.on_lookup(0);
        u.on_lookup(2);
        let base = u.snapshot();
        u.on_lookup(2);
        u.on_lookup(2);
        // The window sees only post-snapshot growth...
        assert_eq!(u.read_window(&base, 0), 0);
        assert_eq!(u.read_window(&base, 2), 2);
        // ...while the live counters still hold the full totals.
        assert_eq!(u.read_all(), vec![1, 0, 3]);
        // Advancing the window reads its total and re-bases it on now.
        let mut window = base.clone();
        assert_eq!(u.advance_window(&mut window), 2);
        assert_eq!(window, u.snapshot());
        u.on_lookup(1);
        assert_eq!(u.advance_window(&mut window), 1);
        assert_eq!(u.advance_window(&mut window), 0);
        assert_eq!(u.read_all(), vec![1, 1, 3]);
    }

    #[test]
    fn window_saturates_after_reset() {
        let mut u = Uncore::new(1);
        u.on_lookup(0);
        u.on_lookup(0);
        let base = u.snapshot();
        u.reset();
        u.on_lookup(0);
        // Live reading (1) is below the snapshot (2): saturate, don't wrap.
        assert_eq!(u.read_window(&base, 0), 0);
    }

    #[test]
    #[should_panic(expected = "different uncore event")]
    fn window_rejects_cross_event_snapshot() {
        let mut u = Uncore::new(2);
        let base = u.snapshot();
        u.select(UncoreEvent::LlcMiss);
        u.read_window(&base, 0);
    }

    #[test]
    fn victims_event() {
        let mut u = Uncore::new(2);
        u.select(UncoreEvent::LlcVictims);
        u.on_victim(0);
        u.on_victim(0);
        assert_eq!(u.read(0), 2);
        assert_eq!(u.read(1), 0);
    }
}
