//! Hardware prefetcher models.
//!
//! Paper §8 ("The impact of H/W prefetching") points out that Intel's L2
//! prefetchers assume contiguous layouts: the *adjacent cache line*
//! prefetcher pairs each line with its buddy, and the *streamer* chases
//! ascending/descending line runs within a 4 KB page. Slice-aware
//! allocation is deliberately non-contiguous, so these prefetchers stop
//! helping — an effect DESIGN.md lists as an ablation. The models here are
//! intentionally simple: they emit candidate line numbers for the machine
//! to fill into L2 in the background (no cycle cost to the core, matching
//! the fire-and-forget nature of hardware prefetch).

/// Configuration of the per-core L2 prefetchers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Adjacent-cache-line prefetcher: fetch the 128 B buddy of each miss.
    pub(crate) adjacent_line: bool,
    /// L2 streamer: on a detected +1/-1 line stride, fetch `stream_depth`
    /// lines ahead (within the same 4 KB page).
    pub(crate) streamer: bool,
    /// How many lines ahead the streamer runs.
    pub(crate) stream_depth: u8,
}

impl PrefetchConfig {
    /// Both prefetchers off (the microbenchmark-friendly default; the
    /// paper's random-access experiments are insensitive to prefetch).
    pub fn disabled() -> Self {
        Self {
            adjacent_line: false,
            streamer: false,
            stream_depth: 0,
        }
    }

    /// Both prefetchers on, streamer depth 2 — the BIOS-default-like
    /// setting used by the prefetch ablation bench.
    pub fn bios_default() -> Self {
        Self {
            adjacent_line: true,
            streamer: true,
            stream_depth: 2,
        }
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Per-core streamer state: last miss line and a stride confidence counter.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamerState {
    last_line: u64,
    dir: i8,
    confidence: u8,
}

/// Lines within one 4 KB page (64 lines of 64 B).
const LINES_PER_PAGE: u64 = 64;

impl StreamerState {
    /// Observes a demand miss on `line` and returns its prefetch
    /// candidates: the buddy line, then the stream run. The state is
    /// updated before this returns; the iterator owns what it needs, so
    /// the caller may fill caches while it iterates.
    pub(crate) fn observe(&mut self, line: u64, cfg: &PrefetchConfig) -> impl Iterator<Item = u64> {
        // The buddy line in the same aligned 128 B pair.
        let buddy = cfg.adjacent_line.then_some(line ^ 1);
        let (mut delta, mut depth) = (0i64, 0i64);
        if cfg.streamer {
            let d = line as i64 - self.last_line as i64;
            if d == 1 || d == -1 {
                if self.dir == d as i8 {
                    self.confidence = self.confidence.saturating_add(1);
                } else {
                    self.dir = d as i8;
                    self.confidence = 1;
                }
                if self.confidence >= 2 {
                    delta = d;
                    depth = i64::from(cfg.stream_depth);
                }
            } else {
                self.dir = 0;
                self.confidence = 0;
            }
            self.last_line = line;
        }
        let run = (1..=depth).filter_map(move |k| {
            let cand = line as i64 + delta * k;
            (cand >= 0 && same_page(line, cand as u64)).then_some(cand as u64)
        });
        buddy.into_iter().chain(run)
    }
}

fn same_page(a: u64, b: u64) -> bool {
    a / LINES_PER_PAGE == b / LINES_PER_PAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing() {
        let cfg = PrefetchConfig::disabled();
        let mut st = StreamerState::default();
        assert!(st.observe(100, &cfg).collect::<Vec<_>>().is_empty());
    }

    #[test]
    fn adjacent_line_pairs() {
        let cfg = PrefetchConfig {
            adjacent_line: true,
            streamer: false,
            stream_depth: 0,
        };
        let mut st = StreamerState::default();
        assert_eq!(st.observe(10, &cfg).collect::<Vec<_>>(), vec![11]);
        assert_eq!(st.observe(11, &cfg).collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn streamer_needs_confidence() {
        let cfg = PrefetchConfig {
            adjacent_line: false,
            streamer: true,
            stream_depth: 2,
        };
        let mut st = StreamerState::default();
        assert!(
            st.observe(100, &cfg).collect::<Vec<_>>().is_empty(),
            "first touch: no stride"
        );
        assert!(
            st.observe(101, &cfg).collect::<Vec<_>>().is_empty(),
            "stride seen once"
        );
        assert_eq!(
            st.observe(102, &cfg).collect::<Vec<_>>(),
            vec![103, 104],
            "stride confirmed"
        );
    }

    #[test]
    fn streamer_stops_at_page_boundary() {
        let cfg = PrefetchConfig {
            adjacent_line: false,
            streamer: true,
            stream_depth: 4,
        };
        let mut st = StreamerState::default();
        let _ = st.observe(60, &cfg);
        let _ = st.observe(61, &cfg);
        let out: Vec<u64> = st.observe(62, &cfg).collect();
        assert_eq!(out, vec![63], "lines 64+ are in the next 4 KB page");
    }

    #[test]
    fn streamer_handles_descending() {
        let cfg = PrefetchConfig {
            adjacent_line: false,
            streamer: true,
            stream_depth: 1,
        };
        let mut st = StreamerState::default();
        let _ = st.observe(70, &cfg);
        let _ = st.observe(69, &cfg);
        assert_eq!(st.observe(68, &cfg).collect::<Vec<_>>(), vec![67]);
    }

    #[test]
    fn random_pattern_never_streams() {
        let cfg = PrefetchConfig::bios_default();
        let mut st = StreamerState::default();
        let mut streamed = 0;
        for line in [5u64, 900, 23, 4000, 17, 250] {
            let out: Vec<u64> = st.observe(line, &cfg).collect();
            // Adjacent-line always fires; anything beyond one candidate
            // would be the streamer.
            streamed += out.len().saturating_sub(1);
        }
        assert_eq!(streamed, 0);
    }
}
