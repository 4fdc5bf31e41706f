//! Deterministic, seeded fault injection for the simulated I/O path.
//!
//! Real testbeds misbehave: frames arrive with bad CRCs, links flap,
//! mempools run dry under bursts, and NICs stall their RX rings. The
//! paper's latency story (and any reproduction of it) is only credible
//! if the dataplane degrades gracefully under those conditions instead
//! of panicking or silently losing accounting. This module provides a
//! [`FaultPlan`] — a declarative, reproducible schedule of faults whose
//! outage windows span *simulated nanoseconds* — and a [`FaultState`]
//! that draws each offered frame's faults at its arrival time with a
//! seeded [`trafficgen::Rng64`]. A 100 µs outage is a 100 µs outage at
//! any offered rate, so windows compose with bursty
//! `trafficgen::ArrivalSchedule`s and multi-queue dispatch.
//!
//! Fault kinds:
//!
//! * **Frame corruption** (`corrupt_prob`): the frame arrives with a bad
//!   FCS; the NIC verifies the CRC in hardware and drops it at the MAC,
//!   counted as [`crate::nic::DropReason::CrcError`].
//! * **Truncation** (`truncate_prob`): the frame is cut short in flight.
//!   Runts (shorter than an Ethernet header) are dropped by the MAC like
//!   CRC errors; longer truncations are *delivered* and must be rejected
//!   by software parsers without panicking.
//! * **Pool exhaustion windows** (`pool_exhaust`): transient allocation
//!   outages, as when a slow consumer leaks the pool dry; the PMD's
//!   refill sees an empty pool and RX starves on descriptors.
//! * **RX stall windows** (`rx_stall`): the NIC stops draining posted
//!   descriptors (e.g. a PCIe backpressure event); arrivals are dropped
//!   as [`crate::nic::DropReason::RxStall`].
//! * **Link flap windows** (`link_flap`): carrier loss; arrivals are
//!   dropped as [`crate::nic::DropReason::LinkDown`].
//! * **Per-queue RX stall windows** (`queue_rx_stall`): a single RX
//!   queue stops draining while the others keep going — the failure
//!   mode that multi-queue isolation tests care about.
//! * **Ready-ring overrun windows** (`ready_overrun`): the completion
//!   ring backs up as if the application stopped polling; arrivals are
//!   dropped as [`crate::nic::DropReason::ReadyOverrun`].
//! * **TX stall windows** (`tx_stall`): the TX descriptor path wedges;
//!   frames that were fully processed cannot leave the box and the PMD
//!   must recycle their buffers. Queried with [`FaultState::tx_stalled`]
//!   at transmit time.
//!
//! Everything is a pure function of the seed, the number of frames
//! drawn so far and their arrival times, so a failing run replays
//! exactly.
//!
//! # Examples
//!
//! ```
//! use rte::fault::{FaultPlan, FaultState, Window};
//!
//! let plan = FaultPlan::none()
//!     .with_seed(7)
//!     .with_corrupt_prob(0.5)
//!     .with_link_flap(Window::new(200, 400));
//! let mut st = FaultState::new(plan);
//! let mut corrupted = 0;
//! // One frame every 100 ns on queue 0: the flap spans frames 2 and 3.
//! for i in 0..8u64 {
//!     let f = st.draw(i as f64 * 100.0, 0);
//!     if f.corrupt {
//!         corrupted += 1;
//!     }
//!     assert_eq!(f.link_down, (2..4).contains(&i));
//! }
//! assert!(corrupted > 0);
//! ```

use trafficgen::Rng64;

/// A half-open `[start, end)` interval of simulated nanoseconds since
/// the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First nanosecond affected.
    pub start: u64,
    /// First nanosecond no longer affected.
    pub end: u64,
}

impl Window {
    /// A window covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics when `end < start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end >= start, "window end before start");
        Self { start, end }
    }

    /// Whether nanosecond `ns` falls inside the window.
    pub fn contains(&self, ns: u64) -> bool {
        ns >= self.start && ns < self.end
    }
}

fn any_contains(windows: &[Window], ns: u64) -> bool {
    windows.iter().any(|w| w.contains(ns))
}

/// A declarative, reproducible schedule of injected faults.
///
/// The default plan injects nothing; builder methods add fault kinds.
/// Probabilities are per offered frame; windows span simulated
/// nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the per-frame random draws (corruption, truncation).
    pub seed: u64,
    /// Probability that a frame arrives with a bad FCS.
    pub corrupt_prob: f64,
    /// Probability that a frame is truncated to a random shorter length.
    pub truncate_prob: f64,
    /// Windows during which the mbuf pool refuses allocations.
    pub pool_exhaust: Vec<Window>,
    /// Windows during which the NIC does not drain posted descriptors.
    pub rx_stall: Vec<Window>,
    /// Windows during which the link is down.
    pub link_flap: Vec<Window>,
    /// Windows during which one specific RX queue stalls while the rest
    /// of the port keeps draining.
    pub queue_rx_stall: Vec<(usize, Window)>,
    /// Windows during which the completion (ready) ring backs up as if
    /// the application stopped polling.
    pub ready_overrun: Vec<Window>,
    /// Windows during which the TX descriptor path is wedged; processed
    /// frames cannot be transmitted.
    pub tx_stall: Vec<Window>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever.
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the RNG seed for probabilistic faults.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-frame corruption (bad FCS) probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.corrupt_prob = p;
        self
    }

    /// Sets the per-frame truncation probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_truncate_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.truncate_prob = p;
        self
    }

    /// Adds a transient mbuf-pool outage window.
    pub fn with_pool_exhaustion(mut self, w: Window) -> Self {
        self.pool_exhaust.push(w);
        self
    }

    /// Adds an RX descriptor-stall window.
    pub fn with_rx_stall(mut self, w: Window) -> Self {
        self.rx_stall.push(w);
        self
    }

    /// Adds a link-flap (carrier down) window.
    pub fn with_link_flap(mut self, w: Window) -> Self {
        self.link_flap.push(w);
        self
    }

    /// Adds an RX stall window that only affects queue `q`.
    pub fn with_queue_rx_stall(mut self, q: usize, w: Window) -> Self {
        self.queue_rx_stall.push((q, w));
        self
    }

    /// Adds a completion-ring (ready ring) overrun window.
    pub fn with_ready_overrun(mut self, w: Window) -> Self {
        self.ready_overrun.push(w);
        self
    }

    /// Adds a TX descriptor-stall window.
    pub fn with_tx_stall(mut self, w: Window) -> Self {
        self.tx_stall.push(w);
        self
    }
}

/// The faults affecting one offered frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameFault {
    /// The frame's FCS is bad; the MAC must drop it.
    pub corrupt: bool,
    /// Truncate the frame to this many bytes before delivery.
    pub truncate_to: Option<usize>,
    /// The link is down while this frame arrives.
    pub link_down: bool,
    /// The NIC is not draining descriptors while this frame arrives.
    pub stall: bool,
    /// The mbuf pool refuses allocations while this frame is in flight.
    pub pool_blocked: bool,
    /// The completion ring refuses this frame, as if the application
    /// stopped polling (ready-ring overrun under backpressure).
    pub ready_blocked: bool,
}

impl FrameFault {
    /// A fault-free frame.
    pub fn clean() -> Self {
        Self::default()
    }
}

/// Draws a [`FaultPlan`]'s faults one offered frame at a time.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: Rng64,
}

impl FaultState {
    /// Starts the plan; no frame has been drawn yet.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Rng64::seed_from_u64(plan.seed ^ 0x5eed_fa17_0000_0001u64);
        Self { plan, rng }
    }

    /// Draws the faults for the next offered frame, which arrives at
    /// `t_ns` and was steered to RX queue `q`: the windows in force at
    /// `t_ns` (including stalls scoped to `q`) plus the frame's random
    /// corruption and truncation.
    ///
    /// Exactly two RNG draws happen per frame regardless of the plan, so
    /// window edits never shift the corruption/truncation sequence.
    pub fn draw(&mut self, t_ns: f64, q: usize) -> FrameFault {
        let ns = ns_index(t_ns);
        let corrupt_draw = self.rng.gen_f64();
        let trunc_draw = self.rng.next_u64();
        let corrupt = corrupt_draw < self.plan.corrupt_prob;
        // High bits decide whether to truncate, low bits decide where.
        let trunc_uniform = (trunc_draw >> 11) as f64 / (1u64 << 53) as f64;
        let truncate_to = if trunc_uniform < self.plan.truncate_prob {
            // Deterministic length derived from the same draw: anywhere
            // from an unusable runt to just under a minimal frame.
            Some((trunc_draw % 61) as usize)
        } else {
            None
        };
        let queue_stalled = self
            .plan
            .queue_rx_stall
            .iter()
            .any(|(sq, w)| *sq == q && w.contains(ns));
        FrameFault {
            corrupt,
            truncate_to,
            link_down: any_contains(&self.plan.link_flap, ns),
            stall: any_contains(&self.plan.rx_stall, ns) || queue_stalled,
            pool_blocked: any_contains(&self.plan.pool_exhaust, ns),
            ready_blocked: any_contains(&self.plan.ready_overrun, ns),
        }
    }

    /// Whether the TX descriptor path is wedged at `t_ns`. Pure (no RNG
    /// draw), so PMD transmit paths can query it at will.
    pub fn tx_stalled(&self, t_ns: f64) -> bool {
        any_contains(&self.plan.tx_stall, ns_index(t_ns))
    }
}

/// The whole nanosecond a clock reading falls in (negative readings
/// count as 0).
fn ns_index(t_ns: f64) -> u64 {
    t_ns.max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_half_open() {
        let w = Window::new(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        let empty = Window::new(5, 5);
        assert!(!empty.contains(5));
    }

    #[test]
    #[should_panic(expected = "end before start")]
    fn window_rejects_reversed() {
        Window::new(3, 2);
    }

    #[test]
    fn none_plan_injects_nothing() {
        let mut st = FaultState::new(FaultPlan::none());
        for i in 0..1000 {
            assert_eq!(st.draw(i as f64, 0), FrameFault::clean());
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let plan = FaultPlan::none()
            .with_seed(42)
            .with_corrupt_prob(0.3)
            .with_truncate_prob(0.3);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for i in 0..500 {
            assert_eq!(a.draw(i as f64, 0), b.draw(i as f64, 0));
        }
    }

    #[test]
    fn windows_do_not_shift_random_draws() {
        let base = FaultPlan::none().with_seed(9).with_corrupt_prob(0.5);
        let windowed = base.clone().with_link_flap(Window::new(0, 100));
        let mut a = FaultState::new(base);
        let mut b = FaultState::new(windowed);
        for i in 0..200 {
            assert_eq!(a.draw(i as f64, 0).corrupt, b.draw(i as f64, 0).corrupt);
        }
    }

    #[test]
    fn corruption_rate_tracks_probability() {
        let mut st = FaultState::new(FaultPlan::none().with_seed(1).with_corrupt_prob(0.25));
        let n = 20_000;
        let hits = (0..n).filter(|&i| st.draw(i as f64, 0).corrupt).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn truncation_lengths_below_min_frame() {
        let mut st = FaultState::new(FaultPlan::none().with_seed(3).with_truncate_prob(1.0));
        let mut saw_runt = false;
        let mut saw_parseable = false;
        for i in 0..1000 {
            let f = st.draw(i as f64, 0);
            let len = f.truncate_to.expect("p=1.0 always truncates");
            assert!(len < 61);
            if len < 14 {
                saw_runt = true;
            } else {
                saw_parseable = true;
            }
        }
        assert!(saw_runt && saw_parseable);
    }

    #[test]
    fn window_faults_fire_exactly_in_window() {
        let plan = FaultPlan::none()
            .with_pool_exhaustion(Window::new(5, 8))
            .with_rx_stall(Window::new(2, 3))
            .with_link_flap(Window::new(0, 1))
            .with_link_flap(Window::new(9, 10));
        let mut st = FaultState::new(plan);
        for i in 0..12u64 {
            let f = st.draw(i as f64, 0);
            assert_eq!(f.pool_blocked, (5..8).contains(&i), "t={i} ns");
            assert_eq!(f.stall, i == 2, "t={i} ns");
            assert_eq!(f.link_down, i == 0 || i == 9, "t={i} ns");
        }
    }

    #[test]
    fn time_axis_evaluates_windows_by_clock() {
        // A [1000, 2000) window hits by arrival time, independent of
        // how many frames were drawn before.
        let plan = FaultPlan::none().with_link_flap(Window::new(1000, 2000));
        let mut st = FaultState::new(plan);
        assert!(!st.draw(999.9, 0).link_down);
        assert!(st.draw(1000.0, 0).link_down);
        assert!(st.draw(1999.0, 0).link_down);
        assert!(!st.draw(2000.0, 0).link_down);
    }

    #[test]
    fn per_queue_stall_hits_only_its_queue() {
        let plan = FaultPlan::none().with_queue_rx_stall(2, Window::new(0, 100));
        let mut st = FaultState::new(plan);
        assert!(!st.draw(0.0, 0).stall);
        assert!(st.draw(0.0, 2).stall);
        // A global stall window still hits every queue.
        let plan = FaultPlan::none().with_rx_stall(Window::new(0, 100));
        let mut st = FaultState::new(plan);
        assert!(st.draw(0.0, 7).stall);
    }

    #[test]
    fn tx_stall_is_pure_and_axis_aware() {
        let plan = FaultPlan::none().with_tx_stall(Window::new(500, 700));
        let st = FaultState::new(plan);
        assert!(!st.tx_stalled(499.0));
        assert!(st.tx_stalled(500.0));
        assert!(st.tx_stalled(699.9));
        assert!(!st.tx_stalled(700.0));
    }

    #[test]
    fn ready_overrun_window_sets_ready_blocked() {
        let plan = FaultPlan::none().with_ready_overrun(Window::new(100, 200));
        let mut st = FaultState::new(plan);
        assert!(!st.draw(50.0, 0).ready_blocked);
        assert!(st.draw(150.0, 0).ready_blocked);
        assert!(!st.draw(250.0, 0).ready_blocked);
    }
}
