//! The delayed event queue for virtual-time client loops.
//!
//! The engine itself holds no queue: `Engine::run_until` decides from
//! the workers' own state whether an epoch is due. This queue serves the
//! loops that drive the engine — `kvs::openloop`'s client (arrivals,
//! retry timers, deadlines) and `tenancy::run`'s harness (per-tenant
//! arrivals).
//!
//! Simulated time in this workspace flows through `f64` nanoseconds
//! (`Ctx::wall_ns`, `Engine::now_ns`), but ordering events by comparing
//! floats invites precision questions the determinism suites cannot
//! afford. The queue therefore keys every event on an *integer*: the
//! IEEE-754 bit pattern of the (non-negative, finite) time. For
//! non-negative floats the bit order equals the numeric order, so
//! [`time_key`] is an order-preserving, lossless bijection — two times
//! compare under integer `<` exactly as the original `f64`s would, with
//! no rounding anywhere.
//!
//! # Ordering contract
//!
//! Events pop in ascending `(key, sub, seq)` order:
//!
//! 1. **`key`** — the virtual time (integer key, see above).
//! 2. **`sub`** — a caller-chosen sub-priority for same-time events.
//!    The open-loop client uses `0` for arrivals and `1 + op_id` for
//!    retry timers, which reproduces its documented "arrivals win ties,
//!    then timers in op order" rule exactly.
//! 3. **`seq`** — insertion order (FIFO), so same-`(key, sub)` events
//!    are stable and the pop order is a pure function of the push
//!    sequence. Thread scheduling can never reorder it.
//!
//! The unit tests below pin this contract.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// 2^53: the largest f64 exponent range in which every integer
/// nanosecond is exactly representable. Above it, `u64 as f64`
/// conversions (and back) start losing individual nanoseconds.
pub(crate) const MAX_EXACT_NS: f64 = 9_007_199_254_740_992.0;

/// Order-preserving integer key for a non-negative finite `f64` time in
/// ns. Lossless: [`time_of_key`] inverts it exactly.
///
/// Debug builds assert the time is non-negative, finite, and below
/// 2^53 ns (~104 days of simulated time) — the range in which f64↔
/// integer-ns conversions elsewhere in the workspace stay exact.
#[inline]
pub fn time_key(t_ns: f64) -> u64 {
    debug_assert!(
        t_ns >= 0.0 && t_ns.is_finite(),
        "virtual time must be non-negative and finite, got {t_ns}"
    );
    debug_assert!(
        t_ns < MAX_EXACT_NS,
        "virtual time {t_ns} ns exceeds 2^53; f64 conversions would lose ns precision"
    );
    // Normalize -0.0 (which passes the >= 0.0 assert) to +0.0 so the
    // key of "time zero" is unique.
    if t_ns == 0.0 {
        0
    } else {
        t_ns.to_bits()
    }
}

/// Inverse of [`time_key`].
#[inline]
pub fn time_of_key(key: u64) -> f64 {
    f64::from_bits(key)
}

struct Entry<T> {
    key: u64,
    sub: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        // `seq` is unique per queue, so equality of the full triple only
        // ever holds for the same entry — consistent with `Ord`.
        (self.key, self.sub, self.seq) == (other.key, other.sub, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.key, self.sub, self.seq).cmp(&(other.key, other.sub, other.seq))
    }
}

/// A min-queue of delayed events keyed on integer virtual time, with
/// the deterministic tie order documented in the module docs.
pub struct DelayedQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

impl<T> Default for DelayedQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DelayedQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `key` (sub-priority 0).
    pub fn push(&mut self, key: u64, payload: T) {
        self.push_sub(key, 0, payload);
    }

    /// Schedules `payload` at `key` with an explicit same-time
    /// sub-priority.
    pub fn push_sub(&mut self, key: u64, sub: u64, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            key,
            sub,
            seq,
            payload,
        }));
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut q = DelayedQueue::new();
        q.push(time_key(30.0), "c");
        q.push(time_key(10.0), "a");
        q.push(time_key(20.0), "b");
        assert_eq!(q.pop(), Some((time_key(10.0), "a")));
        assert_eq!(q.pop(), Some((time_key(20.0), "b")));
        assert_eq!(q.pop(), Some((time_key(30.0), "c")));
        assert_eq!(q.pop(), None);
    }

    /// Same-timestamp events with equal sub-priority pop in insertion
    /// (FIFO) order — the documented deterministic tie rule.
    #[test]
    fn same_key_ties_pop_fifo() {
        let mut q = DelayedQueue::new();
        let k = time_key(42.5);
        for i in 0..16 {
            q.push(k, i);
        }
        for i in 0..16 {
            assert_eq!(q.pop(), Some((k, i)), "tie order must be FIFO");
        }
    }

    /// The sub-priority breaks same-timestamp ties before insertion
    /// order does — the client's "arrivals (sub 0) before timers
    /// (sub 1+id), timers in op order" rule.
    #[test]
    fn sub_priority_breaks_ties_before_fifo() {
        let mut q = DelayedQueue::new();
        let k = time_key(100.0);
        q.push_sub(k, 6, "timer-5");
        q.push_sub(k, 4, "timer-3");
        q.push_sub(k, 0, "arrival");
        assert_eq!(q.pop().unwrap().1, "arrival");
        assert_eq!(q.pop().unwrap().1, "timer-3");
        assert_eq!(q.pop().unwrap().1, "timer-5");
    }

    /// The integer key preserves f64 order exactly, including
    /// fractional-ns times that differ by one ULP, and zero is unique.
    #[test]
    fn time_key_is_order_preserving_and_lossless() {
        let times = [
            0.0,
            0.25,
            1.0,
            1.0000000000000002, // 1.0's upward neighbour
            333.3333333333333,
            1e9,
            MAX_EXACT_NS - 1.0,
        ];
        for w in times.windows(2) {
            assert!(
                time_key(w[0]) < time_key(w[1]),
                "{} vs {} keys must preserve order",
                w[0],
                w[1]
            );
        }
        for &t in &times {
            assert_eq!(time_of_key(time_key(t)), t, "lossless round-trip");
        }
        assert_eq!(time_key(-0.0), time_key(0.0), "zero key is unique");
    }

    #[test]
    #[should_panic(expected = "2^53")]
    #[cfg(debug_assertions)]
    fn keys_past_exact_range_are_rejected_in_debug() {
        let _ = time_key(MAX_EXACT_NS * 2.0);
    }
}
