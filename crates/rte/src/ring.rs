//! Bounded FIFO rings of buffer handles (`librte_ring`'s role).
//!
//! DPDK queues are lockless multi-producer rings; the simulation is
//! single-threaded per construction (cores are simulated), so a bounded
//! deque models the same behaviour: fixed capacity, tail drops (the
//! caller counts the `Err`s), and burst dequeue.

use std::collections::VecDeque;

/// A bounded FIFO ring.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `cap` elements.
    ///
    /// # Panics
    ///
    /// Panics when `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when full.
    pub(crate) fn is_full(&self) -> bool {
        self.buf.len() == self.cap
    }

    /// Enqueues one element; on a full ring the element is dropped and
    /// returned as `Err` (tail drop) for the caller to count.
    pub fn enqueue(&mut self, v: T) -> Result<(), T> {
        if self.is_full() {
            Err(v)
        } else {
            self.buf.push_back(v);
            Ok(())
        }
    }

    /// Dequeues one element.
    pub fn dequeue(&mut self) -> Option<T> {
        self.buf.pop_front()
    }

    /// Dequeues up to `n` elements onto the end of `out`, a buffer the
    /// caller reuses across bursts.
    pub fn dequeue_burst_into(&mut self, n: usize, out: &mut Vec<T>) {
        let take = n.min(self.buf.len());
        out.extend(self.buf.drain(..take));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut r = Ring::new(4);
        r.enqueue(1).unwrap();
        r.enqueue(2).unwrap();
        assert_eq!(r.dequeue(), Some(1));
        assert_eq!(r.dequeue(), Some(2));
        assert_eq!(r.dequeue(), None);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut r = Ring::new(2);
        assert!(r.enqueue(1).is_ok());
        assert!(r.enqueue(2).is_ok());
        assert_eq!(r.enqueue(3), Err(3));
        assert!(r.is_full());
        assert_eq!(r.len(), 2, "a tail drop leaves the ring as it was");
    }

    #[test]
    fn burst_ops() {
        let mut r = Ring::new(3);
        let drops = (1..=5).filter(|&v| r.enqueue(v).is_err()).count();
        assert_eq!(drops, 2, "the ring holds 3 of 5");
        let mut out = Vec::new();
        r.dequeue_burst_into(2, &mut out);
        assert_eq!(out, vec![1, 2]);
        out.clear();
        r.dequeue_burst_into(10, &mut out);
        assert_eq!(out, vec![3]);
        assert!(r.is_empty());
    }

    #[test]
    fn dequeue_burst_into_appends_in_fifo_order() {
        let mut r = Ring::new(3);
        for v in [4, 5, 6] {
            r.enqueue(v).unwrap();
        }
        let mut out = vec![9];
        r.dequeue_burst_into(2, &mut out);
        assert_eq!(out, vec![9, 4, 5]);
        r.dequeue_burst_into(5, &mut out);
        assert_eq!(out, vec![9, 4, 5, 6]);
        assert!(r.is_empty());
    }

    #[test]
    fn len_tracking() {
        let mut r = Ring::new(8);
        assert_eq!(r.len(), 0);
        for v in 0..5 {
            r.enqueue(v).unwrap();
        }
        assert_eq!(r.len(), 5);
        r.dequeue();
        assert_eq!(r.len(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        Ring::<u32>::new(0);
    }
}
