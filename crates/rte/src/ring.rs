//! Bounded FIFO rings of buffer handles (`librte_ring`'s role).
//!
//! DPDK queues are lockless multi-producer rings; the simulation is
//! single-threaded per construction (cores are simulated), so a bounded
//! deque with burst operations models the same behaviour: fixed capacity,
//! tail drops, and burst enqueue/dequeue.

use std::collections::VecDeque;

/// A bounded FIFO ring.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    drops: u64,
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
            drops: 0,
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

    /// Elements dropped by failed enqueues.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Enqueues one element; on a full ring the element is dropped and
    /// returned as `Err` (tail drop), with the drop counted.
    pub fn enqueue(&mut self, v: T) -> Result<(), T> {
        if self.is_full() {
            self.drops += 1;
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

    /// Dequeues up to `n` elements.
    pub fn dequeue_burst(&mut self, n: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.dequeue_burst_into(n, &mut out);
        out
    }

    /// Dequeues up to `n` elements onto the end of `out`, a buffer the
    /// caller reuses across bursts.
    pub fn dequeue_burst_into(&mut self, n: usize, out: &mut Vec<T>) {
        let take = n.min(self.buf.len());
        out.extend(self.buf.drain(..take));
    }

    /// Enqueues a burst, stopping at the first failure; returns how many
    /// were accepted (like `rte_ring_enqueue_burst`).
    pub fn enqueue_burst<I: IntoIterator<Item = T>>(&mut self, items: I) -> usize {
        let mut n = 0;
        for v in items {
            if self.enqueue(v).is_err() {
                break;
            }
            n += 1;
        }
        n
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
        assert_eq!(r.drops(), 1);
        assert!(r.is_full());
    }

    #[test]
    fn burst_ops() {
        let mut r = Ring::new(3);
        let accepted = r.enqueue_burst([1, 2, 3, 4, 5]);
        assert_eq!(accepted, 3);
        assert_eq!(r.dequeue_burst(2), vec![1, 2]);
        assert_eq!(r.dequeue_burst(10), vec![3]);
        assert!(r.is_empty());
    }

    #[test]
    fn dequeue_burst_into_appends_in_fifo_order() {
        let mut r = Ring::new(3);
        r.enqueue_burst([4, 5, 6]);
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
        r.enqueue_burst(0..5);
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
