//! Virtual time and the event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in microseconds.
pub type SimTime = u64;

/// One scheduled delivery.
#[derive(Debug)]
pub(crate) struct Delivery<M> {
    /// Delivery (virtual) time.
    pub(crate) at: SimTime,
    /// Tie-break sequence number: FIFO among equal-time deliveries.
    pub(crate) seq: u64,
    /// Sending peer.
    pub(crate) from: usize,
    /// Receiving peer.
    pub(crate) to: usize,
    /// Payload.
    pub(crate) msg: M,
}

/// A virtual-time-ordered delivery queue (min-heap on `(at, seq)`).
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Reverse<HeapEntry<M>>>,
    next_seq: u64,
}

#[derive(Debug)]
struct HeapEntry<M>(Delivery<M>);

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<M> Eq for HeapEntry<M> {}
impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub(crate) fn new() -> EventQueue<M> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule a delivery at absolute virtual time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, from: usize, to: usize, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEntry(Delivery {
            at,
            seq,
            from,
            to,
            msg,
        })));
    }

    /// Pop the earliest delivery.
    pub(crate) fn pop(&mut self) -> Option<Delivery<M>> {
        self.heap.pop().map(|Reverse(HeapEntry(d))| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 0, 1, "c");
        q.schedule(10, 0, 1, "a");
        q.schedule(20, 0, 1, "b");
        assert_eq!(q.heap.len(), 3);
        assert_eq!(q.pop().unwrap().msg, "a");
        assert_eq!(q.pop().unwrap().msg, "b");
        assert_eq!(q.pop().unwrap().msg, "c");
        assert!(q.pop().is_none());
        assert!(q.heap.is_empty());
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(5, 0, 1, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().msg, i);
        }
    }

    #[test]
    fn delivery_carries_endpoints() {
        let mut q = EventQueue::new();
        q.schedule(1, 3, 9, ());
        let d = q.pop().unwrap();
        assert_eq!((d.from, d.to, d.at), (3, 9, 1));
    }
}
