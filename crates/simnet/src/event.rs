//! Virtual time, the event queue, and latency models.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in microseconds.
pub type SimTime = u64;

/// Produces a one-way delay for a message between two peers.
pub trait LatencyModel {
    /// Latency in virtual microseconds for a message `from → to`.
    fn latency(&mut self, from: usize, to: usize) -> SimTime;
}

/// Every message takes the same time.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub SimTime);

impl LatencyModel for ConstantLatency {
    fn latency(&mut self, _from: usize, _to: usize) -> SimTime {
        self.0
    }
}

/// Latency drawn uniformly from `[lo, hi]` — a crude but standard stand-in
/// for WAN jitter. Deterministic under its seed.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct UniformLatency {
    lo: SimTime,
    hi: SimTime,
    rng: ars_common::DetRng,
}

#[cfg(test)]
impl UniformLatency {
    /// Create a model with delays in `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub(crate) fn new(lo: SimTime, hi: SimTime, seed: u64) -> UniformLatency {
        assert!(lo <= hi, "invalid latency interval");
        UniformLatency {
            lo,
            hi,
            rng: ars_common::DetRng::new(seed),
        }
    }
}

#[cfg(test)]
impl LatencyModel for UniformLatency {
    fn latency(&mut self, _from: usize, _to: usize) -> SimTime {
        self.lo + self.rng.gen_range_u64(self.hi - self.lo + 1)
    }
}

/// One scheduled delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Delivery (virtual) time.
    pub at: SimTime,
    /// Tie-break sequence number: FIFO among equal-time deliveries.
    pub seq: u64,
    /// Sending peer.
    pub from: usize,
    /// Receiving peer.
    pub to: usize,
    /// Payload.
    pub msg: M,
}

/// A virtual-time-ordered delivery queue (min-heap on `(at, seq)`).
#[derive(Debug)]
pub struct EventQueue<M> {
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

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue::new()
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
    fn constant_latency() {
        let mut m = ConstantLatency(42);
        assert_eq!(m.latency(0, 1), 42);
        assert_eq!(m.latency(5, 9), 42);
    }

    #[test]
    fn uniform_latency_in_bounds_and_deterministic() {
        let mut a = UniformLatency::new(10, 20, 7);
        let mut b = UniformLatency::new(10, 20, 7);
        for _ in 0..100 {
            let la = a.latency(0, 1);
            assert!((10..=20).contains(&la));
            assert_eq!(la, b.latency(0, 1));
        }
    }

    #[test]
    #[should_panic(expected = "invalid latency interval")]
    fn uniform_latency_rejects_reversed() {
        UniformLatency::new(20, 10, 0);
    }

    #[test]
    fn delivery_carries_endpoints() {
        let mut q = EventQueue::new();
        q.schedule(1, 3, 9, ());
        let d = q.pop().unwrap();
        assert_eq!((d.from, d.to, d.at), (3, 9, 1));
    }
}
