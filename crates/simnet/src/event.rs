//! Virtual time and the event queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// A virtual-time-ordered delivery queue: it pops in `(at, seq)` order.
///
/// Two lanes hold the deliveries. Every message takes the one link
/// latency and a handler sends at the delivery time, which never
/// decreases, so without faults each delivery is scheduled at or after
/// every one before it: the FIFO lane takes it, already in order, with no
/// sift. Only a fault plan's delay, pause or slow factor schedules one
/// earlier than the FIFO lane's last; the heap lane takes that one. `pop`
/// takes the earlier of the two heads.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    fifo: VecDeque<Delivery<M>>,
    heap: BinaryHeap<Reverse<Delivery<M>>>,
    next_seq: u64,
}

// Deliveries compare by `(at, seq)`, the order the queue pops them in.
impl<M> PartialEq for Delivery<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<M> Eq for Delivery<M> {}
impl<M> PartialOrd for Delivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delivery<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub(crate) fn new() -> EventQueue<M> {
        EventQueue {
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule a delivery at absolute virtual time `at`.
    pub(crate) fn schedule(&mut self, at: SimTime, from: usize, to: usize, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let delivery = Delivery {
            at,
            seq,
            from,
            to,
            msg,
        };
        // `seq` grows, so an arrival at or after the lane's last keeps it
        // sorted by `(at, seq)`.
        if self.fifo.back().is_none_or(|last| at >= last.at) {
            self.fifo.push_back(delivery);
        } else {
            self.heap.push(Reverse(delivery));
        }
    }

    /// Pop the earliest delivery.
    pub(crate) fn pop(&mut self) -> Option<Delivery<M>> {
        let fifo_first = match (self.fifo.front(), self.heap.peek()) {
            (Some(head), Some(Reverse(earliest))) => head < earliest,
            (head, _) => head.is_some(),
        };
        if fifo_first {
            self.fifo.pop_front()
        } else {
            self.heap.pop().map(|Reverse(d)| d)
        }
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
        assert_eq!((q.fifo.len(), q.heap.len()), (1, 2));
        assert_eq!(q.pop().unwrap().msg, "a");
        assert_eq!(q.pop().unwrap().msg, "b");
        assert_eq!(q.pop().unwrap().msg, "c");
        assert!(q.pop().is_none());
        assert!(q.fifo.is_empty() && q.heap.is_empty());
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

    /// Interleaves schedules and pops, with arrivals in order (one link
    /// latency after the clock), out of order (a shorter hop), at the time
    /// of the last schedule, and at the end of time, and checks every pop
    /// against a reference kept unordered and searched for its least
    /// `(at, seq)`.
    #[test]
    fn pops_match_a_sorted_reference_under_any_arrival_order() {
        let mut rng = ars_common::DetRng::new(ars_common::env_seed("ARS_FAULT_SEED"));
        let mut q = EventQueue::new();
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let (mut now, mut last_at, mut next) = (0, 0, 0u64);
        // Pops where a heap entry precedes the FIFO head.
        let mut heap_ahead = 0;
        let mut pop = |q: &mut EventQueue<u64>, reference: &mut Vec<(SimTime, u64)>| {
            if let (Some(head), Some(Reverse(earliest))) = (q.fifo.front(), q.heap.peek()) {
                heap_ahead += usize::from(earliest < head);
            }
            let least = (0..reference.len()).min_by_key(|&i| reference[i]);
            let expected = least.map(|i| reference.swap_remove(i));
            let got = q.pop().map(|d| {
                assert_eq!(d.seq, d.msg, "a delivery keeps its sequence number");
                (d.at, d.seq)
            });
            assert_eq!(got, expected);
            got
        };
        for _ in 0..10_000 {
            if rng.gen_bool(0.45) {
                // The clock follows the pops, short of the end of time.
                match pop(&mut q, &mut reference) {
                    Some((at, _)) if at < SimTime::MAX => now = at,
                    _ => {}
                }
                continue;
            }
            let at = match rng.gen_range_u64(8) {
                0..=3 => now + 10,
                4 | 5 => now + rng.gen_range_u64(10),
                6 => last_at.max(now),
                _ if rng.gen_bool(0.1) => SimTime::MAX,
                _ => now + 10 + rng.gen_range_u64(100),
            };
            q.schedule(at, 0, 1, next);
            reference.push((at, next));
            (last_at, next) = (at, next + 1);
        }
        while pop(&mut q, &mut reference).is_some() {}
        assert!(reference.is_empty());
        assert!(heap_ahead > 0, "no pop took the heap lane's head");
    }
}
