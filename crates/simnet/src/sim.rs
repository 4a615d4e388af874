//! The deterministic discrete-event simulator.
//!
//! Peers implement [`Node`]; the simulator owns them, delivers messages in
//! virtual-time order, and lets handlers send further messages through a
//! [`NodeCtx`]. A full run is a pure function of (nodes, latency model,
//! initial messages) — no wall-clock, no thread scheduling — so experiment
//! results are exactly reproducible.

use crate::event::{Delivery, EventQueue, LatencyModel, SimTime};
use crate::fault::{FaultAction, FaultInjector, FaultPlan};

/// Aggregate transport statistics for one run.
///
/// Every send attempt is accounted exactly once, so at any instant
/// `sent == delivered + dropped + partitioned + queued` — the conservation
/// invariant the fault layer is tested against. Duplicated messages count
/// each copy as a separate send.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total messages delivered.
    pub delivered: u64,
    /// Total send attempts (delivered + dropped + partitioned + still
    /// queued).
    pub sent: u64,
    /// Messages dropped by the fault layer (loss model or crashed
    /// endpoint).
    pub dropped: u64,
    /// Messages lost to an open partition window (cross-island traffic).
    pub partitioned: u64,
    /// Messages currently scheduled but not yet delivered.
    pub queued: u64,
    /// Copies whose latency was inflated by an open slow window (gray
    /// failures). These are *delivered*, so the column is informational —
    /// it never appears in the conservation identity.
    pub slowed: u64,
    /// Total wire bytes sent (only counted when a meter is installed via
    /// [`SimNet::set_meter`]).
    pub bytes: u64,
    /// Virtual time of the last delivery.
    pub end_time: SimTime,
}

impl SimStats {
    /// The conservation invariant: every send attempt is delivered,
    /// dropped, lost to a partition, or still queued.
    pub fn is_conserved(&self) -> bool {
        self.sent == self.delivered + self.dropped + self.partitioned + self.queued
    }

    /// Re-export the message ledger as `simnet.*` telemetry gauges, so a
    /// recording sink's snapshot carries the transport picture alongside
    /// the query-layer counters (and the conservation invariant can be
    /// re-checked from the snapshot alone).
    pub(crate) fn export_telemetry(&self, telemetry: &ars_telemetry::Telemetry) {
        telemetry.gauge_set("simnet.sent", self.sent);
        telemetry.gauge_set("simnet.delivered", self.delivered);
        telemetry.gauge_set("simnet.dropped", self.dropped);
        telemetry.gauge_set("simnet.partitioned", self.partitioned);
        telemetry.gauge_set("simnet.queued", self.queued);
        telemetry.gauge_set("simnet.slowed", self.slowed);
        telemetry.gauge_set("simnet.bytes", self.bytes);
        telemetry.gauge_set("simnet.end_time", self.end_time);
    }
}

/// A wire meter: returns the on-wire size of a message.
pub type WireMeter<M> = Box<dyn FnMut(&M) -> u64>;

/// A peer's message handler.
pub trait Node<M> {
    /// Handle a message delivered to this node. `ctx` exposes the node's
    /// own index, the virtual clock, and `send`.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, M>, from: usize, msg: M);
}

/// Handler-side view of the simulator.
#[derive(Debug)]
pub struct NodeCtx<'a, M> {
    /// Index of the handling node.
    pub me: usize,
    /// Current virtual time (the delivery time of the message being
    /// handled).
    pub now: SimTime,
    outbox: &'a mut Vec<(usize, M)>,
}

impl<M> NodeCtx<'_, M> {
    /// Send `msg` to peer `to` (delivery is scheduled when the handler
    /// returns, with latency from the run's latency model).
    pub fn send(&mut self, to: usize, msg: M) {
        self.outbox.push((to, msg));
    }
}

/// The simulator: nodes + queue + clock.
pub struct SimNet<M, L: LatencyModel> {
    nodes: Vec<Box<dyn Node<M>>>,
    queue: EventQueue<M>,
    latency: L,
    now: SimTime,
    stats: SimStats,
    /// Optional fault injector (drop/duplicate/delay/crash/pause).
    faults: Option<FaultInjector>,
    /// Optional wire meter: bytes a message would occupy on the wire.
    meter: Option<WireMeter<M>>,
    /// The handler's sends, reused from delivery to delivery.
    outbox: Vec<(usize, M)>,
}

impl<M: Clone, L: LatencyModel> SimNet<M, L> {
    /// Create a simulator over `nodes` with the given latency model.
    pub fn new(nodes: Vec<Box<dyn Node<M>>>, latency: L) -> SimNet<M, L> {
        SimNet {
            nodes,
            queue: EventQueue::new(),
            latency,
            now: 0,
            stats: SimStats::default(),
            faults: None,
            meter: None,
            outbox: Vec::new(),
        }
    }

    /// Install a wire meter: called once per send attempt that is not
    /// lost, its size counted once per copy in [`SimStats::bytes`].
    /// Typically the framed encoding length, counted without building the
    /// frame ([`crate::codec::frame_len`]).
    pub fn set_meter(&mut self, f: impl FnMut(&M) -> u64 + 'static) {
        self.meter = Some(Box::new(f));
    }

    /// Install a fault plan: every message (injected or sent by a handler)
    /// passes through a seeded [`FaultInjector`] that may drop, duplicate,
    /// or delay it, honouring crash and pause windows. A benign plan
    /// removes the injector.
    pub fn set_faults(&mut self, plan: FaultPlan, seed: u64) {
        self.faults = if plan.is_benign() {
            None
        } else {
            Some(FaultInjector::new(plan, seed))
        };
    }

    /// The active fault injector, if any (`None` under a benign plan).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Pass one send attempt through the fault layer and schedule the
    /// surviving copies. `at` is the send time (the current virtual time
    /// for injections, the handling delivery's time for handler sends).
    fn transmit(&mut self, at: SimTime, from: usize, to: usize, msg: M) {
        assert!(to < self.nodes.len(), "destination {to} out of range");
        let action = self.faults.as_mut().map(|inj| inj.on_send(from, to, at));
        // Each copy's extra delay; no injector is one clean copy.
        let extras: &[SimTime] = match &action {
            None => &[0],
            Some(FaultAction::Deliver(extras)) => extras,
            Some(FaultAction::Drop) => {
                self.stats.sent += 1;
                self.stats.dropped += 1;
                return;
            }
            Some(FaultAction::Partitioned) => {
                self.stats.sent += 1;
                self.stats.partitioned += 1;
                return;
            }
        };
        // Gray failure: a slowed endpoint serves at a multiple of the
        // model latency (the copy is still delivered).
        let factor = (self.faults.as_ref()).map_or(1, |inj| inj.slow_factor(from, to, at));
        let copies = extras.len() as u64;
        let size = self.meter.as_mut().map_or(0, |meter| meter(&msg));
        self.stats.sent += copies;
        self.stats.queued += copies;
        self.stats.bytes += size * copies;
        if factor > 1 {
            self.stats.slowed += copies;
        }
        // A slow factor or a delay near `SimTime::MAX` saturates at the end
        // of time instead of wrapping.
        let mut schedule = |extra: SimTime, msg: M| {
            let lat = self.latency.latency(from, to).saturating_mul(factor);
            let arrival = at.saturating_add(lat).saturating_add(extra);
            self.queue.schedule(arrival, from, to, msg);
        };
        // The message moves into its last copy: only a duplicate clones.
        if let Some((&last, duplicates)) = extras.split_last() {
            for &extra in duplicates {
                schedule(extra, msg.clone());
            }
            schedule(last, msg);
        }
    }

    /// Current virtual time.
    #[cfg(test)]
    fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Export the current message ledger as `simnet.*` gauges: `sent`,
    /// `delivered`, `dropped`, `partitioned`, `queued`, `slowed`, `bytes`
    /// and `end_time`.
    pub fn export_telemetry(&self, telemetry: &ars_telemetry::Telemetry) {
        self.stats.export_telemetry(telemetry);
    }

    /// Inject a message from the outside world (e.g. a user query arriving
    /// at a peer) at the current virtual time plus one latency sample.
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    pub fn inject(&mut self, from: usize, to: usize, msg: M) {
        self.transmit(self.now, from, to, msg);
    }

    /// Deliver a single message; returns false when the queue is empty.
    ///
    /// # Panics
    /// Panics if the handler sends to an index that is not a node: a
    /// [`Node`] must address only peers of this simulator.
    pub fn step(&mut self) -> bool {
        let Some(Delivery {
            at, from, to, msg, ..
        }) = self.queue.pop()
        else {
            return false;
        };
        debug_assert!(at >= self.now, "time ran backwards");
        self.now = at;
        // A message in flight when its destination crashed is lost on
        // arrival (the send-time check only sees crashes already past).
        // Likewise, a message that was in flight when a partition window
        // opened cannot cross the boundary: it is lost on arrival and
        // counted in the `partitioned` column.
        if let Some(inj) = &self.faults {
            if inj.is_crashed(to, at) {
                self.stats.queued -= 1;
                self.stats.dropped += 1;
                return true;
            }
            if inj.is_partitioned(from, to, at) {
                self.stats.queued -= 1;
                self.stats.partitioned += 1;
                return true;
            }
        }
        self.stats.delivered += 1;
        self.stats.queued -= 1;
        self.stats.end_time = at;
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut ctx = NodeCtx {
            me: to,
            now: at,
            outbox: &mut outbox,
        };
        self.nodes[to].on_message(&mut ctx, from, msg);
        for (dest, m) in outbox.drain(..) {
            self.transmit(at, to, dest, m);
        }
        self.outbox = outbox;
        true
    }

    /// Run until the queue drains or `max_steps` deliveries have happened.
    /// Returns the number of deliveries performed.
    ///
    /// # Panics
    /// Panics if a handler sends to an index that is not a node (see
    /// [`SimNet::step`]).
    pub fn run(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0;
        while steps < max_steps && self.step() {
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ConstantLatency;
    use crate::event::UniformLatency;

    /// A node that forwards a counter to the next node until it hits 0.
    struct RelayNode {
        received: Vec<u32>,
        n_nodes: usize,
    }

    impl Node<u32> for RelayNode {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, u32>, _from: usize, msg: u32) {
            self.received.push(msg);
            if msg > 0 {
                ctx.send((ctx.me + 1) % self.n_nodes, msg - 1);
            }
        }
    }

    fn relay_net(n: usize) -> SimNet<u32, ConstantLatency> {
        let nodes: Vec<Box<dyn Node<u32>>> = (0..n)
            .map(|_| {
                Box::new(RelayNode {
                    received: Vec::new(),
                    n_nodes: n,
                }) as Box<dyn Node<u32>>
            })
            .collect();
        SimNet::new(nodes, ConstantLatency(10))
    }

    #[test]
    fn relays_until_counter_exhausts() {
        let mut net = relay_net(3);
        net.inject(0, 0, 5);
        let steps = net.run(1000);
        // 6 deliveries: 5,4,3,2,1,0.
        assert_eq!(steps, 6);
        assert_eq!(net.stats().delivered, 6);
        assert_eq!(net.stats().sent, 6);
        // Virtual time advanced by 6 hops × 10 µs.
        assert_eq!(net.now(), 60);
    }

    #[test]
    fn run_respects_step_budget() {
        let mut net = relay_net(2);
        net.inject(0, 0, 100);
        let steps = net.run(3);
        assert_eq!(steps, 3);
        assert!(net.stats().delivered == 3);
    }

    #[test]
    fn deterministic_with_seeded_latency() {
        let run = || {
            let nodes: Vec<Box<dyn Node<u32>>> = (0..4)
                .map(|_| {
                    Box::new(RelayNode {
                        received: Vec::new(),
                        n_nodes: 4,
                    }) as Box<dyn Node<u32>>
                })
                .collect();
            let mut net = SimNet::new(nodes, UniformLatency::new(5, 50, 99));
            net.inject(0, 0, 20);
            net.run(u64::MAX);
            net.now()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn inject_validates_destination() {
        let mut net = relay_net(2);
        net.inject(0, 7, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn handler_send_outside_the_nodes_panics_in_run() {
        // Two relays, each sending to the next of three: node 1 addresses 2.
        let nodes: Vec<Box<dyn Node<u32>>> = (0..2)
            .map(|_| {
                Box::new(RelayNode {
                    received: Vec::new(),
                    n_nodes: 3,
                }) as Box<dyn Node<u32>>
            })
            .collect();
        let mut net = SimNet::new(nodes, ConstantLatency(10));
        net.inject(0, 0, 5);
        net.run(u64::MAX);
    }

    #[test]
    fn step_on_empty_queue_is_false() {
        let mut net = relay_net(1);
        assert!(!net.step());
    }

    #[test]
    fn meter_accumulates_bytes() {
        let mut net = relay_net(2);
        net.set_meter(|_| 8);
        net.inject(0, 0, 3);
        net.run(u64::MAX);
        // 4 messages (3,2,1,0) × 8 bytes.
        assert_eq!(net.stats().bytes, 32);
    }

    #[test]
    fn no_meter_counts_zero_bytes() {
        let mut net = relay_net(2);
        net.inject(0, 0, 3);
        net.run(u64::MAX);
        assert_eq!(net.stats().bytes, 0);
    }

    #[test]
    fn lossy_transport_drops_messages() {
        let mut net = relay_net(2);
        net.set_faults(FaultPlan::none().with_drop(1.0), 1); // drop everything
        net.inject(0, 0, 5);
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(net.stats().sent, 1, "a dropped attempt still counts");
        assert_eq!(net.run(100), 0);
        assert_eq!(net.stats().delivered, 0);
        assert!(net.stats().is_conserved());
    }

    #[test]
    fn partial_loss_still_makes_progress() {
        let mut net = relay_net(2);
        net.set_faults(FaultPlan::none().with_drop(0.3), 42);
        for _ in 0..50 {
            net.inject(0, 0, 10);
        }
        net.run(u64::MAX);
        let s = net.stats();
        assert!(s.dropped > 0, "some messages must drop at 30% loss");
        assert!(s.delivered > 0, "some messages must get through");
        assert_eq!(s.queued, 0, "queue drained");
        assert_eq!(s.sent, s.delivered + s.dropped);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        use crate::fault::FaultPlan;
        let mut net = relay_net(2);
        net.set_faults(FaultPlan::none().with_duplicate(1.0), 3);
        net.inject(0, 0, 0); // payload 0: delivered, no relay
        net.run(u64::MAX);
        let s = net.stats();
        assert_eq!(s.delivered, 2, "one injection, two copies");
        assert_eq!(s.sent, 2);
        assert!(s.is_conserved());
    }

    #[test]
    fn crashed_destination_loses_in_flight_messages() {
        use crate::fault::FaultPlan;
        let mut net = relay_net(2);
        // Node 1 crashes at t=15; constant latency is 10, so a message
        // sent at t=10 (in flight at the crash) is lost on arrival.
        net.set_faults(FaultPlan::none().with_crash(1, 15), 1);
        net.inject(0, 0, 3); // 0 relays 2 to node 1 at t=10, arriving t=20
        net.run(u64::MAX);
        let s = net.stats();
        assert!(s.dropped >= 1, "in-flight message to crashed node lost");
        assert!(s.is_conserved());
    }

    #[test]
    fn partition_window_severs_and_heals() {
        use crate::fault::FaultPlan;
        let mut net = relay_net(2);
        // Islands {0} and {1}, open over [0, 100); latency is 10.
        net.set_faults(
            FaultPlan::none().with_partition(vec![vec![0], vec![1]], 0, 100),
            1,
        );
        net.inject(0, 1, 0); // cross-island during the window: lost
        net.inject(0, 0, 0); // island-internal: delivered
        net.run(u64::MAX);
        let s = net.stats().clone();
        assert_eq!(s.partitioned, 1);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.delivered, 1);
        assert!(s.is_conserved());
        // Advance virtual time past the heal instant with island-internal
        // traffic, then the severed link works again.
        while net.now() < 100 {
            net.inject(0, 0, 0);
            net.run(u64::MAX);
        }
        let delivered_before = net.stats().delivered;
        net.inject(0, 1, 0);
        net.run(u64::MAX);
        assert_eq!(net.stats().delivered, delivered_before + 1);
        assert_eq!(net.stats().partitioned, 1, "no loss after heal");
        assert!(net.stats().is_conserved());
    }

    #[test]
    fn in_flight_message_lost_when_window_opens() {
        use crate::fault::FaultPlan;
        let mut net = relay_net(2);
        // Window opens at t=5; the message is sent at t=0 with latency 10,
        // so it is in flight when the boundary comes up and must not cross.
        net.set_faults(
            FaultPlan::none().with_partition(vec![vec![0], vec![1]], 5, 1000),
            1,
        );
        net.inject(0, 1, 0);
        net.run(u64::MAX);
        let s = net.stats();
        assert_eq!(s.delivered, 0);
        assert_eq!(s.partitioned, 1);
        assert!(s.is_conserved());
    }

    #[test]
    fn slow_window_multiplies_latency_and_counts() {
        use crate::fault::FaultPlan;
        let mut net = relay_net(2);
        // Node 1 is 10× slow over [0, 1000); constant latency is 10.
        net.set_faults(FaultPlan::none().with_slow(vec![1], 10, 0, 1000), 1);
        net.inject(0, 1, 0); // delivered at 10 × 10 = 100
        net.run(u64::MAX);
        let s = net.stats().clone();
        assert_eq!(net.now(), 100, "latency multiplied by the slow factor");
        assert_eq!(s.delivered, 1, "slow is not loss");
        assert_eq!(s.slowed, 1);
        assert!(s.is_conserved(), "slowed never enters the ledger identity");
        // After the window closes the node serves at model speed again.
        while net.now() < 1000 {
            net.inject(0, 0, 0);
            net.run(u64::MAX);
        }
        let t0 = net.now();
        net.inject(0, 1, 0);
        net.run(u64::MAX);
        assert_eq!(net.now(), t0 + 10, "back to model latency after heal");
        assert_eq!(net.stats().slowed, 1, "no new slowed copies after heal");
    }

    #[test]
    fn pause_window_defers_delivery() {
        use crate::fault::FaultPlan;
        let mut net = relay_net(2);
        net.set_faults(FaultPlan::none().with_pause(0, 0, 500), 1);
        net.inject(1, 0, 0);
        net.run(u64::MAX);
        // Latency 10 + deferred to the pause end (500).
        assert!(
            net.now() >= 500,
            "delivery at {} ignored the pause",
            net.now()
        );
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn mixed_fault_plan_conserves_accounting() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none()
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_delay(0.3, 5, 50)
            .with_crash(1, 400);
        let mut net = relay_net(3);
        net.set_faults(plan, 77);
        for i in 0..40 {
            net.inject(0, i % 3, 6);
        }
        net.run(u64::MAX);
        let s = net.stats();
        assert_eq!(s.queued, 0);
        assert!(
            s.is_conserved(),
            "sent {} != delivered {} + dropped {}",
            s.sent,
            s.delivered,
            s.dropped
        );
        assert!(s.dropped > 0 && s.delivered > 0);
    }

    #[test]
    fn extreme_delay_and_slow_windows_saturate_instead_of_overflowing() {
        use crate::fault::FaultPlan;
        // A full-width delay window, an inverted window built by hand, and
        // a slow factor no latency survives: each relay runs to its end.
        let inverted = FaultPlan {
            delay_p: 1.0,
            delay_range: (5, 3),
            ..FaultPlan::none()
        };
        for plan in [
            FaultPlan::none().with_delay(1.0, 0, u64::MAX),
            inverted.clone(),
            FaultPlan::none().with_slow(vec![0, 1, 2], u64::MAX, 0, u64::MAX),
        ] {
            let mut net = relay_net(3);
            net.set_faults(plan, 7);
            net.inject(0, 0, 5);
            assert_eq!(net.run(u64::MAX), 6);
            assert!(net.stats().is_conserved());
        }
        // The inverted window reads as [3, 5]: each hop costs the model
        // latency of 10 plus a delay from it.
        let mut net = relay_net(1);
        net.set_faults(inverted, 7);
        for _ in 0..20 {
            let sent_at = net.now();
            net.inject(0, 0, 0);
            net.run(u64::MAX);
            let hop = net.now() - sent_at;
            assert!((13..=15).contains(&hop), "hop of {hop} off [13, 15]");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn loss_probability_validated() {
        let mut net = relay_net(1);
        net.set_faults(FaultPlan::none().with_drop(1.5), 0);
    }

    #[test]
    fn stats_count_queued_but_undelivered() {
        let mut net = relay_net(2);
        net.inject(0, 0, 1);
        net.inject(0, 1, 0);
        assert_eq!(net.stats().sent, 2);
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().queued, 2);
        assert!(net.stats().is_conserved());
        net.run(u64::MAX);
        assert_eq!(net.stats().delivered, 3); // two injected + one relay
        assert_eq!(net.stats().queued, 0);
    }
}
