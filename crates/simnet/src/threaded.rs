//! Threaded runtime: every peer is an OS thread, messages travel over
//! crossbeam channels.
//!
//! The same [`crate::sim::Node`] implementations that run under the
//! deterministic simulator run here concurrently, which is how the
//! repository demonstrates the protocol is not an artifact of simulation
//! ordering. Peers receive envelopes; a stop control message shuts a peer
//! down. Delivery counts are tracked with `parking_lot`-guarded state so a
//! test can assert quiescence.

use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::sim::{Node, NodeCtx};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a peer thread receives.
#[derive(Debug)]
enum Envelope<M> {
    /// A protocol message from `from`.
    Msg { from: usize, msg: M },
    /// Shut the peer down; the node state is sent back through the channel.
    Stop,
}

/// Shared counters for quiescence detection.
#[derive(Debug, Default)]
struct NetCounters {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    partitioned: AtomicU64,
    /// Copies that touched a slowed endpoint (gray failures). Informational
    /// — slowed copies are still delivered, so this never enters the
    /// quiescence identity.
    slowed: AtomicU64,
}

/// A running threaded network.
pub struct ThreadedNet<M: Send + 'static> {
    senders: Vec<Sender<Envelope<M>>>,
    handles: Vec<JoinHandle<Box<dyn Node<M> + Send>>>,
    counters: Arc<NetCounters>,
    faults: Option<Arc<Mutex<FaultInjector>>>,
}

/// Pass one send attempt through the (optional, shared) fault layer and
/// push the surviving copies into the destination mailbox. Every attempt
/// is accounted exactly once: `sent == delivered + dropped + partitioned`
/// at quiescence.
fn faulty_send<M: Clone + Send>(
    senders: &[Sender<Envelope<M>>],
    counters: &NetCounters,
    faults: &Option<Arc<Mutex<FaultInjector>>>,
    now: u64,
    from: usize,
    to: usize,
    msg: M,
) {
    let action = match faults {
        Some(inj) => inj.lock().on_send(from, to, now),
        None => FaultAction::Deliver(vec![0]),
    };
    match action {
        FaultAction::Drop => {
            counters.sent.fetch_add(1, Ordering::Relaxed);
            counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Partitioned => {
            counters.sent.fetch_add(1, Ordering::Relaxed);
            counters.partitioned.fetch_add(1, Ordering::Relaxed);
        }
        FaultAction::Deliver(extras) => {
            // Extra delay has no wall-clock meaning here; each entry still
            // yields one copy, so duplication behaves identically to the
            // simulator. Slow windows likewise cannot stretch wall time,
            // but slowed copies are still counted so ledgers line up with
            // the simulator's.
            let factor = match faults {
                Some(inj) => inj.lock().slow_factor(from, to, now),
                None => 1,
            };
            for _ in extras {
                counters.sent.fetch_add(1, Ordering::Relaxed);
                if factor > 1 {
                    counters.slowed.fetch_add(1, Ordering::Relaxed);
                    if let Some(inj) = faults {
                        inj.lock().note_slowed();
                    }
                }
                // A send can only fail if the peer already stopped; drop
                // the message like a dead TCP connection would.
                if senders[to]
                    .send(Envelope::Msg {
                        from,
                        msg: msg.clone(),
                    })
                    .is_err()
                {
                    counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl<M: Clone + Send + 'static> ThreadedNet<M> {
    /// Spawn one thread per node. Each thread loops on its mailbox,
    /// dispatching messages to the node's `on_message` with a context whose
    /// sends go straight into the other peers' mailboxes.
    pub fn spawn(nodes: Vec<Box<dyn Node<M> + Send>>) -> ThreadedNet<M> {
        Self::spawn_inner(nodes, None)
    }

    /// Like [`Self::spawn`], but every send passes through a shared
    /// [`FaultInjector`] running `plan` — the same plans the deterministic
    /// simulator takes via [`crate::sim::SimNet::set_faults`]. Times in
    /// crash/pause windows are interpreted against the runtime's logical
    /// clock (one tick per delivery).
    pub fn spawn_with_faults(
        nodes: Vec<Box<dyn Node<M> + Send>>,
        plan: FaultPlan,
        seed: u64,
    ) -> ThreadedNet<M> {
        let injector = if plan.is_benign() {
            None
        } else {
            Some(Arc::new(Mutex::new(FaultInjector::new(plan, seed))))
        };
        Self::spawn_inner(nodes, injector)
    }

    fn spawn_inner(
        nodes: Vec<Box<dyn Node<M> + Send>>,
        faults: Option<Arc<Mutex<FaultInjector>>>,
    ) -> ThreadedNet<M> {
        let n = nodes.len();
        let mut senders = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Envelope<M>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let counters = Arc::new(NetCounters::default());
        // Logical clock for NodeCtx::now under threads: a coarse global
        // delivery counter (virtual time has no wall meaning here).
        let clock = Arc::new(AtomicU64::new(0));
        let handles = nodes
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(me, (mut node, rx))| {
                let senders = senders.clone();
                let counters = counters.clone();
                let clock = clock.clone();
                let faults = faults.clone();
                std::thread::Builder::new()
                    .name(format!("peer-{me}"))
                    .spawn(move || {
                        while let Ok(env) = rx.recv() {
                            match env {
                                Envelope::Stop => break,
                                Envelope::Msg { from, msg } => {
                                    let now = clock.fetch_add(1, Ordering::Relaxed);
                                    // A crashed node stops processing; its
                                    // backlog is lost, not handled.
                                    if let Some(inj) = &faults {
                                        if inj.lock().is_crashed(me, now) {
                                            counters.dropped.fetch_add(1, Ordering::Relaxed);
                                            continue;
                                        }
                                    }
                                    counters.delivered.fetch_add(1, Ordering::Relaxed);
                                    let mut outbox = Vec::new();
                                    {
                                        let mut ctx = NodeCtx::for_runtime(me, now, &mut outbox);
                                        node.on_message(&mut ctx, from, msg);
                                    }
                                    for (to, m) in outbox {
                                        faulty_send(&senders, &counters, &faults, now, me, to, m);
                                    }
                                }
                            }
                        }
                        node
                    })
                    .expect("failed to spawn peer thread")
            })
            .collect();
        ThreadedNet {
            senders,
            handles,
            counters,
            faults,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// True if the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Inject a message from the outside world.
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    pub fn inject(&self, from: usize, to: usize, msg: M) {
        faulty_send(
            &self.senders,
            &self.counters,
            &self.faults,
            0,
            from,
            to,
            msg,
        );
    }

    /// Block until every sent message is accounted for — delivered or
    /// dropped by the fault layer — and no handler is mid-flight (counters
    /// balanced and stable). Returns false on timeout.
    pub fn await_quiescence(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut last = (u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        loop {
            let sent = self.counters.sent.load(Ordering::SeqCst);
            let delivered = self.counters.delivered.load(Ordering::SeqCst);
            let dropped = self.counters.dropped.load(Ordering::SeqCst);
            let partitioned = self.counters.partitioned.load(Ordering::SeqCst);
            if sent == delivered + dropped + partitioned
                && (sent, delivered, dropped, partitioned) == last
            {
                return true;
            }
            last = (sent, delivered, dropped, partitioned);
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Stop all peers and return their node states.
    pub fn shutdown(mut self) -> Vec<Box<dyn Node<M> + Send>> {
        self.stop_and_join()
            .into_iter()
            .map(|joined| joined.expect("peer thread panicked"))
            .collect()
    }

    /// Messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.counters.delivered.load(Ordering::Relaxed)
    }

    /// Messages dropped by the fault layer so far.
    pub fn dropped(&self) -> u64 {
        self.counters.dropped.load(Ordering::Relaxed)
    }

    /// Messages lost to an open partition window so far.
    pub fn partitioned(&self) -> u64 {
        self.counters.partitioned.load(Ordering::Relaxed)
    }

    /// Copies that touched a slowed endpoint so far (delivered, not lost).
    pub fn slowed(&self) -> u64 {
        self.counters.slowed.load(Ordering::Relaxed)
    }

    /// Send attempts so far (delivered + dropped + partitioned at
    /// quiescence).
    pub fn sent(&self) -> u64 {
        self.counters.sent.load(Ordering::Relaxed)
    }
}

impl<M: Send + 'static> ThreadedNet<M> {
    /// Send every peer its stop and join the threads. Messages still
    /// queued ahead of a stop are handled first.
    fn stop_and_join(&mut self) -> Vec<std::thread::Result<Box<dyn Node<M> + Send>>> {
        for tx in &self.senders {
            let _ = tx.send(Envelope::Stop);
        }
        self.handles.drain(..).map(JoinHandle::join).collect()
    }
}

/// A network dropped without [`ThreadedNet::shutdown`] — a failed
/// assertion unwinding through a test, say — still stops and joins its
/// peers: every peer thread owns a sender to every mailbox, so no mailbox
/// would ever disconnect and the threads would block on them for the
/// life of the process.
impl<M: Send + 'static> Drop for ThreadedNet<M> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Guard: keep `Mutex` in the dependency graph for shared result sinks used
/// by downstream crates' threaded tests.
pub type SharedSink<T> = Arc<Mutex<Vec<T>>>;

#[cfg(test)]
mod tests {
    use super::*;

    struct Accumulator {
        seen: Vec<u32>,
        n: usize,
    }

    impl Node<u32> for Accumulator {
        fn on_message(&mut self, ctx: &mut NodeCtx<'_, u32>, _from: usize, msg: u32) {
            self.seen.push(msg);
            if msg > 0 {
                ctx.send((ctx.me + 1) % self.n, msg - 1);
            }
        }
    }

    fn boxed(n: usize) -> Vec<Box<dyn Node<u32> + Send>> {
        (0..n)
            .map(|_| {
                Box::new(Accumulator {
                    seen: Vec::new(),
                    n,
                }) as Box<dyn Node<u32> + Send>
            })
            .collect()
    }

    #[test]
    fn relay_across_threads() {
        let net = ThreadedNet::spawn(boxed(4));
        net.inject(0, 0, 11);
        assert!(net.await_quiescence(std::time::Duration::from_secs(5)));
        assert_eq!(net.delivered(), 12);
        let _nodes = net.shutdown();
    }

    #[test]
    fn parallel_injections_all_delivered() {
        let net = ThreadedNet::spawn(boxed(8));
        for i in 0..50u32 {
            net.inject(0, (i % 8) as usize, 3);
        }
        assert!(net.await_quiescence(std::time::Duration::from_secs(5)));
        // 50 injected chains × 4 messages each.
        assert_eq!(net.delivered(), 200);
        net.shutdown();
    }

    #[test]
    fn shutdown_returns_states() {
        let net = ThreadedNet::spawn(boxed(2));
        net.inject(0, 0, 0);
        assert!(net.await_quiescence(std::time::Duration::from_secs(5)));
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn len_reports_peers() {
        let net = ThreadedNet::spawn(boxed(3));
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
        net.shutdown();
    }

    #[test]
    fn quiescence_terminates_under_drops() {
        let net = ThreadedNet::spawn_with_faults(boxed(4), FaultPlan::none().with_drop(0.5), 11);
        for i in 0..40u32 {
            net.inject(0, (i % 4) as usize, 20);
        }
        assert!(
            net.await_quiescence(std::time::Duration::from_secs(10)),
            "drops must not wedge quiescence detection"
        );
        assert!(net.dropped() > 0, "50% loss must fire");
        assert_eq!(net.sent(), net.delivered() + net.dropped());
        net.shutdown();
    }

    #[test]
    fn full_drop_delivers_nothing() {
        let net = ThreadedNet::spawn_with_faults(boxed(2), FaultPlan::none().with_drop(1.0), 1);
        for _ in 0..10 {
            net.inject(0, 1, 5);
        }
        assert!(net.await_quiescence(std::time::Duration::from_secs(5)));
        assert_eq!(net.delivered(), 0);
        assert_eq!(net.dropped(), 10);
        net.shutdown();
    }

    #[test]
    fn partition_blocks_cross_island_traffic() {
        // The threaded runtime's logical clock starts at 0, so a window
        // over [0, u64::MAX) is open for the whole run.
        let plan = FaultPlan::none().with_partition(vec![vec![0], vec![1]], 0, u64::MAX);
        let net = ThreadedNet::spawn_with_faults(boxed(2), plan, 1);
        for _ in 0..10 {
            net.inject(0, 1, 0); // cross-island: all lost
        }
        net.inject(0, 0, 0); // island-internal: delivered
        assert!(net.await_quiescence(std::time::Duration::from_secs(5)));
        assert_eq!(net.partitioned(), 10);
        assert_eq!(net.delivered(), 1);
        assert_eq!(
            net.sent(),
            net.delivered() + net.dropped() + net.partitioned()
        );
        net.shutdown();
    }

    #[test]
    fn slow_window_counts_but_never_loses() {
        // Logical clock starts at 0: a window over [0, u64::MAX) covers
        // the run. Slowness cannot stretch wall time here; the ledger
        // column is what carries across runtimes.
        let plan = FaultPlan::none().with_slow(vec![1], 10, 0, u64::MAX);
        let net = ThreadedNet::spawn_with_faults(boxed(2), plan, 1);
        for _ in 0..10 {
            net.inject(0, 1, 0); // touches the slowed peer
        }
        net.inject(0, 0, 0); // does not
        assert!(net.await_quiescence(std::time::Duration::from_secs(5)));
        assert_eq!(net.delivered(), 11, "slow is not loss");
        assert_eq!(net.slowed(), 10);
        assert_eq!(
            net.sent(),
            net.delivered() + net.dropped() + net.partitioned(),
            "slowed never enters the conservation identity"
        );
        net.shutdown();
    }

    #[test]
    fn duplication_inflates_delivery_count() {
        let net =
            ThreadedNet::spawn_with_faults(boxed(2), FaultPlan::none().with_duplicate(1.0), 2);
        net.inject(0, 1, 0); // terminal payload: no relays
        assert!(net.await_quiescence(std::time::Duration::from_secs(5)));
        assert_eq!(net.delivered(), 2);
        net.shutdown();
    }

    #[test]
    fn dropped_net_joins_its_peers() {
        // No shutdown, relays still in flight: the drop must stop and
        // join every peer thread (each holds the shared counters).
        let net = ThreadedNet::spawn(boxed(4));
        for _ in 0..20 {
            net.inject(0, 0, 50);
        }
        let counters = Arc::downgrade(&net.counters);
        drop(net);
        assert!(
            counters.upgrade().is_none(),
            "a peer thread outlived its network"
        );
    }
}
