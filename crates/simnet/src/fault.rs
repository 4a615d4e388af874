//! Deterministic fault injection for the message simulator.
//!
//! A [`FaultPlan`] describes how a run's transport misbehaves — message
//! drop, duplication, and extra delay, plus node crash and pause windows,
//! partitions and slow peers — and a `FaultInjector` executes the plan
//! from a seeded [`DetRng`], so every fault a run experiences is a pure
//! function of `(plan, seed)`. The injector drives the discrete-event
//! simulator ([`crate::sim::SimNet::set_faults`]); experiments and the
//! resilience test-suite replay a fault schedule from its seed.
//!
//! Semantics, decided at *send* time (deterministic, independent of
//! delivery interleaving):
//!
//! * **crash**: a node crashed at or before the send time neither sends
//!   nor receives — the message is dropped;
//! * **partition**: while a [`PartitionWindow`] is open, a message whose
//!   endpoints sit on different islands is dropped, counted in its own
//!   `partitioned` ledger column (island-internal traffic is untouched);
//! * **pause**: a message to a node inside a pause window is deferred to
//!   the window's end (a stalled-but-alive process), not dropped;
//! * **slow**: while a [`SlowWindow`] is open, a message touching a slowed
//!   endpoint is delivered at a multiple of the link latency — a gray
//!   failure (slow-but-alive node), counted in its own `slowed` column;
//! * **drop**: the message vanishes, counted in `dropped`;
//! * **duplicate**: one extra copy is scheduled (each copy counts as sent
//!   and is then independently delayed);
//! * **delay**: a uniform extra latency from the configured window (a
//!   hand-built window with `lo > hi` is read as `[hi, lo]`).
//!
//! Storage faults (crash-time tail bit flips) are not declared here:
//! they happen on `ars-store`'s simulated disk, and
//! `ars_store::StorageFaults` is their one declaration.

use crate::event::SimTime;
use ars_common::DetRng;

/// A node crash: from `at` (inclusive) onward the node is gone for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashing node (runtime peer index).
    pub node: usize,
    /// Virtual time of the crash.
    pub at: SimTime,
}

/// A node pause: within `[from, until)` the node is unresponsive;
/// messages addressed to it are deferred to `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseWindow {
    /// The pausing node (runtime peer index).
    pub node: usize,
    /// Pause start (inclusive).
    pub from: SimTime,
    /// Pause end (exclusive) — deferred messages land here.
    pub until: SimTime,
}

/// A gray failure: within `[from, until)` the listed nodes are *slow* —
/// alive, responsive, never dropping traffic, but serving every message
/// at `factor ×` the link latency. This is the fault class crash/pause
/// windows cannot express: an overloaded or degraded node that silently
/// inflates tail latency without tripping any failure path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowWindow {
    /// The slowed nodes (runtime peer indices).
    pub nodes: Vec<usize>,
    /// Latency multiplier (≥ 2; 1 would be a no-op).
    pub factor: u64,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl SlowWindow {
    /// True if the window is open at `now`.
    pub(crate) fn is_open(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }

    /// True if this window slows `node` at `now`.
    pub(crate) fn slows(&self, node: usize, now: SimTime) -> bool {
        self.is_open(now) && self.nodes.contains(&node)
    }
}

/// A scheduled network partition: within `[from, until)` the nodes listed
/// in `groups` are split into islands and cross-island traffic is dropped.
///
/// Nodes not listed in any group are treated as members of island 0 (the
/// majority side), so a window only needs to enumerate the minority
/// islands it carves off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// The islands: ≥2 disjoint, non-empty groups of node indices.
    pub groups: Vec<Vec<usize>>,
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive) — the heal instant.
    pub until: SimTime,
}

impl PartitionWindow {
    /// Island index of `node` under this window (unlisted nodes belong to
    /// island 0).
    pub(crate) fn island_of(&self, node: usize) -> usize {
        self.groups
            .iter()
            .position(|g| g.contains(&node))
            .unwrap_or(0)
    }

    /// True if the window is open at `now`.
    pub(crate) fn is_open(&self, now: SimTime) -> bool {
        now >= self.from && now < self.until
    }

    /// True if this window severs the directed link `from → to` at `now`.
    pub(crate) fn severs(&self, from: usize, to: usize, now: SimTime) -> bool {
        self.is_open(now) && self.island_of(from) != self.island_of(to)
    }
}

/// A declarative description of how a run's transport misbehaves.
///
/// Built with the `with_*` methods; [`crate::SimNet::set_faults`] executes
/// it. The default plan injects nothing (a perfect network).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Per-message drop probability.
    pub drop_p: f64,
    /// Per-message duplication probability.
    pub duplicate_p: f64,
    /// Per-message probability of extra delay.
    pub delay_p: f64,
    /// Extra delay window `[lo, hi]` applied when `delay_p` fires.
    pub delay_range: (SimTime, SimTime),
    /// Permanent node crashes.
    pub crashes: Vec<CrashWindow>,
    /// Temporary node pauses.
    pub pauses: Vec<PauseWindow>,
    /// Scheduled network partitions (cross-island traffic is dropped
    /// while a window is open).
    pub partitions: Vec<PartitionWindow>,
    /// Gray failures: slow-but-alive nodes whose traffic is delivered at a
    /// multiple of the link latency while a window is open.
    pub slow: Vec<SlowWindow>,
}

fn check_p(p: f64) {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if this plan can never affect a message.
    pub fn is_benign(&self) -> bool {
        self.drop_p == 0.0
            && self.duplicate_p == 0.0
            && self.delay_p == 0.0
            && self.crashes.is_empty()
            && self.pauses.is_empty()
            && self.partitions.is_empty()
            && self.slow.is_empty()
    }

    /// Drop every message independently with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        check_p(p);
        self.drop_p = p;
        self
    }

    /// Duplicate every message independently with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn with_duplicate(mut self, p: f64) -> FaultPlan {
        check_p(p);
        self.duplicate_p = p;
        self
    }

    /// With probability `p`, add a uniform extra delay from `[lo, hi]`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1` and `lo ≤ hi`.
    pub fn with_delay(mut self, p: f64, lo: SimTime, hi: SimTime) -> FaultPlan {
        check_p(p);
        assert!(lo <= hi, "invalid delay interval");
        self.delay_p = p;
        self.delay_range = (lo, hi);
        self
    }

    /// Crash `node` permanently at virtual time `at`.
    pub fn with_crash(mut self, node: usize, at: SimTime) -> FaultPlan {
        self.crashes.push(CrashWindow { node, at });
        self
    }

    /// Pause `node` over `[from, until)`.
    ///
    /// # Panics
    /// Panics unless `from < until`.
    pub fn with_pause(mut self, node: usize, from: SimTime, until: SimTime) -> FaultPlan {
        assert!(from < until, "empty pause window");
        self.pauses.push(PauseWindow { node, from, until });
        self
    }

    /// Split the network into `groups` islands over `[from, until)`.
    /// Nodes not listed in any group belong to island 0, so minority
    /// islands can be declared without enumerating the majority.
    ///
    /// # Panics
    /// Panics unless `from < until`, there are ≥2 groups, every group is
    /// non-empty, and no node appears in two groups.
    pub fn with_partition(
        mut self,
        groups: Vec<Vec<usize>>,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        assert!(from < until, "empty partition window");
        assert!(groups.len() >= 2, "a partition needs at least two islands");
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "empty partition island"
        );
        let mut seen = std::collections::BTreeSet::new();
        for g in &groups {
            for &n in g {
                assert!(seen.insert(n), "node {n} listed in two islands");
            }
        }
        self.partitions.push(PartitionWindow {
            groups,
            from,
            until,
        });
        self
    }

    /// Slow every node in `nodes` by `factor ×` over `[from, until)`: a
    /// gray failure. Messages touching a slowed endpoint are still
    /// delivered (never dropped), but their link latency is multiplied,
    /// and each such delivery is counted in the `slowed` ledger column.
    ///
    /// # Panics
    /// Panics unless `from < until`, `nodes` is non-empty, and
    /// `factor ≥ 2` (a factor of 1 would be an invisible no-op).
    pub fn with_slow(
        mut self,
        nodes: Vec<usize>,
        factor: u64,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        assert!(from < until, "empty slow window");
        assert!(!nodes.is_empty(), "empty slow node set");
        assert!(factor >= 2, "slow factor must be at least 2");
        self.slow.push(SlowWindow {
            nodes,
            factor,
            from,
            until,
        });
        self
    }
}

/// What the injector decided for one sent message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// The message is gone (loss, or an endpoint is crashed).
    Drop,
    /// The message crossed an open partition boundary and is gone —
    /// accounted in its own `partitioned` ledger column, not `dropped`.
    Partitioned,
    /// Deliver one copy per entry; each entry is the *extra* delay (beyond
    /// the link latency) to add to that copy. `vec![0]` is a clean send.
    Deliver(Vec<SimTime>),
}

impl FaultAction {
    /// Number of copies this action schedules (0 when dropped).
    #[cfg(test)]
    fn copies(&self) -> usize {
        match self {
            FaultAction::Drop | FaultAction::Partitioned => 0,
            FaultAction::Deliver(extra) => extra.len(),
        }
    }
}

/// Executes a [`FaultPlan`] deterministically.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: DetRng,
}

impl FaultInjector {
    /// An injector running `plan` with randomness seeded by `seed`.
    pub(crate) fn new(plan: FaultPlan, seed: u64) -> FaultInjector {
        FaultInjector {
            plan,
            rng: DetRng::new(seed),
        }
    }

    /// True if `node` has crashed at or before `now`.
    pub(crate) fn is_crashed(&self, node: usize, now: SimTime) -> bool {
        self.plan
            .crashes
            .iter()
            .any(|c| c.node == node && now >= c.at)
    }

    /// Extra delay a message arriving at `to` around `now` suffers from an
    /// active pause window (0 when none).
    fn pause_delay(&self, to: usize, now: SimTime) -> SimTime {
        self.plan
            .pauses
            .iter()
            .filter(|p| p.node == to && now >= p.from && now < p.until)
            .map(|p| p.until - now)
            .max()
            .unwrap_or(0)
    }

    /// True if an open partition window severs the link `from → to` at
    /// `now` (used at send time here, and at arrival time by the
    /// simulator for messages in flight when a window opens).
    pub(crate) fn is_partitioned(&self, from: usize, to: usize, now: SimTime) -> bool {
        self.plan.partitions.iter().any(|w| w.severs(from, to, now))
    }

    /// Latency multiplier for a message `from → to` at `now`: the maximum
    /// factor over every open slow window touching either endpoint, 1 when
    /// none. Like the crash and partition checks this consumes no
    /// randomness, so adding slow windows to a plan never perturbs the
    /// drop/duplicate/delay stream (see `slow_consumes_no_randomness`).
    pub(crate) fn slow_factor(&self, from: usize, to: usize, now: SimTime) -> u64 {
        self.plan
            .slow
            .iter()
            .filter(|w| w.slows(from, now) || w.slows(to, now))
            .map(|w| w.factor)
            .max()
            .unwrap_or(1)
    }

    /// Decide the fate of one message sent `from → to` at virtual time
    /// `now`. Consumes randomness in a fixed order (drop, duplicate,
    /// per-copy delay) so runs replay identically; crash and partition
    /// checks consume none, so plans replay bit-identically outside their
    /// windows.
    pub(crate) fn on_send(&mut self, from: usize, to: usize, now: SimTime) -> FaultAction {
        if self.is_crashed(from, now) || self.is_crashed(to, now) {
            return FaultAction::Drop;
        }
        if self.is_partitioned(from, to, now) {
            return FaultAction::Partitioned;
        }
        if self.plan.drop_p > 0.0 && self.rng.gen_bool(self.plan.drop_p) {
            return FaultAction::Drop;
        }
        let copies = if self.plan.duplicate_p > 0.0 && self.rng.gen_bool(self.plan.duplicate_p) {
            2
        } else {
            1
        };
        let pause = self.pause_delay(to, now);
        let mut extra = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut d = pause;
            if self.plan.delay_p > 0.0 && self.rng.gen_bool(self.plan.delay_p) {
                let (a, b) = self.plan.delay_range;
                let (lo, span) = (a.min(b), a.abs_diff(b));
                // `[0, u64::MAX]` has 2⁶⁴ values: one raw draw covers it.
                let offset = match span.checked_add(1) {
                    Some(width) => self.rng.gen_range_u64(width),
                    None => self.rng.next_u64(),
                };
                d = d.saturating_add(lo + offset);
            }
            extra.push(d);
        }
        FaultAction::Deliver(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plan_delivers_one_clean_copy() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1);
        assert!(inj.plan.is_benign());
        for t in [0, 10, 1000] {
            assert_eq!(inj.on_send(0, 1, t), FaultAction::Deliver(vec![0]));
        }
    }

    #[test]
    fn full_drop_loses_everything() {
        let mut inj = FaultInjector::new(FaultPlan::none().with_drop(1.0), 7);
        for _ in 0..20 {
            assert_eq!(inj.on_send(0, 1, 0), FaultAction::Drop);
        }
    }

    #[test]
    fn duplication_schedules_two_copies() {
        let mut inj = FaultInjector::new(FaultPlan::none().with_duplicate(1.0), 3);
        let act = inj.on_send(0, 1, 0);
        assert_eq!(act.copies(), 2);
    }

    #[test]
    fn crash_blackholes_both_directions() {
        let plan = FaultPlan::none().with_crash(2, 100);
        let mut inj = FaultInjector::new(plan, 1);
        // Before the crash: fine.
        assert_eq!(inj.on_send(2, 0, 99).copies(), 1);
        assert_eq!(inj.on_send(0, 2, 99).copies(), 1);
        // From the crash instant on: dropped, either direction.
        assert_eq!(inj.on_send(2, 0, 100), FaultAction::Drop);
        assert_eq!(inj.on_send(0, 2, 5000), FaultAction::Drop);
        assert_eq!(inj.on_send(0, 1, 5000).copies(), 1);
    }

    #[test]
    fn pause_defers_to_window_end() {
        let plan = FaultPlan::none().with_pause(1, 50, 80);
        let mut inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.on_send(0, 1, 40), FaultAction::Deliver(vec![0]));
        assert_eq!(inj.on_send(0, 1, 60), FaultAction::Deliver(vec![20]));
        assert_eq!(inj.on_send(0, 1, 80), FaultAction::Deliver(vec![0]));
    }

    #[test]
    fn delay_window_respected_and_deterministic() {
        let plan = FaultPlan::none().with_delay(1.0, 10, 30);
        let mut a = FaultInjector::new(plan.clone(), 9);
        let mut b = FaultInjector::new(plan, 9);
        for _ in 0..50 {
            let (x, y) = (a.on_send(0, 1, 0), b.on_send(0, 1, 0));
            assert_eq!(x, y);
            let FaultAction::Deliver(extra) = x else {
                panic!("delay plan never drops");
            };
            assert!((10..=30).contains(&extra[0]), "delay {} off", extra[0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_probability_rejected() {
        let _ = FaultPlan::none().with_drop(1.5);
    }

    #[test]
    #[should_panic(expected = "empty pause window")]
    fn bad_pause_rejected() {
        let _ = FaultPlan::none().with_pause(0, 10, 10);
    }

    #[test]
    fn partition_drops_cross_island_only_while_open() {
        let plan = FaultPlan::none().with_partition(vec![vec![0, 1], vec![2, 3]], 100, 200);
        assert!(!plan.is_benign(), "a partition plan is not benign");
        let mut inj = FaultInjector::new(plan, 1);
        // Before the window: everything flows.
        assert_eq!(inj.on_send(0, 2, 99).copies(), 1);
        // Open window: cross-island severed both ways, intra-island fine.
        assert_eq!(inj.on_send(0, 2, 100), FaultAction::Partitioned);
        assert_eq!(inj.on_send(3, 1, 150), FaultAction::Partitioned);
        assert_eq!(inj.on_send(0, 1, 150).copies(), 1);
        assert_eq!(inj.on_send(2, 3, 150).copies(), 1);
        // Healed: flows again.
        assert_eq!(inj.on_send(0, 2, 200).copies(), 1);
    }

    #[test]
    fn unlisted_nodes_join_island_zero() {
        // Only the minority island is enumerated; node 7 is unlisted and
        // therefore sits with island 0.
        let plan = FaultPlan::none().with_partition(vec![vec![0], vec![5, 6]], 0, 10);
        let mut inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.on_send(7, 0, 5).copies(), 1);
        assert_eq!(inj.on_send(7, 5, 5), FaultAction::Partitioned);
    }

    #[test]
    fn partition_consumes_no_randomness() {
        // Identical drop-plans with and without a partition window must
        // make identical drop decisions outside the window.
        let base = FaultPlan::none().with_drop(0.5);
        let with_part = base
            .clone()
            .with_partition(vec![vec![0], vec![1]], 10_000, 10_001);
        let mut a = FaultInjector::new(base, 42);
        let mut b = FaultInjector::new(with_part, 42);
        for t in 0..200 {
            assert_eq!(a.on_send(0, 1, t), b.on_send(0, 1, t));
        }
    }

    #[test]
    fn slow_window_scales_only_inside_window() {
        let plan = FaultPlan::none().with_slow(vec![2], 10, 100, 200);
        assert!(!plan.is_benign(), "a slow plan is not benign");
        let mut inj = FaultInjector::new(plan, 1);
        // Outside the window: unit factor.
        assert_eq!(inj.slow_factor(0, 2, 99), 1);
        assert_eq!(inj.slow_factor(0, 2, 200), 1);
        // Inside: either direction, both endpoints checked.
        assert_eq!(inj.slow_factor(0, 2, 100), 10);
        assert_eq!(inj.slow_factor(2, 0, 150), 10);
        // A link not touching the slow node is unaffected.
        assert_eq!(inj.slow_factor(0, 1, 150), 1);
        // Slowness never drops: the send decision is a clean delivery.
        assert_eq!(inj.on_send(0, 2, 150), FaultAction::Deliver(vec![0]));
    }

    #[test]
    fn overlapping_slow_windows_take_max_factor() {
        let plan =
            FaultPlan::none()
                .with_slow(vec![1], 4, 0, 100)
                .with_slow(vec![1, 2], 10, 50, 100);
        let inj = FaultInjector::new(plan, 1);
        assert_eq!(inj.slow_factor(0, 1, 10), 4);
        assert_eq!(inj.slow_factor(0, 1, 60), 10, "max of open windows");
        assert_eq!(inj.slow_factor(0, 2, 10), 1);
    }

    #[test]
    fn slow_consumes_no_randomness() {
        // Identical drop-plans with and without slow windows must make
        // identical drop decisions — the gray-fault check is RNG-free.
        let base = FaultPlan::none().with_drop(0.5);
        let with_slow = base.clone().with_slow(vec![0, 1], 10, 0, 1_000);
        let mut a = FaultInjector::new(base, 42);
        let mut b = FaultInjector::new(with_slow, 42);
        for t in 0..200 {
            assert_eq!(a.on_send(0, 1, t), b.on_send(0, 1, t));
        }
    }

    #[test]
    #[should_panic(expected = "slow factor must be at least 2")]
    fn unit_slow_factor_rejected() {
        let _ = FaultPlan::none().with_slow(vec![0], 1, 0, 10);
    }

    #[test]
    #[should_panic(expected = "empty slow window")]
    fn empty_slow_window_rejected() {
        let _ = FaultPlan::none().with_slow(vec![0], 2, 10, 10);
    }

    #[test]
    #[should_panic(expected = "two islands")]
    fn single_island_partition_rejected() {
        let _ = FaultPlan::none().with_partition(vec![vec![0, 1]], 0, 10);
    }

    #[test]
    #[should_panic(expected = "listed in two islands")]
    fn overlapping_islands_rejected() {
        let _ = FaultPlan::none().with_partition(vec![vec![0, 1], vec![1, 2]], 0, 10);
    }
}
