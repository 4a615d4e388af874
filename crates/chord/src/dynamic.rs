//! The live Chord protocol: joins, departures, failures, stabilization.
//!
//! The static [`crate::ring::Ring`] gives the converged state the paper's
//! scalability figures measure; this module provides the machinery that
//! *reaches* that state: `join` via lookup, periodic `stabilize`/`notify`,
//! finger repair, successor lists for fault tolerance, and both graceful
//! (`leave`) and abrupt (`fail`) departures. The failure-injection
//! integration tests drive churn through here.

use crate::id::{Id, ID_BITS};
use ars_common::FxHashMap;
use ars_telemetry::Telemetry;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Errors surfaced by the dynamic protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChordError {
    /// The referenced node is not alive in the network.
    UnknownNode(Id),
    /// A node with this id already exists.
    DuplicateNode(Id),
    /// A lookup could not make progress (e.g. all successors dead before
    /// stabilization repaired them).
    RoutingFailed {
        /// Node the lookup started from.
        from: Id,
        /// Key being located.
        key: Id,
    },
    /// The last node cannot leave/fail (the network would be empty).
    LastNode,
    /// Stabilization did not reach a consistent ring within the round
    /// budget (returned by growth/recovery paths that require convergence).
    NotConverged {
        /// Rounds that were run before giving up.
        rounds: usize,
    },
}

impl std::fmt::Display for ChordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChordError::UnknownNode(id) => write!(f, "unknown node {id}"),
            ChordError::DuplicateNode(id) => write!(f, "duplicate node {id}"),
            ChordError::RoutingFailed { from, key } => {
                write!(f, "routing failed from {from} for key {key}")
            }
            ChordError::LastNode => write!(f, "cannot remove the last node"),
            ChordError::NotConverged { rounds } => {
                write!(f, "ring not consistent after {rounds} stabilization rounds")
            }
        }
    }
}

impl std::error::Error for ChordError {}

/// Successor pointers kept per node. Chord suggests `O(log N)`; 8
/// tolerates heavy churn at the scales simulated here.
const SUCC_LIST_LEN: usize = 8;

/// Finger entries kept per node, one per bit of the identifier space.
const FINGERS: usize = ID_BITS as usize;

/// Set in a slot's tag while the node stored there is alive.
const LIVE: u64 = 1 << 32;

/// A routing pointer: a node's id and the slot its state sat in when the
/// pointer was taken; pointers compare by id alone. Joins reuse freed
/// slots, so only `DynamicNetwork::resolve` says whether it still answers.
#[derive(Debug, Clone, Copy)]
struct Ptr {
    id: Id,
    slot: u32,
}

impl PartialEq for Ptr {
    fn eq(&self, other: &Ptr) -> bool {
        self.id == other.id
    }
}

/// One node's protocol state, stored at its slot.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Ordered successor list, `succ[..succ_len]` (first = immediate
    /// successor candidate; never empty).
    succ: [Ptr; SUCC_LIST_LEN],
    succ_len: u8,
    predecessor: Option<Ptr>,
    /// Finger table: bit `i` of `has_finger` set = `fingers[i]` resolved.
    fingers: [Ptr; FINGERS],
    has_finger: u32,
    /// Round-robin pointer for incremental `fix_fingers`.
    next_finger: usize,
    /// What routing reads, rebuilt on every table write: the fingers high
    /// to low, then the successors, repeats of the pointer before dropped.
    scan: [Ptr; FINGERS + SUCC_LIST_LEN],
    scan_len: u8,
    /// Island index under the installed partition (read only while
    /// partitioned).
    island: usize,
}

impl Node {
    /// A node on `island` that knows only its successor.
    fn new(succ: Ptr, island: usize) -> Node {
        Node {
            succ: [succ; SUCC_LIST_LEN],
            succ_len: 1,
            predecessor: None,
            fingers: [succ; FINGERS],
            has_finger: 0,
            next_finger: 0,
            scan: [succ; FINGERS + SUCC_LIST_LEN],
            scan_len: 1,
            island,
        }
    }

    fn successors(&self) -> &[Ptr] {
        &self.succ[..usize::from(self.succ_len)]
    }

    /// Make the successor list `first`, then what `rest` yields, cut to
    /// `SUCC_LIST_LEN`.
    fn set_successors(&mut self, first: Ptr, rest: impl Iterator<Item = Ptr>) {
        self.succ[0] = first;
        self.succ_len = 1;
        for p in rest.take(SUCC_LIST_LEN - 1) {
            self.succ[usize::from(self.succ_len)] = p;
            self.succ_len += 1;
        }
        self.reindex();
    }

    /// Resolved fingers, low bit to high.
    fn fingers(&self) -> impl DoubleEndedIterator<Item = Ptr> + '_ {
        (0..FINGERS)
            .filter(|&i| self.has_finger >> i & 1 == 1)
            .map(|i| self.fingers[i])
    }

    /// Rebuild `scan` from the fingers and the successor list.
    fn reindex(&mut self) {
        let (mut scan, mut len) = (self.scan, 0);
        for p in self
            .fingers()
            .rev()
            .chain(self.successors().iter().copied())
        {
            if len == 0 || scan[len - 1] != p {
                scan[len] = p;
                len += 1;
            }
        }
        (self.scan, self.scan_len) = (scan, len as u8);
    }
}

/// Cumulative counters of the [`DynamicNetwork`] route cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCacheStats {
    /// Lookups answered straight from the cache (one hop).
    pub hits: u64,
    /// Lookups that went through finger descent while the cache was on.
    pub misses: u64,
    /// Routes recorded after successful lookups.
    pub insertions: u64,
    /// Entries dropped because the cache was full (FIFO order).
    pub evictions: u64,
    /// Entries dropped by churn/stabilization invalidation.
    pub invalidated: u64,
}

/// Bounded `(from, key) → (owner, hops)` route memo. Entries are recorded
/// on successful lookups and *fully cleared* by every ring mutation
/// (join/leave/fail and each node's stabilization step), so a hit differs
/// from the uncached path only in hop count (one hop, modelling a direct
/// connection to the remembered owner). Fix-finger lookups bypass it: they
/// run between the two clears of one node's step, under distinct keys.
/// A `RefCell` keeps [`DynamicNetwork::lookup`] a `&self` method; every
/// borrow ends inside the method that takes it, so none can overlap.
#[derive(Debug, Default, Clone)]
struct RouteCache {
    /// 0 = caching disabled (the default — opt in via
    /// [`DynamicNetwork::set_route_cache_capacity`]).
    capacity: usize,
    /// `(from, key) → (owner, hops of the recorded uncached lookup)`.
    map: FxHashMap<(u32, u32), (Id, usize)>,
    /// Insertion order, for deterministic FIFO eviction.
    fifo: VecDeque<(u32, u32)>,
    stats: RouteCacheStats,
}

impl RouteCache {
    /// Cached owner for `(from, key)`, served only when the recorded
    /// uncached walk used at most `max_moves` forward moves (so a cached
    /// route never succeeds where a budgeted uncached walk would fail).
    /// Counts hit/miss; always `None` (and uncounted) while disabled.
    fn get(&mut self, from: Id, key: Id, max_moves: usize) -> Option<Id> {
        if self.capacity == 0 {
            return None;
        }
        match self.map.get(&(from.0, key.0)).copied() {
            Some((owner, hops)) if hops.saturating_sub(1) <= max_moves => {
                self.stats.hits += 1;
                Some(owner)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Record a successful lookup, evicting the oldest entry when full.
    fn insert(&mut self, from: Id, key: Id, owner: Id, hops: usize) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert((from.0, key.0), (owner, hops)).is_none() {
            self.fifo.push_back((from.0, key.0));
            if self.map.len() > self.capacity {
                // The FIFO holds every key the map does, oldest first.
                if let Some(oldest) = self.fifo.pop_front() {
                    self.map.remove(&oldest);
                    self.stats.evictions += 1;
                }
            }
        }
        self.stats.insertions += 1;
    }

    /// Drop every entry (called on any ring mutation).
    fn invalidate(&mut self) {
        self.stats.invalidated += self.map.len() as u64;
        self.map.clear();
        self.fifo.clear();
    }
}

/// The one read of a node's routing pointers both lookups share: feed
/// `visit` every pointer of `node.scan` — fingers high to low, then the
/// successors — strictly inside `(current, key)`, with its clockwise
/// distance `d` from `current`. On a converged ring the first such finger
/// is the farthest, so the greedy lookup probes one pointer a hop. Returns
/// the table entries behind the scan, repeats included (the
/// `chord.finger_touches` cost model counts table reads).
fn preceding_pointers(node: &Node, current: Id, key: Id, mut visit: impl FnMut(Ptr, u32)) -> usize {
    // `0 < d < d(key)`, where `d(key) = 0` is the whole circle (`Id::in_open`).
    let span = key.0.wrapping_sub(current.0).wrapping_sub(1);
    for &f in &node.scan[..usize::from(node.scan_len)] {
        let d = f.id.0.wrapping_sub(current.0);
        if d.wrapping_sub(1) < span {
            visit(f, d);
        }
    }
    node.has_finger.count_ones() as usize + node.successors().len()
}

/// A snapshot of every alive node's *believed* ownership claim, probed
/// from the nodes' local predecessor pointers — the split-brain detector.
///
/// Node `x` claims a key `k` when `k ∈ (pred(x), x]` according to `x`'s
/// own predecessor pointer. On a converged connected ring each probe key
/// has exactly one claimant; while the ring is split, every island runs a
/// full circle of its own, so keys are claimed on both sides of the
/// boundary and [`RingView::is_split_brain`] reports it.
#[derive(Debug, Clone)]
pub struct RingView {
    /// `(probe key, claimants)` — one probe per alive node id.
    claims: Vec<(Id, Vec<Id>)>,
}

impl RingView {
    /// True if any probed key has two or more claimants (two nodes both
    /// believe they own the same identifier).
    pub fn is_split_brain(&self) -> bool {
        self.claims.iter().any(|(_, c)| c.len() >= 2)
    }
}

/// A simulated Chord network under churn.
///
/// All "RPCs" are direct reads of the target node's state — the simulation
/// models *protocol state convergence*, not message latency (that is
/// `ars-simnet`'s job). Node state sits in flat slot-indexed arrays; a
/// dead node's slot is marked free, and a peer consulting a pointer into
/// it observes the failure, as a timeout would.
/// While a partition is installed ([`Self::partition`]), a node can only
/// observe peers on its own island — every protocol interaction
/// (stabilize, notify, lookups, finger repair) is filtered through that
/// reachability relation, so each island's ring collapses onto its own
/// members exactly as live Chord nodes would behave behind a severed
/// switch. A connected network is the one-island case: the island forms
/// ([`Self::island_owner`], [`Self::island_successors`]) equal the true
/// ones ([`Self::true_owner`], [`Self::true_successors`]) while no
/// partition is installed, so a caller needs no branch on
/// [`Self::is_partitioned`] to pick between them.
#[derive(Debug, Clone)]
pub struct DynamicNetwork {
    /// Per slot: the id stored there, with `LIVE` set while it is alive.
    tags: Vec<u64>,
    /// Per slot: the node's protocol state (stale once the slot is free).
    nodes: Vec<Node>,
    /// Slots freed by departures, reused by joins.
    free: Vec<u32>,
    /// Alive ids, sorted — the ground truth used for assertions and for
    /// efficient true-successor queries — and each one's slot.
    alive: Vec<Id>,
    alive_slot: Vec<u32>,
    partitioned: bool,
    /// Bounded successor/location cache consulted before finger descent
    /// (disabled by default; see
    /// [`DynamicNetwork::set_route_cache_capacity`]).
    route_cache: RefCell<RouteCache>,
    /// Instrumentation sink (defaults to no-op; see `ars-telemetry`).
    telemetry: Telemetry,
}

impl DynamicNetwork {
    /// Create a network with one bootstrap node. Every node keeps
    /// eight successor pointers (`SUCC_LIST_LEN`).
    pub fn bootstrap(first: Id) -> DynamicNetwork {
        let me = Ptr { id: first, slot: 0 };
        let mut node = Node::new(me, 0); // self-loop ring of one
        node.predecessor = Some(me);
        DynamicNetwork {
            tags: vec![LIVE | u64::from(first.0)],
            nodes: vec![node],
            free: Vec::new(),
            alive: vec![first],
            alive_slot: vec![0],
            partitioned: false,
            route_cache: RefCell::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Enable (capacity ≥ 1) or disable (capacity 0, the default) the
    /// route cache: a bounded `(from, key) → owner` memo consulted by
    /// [`Self::lookup`] and [`Self::lookup_resilient`] before finger
    /// descent, serving the owner the descent would return in one hop.
    /// Every churn event and stabilization step clears it, and so does
    /// changing the capacity.
    pub fn set_route_cache_capacity(&mut self, capacity: usize) {
        let cache = self.route_cache.get_mut();
        cache.capacity = capacity;
        cache.map.clear();
        cache.fifo.clear();
    }

    /// Cumulative route-cache counters (all zero while disabled).
    pub fn route_cache_stats(&self) -> RouteCacheStats {
        self.route_cache.borrow().stats
    }

    /// Install a telemetry sink (share the handle to aggregate across
    /// layers). Lookups emit `chord.*` counters and histograms; resilient
    /// lookups additionally emit one `chord.lookup_resilient` event each.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True if no nodes are alive (cannot occur through the public API).
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Sorted alive node ids.
    pub fn node_ids(&self) -> Vec<Id> {
        self.alive.clone()
    }

    /// Sorted alive node ids, borrowed — for callers that index or search
    /// the membership (a random origin, a ring neighbourhood) without
    /// needing a copy of it.
    pub fn alive_ids(&self) -> &[Id] {
        &self.alive
    }

    /// The `i`-th alive node in id order, with its slot.
    fn alive_at(&self, i: usize) -> Ptr {
        Ptr {
            id: self.alive[i],
            slot: self.alive_slot[i],
        }
    }

    /// Every alive node once, clockwise from the first at or after `key`.
    fn clockwise_from(&self, key: Id) -> impl Iterator<Item = Ptr> + '_ {
        let at = self.alive.partition_point(|&v| v < key);
        (at..self.len()).chain(0..at).map(|i| self.alive_at(i))
    }

    /// Alive nodes clockwise from `key` that nodes on `island` can reach.
    fn reachable_from(&self, island: usize, key: Id) -> impl Iterator<Item = Ptr> + '_ {
        self.clockwise_from(key)
            .filter(move |p| !self.partitioned || self.nodes[p.slot as usize].island == island)
    }

    /// A fully converged static [`crate::Ring`] over the current alive
    /// membership — an immutable snapshot whose lookups reach the same
    /// owners as [`Self::true_owner`] at the moment it was taken.
    ///
    /// # Panics
    /// Panics if no node is alive.
    pub fn snapshot_ring(&self) -> crate::Ring {
        crate::Ring::new(self.node_ids())
    }

    /// True ground-truth owner of `key` given the current alive set.
    ///
    /// # Panics
    /// Never through this API: [`Self::leave`] and [`Self::fail`] refuse to
    /// remove the last node ([`ChordError::LastNode`]), so one is always
    /// alive.
    pub fn true_owner(&self, key: Id) -> Id {
        self.clockwise_from(key)
            .next()
            .expect("network is empty")
            .id
    }

    /// Ground-truth first `count` alive nodes clockwise from `key` (the
    /// owner followed by its successors). Fewer are returned when the
    /// network is smaller than `count`. This is the replica placement used
    /// by the application layer's successor replication.
    pub fn true_successors(&self, key: Id, count: usize) -> Vec<Id> {
        self.clockwise_from(key).take(count).map(|p| p.id).collect()
    }

    /// [`Self::true_successors`], written over `out` — for a caller that
    /// asks for many keys' successors and reuses one buffer.
    pub fn true_successors_into(&self, key: Id, count: usize, out: &mut Vec<Id>) {
        out.clear();
        out.extend(self.clockwise_from(key).take(count).map(|p| p.id));
    }

    /// Split the network into islands: `groups[i]` becomes island `i`;
    /// alive nodes not listed in any group join island 0 (so a call only
    /// needs to enumerate the minority islands it carves off, matching
    /// `ars_simnet`'s `PartitionWindow` semantics). Installing a partition
    /// replaces any previous one and clears the route cache.
    ///
    /// # Panics
    /// Panics unless there are ≥2 groups, every group is non-empty, no
    /// node appears twice, and every listed node is alive.
    pub fn partition(&mut self, groups: &[Vec<Id>]) {
        assert!(groups.len() >= 2, "a partition needs at least two islands");
        assert!(
            groups.iter().all(|g| !g.is_empty()),
            "empty partition island"
        );
        // Every slot starts unlisted, so a second listing finds its claim.
        self.nodes.iter_mut().for_each(|n| n.island = usize::MAX);
        for (i, g) in groups.iter().enumerate() {
            for &id in g {
                let Some(p) = self.find(id) else {
                    panic!("partitioned node {id} is not alive");
                };
                let island = &mut self.nodes[p.slot as usize].island;
                assert!(*island == usize::MAX, "node {id} listed in two islands");
                *island = i;
            }
        }
        for node in self.nodes.iter_mut().filter(|n| n.island == usize::MAX) {
            node.island = 0;
        }
        self.partitioned = true;
        self.route_cache.get_mut().invalidate();
    }

    /// True while a partition is installed.
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// Island index of `id` under the installed partition (0 when the
    /// network is connected or the node is unlisted).
    pub fn island_of(&self, id: Id) -> usize {
        let p = self.find(id).filter(|_| self.partitioned);
        p.map_or(0, |p| self.nodes[p.slot as usize].island)
    }

    /// True if `a` can exchange messages with `b` (always true while
    /// connected; same-island only while partitioned).
    pub fn reachable(&self, a: Id, b: Id) -> bool {
        !self.partitioned || self.island_of(a) == self.island_of(b)
    }

    /// True if the nodes at slots `a` and `b` are on one island.
    fn reach(&self, a: u32, b: u32) -> bool {
        !self.partitioned || self.nodes[a as usize].island == self.nodes[b as usize].island
    }

    /// Tear the partition down and deterministically re-merge the rings.
    ///
    /// After a long window no cross-island pointer survives, and two stable
    /// disjoint Chord rings are a fixed point of stabilize/notify. Healing
    /// therefore re-runs each node's rejoin bootstrap: every node whose
    /// believed successor disagrees with the healed ground truth is handed
    /// its true immediate successor (the out-of-band oracle
    /// `stabilize_one`'s emergency fallback uses), and stabilization then
    /// repairs predecessors, successor lists and fingers. The route cache
    /// is cleared so no island-local route outlives the heal.
    ///
    /// Returns the number of rejoin edges installed (0 when the network
    /// was not partitioned; the cache is still cleared).
    pub fn heal(&mut self) -> usize {
        let was_partitioned = std::mem::replace(&mut self.partitioned, false);
        self.route_cache.get_mut().invalidate();
        if !was_partitioned {
            return 0;
        }
        let mut rejoined = 0usize;
        for i in 0..self.len() {
            let me = self.alive_at(i);
            let truth = self.clockwise_from(me.id.plus(1)).next().unwrap_or(me);
            let node = &mut self.nodes[me.slot as usize];
            if node.succ[0] != truth && truth != me {
                let old = *node;
                node.set_successors(
                    truth,
                    old.successors().iter().copied().filter(|&s| s != truth),
                );
                rejoined += 1;
            }
        }
        rejoined
    }

    /// Probe every alive node's believed ownership claim (see
    /// [`RingView`]). One probe per alive node id: on a healthy converged
    /// ring each id is claimed exactly once (by itself); while the ring is
    /// split, islands claim keys across the boundary and
    /// [`RingView::is_split_brain`] fires.
    pub fn ring_view(&self) -> RingView {
        let claims = self
            .alive
            .iter()
            .map(|&key| {
                let claimants = (0..self.len())
                    .map(|i| self.alive_at(i))
                    .filter(|&x| match self.nodes[x.slot as usize].predecessor {
                        Some(p) if p != x => key.in_open_closed(p.id, x.id),
                        // Self-loop or unknown predecessor: the node
                        // believes it owns everything.
                        _ => true,
                    })
                    .map(|x| x.id)
                    .collect();
                (key, claimants)
            })
            .collect();
        RingView { claims }
    }

    /// First alive node clockwise from `key` on `observer`'s island — the
    /// owner `observer` can actually reach. Equals [`Self::true_owner`]
    /// while the network is connected.
    pub fn island_owner(&self, observer: Id, key: Id) -> Id {
        self.reachable_from(self.island_of(observer), key)
            .next()
            .map_or(observer, |p| p.id)
    }

    /// First `count` alive nodes clockwise from `key` restricted to
    /// `observer`'s island (the replica owners `observer` can reach).
    /// Equals [`Self::true_successors`] while the network is connected.
    pub fn island_successors(&self, observer: Id, key: Id, count: usize) -> Vec<Id> {
        self.reachable_from(self.island_of(observer), key)
            .take(count)
            .map(|p| p.id)
            .collect()
    }

    /// The alive node with id `id`, found by bisection.
    fn find(&self, id: Id) -> Option<Ptr> {
        let i = self.alive.binary_search(&id).ok()?;
        Some(self.alive_at(i))
    }

    /// `p` if its node is alive: one read of its slot's tag, and a
    /// bisection only for a pointer whose slot is stale.
    fn resolve(&self, p: Ptr) -> Option<Ptr> {
        if self.tags[p.slot as usize] == LIVE | u64::from(p.id.0) {
            Some(p)
        } else {
            self.find(p.id)
        }
    }

    /// `p` if its node is alive *and reachable from the node at `me`*.
    fn answering(&self, me: u32, p: Ptr) -> Option<Ptr> {
        self.resolve(p).filter(|p| self.reach(me, p.slot))
    }

    /// Drop `p` from the alive set and free its slot (its state and island
    /// stay until a join reuses the slot).
    fn remove_node(&mut self, p: Ptr) {
        if let Ok(at) = self.alive.binary_search(&p.id) {
            self.alive.remove(at);
            self.alive_slot.remove(at);
        }
        self.tags[p.slot as usize] &= !LIVE;
        self.free.push(p.slot);
    }

    /// First successor-list entry of `of` that is alive *and reachable
    /// from the node at `me`*, if any.
    fn live_successor(&self, me: u32, of: &Node) -> Option<Ptr> {
        of.successors().iter().find_map(|&s| self.answering(me, s))
    }

    /// Join a new node, learning the ring through `via` (any alive node).
    /// The new node acquires its successor immediately; predecessors,
    /// successor lists and fingers converge through [`Self::stabilize_all`].
    pub fn join(&mut self, new: Id, via: Id) -> Result<(), ChordError> {
        if self.find(new).is_some() {
            return Err(ChordError::DuplicateNode(new));
        }
        let via = self.find(via).ok_or(ChordError::UnknownNode(via))?;
        let (succ, _) = self.lookup(via.id, new)?;
        let succ = self.find(succ).ok_or(ChordError::UnknownNode(succ))?;
        // A node joining through `via` lands on `via`'s island: its only
        // contact is on that side of the boundary.
        let island = self.nodes[via.slot as usize].island;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.tags.push(0);
            self.nodes.push(Node::new(succ, island));
            self.nodes.len() as u32 - 1
        });
        self.tags[slot as usize] = LIVE | u64::from(new.0);
        self.nodes[slot as usize] = Node::new(succ, island);
        let rank = self.alive.partition_point(|&v| v < new);
        self.alive.insert(rank, new);
        self.alive_slot.insert(rank, slot);
        // The new node may own keys cached routes point elsewhere for.
        self.route_cache.get_mut().invalidate();
        Ok(())
    }

    /// Graceful departure: hands its role to its neighbours before leaving.
    pub fn leave(&mut self, id: Id) -> Result<(), ChordError> {
        if self.len() == 1 {
            return Err(ChordError::LastNode);
        }
        let me = self.find(id).ok_or(ChordError::UnknownNode(id))?;
        self.remove_node(me);
        // Tell the predecessor to adopt our successor and vice versa (the
        // handoff can only reach island-local neighbours, resolved from
        // the leaver's slot, which keeps its island).
        let node = self.nodes[me.slot as usize];
        let succ = self.live_successor(me.slot, &node);
        let pred = node.predecessor.and_then(|p| self.answering(me.slot, p));
        if let (Some(pred), Some(succ)) = (pred, succ) {
            let p = &mut self.nodes[pred.slot as usize];
            let old = *p;
            // The old list without the leaver, behind `succ`, with
            // consecutive repeats dropped.
            let mut previous = succ;
            let rest = old.successors().iter().copied().filter(|&s| s != me);
            p.set_successors(
                succ,
                rest.filter(|&s| std::mem::replace(&mut previous, s) != s),
            );
            let s = &mut self.nodes[succ.slot as usize];
            if s.predecessor == Some(me) {
                s.predecessor = Some(pred);
            }
        }
        self.route_cache.get_mut().invalidate();
        Ok(())
    }

    /// Abrupt failure: the node vanishes; everyone else's pointers go stale
    /// until stabilization repairs them.
    pub fn fail(&mut self, id: Id) -> Result<(), ChordError> {
        if self.len() == 1 {
            return Err(ChordError::LastNode);
        }
        let me = self.find(id).ok_or(ChordError::UnknownNode(id))?;
        self.remove_node(me);
        self.route_cache.get_mut().invalidate();
        Ok(())
    }

    /// One stabilization round over every node (ascending id order — the
    /// order is immaterial to convergence, fixed for determinism):
    /// prune dead successors, run Chord's `stabilize` + `notify`, refresh
    /// the successor list from the successor, and repair `fingers_per_round`
    /// finger entries.
    pub fn stabilize_all(&mut self, fingers_per_round: usize) {
        // A round changes no membership, so the alive list is walked in place.
        for i in 0..self.len() {
            self.stabilize_one(self.alive_at(i), fingers_per_round);
        }
    }

    /// Run stabilization until every node's immediate successor matches the
    /// ground truth (or `max_rounds` is hit). Returns rounds used, or
    /// `None` on non-convergence.
    pub fn stabilize_until_consistent(&mut self, max_rounds: usize) -> Option<usize> {
        for round in 0..max_rounds {
            if self.is_ring_consistent() {
                return Some(round);
            }
            self.stabilize_all(ID_BITS as usize);
        }
        if self.is_ring_consistent() {
            Some(max_rounds)
        } else {
            None
        }
    }

    fn stabilize_one(&mut self, me: Ptr, fingers_per_round: usize) {
        // Invalidate on entry and on exit: stabilization runs, and leaves
        // the network, cache-cold, exactly like the uncached protocol.
        self.route_cache.get_mut().invalidate();
        let (id, node) = (me.id, &self.nodes[me.slot as usize]);
        // 1. The first alive successor (behind a severed boundary a peer
        //    times out like a crashed one). Having lost every successor,
        //    fall back to any alive reachable finger, else the emergency
        //    bootstrap: out-of-band rejoin, restricted to the island.
        let first = self.live_successor(me.slot, node).unwrap_or_else(|| {
            node.fingers()
                .find_map(|f| self.answering(me.slot, f).filter(|&f| f != me))
                .or_else(|| {
                    let island = self.nodes[me.slot as usize].island;
                    self.reachable_from(island, id.plus(1)).next()
                })
                .unwrap_or(me)
        });
        // 2. Stabilize: check the successor's predecessor. Every candidate
        //    is alive and reachable, and so is every `succ` below.
        let succ = (self.nodes[first.slot as usize].predecessor)
            .and_then(|p| self.answering(me.slot, p))
            .filter(|p| p.id.in_open(id, first.id))
            .unwrap_or(first);
        // 3. Notify the successor that we might be its predecessor. An
        //    existing predecessor across the boundary is unreachable for
        //    the successor, so an island-local notifier supersedes it.
        let accept = (self.nodes[succ.slot as usize].predecessor)
            .and_then(|p| self.resolve(p))
            .is_none_or(|p| {
                !self.reach(succ.slot, p.slot) || id.in_open(p.id, succ.id) || p == succ
            });
        // Either we are a better predecessor for our successor, or the
        // successor is ourselves (one-node ring): adopt in both cases.
        if accept || succ == me {
            self.nodes[succ.slot as usize].predecessor = Some(me);
        }
        // 4. Refresh the successor list from the successor's: `succ`, then
        //    its list without us, consecutive repeats dropped, answering
        //    entries only. It is written after step 5's lookups.
        let mut next = self.nodes[me.slot as usize];
        let mut previous = succ;
        let rest = self.nodes[succ.slot as usize].successors().iter();
        let rest = rest.copied().filter(|&s| s != me);
        next.set_successors(
            succ,
            rest.filter(|&s| std::mem::replace(&mut previous, s) != s)
                .filter_map(|s| self.answering(me.slot, s)),
        );
        // 5. Fix fingers incrementally, resolving each start position by a
        //    best-effort lookup from `me` through the current (possibly
        //    stale) state.
        for _ in 0..fingers_per_round.min(FINGERS) {
            let i = next.next_finger;
            if let Ok((owner, _)) = self.descend(Ok(me), id.plus_pow2(i as u32)) {
                next.fingers[i] = owner;
                next.has_finger |= 1 << i;
            }
            next.next_finger = (i + 1) % FINGERS;
        }
        next.reindex();
        self.nodes[me.slot as usize] = next;
        self.route_cache.get_mut().invalidate();
    }

    /// Best-effort iterative lookup through current protocol state.
    /// Tolerates stale fingers by skipping dead next-hops; fails only if a
    /// node has no alive pointer toward the key.
    ///
    /// With the route cache enabled ([`Self::set_route_cache_capacity`])
    /// a remembered `(from, key)` route is served in one hop; the owner is
    /// the one finger descent over the current state would return, because
    /// every ring mutation clears the cache.
    pub fn lookup(&self, from: Id, key: Id) -> Result<(Id, usize), ChordError> {
        if let Some(owner) = self.route_cache.borrow_mut().get(from, key, usize::MAX) {
            self.telemetry.counter_add("chord.lookups", 1);
            self.telemetry.counter_add("chord.route_cache.hits", 1);
            self.telemetry.counter_add("chord.hops", 1);
            self.telemetry.record("chord.lookup.hops", 1);
            return Ok((owner, 1));
        }
        if self.route_cache.borrow().capacity > 0 {
            self.telemetry.counter_add("chord.route_cache.misses", 1);
        }
        let origin = self.find(from).ok_or(ChordError::UnknownNode(from));
        let (owner, hops) = self.descend(origin, key)?;
        self.route_cache
            .borrow_mut()
            .insert(from, key, owner.id, hops);
        Ok((owner.id, hops))
    }

    /// Finger descent from `origin`, counted in `chord.*` like every
    /// lookup (the route cache is the caller's): a caller that names its
    /// origin by id resolves it once, and one that already holds its
    /// node's pointer (a fix-finger round) passes it. An origin that could
    /// not be resolved counts as a failed lookup.
    fn descend(
        &self,
        origin: Result<Ptr, ChordError>,
        key: Id,
    ) -> Result<(Ptr, usize), ChordError> {
        let mut touches = 0usize;
        let result = origin.and_then(|origin| self.greedy(origin, key, &mut touches));
        self.telemetry.counter_add("chord.lookups", 1);
        self.telemetry
            .counter_add("chord.finger_touches", touches as u64);
        match &result {
            Ok((_, hops)) => {
                self.telemetry.counter_add("chord.hops", *hops as u64);
                self.telemetry.record("chord.lookup.hops", *hops as u64);
            }
            Err(_) => self.telemetry.counter_add("chord.lookup_failures", 1),
        }
        result
    }

    fn greedy(
        &self,
        origin: Ptr,
        key: Id,
        touches: &mut usize,
    ) -> Result<(Ptr, usize), ChordError> {
        let (from, mut current) = (origin.id, origin);
        let mut hops = 0usize;
        let budget = 2 * FINGERS + self.len();
        loop {
            let node = &self.nodes[current.slot as usize];
            let succ = self
                .live_successor(current.slot, node)
                .ok_or(ChordError::RoutingFailed { from, key })?;
            if succ == current || key.in_open_closed(current.id, succ.id) {
                return Ok((succ, hops + 1));
            }
            // Closest preceding *alive, reachable* pointer among fingers +
            // successors: the farthest strictly-preceding one wins, and
            // only a pointer that would win is asked whether it answers.
            let (mut next, mut farthest) = (None, 0);
            *touches += preceding_pointers(node, current.id, key, |f, d| {
                if d > farthest {
                    if let Some(f) = self.answering(current.slot, f) {
                        (next, farthest) = (Some(f), d);
                    }
                }
            });
            let next = next.unwrap_or(succ);
            if next == current {
                return Err(ChordError::RoutingFailed { from, key });
            }
            current = next;
            hops += 1;
            if hops > budget {
                return Err(ChordError::RoutingFailed { from, key });
            }
        }
    }

    /// Failure-aware lookup: like [`Self::lookup`], but backtracks through
    /// alternate pointers (the successor list as detour routes) instead of
    /// failing when the greedy path dead-ends on stale state, under a total
    /// budget of `hop_budget` forward moves.
    ///
    /// Greedy Chord forwarding fails mid-churn when a node's best pointer
    /// leads into a cluster of failed nodes with no alive pointer past the
    /// key. This variant treats routing as a depth-first search over alive
    /// pointers — each node's candidates are tried closest-to-key first,
    /// with the successor list appended as fallback detours — so a query
    /// only fails when *no* alive path reaches an owner within the budget.
    /// On a converged ring it follows exactly the greedy path and returns
    /// the same owner and hop count as [`Self::lookup`].
    pub fn lookup_resilient(
        &self,
        from: Id,
        key: Id,
        hop_budget: usize,
    ) -> Result<(Id, usize), ChordError> {
        // A cached route is served only when the recorded uncached walk
        // fits the caller's budget (`hops - 1` forward moves), so caching
        // never turns a would-be budget failure into a success.
        if let Some(owner) = self.route_cache.borrow_mut().get(from, key, hop_budget) {
            self.telemetry.counter_add("chord.resilient.lookups", 1);
            self.telemetry.counter_add("chord.route_cache.hits", 1);
            self.telemetry.record("chord.resilient.lookup.hops", 1);
            self.telemetry.event(
                "chord.lookup_resilient",
                &[
                    ("hops", 1usize.into()),
                    ("backtracks", 0usize.into()),
                    ("ok", true.into()),
                ],
            );
            return Ok((owner, 1));
        }
        if self.route_cache.borrow().capacity > 0 {
            self.telemetry.counter_add("chord.route_cache.misses", 1);
        }
        // NOTE: resilient successes are deliberately *not* recorded in the
        // cache. A backtrack-free DFS can still deviate from the greedy
        // path after a successor-list detour (it skips visited nodes where
        // greedy would cycle), so only greedy successes — whose path the
        // DFS provably retraces on unchanged state — populate entries.
        let mut backtracks = 0usize;
        let mut hops_used = 0usize;
        let result = self.route_dfs(from, key, hop_budget, &[], &mut hops_used, &mut backtracks);
        self.telemetry.counter_add("chord.resilient.lookups", 1);
        self.telemetry
            .counter_add("chord.resilient.hops", hops_used as u64);
        self.telemetry
            .counter_add("chord.resilient.backtracks", backtracks as u64);
        let (ok, hops) = match &result {
            Ok((_, hops)) => {
                self.telemetry
                    .record("chord.resilient.lookup.hops", *hops as u64);
                (true, *hops)
            }
            Err(_) => {
                self.telemetry.counter_add("chord.resilient.failures", 1);
                (false, hops_used)
            }
        };
        self.telemetry.event(
            "chord.lookup_resilient",
            &[
                ("hops", hops.into()),
                ("backtracks", backtracks.into()),
                ("ok", ok.into()),
            ],
        );
        result
    }

    fn route_dfs(
        &self,
        from: Id,
        key: Id,
        hop_budget: usize,
        avoid: &[Id],
        hops_used: &mut usize,
        backtracks: &mut usize,
    ) -> Result<(Id, usize), ChordError> {
        let mut current = self.find(from).ok_or(ChordError::UnknownNode(from))?;
        // Visited nodes, by slot. Avoided peers are pre-visited: the DFS
        // never relays through a suspect. (The origin itself cannot be
        // avoided — `current` is marked on arrival regardless.)
        let mut visited = vec![false; self.nodes.len()];
        for a in avoid.iter().filter_map(|&a| self.find(a)) {
            visited[a.slot as usize] = true;
        }
        // DFS stack: (candidates out of a node, index of the next to try).
        let mut stack: Vec<(Vec<Ptr>, usize)> = Vec::new();
        let mut hops = 0usize;
        loop {
            visited[current.slot as usize] = true;
            let node = &self.nodes[current.slot as usize];
            // Terminal test: current's first live successor owns the key.
            if let Some(succ) = self.live_successor(current.slot, node) {
                if succ == current || key.in_open_closed(current.id, succ.id) {
                    // An avoided owner hands over to its first acceptable
                    // successor, one hop per chain step; with an empty
                    // avoid set this is the owner itself.
                    if let Some((serving, extra)) = self.successor_substitute(succ.id, avoid) {
                        return Ok((serving, hops + 1 + extra));
                    }
                }
            }
            // Detour-only second terminal: with the owner's predecessor
            // avoided, no node sees the owner as its live successor, but
            // the DFS can reach the owner itself through a successor
            // chain, and a node standing on a key it owns serves it.
            if !avoid.is_empty() {
                let pred = node
                    .predecessor
                    .and_then(|p| self.answering(current.slot, p));
                if pred.is_some_and(|p| p != current && key.in_open_closed(p.id, current.id)) {
                    if let Some((serving, extra)) = self.successor_substitute(current.id, avoid) {
                        return Ok((serving, hops + extra));
                    }
                }
            }
            stack.push((self.route_candidates(current, key), 0));
            // Advance to the next unvisited candidate, backtracking through
            // exhausted frames.
            loop {
                let Some((cands, idx)) = stack.last_mut() else {
                    return Err(ChordError::RoutingFailed { from, key });
                };
                if let Some(&c) = cands.get(*idx) {
                    *idx += 1;
                    if visited[c.slot as usize] {
                        continue;
                    }
                    if hops >= hop_budget {
                        return Err(ChordError::RoutingFailed { from, key });
                    }
                    hops += 1;
                    *hops_used = hops;
                    current = c;
                    break;
                }
                stack.pop();
                *backtracks += 1;
            }
        }
    }

    /// Hedged-lookup routing: like [`Self::lookup_resilient`], but the
    /// peers in `avoid` are never used — not as relays (the DFS treats
    /// them as already visited) and not as the serving owner (an avoided
    /// owner is substituted by its first alive non-avoided successor, one
    /// hop per successor-chain step, honestly counted). This is how a
    /// backup lookup detours around the suspected-slow primary: with
    /// replication `r ≥ 2` the substitute is exactly the next replica
    /// holder of the key.
    ///
    /// With an empty `avoid` set this is bit-identical to
    /// [`Self::lookup_resilient`] (no route cache is consulted here).
    /// Fails with [`ChordError::RoutingFailed`] when every path or every
    /// substitute owner is avoided or dead within `hop_budget`.
    pub fn lookup_detour(
        &self,
        from: Id,
        key: Id,
        hop_budget: usize,
        avoid: &[Id],
    ) -> Result<(Id, usize), ChordError> {
        let mut backtracks = 0usize;
        let mut hops_used = 0usize;
        let result = self.route_dfs(
            from,
            key,
            hop_budget,
            avoid,
            &mut hops_used,
            &mut backtracks,
        );
        self.telemetry.counter_add("chord.detour.lookups", 1);
        match &result {
            Ok((_, hops)) => {
                self.telemetry
                    .counter_add("chord.detour.hops", *hops as u64);
                self.telemetry
                    .record("chord.detour.lookup.hops", *hops as u64);
            }
            Err(_) => self.telemetry.counter_add("chord.detour.failures", 1),
        }
        result
    }

    /// The node that actually serves a key owned by `owner` under an
    /// avoid set: `owner` itself when acceptable (0 extra hops), else the
    /// first alive, reachable, non-avoided entry of its successor list
    /// (1 extra hop per chain step walked); `None` when the whole chain is
    /// avoided or dead. [`Self::lookup_detour`]'s substitution step alone,
    /// for a caller that already paid the route to `owner`.
    pub fn successor_substitute(&self, owner: Id, avoid: &[Id]) -> Option<(Id, usize)> {
        if !avoid.contains(&owner) {
            return Some((owner, 0));
        }
        let at = self.find(owner)?;
        let mut extra = 0usize;
        for &s in self.nodes[at.slot as usize].successors() {
            if s == at || self.answering(at.slot, s).is_none() {
                continue;
            }
            extra += 1;
            if !avoid.contains(&s.id) {
                return Some((s.id, extra));
            }
        }
        None
    }

    /// Alive next-hop candidates out of `current` toward `key`, best
    /// first: pointers strictly preceding the key (they make progress),
    /// ordered closest-to-key first, then the remaining alive
    /// successor-list entries as detours around a gap of failed nodes.
    fn route_candidates(&self, current: Ptr, key: Id) -> Vec<Ptr> {
        let node = &self.nodes[current.slot as usize];
        let mut out: Vec<Ptr> = Vec::new();
        preceding_pointers(node, current.id, key, |f, _| {
            out.extend(self.answering(current.slot, f));
        });
        // Equal keys are one node under one (resolved) slot, so an
        // unstable sort orders exactly as a stable one.
        out.sort_unstable_by_key(|c| key.0.wrapping_sub(c.id.0));
        out.dedup();
        for &s in node.successors() {
            if let Some(s) = self.answering(current.slot, s) {
                if s != current && !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// True when every node's first alive *reachable* successor equals the
    /// next node its island can see on the circle. On a connected network
    /// this is the ground-truth circle; while partitioned it is each
    /// island's own collapsed ring, so `stabilize_until_consistent`
    /// converges to the split-brain steady state rather than spinning
    /// against an unreachable truth.
    pub fn is_ring_consistent(&self) -> bool {
        (0..self.len()).all(|i| {
            let me = self.alive_at(i);
            let island = self.nodes[me.slot as usize].island;
            match self.live_successor(me.slot, &self.nodes[me.slot as usize]) {
                Some(s) => Some(s) == self.reachable_from(island, me.id.plus(1)).next(),
                None => self.len() == 1,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_common::DetRng;

    impl DynamicNetwork {
        /// Entries currently cached.
        fn route_cache_len(&self) -> usize {
            self.route_cache.borrow().map.len()
        }
    }

    fn grow_network(n: usize, seed: u64) -> DynamicNetwork {
        let mut rng = DetRng::new(seed);
        let first = Id(rng.next_u32());
        let mut net = DynamicNetwork::bootstrap(first);
        while net.len() < n {
            let new = Id(rng.next_u32());
            if net.node_ids().contains(&new) {
                continue;
            }
            net.join(new, first).unwrap();
            net.stabilize_all(32);
        }
        net.stabilize_until_consistent(64)
            .expect("network failed to converge while growing");
        net
    }

    #[test]
    fn bootstrap_single_node() {
        let net = DynamicNetwork::bootstrap(Id(42));
        assert_eq!(net.len(), 1);
        assert!(net.is_ring_consistent());
        assert_eq!(net.true_owner(Id(7)), Id(42));
        let (owner, _) = net.lookup(Id(42), Id(1000)).unwrap();
        assert_eq!(owner, Id(42));
    }

    #[test]
    fn snapshot_ring_agrees_with_true_owner() {
        let net = grow_network(40, 99);
        let ring = net.snapshot_ring();
        assert_eq!(ring.len(), net.len());
        let mut probe = DetRng::new(5);
        for _ in 0..200 {
            let key = Id(probe.next_u32());
            assert_eq!(ring.successor_of(key), net.true_owner(key));
        }
    }

    #[test]
    fn join_two_nodes() {
        let mut net = DynamicNetwork::bootstrap(Id(100));
        net.join(Id(200), Id(100)).unwrap();
        net.stabilize_until_consistent(16).expect("no convergence");
        assert_eq!(net.len(), 2);
        assert_eq!(net.lookup(Id(100), Id(150)).unwrap().0, Id(200));
        assert_eq!(net.lookup(Id(200), Id(250)).unwrap().0, Id(100));
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut net = DynamicNetwork::bootstrap(Id(1));
        assert_eq!(
            net.join(Id(1), Id(1)),
            Err(ChordError::DuplicateNode(Id(1)))
        );
    }

    #[test]
    fn join_via_unknown_rejected() {
        let mut net = DynamicNetwork::bootstrap(Id(1));
        assert_eq!(
            net.join(Id(2), Id(99)),
            Err(ChordError::UnknownNode(Id(99)))
        );
    }

    #[test]
    fn grown_network_resolves_lookups_correctly() {
        let net = grow_network(40, 7);
        let mut rng = DetRng::new(99);
        let ids = net.node_ids();
        for _ in 0..200 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            let (owner, hops) = net.lookup(from, key).unwrap();
            assert_eq!(owner, net.true_owner(key));
            assert!(hops <= 40);
        }
    }

    #[test]
    fn detour_with_empty_avoid_matches_resilient() {
        let net = grow_network(30, 21);
        let ids = net.node_ids();
        let mut rng = DetRng::new(3);
        for _ in 0..100 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            assert_eq!(
                net.lookup_detour(from, key, 64, &[]),
                net.lookup_resilient(from, key, 64),
                "empty avoid set must be bit-identical"
            );
        }
    }

    #[test]
    fn detour_skips_avoided_owner_to_its_successor() {
        let net = grow_network(25, 33);
        let ids = net.node_ids();
        let mut rng = DetRng::new(9);
        let mut substituted = 0;
        for _ in 0..100 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            let owner = net.true_owner(key);
            if owner == from {
                continue;
            }
            let (plain_owner, plain_hops) = net.lookup_resilient(from, key, 64).unwrap();
            assert_eq!(plain_owner, owner);
            let (serving, hops) = net.lookup_detour(from, key, 64, &[owner]).unwrap();
            assert_ne!(serving, owner, "avoided owner must never serve");
            // The substitute is the next replica holder on the ring.
            assert_eq!(serving, net.true_successors(key, 2)[1]);
            assert!(
                hops >= plain_hops,
                "the successor-chain step is honestly counted"
            );
            substituted += 1;
        }
        assert!(substituted > 50, "the scenario must actually exercise");
    }

    #[test]
    fn detour_never_relays_through_avoided_peers() {
        // Avoiding an intermediate (not the owner) still resolves to the
        // true owner — the DFS routes around the suspect.
        let net = grow_network(25, 44);
        let ids = net.node_ids();
        let mut rng = DetRng::new(17);
        for _ in 0..100 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            let owner = net.true_owner(key);
            // Pick a suspect that is neither endpoint.
            let suspect = ids[rng.gen_index(ids.len())];
            if suspect == from || suspect == owner {
                continue;
            }
            let (serving, _) = net
                .lookup_detour(from, key, 128, &[suspect])
                .expect("one avoided relay cannot partition a healthy ring");
            assert_eq!(serving, owner, "avoiding a relay must not change the owner");
        }
    }

    #[test]
    fn graceful_leave_preserves_consistency() {
        let mut net = grow_network(20, 11);
        let victim = net.node_ids()[5];
        net.leave(victim).unwrap();
        // Graceful leave keeps the ring consistent after at most a couple of
        // rounds (often immediately).
        net.stabilize_until_consistent(16).expect("no convergence");
        assert_eq!(net.len(), 19);
        assert!(!net.node_ids().contains(&victim));
    }

    #[test]
    fn abrupt_failure_recovers_via_stabilization() {
        let mut net = grow_network(30, 13);
        let mut rng = DetRng::new(5);
        // Fail 5 random nodes at once.
        for _ in 0..5 {
            let ids = net.node_ids();
            let victim = ids[rng.gen_index(ids.len())];
            net.fail(victim).unwrap();
        }
        let rounds = net
            .stabilize_until_consistent(64)
            .expect("failed to recover from 5 failures");
        assert!(rounds <= 64);
        // After recovery, lookups are correct again.
        let ids = net.node_ids();
        for _ in 0..100 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            assert_eq!(net.lookup(from, key).unwrap().0, net.true_owner(key));
        }
    }

    #[test]
    fn last_node_cannot_be_removed() {
        let mut net = DynamicNetwork::bootstrap(Id(9));
        assert_eq!(net.fail(Id(9)), Err(ChordError::LastNode));
        assert_eq!(net.leave(Id(9)), Err(ChordError::LastNode));
    }

    #[test]
    fn continuous_churn_converges() {
        let mut net = grow_network(25, 17);
        let mut rng = DetRng::new(23);
        for step in 0..30 {
            if rng.gen_bool(0.5) && net.len() > 5 {
                let ids = net.node_ids();
                let victim = ids[rng.gen_index(ids.len())];
                if rng.gen_bool(0.5) {
                    net.fail(victim).unwrap();
                } else {
                    net.leave(victim).unwrap();
                }
            } else {
                let ids = net.node_ids();
                let via = ids[rng.gen_index(ids.len())];
                let new = Id(rng.next_u32());
                if !ids.contains(&new) {
                    // Join may fail if routing is degraded mid-churn; that is
                    // acceptable — a real node retries.
                    let _ = net.join(new, via);
                }
            }
            net.stabilize_all(8);
            let _ = step;
        }
        net.stabilize_until_consistent(128)
            .expect("churned network failed to converge");
    }

    #[test]
    fn error_display() {
        let e = ChordError::RoutingFailed {
            from: Id(1),
            key: Id(2),
        };
        assert!(format!("{e}").contains("routing failed"));
        let e = ChordError::NotConverged { rounds: 64 };
        assert!(format!("{e}").contains("64"));
    }

    #[test]
    fn true_successors_walk_the_circle() {
        let net = grow_network(10, 3);
        let ids = net.node_ids();
        let key = Id(ids[4].0.wrapping_add(1));
        let succs = net.true_successors(key, 3);
        assert_eq!(succs.len(), 3);
        assert_eq!(succs[0], net.true_owner(key));
        // Consecutive on the circle.
        for w in succs.windows(2) {
            assert_eq!(net.true_owner(w[0].plus(1)), w[1]);
        }
        // Count is clamped to the network size, without duplicates.
        let all = net.true_successors(key, 50);
        assert_eq!(all.len(), 10);
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn resilient_agrees_with_greedy_on_converged_ring() {
        let net = grow_network(40, 7);
        let mut rng = DetRng::new(99);
        let ids = net.node_ids();
        for _ in 0..200 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            let greedy = net.lookup(from, key).unwrap();
            let resilient = net.lookup_resilient(from, key, 128).unwrap();
            assert_eq!(greedy, resilient, "paths diverge on a clean ring");
        }
    }

    #[test]
    fn resilient_routes_around_mass_failure_before_stabilization() {
        // Fail a third of the network and do NOT stabilize: greedy lookups
        // hit dead pointers; the resilient lookup must still find every key
        // whose alive owner is reachable, and must never panic.
        let mut net = grow_network(30, 21);
        let mut rng = DetRng::new(4);
        for _ in 0..10 {
            let ids = net.node_ids();
            let victim = ids[rng.gen_index(ids.len())];
            net.fail(victim).unwrap();
        }
        let ids = net.node_ids();
        let mut greedy_fail = 0;
        let mut resilient_fail = 0;
        for _ in 0..300 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            let greedy = net.lookup(from, key);
            let resilient = net.lookup_resilient(from, key, 256);
            greedy_fail += greedy.is_err() as usize;
            resilient_fail += resilient.is_err() as usize;
            // Wherever greedy succeeds, resilient must too.
            if greedy.is_ok() {
                assert!(resilient.is_ok(), "resilient failed where greedy worked");
            }
        }
        assert!(
            resilient_fail <= greedy_fail,
            "backtracking lost lookups: {resilient_fail} > {greedy_fail}"
        );
    }

    #[test]
    fn resilient_respects_hop_budget() {
        let net = grow_network(30, 5);
        let ids = net.node_ids();
        let err = net.lookup_resilient(ids[0], Id(ids[0].0.wrapping_sub(1)), 0);
        // Budget 0 allows no forward move: only keys owned by the start's
        // own successor resolve; the far key must fail gracefully.
        match err {
            Ok((_, hops)) => assert_eq!(hops, 1),
            Err(ChordError::RoutingFailed { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn telemetry_counts_lookups_and_emits_resilient_events() {
        let mut net = grow_network(20, 7);
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        let ids = net.node_ids();
        let mut rng = DetRng::new(1);
        for _ in 0..10 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            net.lookup(from, key).unwrap();
            net.lookup_resilient(from, key, 64).unwrap();
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("chord.lookups"), 10);
        assert_eq!(snap.counter("chord.lookup_failures"), 0);
        assert_eq!(snap.counter("chord.resilient.lookups"), 10);
        assert!(snap.counter("chord.finger_touches") > 0);
        assert_eq!(snap.hist("chord.lookup.hops").unwrap().count, 10);
        // Healthy converged ring: the DFS never backtracks.
        assert_eq!(snap.counter("chord.resilient.backtracks"), 0);
        let events = tel.events_named("chord.lookup_resilient");
        assert_eq!(events.len(), 10);
        assert!(events.iter().all(|e| e.field_bool("ok") == Some(true)));
        assert!(events.iter().all(|e| e.field_u64("backtracks") == Some(0)));
    }

    #[test]
    fn resilient_from_unknown_node_errors() {
        let net = grow_network(5, 9);
        assert!(matches!(
            net.lookup_resilient(Id(0xDEAD_0000), Id(1), 32),
            Err(ChordError::UnknownNode(_))
        ));
    }

    #[test]
    fn route_cache_serves_same_owner_in_one_hop() {
        let mut net = grow_network(30, 7);
        net.set_route_cache_capacity(256);
        let ids = net.node_ids();
        let mut rng = DetRng::new(3);
        let pairs: Vec<(Id, Id)> = (0..50)
            .map(|_| (ids[rng.gen_index(ids.len())], Id(rng.next_u32())))
            .collect();
        let cold: Vec<(Id, usize)> = pairs
            .iter()
            .map(|&(from, key)| net.lookup(from, key).unwrap())
            .collect();
        let warm: Vec<(Id, usize)> = pairs
            .iter()
            .map(|&(from, key)| net.lookup(from, key).unwrap())
            .collect();
        for (i, ((co, ch), (wo, wh))) in cold.iter().zip(&warm).enumerate() {
            assert_eq!(co, wo, "owner changed on cache hit (pair {i})");
            assert_eq!(*wh, 1, "cached route must cost one hop");
            assert!(wh <= ch, "cache increased hops (pair {i})");
        }
        let stats = net.route_cache_stats();
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.misses, 50);
        assert_eq!(stats.insertions, 50);
        assert!(net.route_cache_len() <= 256);
    }

    #[test]
    fn route_cache_capacity_evicts_fifo() {
        let mut net = grow_network(20, 11);
        net.set_route_cache_capacity(4);
        let ids = net.node_ids();
        for i in 0..10u32 {
            net.lookup(ids[0], Id(i.wrapping_mul(0x1357_9BDF))).unwrap();
        }
        assert!(net.route_cache_len() <= 4);
        let stats = net.route_cache_stats();
        assert_eq!(stats.evictions, stats.insertions - 4);
    }

    #[test]
    fn route_cache_invalidated_by_every_churn_event() {
        let mut net = grow_network(20, 13);
        net.set_route_cache_capacity(256);
        let ids = net.node_ids();
        net.lookup(ids[0], Id(12345)).unwrap();
        assert!(net.route_cache_len() > 0);
        net.fail(ids[5]).unwrap();
        assert_eq!(net.route_cache_len(), 0, "fail must clear routes");
        net.lookup(ids[0], Id(12345)).unwrap();
        net.leave(ids[6]).unwrap();
        assert_eq!(net.route_cache_len(), 0, "leave must clear routes");
        net.lookup(ids[0], Id(12345)).unwrap();
        net.join(Id(0x7777_7777), ids[0]).unwrap();
        assert_eq!(net.route_cache_len(), 0, "join must clear routes");
        net.lookup(ids[0], Id(12345)).unwrap();
        net.stabilize_all(4);
        assert_eq!(net.route_cache_len(), 0, "stabilization must clear routes");
        assert!(net.route_cache_stats().invalidated >= 4);
    }

    #[test]
    fn route_cache_never_serves_stale_owner_across_churn() {
        // Cache a route, kill its owner, stabilize: the next lookup must
        // re-route to the new ground-truth owner, identically to an
        // uncached network.
        let mut net = grow_network(25, 17);
        net.set_route_cache_capacity(256);
        let mut rng = DetRng::new(9);
        for round in 0..8 {
            let ids = net.node_ids();
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            let (owner, _) = net.lookup(from, key).unwrap();
            if net.len() > 2 && owner != from {
                net.fail(owner).unwrap();
                net.stabilize_until_consistent(64).expect("recovers");
                let ids = net.node_ids();
                let from = ids[rng.gen_index(ids.len())];
                let (new_owner, _) = net.lookup(from, key).unwrap();
                assert_eq!(new_owner, net.true_owner(key), "round {round}");
                assert_ne!(new_owner, owner, "owner is dead (round {round})");
            }
        }
    }

    #[test]
    fn cached_and_uncached_lookups_agree_under_churn() {
        // Twin networks driven through the same operation stream: the
        // cached one must return the same owners and success/failure
        // pattern, with hop counts never above the uncached one's.
        let mut cached = grow_network(24, 19);
        let mut plain = cached.clone();
        cached.set_route_cache_capacity(128);
        let mut rng = DetRng::new(21);
        for step in 0..200 {
            match rng.gen_index(10) {
                0 if cached.len() > 5 => {
                    let ids = cached.node_ids();
                    let victim = ids[rng.gen_index(ids.len())];
                    cached.fail(victim).unwrap();
                    plain.fail(victim).unwrap();
                }
                1 if cached.len() > 5 => {
                    let ids = cached.node_ids();
                    let victim = ids[rng.gen_index(ids.len())];
                    cached.leave(victim).unwrap();
                    plain.leave(victim).unwrap();
                }
                2 => {
                    cached.stabilize_all(8);
                    plain.stabilize_all(8);
                }
                _ => {
                    let ids = cached.node_ids();
                    let from = ids[rng.gen_index(ids.len())];
                    let key = Id(rng.next_u32());
                    let a = cached.lookup(from, key);
                    let b = plain.lookup(from, key);
                    match (&a, &b) {
                        (Ok((ao, ah)), Ok((bo, bh))) => {
                            assert_eq!(ao, bo, "owners diverged at step {step}");
                            assert!(ah <= bh, "cache increased hops at step {step}");
                        }
                        (Err(_), Err(_)) => {}
                        _ => panic!("success pattern diverged at step {step}: {a:?} vs {b:?}"),
                    }
                    let ra = cached.lookup_resilient(from, key, 64);
                    let rb = plain.lookup_resilient(from, key, 64);
                    match (&ra, &rb) {
                        (Ok((ao, ah)), Ok((bo, bh))) => {
                            assert_eq!(ao, bo, "resilient owners diverged at step {step}");
                            assert!(ah <= bh, "cache increased resilient hops at step {step}");
                        }
                        (Err(_), Err(_)) => {}
                        _ => panic!("resilient pattern diverged at step {step}"),
                    }
                }
            }
        }
        assert!(
            cached.route_cache_stats().hits > 0,
            "the equivalence run never exercised a cache hit"
        );
    }

    /// `greedy` as it read before the pointer scan went geometry-first
    /// (every pointer probed for liveness and reachability, then the
    /// arithmetic), kept only as the oracle of the test below.
    fn lookup_probing_every_pointer(
        net: &DynamicNetwork,
        from: Id,
        key: Id,
        touches: &mut usize,
    ) -> Result<(Id, usize), ChordError> {
        let answers = |me: Id, f: Id| net.alive.contains(&f) && net.reachable(me, f);
        let mut current = from;
        let mut hops = 0usize;
        let budget = 2 * ID_BITS as usize + net.len();
        loop {
            net.find(current).ok_or(ChordError::UnknownNode(current))?;
            let (successors, _, fingers) = pointers(net, current);
            let succ = successors
                .iter()
                .copied()
                .find(|&s| answers(current, s))
                .ok_or(ChordError::RoutingFailed { from, key })?;
            if succ == current || key.in_open_closed(current, succ) {
                return Ok((succ, hops + 1));
            }
            let mut next: Option<Id> = None;
            for f in fingers
                .iter()
                .flatten()
                .copied()
                .chain(successors.iter().copied())
            {
                *touches += 1;
                if answers(current, f) && f.in_open(current, key) {
                    next = Some(match next {
                        Some(best) if f.in_open(best, key) => f,
                        Some(best) => best,
                        None => f,
                    });
                }
            }
            let next = next.unwrap_or(succ);
            if next == current {
                return Err(ChordError::RoutingFailed { from, key });
            }
            current = next;
            hops += 1;
            if hops > budget {
                return Err(ChordError::RoutingFailed { from, key });
            }
        }
    }

    /// 300 seeded lookups, each held equal to the oracle's owner, hops,
    /// touches and failure. Returns how many failed.
    fn compare(net: &DynamicNetwork, rng: &mut DetRng, stage: &str) -> usize {
        let ids = net.node_ids();
        let mut failed = 0;
        for _ in 0..300 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            let (mut touches, mut oracle_touches) = (0, 0);
            let origin = net.find(from).expect("origins are alive");
            let got = net
                .greedy(origin, key, &mut touches)
                .map(|(owner, hops)| (owner.id, hops));
            let want = lookup_probing_every_pointer(net, from, key, &mut oracle_touches);
            assert_eq!(got, want, "{stage}: {from} -> {key}");
            assert_eq!(touches, oracle_touches, "{stage}: {from} -> {key}");
            failed += got.is_err() as usize;
        }
        failed
    }

    #[test]
    fn geometry_first_scan_routes_exactly_as_probing_every_pointer() {
        let base = ars_common::env_seed("ARS_FAULT_SEED");
        let mut unroutable = 0;
        for seed in base * 4..base * 4 + 4 {
            let mut net = grow_network(48, seed);
            let mut rng = DetRng::new(seed ^ 0x5CA9);
            compare(&net, &mut rng, "converged");
            // Stale pointers: failures and joins nobody has stabilized.
            for _ in 0..8 {
                let ids = net.node_ids();
                net.fail(ids[rng.gen_index(ids.len())]).unwrap();
            }
            for _ in 0..4 {
                let ids = net.node_ids();
                let _ = net.join(Id(rng.next_u32()), ids[rng.gen_index(ids.len())]);
            }
            unroutable += compare(&net, &mut rng, "unstabilized churn");
            net.stabilize_all(2);
            compare(&net, &mut rng, "half-repaired");
            // Reachability: a partition, before and after each island's
            // ring has collapsed onto its own members.
            split(&mut net, 15);
            unroutable += compare(&net, &mut rng, "fresh partition");
            net.stabilize_until_consistent(64).expect("islands settle");
            compare(&net, &mut rng, "settled partition");
            net.heal();
            compare(&net, &mut rng, "healed, unstabilized");
        }
        assert!(unroutable > 0, "no schedule ever exercised the Err arm");
    }

    /// A departed id that comes back while a fresh node holds its old slot
    /// sits in another slot. Pointers still carrying the old slot must
    /// find it alive, as the id-keyed liveness of the oracle does, and
    /// must not take the fresh node for it.
    #[test]
    fn stale_slots_resolve_to_a_returning_id() {
        let base = ars_common::env_seed("ARS_FAULT_SEED");
        for seed in base * 4..base * 4 + 4 {
            let mut net = grow_network(48, seed ^ 0x51_07);
            let mut rng = DetRng::new(seed);
            for round in 0..6 {
                let ids = net.node_ids();
                let back = ids[rng.gen_index(ids.len())];
                let old = net.find(back).unwrap().slot;
                net.fail(back).unwrap();
                let (fresh, via) = (Id(rng.next_u32()), net.alive_ids()[0]);
                net.join(fresh, via).unwrap();
                assert_eq!(
                    net.find(fresh).unwrap().slot,
                    old,
                    "the freed slot is reused"
                );
                net.join(back, via).unwrap();
                assert_ne!(net.find(back).unwrap().slot, old);
                compare(&net, &mut rng, &format!("seed {seed}, round {round}"));
                net.stabilize_until_consistent(64)
                    .expect("the ring repairs");
            }
        }
    }

    /// A grown ring, given four more stabilization rounds, holds the static
    /// ring's pointers: over the same ids every finger equals
    /// [`crate::Ring`]'s, and every lookup ends at the same owner. Hop
    /// counts are not compared, because the routes differ: the dynamic
    /// scan also reads the successor list, which can offer a pointer
    /// closer to the key than any finger (on 20 000 random lookups at 200
    /// peers, 4.65 hops static against 4.15 dynamic). So the two rings keep
    /// their own scan rules (ROADMAP item 16). Without the extra rounds,
    /// growth leaves some fingers and successor lists stale.
    #[test]
    fn converged_rings_agree_on_fingers_and_owners() {
        for (n, seed) in [(60, 1), (200, 0)] {
            let mut net = grow_network(n, seed);
            for _ in 0..4 {
                net.stabilize_all(32);
            }
            let ring = crate::Ring::new(net.node_ids());
            for (rank, &id) in ring.node_ids().iter().enumerate() {
                let (_, _, fingers) = pointers(&net, id);
                for (i, finger) in fingers.into_iter().enumerate() {
                    assert_eq!(
                        finger,
                        Some(ring.finger(rank, i)),
                        "{n} peers: {id} finger {i}"
                    );
                }
            }
            let mut rng = DetRng::new(seed ^ 0x16);
            for _ in 0..2_000 {
                let origin = ring.node_ids()[rng.gen_index(n)];
                let key = Id(rng.next_u32());
                let (owner, _) = net.lookup(origin, key).unwrap();
                assert_eq!(
                    owner,
                    ring.lookup(origin, key).0,
                    "{n} peers: {origin} → {key}"
                );
            }
        }
    }

    /// Carve off the `k` smallest-id nodes as a minority island.
    fn split(net: &mut DynamicNetwork, k: usize) -> (Vec<Id>, Vec<Id>) {
        let ids = net.node_ids();
        assert!(k < ids.len());
        let minority: Vec<Id> = ids[..k].to_vec();
        let majority: Vec<Id> = ids[k..].to_vec();
        net.partition(&[majority.clone(), minority.clone()]);
        (majority, minority)
    }

    #[test]
    fn partition_collapses_each_island_onto_its_members() {
        let mut net = grow_network(30, 31);
        let (majority, minority) = split(&mut net, 9);
        net.stabilize_until_consistent(64)
            .expect("islands each converge to their own ring");
        let mut rng = DetRng::new(8);
        // Lookups from either side resolve to owners on the same side.
        for _ in 0..100 {
            let key = Id(rng.next_u32());
            let from_maj = majority[rng.gen_index(majority.len())];
            let (owner, _) = net.lookup(from_maj, key).unwrap();
            assert!(majority.contains(&owner), "majority lookup left island");
            assert_eq!(owner, net.island_owner(from_maj, key));
            let from_min = minority[rng.gen_index(minority.len())];
            let (owner, _) = net.lookup(from_min, key).unwrap();
            assert!(minority.contains(&owner), "minority lookup left island");
            assert_eq!(owner, net.island_owner(from_min, key));
        }
    }

    #[test]
    fn ring_view_detects_split_brain_iff_partitioned() {
        let mut net = grow_network(24, 33);
        net.stabilize_until_consistent(64).expect("converges");
        assert!(
            !net.ring_view().is_split_brain(),
            "healthy converged ring misreported"
        );
        split(&mut net, 8);
        net.stabilize_until_consistent(64)
            .expect("split rings converge");
        let view = net.ring_view();
        assert!(view.is_split_brain(), "split ring not detected");
        net.heal();
        net.stabilize_until_consistent(64)
            .expect("healed ring converges");
        // A few extra rounds to settle predecessors after the merge.
        net.stabilize_all(ID_BITS as usize);
        assert!(
            !net.ring_view().is_split_brain(),
            "healed ring still contested"
        );
    }

    #[test]
    fn heal_restores_global_lookup_correctness() {
        let mut net = grow_network(30, 37);
        split(&mut net, 10);
        // Long window: stabilize until every finger is island-local.
        for _ in 0..8 {
            net.stabilize_all(ID_BITS as usize);
        }
        net.heal();
        assert!(!net.is_partitioned());
        net.stabilize_until_consistent(128)
            .expect("healed network re-merges");
        net.stabilize_all(ID_BITS as usize);
        let ids = net.node_ids();
        let mut rng = DetRng::new(12);
        for _ in 0..200 {
            let from = ids[rng.gen_index(ids.len())];
            let key = Id(rng.next_u32());
            assert_eq!(net.lookup(from, key).unwrap().0, net.true_owner(key));
        }
    }

    #[test]
    fn heal_is_deterministic() {
        let run = |seed| {
            let mut net = grow_network(20, seed);
            split(&mut net, 6);
            for _ in 0..4 {
                net.stabilize_all(ID_BITS as usize);
            }
            let rejoined = net.heal();
            net.stabilize_until_consistent(64).expect("re-merges");
            (rejoined, net.node_ids())
        };
        assert_eq!(run(41), run(41));
    }

    #[test]
    fn route_cache_invalidated_on_partition_and_heal() {
        let mut net = grow_network(20, 43);
        net.set_route_cache_capacity(256);
        let ids = net.node_ids();
        net.lookup(ids[0], Id(12345)).unwrap();
        assert!(net.route_cache_len() > 0);
        net.partition(&[ids[10..].to_vec(), ids[..10].to_vec()]);
        assert_eq!(net.route_cache_len(), 0, "partition must clear routes");
        net.stabilize_until_consistent(64).expect("islands settle");
        net.lookup(ids[0], Id(12345)).unwrap();
        assert!(net.route_cache_len() > 0);
        net.heal();
        assert_eq!(net.route_cache_len(), 0, "heal must clear routes");
    }

    #[test]
    fn cached_lookup_never_serves_stale_island_owner_after_heal() {
        // During the window the cache memoizes island-local owners; after
        // heal() the same (from, key) pair must resolve to the global
        // ground truth, exactly like an uncached network.
        let mut net = grow_network(24, 47);
        net.set_route_cache_capacity(256);
        let (majority, minority) = split(&mut net, 8);
        net.stabilize_until_consistent(64).expect("islands settle");
        let from = minority[0];
        let mut rng = DetRng::new(3);
        let keys: Vec<Id> = (0..50).map(|_| Id(rng.next_u32())).collect();
        for &key in &keys {
            let (owner, _) = net.lookup(from, key).unwrap();
            assert!(minority.contains(&owner));
        }
        net.heal();
        net.stabilize_until_consistent(128).expect("re-merges");
        net.stabilize_all(ID_BITS as usize);
        for &key in &keys {
            let (owner, _) = net.lookup(from, key).unwrap();
            assert_eq!(
                owner,
                net.true_owner(key),
                "stale island route served across the healed boundary"
            );
        }
        let _ = majority;
    }

    #[test]
    fn island_successors_match_truth_when_connected() {
        let net = grow_network(15, 51);
        let ids = net.node_ids();
        let key = Id(ids[3].0.wrapping_add(1));
        assert_eq!(
            net.island_successors(ids[0], key, 4),
            net.true_successors(key, 4)
        );
        assert_eq!(net.island_owner(ids[0], key), net.true_owner(key));
        assert!(net.reachable(ids[0], ids[1]));
        assert_eq!(net.island_of(ids[0]), 0);
    }

    #[test]
    #[should_panic(expected = "two islands")]
    fn partition_rejects_single_island() {
        let mut net = grow_network(5, 53);
        let ids = net.node_ids();
        net.partition(&[ids]);
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn partition_rejects_dead_member() {
        let mut net = grow_network(5, 57);
        let ids = net.node_ids();
        net.partition(&[vec![ids[0]], vec![Id(0xDEAD_BEEF)]]);
    }

    #[test]
    fn join_during_partition_lands_on_contact_island() {
        let mut net = grow_network(20, 59);
        let (majority, minority) = split(&mut net, 6);
        net.stabilize_until_consistent(64).expect("islands settle");
        let new = Id(0x4242_4242);
        assert!(!net.node_ids().contains(&new));
        net.join(new, minority[0]).unwrap();
        assert_eq!(net.island_of(new), net.island_of(minority[0]));
        assert!(net.reachable(new, minority[0]));
        assert!(!net.reachable(new, majority[0]));
    }

    #[test]
    fn route_cache_disabled_by_default_and_stats_stay_zero() {
        let net = grow_network(10, 23);
        let ids = net.node_ids();
        net.lookup(ids[0], Id(99)).unwrap();
        net.lookup(ids[0], Id(99)).unwrap();
        assert_eq!(net.route_cache_stats(), RouteCacheStats::default());
        assert_eq!(net.route_cache_len(), 0);
    }

    /// `id`'s routing state as plain values: successor list, predecessor
    /// and the 32 fingers (`None` = not yet resolved).
    fn pointers(net: &DynamicNetwork, id: Id) -> (Vec<Id>, Option<Id>, [Option<Id>; FINGERS]) {
        let node = &net.nodes[net.find(id).unwrap().slot as usize];
        let fingers =
            std::array::from_fn(|i| (node.has_finger >> i & 1 == 1).then_some(node.fingers[i].id));
        let successors = node.successors().iter().map(|p| p.id).collect();
        (successors, node.predecessor.map(|p| p.id), fingers)
    }

    /// The bit-identity pin of the node-state layout: one FNV-1a fold over
    /// a seeded schedule of joins (fresh ids and departed ones coming back),
    /// leaves, fails, a partition, a heal and stabilize rounds. It folds
    /// every `lookup`, `lookup_resilient` and `lookup_detour` result (the
    /// route cache on, so repeated pairs are served from it), every alive
    /// node's successor list, predecessor and fingers after each round,
    /// and the lookup, hop and finger-touch counters at the end. Any
    /// change to a route, a hop count, a repair or a pointer moves it.
    #[test]
    fn seeded_schedule_digest_is_pinned() {
        fn fold(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut net = grow_network(32, 61);
        net.set_route_cache_capacity(64);
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        let mut rng = DetRng::new(0xD16E);
        let mut departed: Vec<Id> = Vec::new();
        let mut rejoins = 0;
        for round in 0..40 {
            let ids = net.node_ids();
            let pick = ids[rng.gen_index(ids.len())];
            match (round, rng.gen_index(4)) {
                (10, _) => {
                    split(&mut net, 11);
                }
                (22, _) => {
                    fold(&mut h, &net.heal().to_le_bytes());
                }
                (_, 0) if net.len() > 8 => {
                    net.fail(pick).unwrap();
                    departed.push(pick);
                }
                (_, 1) if net.len() > 8 => {
                    net.leave(pick).unwrap();
                    departed.push(pick);
                }
                (_, 2) if !departed.is_empty() => {
                    let back = departed.swap_remove(rng.gen_index(departed.len()));
                    rejoins += 1;
                    let r = net.join(back, pick);
                    fold(&mut h, format!("{r:?}").as_bytes());
                }
                _ => {
                    let r = net.join(Id(rng.next_u32()), pick);
                    fold(&mut h, format!("{r:?}").as_bytes());
                }
            }
            let ids = net.node_ids();
            for _ in 0..24 {
                let from = ids[rng.gen_index(ids.len())];
                let key = Id(rng.next_u32());
                let avoid = [ids[rng.gen_index(ids.len())]];
                let results = [
                    net.lookup(from, key),
                    net.lookup(from, key),
                    net.lookup_resilient(from, key, 64),
                    net.lookup_resilient(from, key, 3),
                    net.lookup_detour(from, key, 64, &avoid),
                ];
                fold(&mut h, format!("{results:?}").as_bytes());
            }
            net.stabilize_all(rng.gen_index(33));
            for id in net.node_ids() {
                fold(&mut h, format!("{:?}", pointers(&net, id)).as_bytes());
            }
        }
        let snap = tel.snapshot();
        for name in ["chord.lookups", "chord.hops", "chord.finger_touches"] {
            fold(&mut h, &snap.counter(name).to_le_bytes());
        }
        // The schedule reaches what it pins: departed ids come back,
        // stale state makes lookups fail, and the cache serves hits.
        assert!(rejoins > 0 && snap.counter("chord.lookup_failures") > 0);
        assert!(net.route_cache_stats().hits > 0);
        assert_eq!(h, 0x5e49_6368_d17e_82d4, "digest {h:#018x}");
    }

    #[test]
    fn route_cache_telemetry_counters_mirror_stats() {
        let mut net = grow_network(15, 27);
        net.set_route_cache_capacity(64);
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        let ids = net.node_ids();
        for _ in 0..3 {
            for k in 0..5u32 {
                net.lookup(ids[0], Id(k.wrapping_mul(0x0101_0101))).unwrap();
                net.lookup_resilient(ids[1], Id(k.wrapping_mul(0x0202_0202)), 64)
                    .unwrap();
            }
        }
        let stats = net.route_cache_stats();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("chord.route_cache.hits"), stats.hits);
        assert_eq!(snap.counter("chord.route_cache.misses"), stats.misses);
        assert!(stats.hits > 0);
        // Resilient lookups consult but never insert; only the 5 greedy
        // keys are memoized.
        assert_eq!(stats.insertions, 5);
    }
}
