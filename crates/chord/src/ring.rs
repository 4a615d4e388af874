//! Static ring construction and the one routing step.
//!
//! The scalability experiments (Figs. 11–12) measure a stable network: `N`
//! peers hashed onto the circle, full finger tables, no churn. [`Ring`]
//! builds that state directly — ids sorted, every finger resolved exactly —
//! so measurements reflect the algorithm rather than convergence noise.
//! Churn and convergence live in [`crate::dynamic`].
//!
//! A node is addressed by its **rank**, its index in the sorted id list.
//! Node `n`'s `i`-th finger (0-based) is the first node that succeeds
//! `n + 2^i` on the circle; all of them sit in one flat array of ranks, so
//! a routing step ([`Ring::next_hop`]) is array reads and nothing else.
//! Forwarding greedily to the closest finger preceding the key halves the
//! remaining distance per hop — this is what gives Chord its `O(log N)`
//! path lengths (Fig. 12).

use crate::id::{Id, ID_BITS};
use crate::lookup::route;
use ars_common::DetRng;

const FINGERS: usize = ID_BITS as usize;

/// A fully-converged Chord ring.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted, deduplicated node ids; a node's index here is its rank.
    ids: Vec<Id>,
    /// `fingers[r * 32 + i]` is the rank of `successor(ids[r] + 2^i)`.
    /// Ranks fit: the ids are distinct `u32`s.
    fingers: Vec<u32>,
}

impl Ring {
    /// Build a ring from arbitrary node ids (sorted and deduplicated).
    ///
    /// # Panics
    /// Panics if no ids are given.
    pub(crate) fn new(mut ids: Vec<Id>) -> Ring {
        ids.sort_unstable();
        ids.dedup();
        assert!(!ids.is_empty(), "a ring needs at least one node");
        let mut ring = Ring {
            ids,
            fingers: Vec::new(),
        };
        ring.fingers = ring
            .ids
            .iter()
            .flat_map(|&id| (0..ID_BITS).map(move |i| id.plus_pow2(i)))
            .map(|start| ring.successor_rank(start) as u32)
            .collect();
        ring
    }

    /// A ring of `n` peers with ids drawn uniformly from a seeded RNG.
    pub fn from_seed(n: usize, seed: u64) -> Ring {
        let mut rng = DetRng::new(seed);
        let mut ids: Vec<Id> = Vec::with_capacity(n);
        let mut seen = std::collections::BTreeSet::new();
        while ids.len() < n {
            let id = rng.next_u32();
            if seen.insert(id) {
                ids.push(Id(id));
            }
        }
        Ring::new(ids)
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the ring has no nodes (cannot actually occur — `new` panics —
    /// but included for API completeness).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorted node ids: `node_ids()[r]` is the node of rank `r`.
    pub fn node_ids(&self) -> &[Id] {
        &self.ids
    }

    /// The rank of `node`, or `None` if it is not a node of this ring.
    pub(crate) fn rank_of(&self, node: Id) -> Option<usize> {
        self.ids.binary_search(&node).ok()
    }

    /// The node that owns `key`: the first node clockwise from `key`
    /// (successor ownership, §4 of the paper).
    pub fn successor_of(&self, key: Id) -> Id {
        self.ids[self.successor_rank(key)]
    }

    /// The node immediately preceding `node` on the circle.
    ///
    /// # Panics
    /// Panics if `node` is not in the ring.
    #[cfg(test)]
    fn predecessor_of(&self, node: Id) -> Id {
        let rank = self.rank_of(node).expect("node not in ring");
        self.ids[(rank + self.ids.len() - 1) % self.ids.len()]
    }

    /// Finger `i` of the node of rank `rank`: the successor of
    /// `node + 2^i`. Finger 0 is the node's immediate successor.
    ///
    /// # Panics
    /// Panics if `rank` is not below [`Self::len`] or `i` not below 32.
    #[cfg(test)]
    fn finger(&self, rank: usize, i: usize) -> Id {
        assert!(i < FINGERS, "a node has {FINGERS} fingers");
        self.ids[self.fingers[rank * FINGERS + i] as usize]
    }

    /// One routing step — the only place the forwarding rule is written.
    /// The node of rank `at`, which does not own `key`, hands the lookup
    /// to the rank returned: its successor when `key ∈ (node, successor]`
    /// (the final hop: the successor owns the key), otherwise the farthest
    /// finger strictly inside `(node, key)` — the one closest before the
    /// key — otherwise the successor.
    ///
    /// # Panics
    /// Panics if `at` is not below [`Self::len`].
    pub fn next_hop(&self, at: usize, key: Id) -> usize {
        let here = self.ids[at];
        let fingers = &self.fingers[at * FINGERS..(at + 1) * FINGERS];
        let succ = fingers[0] as usize;
        if key.in_open_closed(here, self.ids[succ]) {
            return succ;
        }
        // Finger `i` is a node at or past `here + 2^i`, so it is at least
        // `2^i` clockwise of `here` (or is `here`, having wrapped all the
        // way): with `2^i > dist(here, key)` it cannot lie in `(here,
        // key)`. Scanning down from the top bit of the distance therefore
        // finds what scanning down from finger 31 finds. Distance zero is
        // `key == here`, the whole circle.
        let top = here.distance_to(key).checked_ilog2().unwrap_or(ID_BITS - 1) as usize;
        fingers[..=top]
            .iter()
            .rev()
            .map(|&f| f as usize)
            .find(|&f| self.ids[f].in_open(here, key))
            .unwrap_or(succ)
    }

    /// Route a lookup from the node of rank `from` to the owner of `key`,
    /// returning `(owner, hops)`. Hops counts overlay edges traversed (0
    /// when the origin already owns the key).
    ///
    /// # Panics
    /// Panics if `from` is not below [`Self::len`].
    pub fn lookup_from(&self, from: usize, key: Id) -> (Id, usize) {
        let mut hops = 0;
        let owner = route(self, from, key, |_| hops += 1);
        (owner, hops)
    }

    /// [`Self::lookup_from`] for an origin given by id.
    ///
    /// # Panics
    /// Panics if `from` is not a node of the ring.
    pub fn lookup(&self, from: Id, key: Id) -> (Id, usize) {
        self.lookup_from(self.origin_rank(from), key)
    }

    /// Full routing trace of a lookup.
    ///
    /// # Panics
    /// Panics if `from` is not a node of the ring.
    #[cfg(test)]
    fn lookup_trace(&self, from: Id, key: Id) -> crate::lookup::LookupTrace {
        crate::lookup::lookup_trace(self, from, key)
    }

    /// The rank a lookup from node `from` starts at.
    pub(crate) fn origin_rank(&self, from: Id) -> usize {
        self.rank_of(from)
            .unwrap_or_else(|| panic!("lookup origin {from} not in ring"))
    }

    /// The rank owning `key`: of the first id ≥ `key` in circular order.
    pub(crate) fn successor_rank(&self, key: Id) -> usize {
        match self.ids.binary_search(&key) {
            Ok(i) => i,
            Err(i) if i == self.ids.len() => 0,
            Err(i) => i,
        }
    }

    /// `start` and its next `window − 1` successors in ring order,
    /// deduplicated (at most `len` nodes). This is the bounded
    /// successor-list walk of layered placement: after one lookup lands on
    /// the first owner of an arc, the remaining co-located buckets are
    /// served by walking existing successor links — one overlay message
    /// per step, no routing.
    ///
    /// # Panics
    /// Panics if `start` is not a node of the ring or `window` is zero.
    pub fn successors_window(&self, start: Id, window: usize) -> Vec<Id> {
        assert!(window >= 1, "successor window must be at least 1");
        let i = self.rank_of(start).expect("walk start not in ring");
        (0..window.min(self.ids.len()))
            .map(|step| self.ids[(i + step) % self.ids.len()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn successor_ownership() {
        let ring = Ring::new(vec![Id(100), Id(200), Id(300)]);
        assert_eq!(ring.successor_of(Id(100)), Id(100));
        assert_eq!(ring.successor_of(Id(101)), Id(200));
        assert_eq!(ring.successor_of(Id(250)), Id(300));
        // Wraps past the top.
        assert_eq!(ring.successor_of(Id(301)), Id(100));
        assert_eq!(ring.successor_of(Id(u32::MAX)), Id(100));
        assert_eq!(ring.successor_of(Id(0)), Id(100));
    }

    #[test]
    fn predecessor_wraps() {
        let ring = Ring::new(vec![Id(100), Id(200), Id(300)]);
        assert_eq!(ring.predecessor_of(Id(100)), Id(300));
        assert_eq!(ring.predecessor_of(Id(200)), Id(100));
    }

    #[test]
    fn new_sorts_and_dedups() {
        let ring = Ring::new(vec![Id(300), Id(100), Id(300), Id(200)]);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.node_ids(), &[Id(100), Id(200), Id(300)]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_ring_rejected() {
        Ring::new(vec![]);
    }

    #[test]
    fn from_seed_deterministic() {
        let a = Ring::from_seed(50, 9);
        let b = Ring::from_seed(50, 9);
        assert_eq!(a.node_ids(), b.node_ids());
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = Ring::new(vec![Id(7)]);
        for key in [0u32, 7, 8, u32::MAX] {
            assert_eq!(ring.successor_of(Id(key)), Id(7));
        }
        assert_eq!(ring.predecessor_of(Id(7)), Id(7));
        let (owner, hops) = ring.lookup(Id(7), Id(12345));
        assert_eq!(owner, Id(7));
        assert_eq!(hops, 0);
    }

    #[test]
    fn successors_window_walks_in_ring_order() {
        let ring = Ring::new(vec![Id(100), Id(200), Id(300)]);
        assert_eq!(ring.successors_window(Id(200), 2), vec![Id(200), Id(300)]);
        // Wraps and dedups at the ring size.
        assert_eq!(
            ring.successors_window(Id(300), 5),
            vec![Id(300), Id(100), Id(200)]
        );
        assert_eq!(ring.successors_window(Id(100), 1), vec![Id(100)]);
    }

    #[test]
    #[should_panic(expected = "not in ring")]
    fn successors_window_rejects_foreign_start() {
        Ring::new(vec![Id(1)]).successors_window(Id(2), 1);
    }

    /// Rings built to sit on the edges of the circle arithmetic: both ends
    /// of the id space, every power of two, adjacent ids.
    fn adversarial_rings() -> Vec<Ring> {
        let pow2s = (0..32).map(|i| Id(1 << i));
        vec![
            Ring::new(vec![Id(0)]),
            Ring::new(vec![Id(u32::MAX)]),
            Ring::new(vec![Id(0), Id(u32::MAX)]),
            Ring::new(vec![Id(7), Id(8)]),
            Ring::new(pow2s.clone().collect()),
            Ring::new(
                pow2s
                    .chain([Id(0), Id(u32::MAX), Id(u32::MAX - 1)])
                    .collect(),
            ),
            Ring::new((0..40).map(|i| Id(u32::MAX - 3 * i)).collect()),
        ]
    }

    #[test]
    fn finger_tables_point_at_true_successors() {
        let mut rings = adversarial_rings();
        rings.push(Ring::from_seed(64, 3));
        for ring in &rings {
            for (rank, &n) in ring.node_ids().iter().enumerate() {
                for i in 0..32 {
                    let start = n.plus_pow2(i as u32);
                    assert_eq!(ring.finger(rank, i), ring.successor_of(start));
                }
            }
        }
    }

    #[test]
    fn fingers_resolve_start_positions() {
        let ring = Ring::new(vec![Id(0), Id(1 << 30), Id(2 << 30), Id(3 << 30)]);
        // Node 0's fingers 0..=29 start at 1..2^29: all resolve to 2^30.
        assert_eq!(ring.finger(0, 0), Id(1 << 30));
        assert_eq!(ring.finger(0, 29), Id(1 << 30));
        assert_eq!(ring.finger(0, 30), Id(1 << 30)); // start exactly 2^30
        assert_eq!(ring.finger(0, 31), Id(2 << 30));
        assert_eq!(ring.rank_of(Id(2 << 30)), Some(2));
        assert_eq!(ring.rank_of(Id(5)), None);
    }

    #[test]
    fn next_hop_picks_farthest_finger_before_key() {
        let ring = Ring::new(vec![Id(0), Id(1 << 30), Id(2 << 30), Id(3 << 30)]);
        // Node 0's fingers resolve to {2^30 (fingers 0..=30), 2^31 (finger
        // 31)} — 3·2^30 is nobody's finger from 0. For a key just past
        // 3·2^30 the farthest preceding finger is therefore 2^31.
        assert_eq!(ring.next_hop(0, Id((3 << 30) + 5)), 2);
        // Key = 2^30: no finger strictly inside (0, 2^30) — the successor
        // is exactly 2^30 and owns the key: final hop.
        assert_eq!(ring.next_hop(0, Id(1 << 30)), 1);
        // Key between the successor and the second node.
        assert_eq!(ring.next_hop(0, Id((1 << 30) + 1)), 1);
    }

    #[test]
    fn next_hop_wraps() {
        let ring = Ring::new(vec![Id(100), Id(200), Id(300)]);
        // From 300, key 150 (wrapping past 0): finger 100 precedes it.
        assert_eq!(ring.next_hop(2, Id(150)), 0);
        // Key 100 exactly: nothing strictly inside (300, 100); the
        // successor 100 owns it.
        assert_eq!(ring.next_hop(2, Id(100)), 0);
        // From 200, key 150: 300 and 100 both precede it; 100 is closest.
        assert_eq!(ring.next_hop(1, Id(150)), 0);
        assert_eq!(ring.next_hop(1, Id(50)), 2);
    }

    #[test]
    fn single_node_ring_has_self_fingers() {
        let ring = Ring::new(vec![Id(42)]);
        assert!((0..32).all(|i| ring.finger(0, i) == Id(42)));
        assert_eq!(ring.next_hop(0, Id(7)), 0);
        assert_eq!(ring.next_hop(0, Id(42)), 0);
    }

    /// The forwarding block of the routing loop this ring replaced: the
    /// final-hop test, then a scan of all 32 fingers from the farthest down.
    fn full_scan_step(ring: &Ring, at: usize, key: Id) -> usize {
        let here = ring.node_ids()[at];
        let succ = ring.finger(at, 0);
        let next = if key.in_open_closed(here, succ) {
            succ
        } else {
            (0..32)
                .rev()
                .map(|i| ring.finger(at, i))
                .find(|f| f.in_open(here, key))
                .unwrap_or(succ)
        };
        ring.node_ids().binary_search(&next).unwrap()
    }

    /// That loop itself: `(owner, path)` from the node of rank `from`.
    fn full_scan_route(ring: &Ring, from: usize, key: Id) -> (Id, Vec<Id>) {
        let ids = ring.node_ids();
        let owner = ring.successor_of(key);
        let mut at = from;
        let mut path = vec![ids[at]];
        while ids[at] != owner {
            let next = full_scan_step(ring, at, key);
            assert_ne!(next, at, "oracle stalled");
            path.push(ids[next]);
            at = next;
            assert!(path.len() <= 34 + ids.len(), "oracle cycled");
        }
        (owner, path)
    }

    #[test]
    fn next_hop_routes_exactly_as_the_full_finger_scan() {
        let mut rings = adversarial_rings();
        rings.extend([1, 2, 3, 17, 1000].map(|n| Ring::from_seed(n, n as u64 + 5)));
        let mut rng = DetRng::new(0x0AC1E);
        let mut lookups = 0u64;
        for ring in &rings {
            let ids = ring.node_ids();
            // Seeded keys, both ends of the space, every power of two, and
            // (for up to 48 nodes) each node id with its two neighbours —
            // so key == a node id and key == the origin both occur.
            let mut keys: Vec<Id> = (0..200).map(|_| Id(rng.next_u32())).collect();
            keys.extend([Id(0), Id(u32::MAX)]);
            keys.extend((0..32).map(|i| Id(1 << i)));
            for &n in ids.iter().take(48) {
                keys.extend([n, n.plus(1), n.plus(u32::MAX)]);
            }
            for (from, &origin) in ids.iter().enumerate() {
                for &key in &keys {
                    // One step, also where the loop never asks (the
                    // origin owns the key).
                    assert_eq!(
                        ring.next_hop(from, key),
                        full_scan_step(ring, from, key),
                        "step from {origin} for {key} on {} nodes",
                        ids.len()
                    );
                    let trace = ring.lookup_trace(origin, key);
                    let (owner, path) = full_scan_route(ring, from, key);
                    assert_eq!((trace.owner, &trace.path), (owner, &path));
                    assert_eq!(ring.lookup_from(from, key), (owner, path.len() - 1));
                    lookups += 1;
                }
            }
        }
        assert!(lookups > 200 * 1000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn successor_is_owner(seed in any::<u64>(), key in any::<u32>()) {
            let ring = Ring::from_seed(40, seed);
            let owner = ring.successor_of(Id(key));
            // No other node lies in (key, owner) — owner is the *first*
            // node at or after key.
            for &n in ring.node_ids() {
                prop_assert!(!Id(n.0).in_open(Id(key), owner) || n == owner);
            }
            // And key ∈ (pred(owner), owner].
            let pred = ring.predecessor_of(owner);
            prop_assert!(ring.len() == 1 || Id(key).in_open_closed(pred, owner));
        }
    }
}
