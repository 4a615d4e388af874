//! Static ring construction.
//!
//! The scalability experiments (Figs. 11–12) measure a stable network: `N`
//! peers hashed onto the circle, full finger tables, no churn. [`Ring`]
//! builds that state directly — ids sorted, every finger resolved exactly —
//! so measurements reflect the algorithm rather than convergence noise.
//! Churn and convergence live in [`crate::dynamic`].

use crate::finger::FingerTable;
use crate::id::Id;
use crate::lookup::{lookup_trace, route, LookupTrace};
use ars_common::{DetRng, FxHashMap};

/// A fully-converged Chord ring.
#[derive(Debug, Clone)]
pub struct Ring {
    /// Sorted, deduplicated node ids.
    ids: Vec<Id>,
    /// Finger table per node, parallel to `ids`.
    fingers: Vec<FingerTable>,
    /// Node id → index in `ids`.
    index: FxHashMap<u32, usize>,
}

impl Ring {
    /// Build a ring from arbitrary node ids (sorted and deduplicated).
    ///
    /// # Panics
    /// Panics if no ids are given.
    pub fn new(mut ids: Vec<Id>) -> Ring {
        ids.sort_unstable();
        ids.dedup();
        assert!(!ids.is_empty(), "a ring needs at least one node");
        let index: FxHashMap<u32, usize> =
            ids.iter().enumerate().map(|(i, id)| (id.0, i)).collect();
        // Resolve fingers against the sorted id list.
        let fingers = ids
            .iter()
            .map(|&id| FingerTable::build(id, |key| successor_in(&ids, key)))
            .collect();
        Ring {
            ids,
            fingers,
            index,
        }
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

    /// A ring of peers identified by their addresses, hashed with SHA-1
    /// exactly as the paper prescribes.
    pub fn from_addresses<S: AsRef<str>, I: IntoIterator<Item = S>>(addrs: I) -> Ring {
        Ring::new(
            addrs
                .into_iter()
                .map(|a| Id::from_address(a.as_ref()))
                .collect(),
        )
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

    /// Sorted node ids.
    pub fn node_ids(&self) -> &[Id] {
        &self.ids
    }

    /// True if `id` is a node of this ring.
    pub fn contains(&self, id: Id) -> bool {
        self.index.contains_key(&id.0)
    }

    /// The node that owns `key`: the first node clockwise from `key`
    /// (successor ownership, §4 of the paper).
    pub fn successor_of(&self, key: Id) -> Id {
        successor_in(&self.ids, key)
    }

    /// The node immediately preceding `node` on the circle.
    ///
    /// # Panics
    /// Panics if `node` is not in the ring.
    pub fn predecessor_of(&self, node: Id) -> Id {
        let i = *self.index.get(&node.0).expect("node not in ring");
        if i == 0 {
            self.ids[self.ids.len() - 1]
        } else {
            self.ids[i - 1]
        }
    }

    /// The finger table of `node`.
    ///
    /// # Panics
    /// Panics if `node` is not in the ring.
    pub fn finger_table(&self, node: Id) -> &FingerTable {
        let i = *self.index.get(&node.0).expect("node not in ring");
        &self.fingers[i]
    }

    /// Route a lookup from `from` to the owner of `key`, returning
    /// `(owner, hops)`. Hops counts overlay edges traversed (0 when the
    /// origin already owns the key).
    pub fn lookup(&self, from: Id, key: Id) -> (Id, usize) {
        let mut hops = 0;
        let owner = route(self, from, key, |_| hops += 1);
        (owner, hops)
    }

    /// Full routing trace of a lookup.
    pub fn lookup_trace(&self, from: Id, key: Id) -> LookupTrace {
        lookup_trace(self, from, key)
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
        let i = *self.index.get(&start.0).expect("walk start not in ring");
        (0..window.min(self.ids.len()))
            .map(|step| self.ids[(i + step) % self.ids.len()])
            .collect()
    }
}

/// First id ≥ key in circular order over a sorted list.
fn successor_in(sorted: &[Id], key: Id) -> Id {
    debug_assert!(!sorted.is_empty());
    match sorted.binary_search(&key) {
        Ok(i) => sorted[i],
        Err(i) if i == sorted.len() => sorted[0],
        Err(i) => sorted[i],
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
    fn from_addresses_uses_sha1() {
        let ring = Ring::from_addresses(["10.0.0.1:80", "10.0.0.2:80"]);
        assert_eq!(ring.len(), 2);
        assert!(ring.contains(Id::from_address("10.0.0.1:80")));
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

    #[test]
    fn finger_tables_point_at_true_successors() {
        let ring = Ring::from_seed(64, 3);
        for &n in ring.node_ids() {
            let t = ring.finger_table(n);
            for i in 0..32 {
                assert_eq!(t.entry(i), ring.successor_of(n.plus_pow2(i as u32)));
            }
        }
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
