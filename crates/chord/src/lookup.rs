//! Iterative lookup over a static ring, with full hop accounting.
//!
//! The routing rule is Chord's ([`Ring::next_hop`]): at node `n`, if the key
//! lies in `(n, successor(n)]` the successor owns it; otherwise forward to
//! the closest finger strictly preceding the key. Path length — the number of
//! overlay edges traversed, the metric of the paper's Fig. 12 — is the
//! number of nodes a lookup forwards to.

use crate::id::Id;
use crate::ring::Ring;

/// The complete route taken by one lookup.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupTrace {
    /// Nodes visited in order, starting with the origin and ending with the
    /// owner.
    pub path: Vec<Id>,
    /// The node that owns the key.
    pub owner: Id,
    /// The key that was looked up.
    pub key: Id,
}

#[cfg(test)]
impl LookupTrace {
    /// Number of overlay hops (edges) traversed.
    pub(crate) fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Route `key` starting from `from`, producing the full trace.
///
/// # Panics
/// Panics if `from` is not a node of the ring, or if routing fails to make
/// progress (which would indicate a broken finger table — impossible for a
/// [`Ring`], whose tables are exact).
#[cfg(test)]
pub(crate) fn lookup_trace(ring: &Ring, from: Id, key: Id) -> LookupTrace {
    let mut path = vec![from];
    let owner = route(ring, ring.origin_rank(from), key, |node| path.push(node));
    LookupTrace { path, owner, key }
}

/// The routing loop behind [`Ring::lookup_from`]: steps
/// [`Ring::next_hop`] from the node of rank `from` to the owner of `key`,
/// handing every node it forwards to (the origin excluded, the owner
/// included unless it is the origin) to `visit`, and returns the owner.
/// Allocates nothing itself.
pub(crate) fn route(ring: &Ring, from: usize, key: Id, mut visit: impl FnMut(Id)) -> Id {
    let ids = ring.node_ids();
    assert!(from < ids.len(), "lookup origin rank {from} not in ring");
    let owner = ring.successor_rank(key);
    let mut at = from;
    // A correct ring resolves any lookup in ≤ 32 forwardings + 1 final hop;
    // the bound is a defensive guard against cycles.
    let max_steps = 34 + ids.len();
    let mut steps = 1;
    while at != owner {
        let next = ring.next_hop(at, key);
        assert_ne!(next, at, "routing stalled at {} for {key}", ids[at]);
        visit(ids[next]);
        at = next;
        steps += 1;
        assert!(steps <= max_steps, "routing cycle detected for key {key}");
    }
    ids[owner]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_common::DetRng;
    use proptest::prelude::*;

    #[test]
    fn lookup_from_owner_is_zero_hops() {
        let ring = Ring::new(vec![Id(100), Id(200), Id(300)]);
        let t = lookup_trace(&ring, Id(200), Id(150));
        assert_eq!(t.owner, Id(200));
        assert_eq!(t.hops(), 0);
        assert_eq!(t.path, vec![Id(200)]);
    }

    #[test]
    fn lookup_to_successor_is_one_hop() {
        let ring = Ring::new(vec![Id(100), Id(200), Id(300)]);
        let t = lookup_trace(&ring, Id(100), Id(150));
        assert_eq!(t.owner, Id(200));
        assert_eq!(t.hops(), 1);
    }

    #[test]
    #[should_panic(expected = "not in ring")]
    fn foreign_origin_rejected() {
        let ring = Ring::new(vec![Id(100)]);
        lookup_trace(&ring, Id(5), Id(7));
    }

    #[test]
    fn all_lookups_resolve_correctly_small_ring() {
        // Exhaustive-ish: every origin × a sweep of keys.
        let ring = Ring::from_seed(17, 5);
        for &from in ring.node_ids() {
            for k in (0..=u32::MAX - 1023).step_by((u32::MAX / 97) as usize) {
                let t = lookup_trace(&ring, from, Id(k));
                assert_eq!(t.owner, ring.successor_of(Id(k)));
                assert!(t.hops() <= 32);
                assert_eq!(ring.lookup(from, Id(k)), (t.owner, t.hops()));
            }
        }
    }

    #[test]
    fn hops_scale_logarithmically() {
        // Mean path length ≈ ½·log₂N (Chord's theorem; the paper's Fig. 12a).
        let mut rng = DetRng::new(11);
        let mut means = Vec::new();
        for &n in &[64usize, 1024] {
            let ring = Ring::from_seed(n, 42);
            let ids = ring.node_ids();
            let total: usize = (0..2000)
                .map(|_| {
                    let from = ids[rng.gen_index(ids.len())];
                    let key = Id(rng.next_u32());
                    ring.lookup(from, key).1
                })
                .sum();
            means.push(total as f64 / 2000.0);
        }
        let expect_64 = 0.5 * 64f64.log2(); // 3
        let expect_1024 = 0.5 * 1024f64.log2(); // 5
        assert!(
            (means[0] - expect_64).abs() < 1.0,
            "64-node mean {} vs expected {}",
            means[0],
            expect_64
        );
        assert!(
            (means[1] - expect_1024).abs() < 1.0,
            "1024-node mean {} vs expected {}",
            means[1],
            expect_1024
        );
        assert!(means[1] > means[0]);
    }

    #[test]
    fn path_visits_are_monotone_toward_key() {
        // Each forwarding strictly reduces circular distance to the key.
        let ring = Ring::from_seed(100, 13);
        let from = ring.node_ids()[0];
        let key = Id(0xDEAD_BEEF);
        let t = lookup_trace(&ring, from, key);
        // The final hop lands on the owner, which sits at-or-after the key
        // (so its forward distance to the key wraps) — check all hops
        // before it.
        for w in t.path[..t.path.len() - 1].windows(2) {
            let d0 = w[0].distance_to(key);
            let d1 = w[1].distance_to(key);
            assert!(d1 < d0, "hop {} → {} moved away from key", w[0], w[1]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lookup_always_finds_true_owner(
            seed in any::<u64>(),
            n in 1usize..200,
            key in any::<u32>(),
            origin_sel in any::<u64>(),
        ) {
            let ring = Ring::from_seed(n, seed);
            let ids = ring.node_ids();
            let from = ids[(origin_sel % ids.len() as u64) as usize];
            let (owner, hops) = ring.lookup(from, Id(key));
            prop_assert_eq!(owner, ring.successor_of(Id(key)));
            prop_assert!(hops <= 33);
        }
    }
}
