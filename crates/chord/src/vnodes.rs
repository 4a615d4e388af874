//! Virtual nodes: the classic Chord load-balancing refinement.
//!
//! A single ring position per peer leaves arc sizes exponentially
//! distributed, so per-peer load varies by an `O(log N)` factor — visible
//! as the wide 1st/99th percentile band in the paper's Fig. 11. Running
//! `v` *virtual* nodes per physical peer (Chord's own remedy) tightens
//! the distribution by roughly `√v`. The `fig11` harness includes an
//! ablation quantifying this on the paper's workload.
//!
//! A frozen paper artefact: it exists for the Figure 11 extension (and its
//! rerun under layered placement, ROADMAP item 2(b)), is off the query hot
//! path, and grows no features (DESIGN §5 verdict table).

use crate::id::Id;
use crate::ring::Ring;
use ars_common::{DetRng, FxHashMap};

/// A ring where each physical peer owns several virtual positions.
#[derive(Debug, Clone)]
pub struct VirtualRing {
    ring: Ring,
    /// Virtual node id → physical peer index.
    physical_of: FxHashMap<u32, usize>,
    n_physical: usize,
}

impl VirtualRing {
    /// Build `n_physical` peers × `vnodes_per_peer` virtual positions,
    /// seeded deterministically.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn from_seed(n_physical: usize, vnodes_per_peer: usize, seed: u64) -> VirtualRing {
        assert!(n_physical > 0 && vnodes_per_peer > 0);
        let mut rng = DetRng::new(seed);
        let mut ids = Vec::with_capacity(n_physical * vnodes_per_peer);
        let mut physical_of = FxHashMap::default();
        for peer in 0..n_physical {
            for _ in 0..vnodes_per_peer {
                loop {
                    let id = rng.next_u32();
                    if let std::collections::hash_map::Entry::Vacant(e) = physical_of.entry(id) {
                        e.insert(peer);
                        ids.push(Id(id));
                        break;
                    }
                }
            }
        }
        VirtualRing {
            ring: Ring::new(ids),
            physical_of,
            n_physical,
        }
    }

    /// The physical peer responsible for `key`.
    pub(crate) fn physical_owner_of(&self, key: Id) -> usize {
        let vnode = self.ring.successor_of(key);
        self.physical_of[&vnode.0]
    }

    /// Count keys per *physical* peer (the Fig. 11 load metric under
    /// virtual nodes).
    pub fn load_of_keys<I: IntoIterator<Item = Id>>(&self, keys: I) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_physical];
        for k in keys {
            counts[self.physical_owner_of(k)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_common::stats::Summary;

    #[test]
    fn every_vnode_maps_to_a_physical_peer() {
        let vr = VirtualRing::from_seed(10, 4, 1);
        assert_eq!(vr.ring.len(), 40);
        assert_eq!(vr.n_physical, 10);
        for &id in vr.ring.node_ids() {
            let p = vr.physical_owner_of(id);
            assert!(p < 10);
        }
    }

    #[test]
    fn ownership_respects_successor() {
        let vr = VirtualRing::from_seed(5, 3, 2);
        let key = Id(0x1234_5678);
        let vnode = vr.ring.successor_of(key);
        assert_eq!(vr.physical_owner_of(key), vr.physical_of[&vnode.0]);
    }

    #[test]
    fn load_counts_sum_to_key_count() {
        let vr = VirtualRing::from_seed(20, 8, 3);
        let mut rng = DetRng::new(4);
        let keys: Vec<Id> = (0..5000).map(|_| Id(rng.next_u32())).collect();
        let loads = vr.load_of_keys(keys);
        assert_eq!(loads.iter().sum::<usize>(), 5000);
    }

    #[test]
    fn virtual_nodes_tighten_the_distribution() {
        // Same peers and keys; v = 1 vs v = 16. The p99/mean ratio must
        // shrink substantially.
        let mut rng = DetRng::new(5);
        let keys: Vec<Id> = (0..100_000).map(|_| Id(rng.next_u32())).collect();
        let ratio = |v: usize| {
            let vr = VirtualRing::from_seed(200, v, 7);
            let loads = vr.load_of_keys(keys.iter().copied());
            let s = Summary::from_counts(loads);
            s.p99 / s.mean
        };
        let r1 = ratio(1);
        let r16 = ratio(16);
        assert!(
            r16 < r1 * 0.6,
            "v=16 p99/mean {r16:.2} not clearly better than v=1 {r1:.2}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_vnodes_rejected() {
        VirtualRing::from_seed(5, 0, 0);
    }
}
