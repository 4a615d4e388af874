//! The exact-match baseline (§3.1).
//!
//! Before introducing LSH, the paper walks through the obvious DHT design:
//! "we could use the specific range [30 − 50] as a key, which is used to
//! hash the qualifying tuples. When a query is later posed with exactly
//! the age range of [30 − 50], this cached partition … can be retrieved" —
//! and then observes its fatal flaw: `[30, 49]` hashes elsewhere and
//! "would not benefit from the stored partition although … the entire
//! answer set is contained in the cached partition."
//!
//! [`ExactMatchNetwork`] implements that baseline faithfully (SHA-1 of the
//! exact range as the DHT key) so the comparison the paper argues verbally
//! can be *measured* — see the `baseline` bench binary.
//!
//! A frozen paper artefact: it exists for §3.1's comparison
//! (`results/baseline_comparison.csv`), is off the query hot path, and
//! grows no features (DESIGN §5 verdict table).

use crate::bucket::Match;
use crate::config::SystemConfig;
use crate::network::QueryOutcome;
use crate::plan::{verdict, Transport};
use ars_chord::sha1::Sha1;
use ars_chord::{Id, Ring};
use ars_common::{DetRng, FxHashMap, FxHashSet};
use ars_lsh::RangeSet;

/// SHA-1 of a range's canonical interval list — the §3.1 DHT key.
pub(crate) fn exact_key(range: &RangeSet) -> Id {
    let mut h = Sha1::new();
    for &(lo, hi) in range.intervals() {
        h.update(&lo.to_be_bytes());
        h.update(&hi.to_be_bytes());
    }
    let d = h.finalize();
    Id(u32::from_be_bytes([d[0], d[1], d[2], d[3]]))
}

/// The exact-match caching baseline.
#[derive(Debug, Clone)]
pub struct ExactMatchNetwork {
    ring: Ring,
    /// Per-peer set of cached exact ranges.
    peers: FxHashMap<u32, FxHashSet<RangeSet>>,
    rng: DetRng,
    /// Identifier lookups routed.
    pub lookups: u64,
    /// Total overlay hops.
    pub total_hops: u64,
}

impl ExactMatchNetwork {
    /// Build over the same seeded ring construction as
    /// [`crate::RangeSelectNetwork`], so comparisons share topology.
    pub fn new(n_peers: usize, config: &SystemConfig) -> ExactMatchNetwork {
        let mut rng = DetRng::new(config.seed);
        let _group_rng = rng.fork(); // keep the stream aligned with RangeSelectNetwork
        let ring_seed = rng.next_u64();
        let ring = Ring::from_seed(n_peers, ring_seed);
        let peers = ring
            .node_ids()
            .iter()
            .map(|&id| (id.0, FxHashSet::default()))
            .collect();
        ExactMatchNetwork {
            ring,
            peers,
            rng,
            lookups: 0,
            total_hops: 0,
        }
    }

    /// Total cached ranges.
    #[cfg(test)]
    fn total_partitions(&self) -> usize {
        self.peers.values().map(FxHashSet::len).sum()
    }

    /// One query: a single DHT lookup on the exact key. Hit ⇒ recall 1;
    /// miss ⇒ recall 0 and the partition is cached.
    pub(crate) fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        assert!(!q.is_empty(), "cannot query an empty range");
        let key = exact_key(q);
        let origin = {
            let ids = self.ring.node_ids();
            ids[self.rng.gen_index(ids.len())]
        };
        let (owner, hops) = self.ring.lookup(origin, key);
        self.lookups += 1;
        self.total_hops += hops as u64;
        let bucket = self.peers.get_mut(&owner.0).expect("owner exists");
        // The one bucket answers with the query itself or with nothing.
        let held = bucket.contains(q).then(|| Match {
            range: q.clone(),
            score: 1.0,
        });
        let verdict = verdict(q, &mut std::iter::once(held));
        let stored = verdict.store && bucket.insert(q.clone());
        let transport = Transport {
            hops: vec![hops],
            attempts: 1,
            peers_contacted: 1,
            ..Transport::default()
        };
        verdict.finish(q, vec![key.0], stored, transport)
    }

    /// Run a whole trace.
    pub fn run_trace<'a, I: IntoIterator<Item = &'a RangeSet>>(
        &mut self,
        queries: I,
    ) -> Vec<QueryOutcome> {
        queries.into_iter().map(|q| self.query(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recall::pct_fully_answered;
    use crate::RangeSelectNetwork;
    use ars_workload::{clustered_trace, uniform_trace};

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    #[test]
    fn exact_repeat_hits_nothing_else_does() {
        let mut net = ExactMatchNetwork::new(30, &SystemConfig::default().with_seed(1));
        assert!(!net.query(&r(30, 50)).exact);
        assert!(net.query(&r(30, 50)).exact);
        // The paper's motivating failure: [30, 49] is fully contained in
        // the cached [30, 50] but the exact-match baseline cannot see it.
        let near = net.query(&r(30, 49));
        assert!(!near.exact);
        assert_eq!(near.recall, 0.0);
    }

    #[test]
    fn exact_key_is_stable_and_discriminating() {
        assert_eq!(exact_key(&r(30, 50)), exact_key(&r(30, 50)));
        assert_ne!(exact_key(&r(30, 50)), exact_key(&r(30, 49)));
        assert_ne!(
            exact_key(&RangeSet::from_intervals([(0, 1), (3, 4)])),
            exact_key(&RangeSet::from_intervals([(0, 4)]))
        );
    }

    #[test]
    fn single_lookup_per_query() {
        let mut net = ExactMatchNetwork::new(50, &SystemConfig::default().with_seed(2));
        net.query(&r(0, 10));
        net.query(&r(0, 10));
        assert_eq!(net.lookups, 2);
        assert_eq!(net.total_partitions(), 1);
    }

    #[test]
    fn approximate_system_dominates_on_similar_queries() {
        // The paper's whole point, quantified: on a clustered workload
        // (similar-but-rarely-identical queries) the LSH system answers
        // far more queries than the §3.1 exact-match baseline.
        let trace = clustered_trace(1500, 0, 1000, 25, 8, 9);
        let config = SystemConfig::default().with_seed(5);
        let mut exact = ExactMatchNetwork::new(100, &config);
        let mut approx = RangeSelectNetwork::new(100, config);
        let e = exact.run_trace(trace.queries());
        let a = approx.run_trace(trace.queries());
        let cut = trace.len() / 5;
        let pe = pct_fully_answered(&e[cut..]);
        let pa = pct_fully_answered(&a[cut..]);
        assert!(
            pa > pe + 10.0,
            "approximate ({pa:.1}%) must clearly beat exact baseline ({pe:.1}%)"
        );
    }

    #[test]
    fn baselines_share_ring_topology() {
        let config = SystemConfig::default().with_seed(7);
        let exact = ExactMatchNetwork::new(40, &config);
        let approx = RangeSelectNetwork::new(40, config);
        assert_eq!(exact.ring.node_ids(), approx.ring().node_ids());
    }

    #[test]
    fn uniform_trace_baseline_hit_rate_matches_repetition_rate() {
        let trace = uniform_trace(3000, 0, 1000, 11);
        let mut net = ExactMatchNetwork::new(50, &SystemConfig::default().with_seed(3));
        let outs = net.run_trace(trace.queries());
        let hits = outs.iter().filter(|o| o.exact).count();
        let expected_reps = (trace.len() - trace.distinct()) as f64;
        // Every hit is a repetition of an earlier query, exactly.
        assert_eq!(hits as f64, expected_reps);
    }
}
