//! Multi-attribute range selections — the paper's first future-work item
//! (§6: "the problem of locating horizontal partitions obtained by
//! multiattribute selections").
//!
//! A multi-attribute partition is the set of tuples satisfying a
//! *conjunction* of ranges, one per attribute — as a set, the Cartesian
//! product of the per-attribute value ranges. That product structure
//! gives closed forms for both similarity measures:
//!
//! * `|Q ∩ R| = Π_i |Q_i ∩ R_i|` and `|Q| = Π_i |Q_i|`, so Jaccard and
//!   containment extend directly;
//! * a natural LSH: hash each attribute's range with its own `l × k`
//!   groups and XOR the per-attribute group identifiers — two
//!   multi-ranges share a group identifier when **all** attributes'
//!   identifiers agree, i.e. with probability `≈ Π_i p_iᵏ`, amplified to
//!   `1 − (1 − Π p_iᵏ)ˡ` over `l` groups. Setting one attribute reduces
//!   exactly to the paper's single-attribute scheme.

use crate::config::{MatchMeasure, SystemConfig};
use crate::network::place_identifier;
use ars_chord::Ring;
use ars_common::{DetRng, FxHashMap};
use ars_lsh::{HashGroups, RangeSet};
use std::collections::BTreeMap;
use std::fmt;

/// A conjunction of ranges over named attributes (all must hold).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MultiRange {
    by_attr: BTreeMap<String, RangeSet>,
}

impl fmt::Display for MultiRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (a, r) in &self.by_attr {
            if !first {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a} ∈ {r}")?;
            first = false;
        }
        Ok(())
    }
}

impl MultiRange {
    /// Build from attribute/range pairs.
    ///
    /// # Panics
    /// Panics on an empty conjunction, a duplicate attribute, or an empty
    /// range.
    pub fn new<S: Into<String>, I: IntoIterator<Item = (S, RangeSet)>>(parts: I) -> MultiRange {
        let mut by_attr = BTreeMap::new();
        for (attr, range) in parts {
            let attr = attr.into();
            assert!(!range.is_empty(), "empty range for attribute {attr}");
            assert!(
                by_attr.insert(attr.clone(), range).is_none(),
                "duplicate attribute {attr}"
            );
        }
        assert!(
            !by_attr.is_empty(),
            "a MultiRange needs at least one attribute"
        );
        MultiRange { by_attr }
    }

    /// The attribute names, sorted.
    pub fn attrs(&self) -> impl Iterator<Item = &str> {
        self.by_attr.keys().map(String::as_str)
    }

    /// The range for one attribute.
    pub fn range(&self, attr: &str) -> Option<&RangeSet> {
        self.by_attr.get(attr)
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.by_attr.len()
    }

    /// Cardinality of the product set `Π |R_i|`.
    pub fn len(&self) -> u128 {
        self.by_attr.values().map(|r| r.len() as u128).product()
    }

    /// True if (impossible by construction) any side is empty.
    pub fn is_empty(&self) -> bool {
        self.by_attr.values().any(RangeSet::is_empty)
    }

    /// `|self ∩ other|` as product sets. Zero when the attribute sets
    /// differ (conjunctions over different attributes describe fragments
    /// of different shapes and cannot answer each other).
    pub fn intersection_len(&self, other: &MultiRange) -> u128 {
        if self.by_attr.len() != other.by_attr.len() {
            return 0;
        }
        let mut product: u128 = 1;
        for (attr, r) in &self.by_attr {
            match other.by_attr.get(attr) {
                Some(o) => product *= r.intersection_len(o) as u128,
                None => return 0,
            }
            if product == 0 {
                return 0;
            }
        }
        product
    }

    /// Jaccard similarity of the product sets.
    pub fn jaccard(&self, other: &MultiRange) -> f64 {
        let inter = self.intersection_len(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            return 1.0;
        }
        inter as f64 / union as f64
    }

    /// Containment `|Q ∩ R| / |Q|`.
    pub fn containment_in(&self, other: &MultiRange) -> f64 {
        let q = self.len();
        if q == 0 {
            return 1.0;
        }
        self.intersection_len(other) as f64 / q as f64
    }
}

/// Per-attribute hash groups with aligned `l`, combined by XOR.
#[derive(Debug, Clone)]
pub struct MultiAttrGroups {
    per_attr: BTreeMap<String, HashGroups>,
    l: usize,
}

impl MultiAttrGroups {
    /// Generate groups for a set of attributes (all sharing `kind`, `k`,
    /// `l`, but with independent functions per attribute).
    ///
    /// # Panics
    /// Panics if `attrs` is empty.
    pub fn generate<S: Into<String>, I: IntoIterator<Item = S>>(
        attrs: I,
        config: &SystemConfig,
        rng: &mut DetRng,
    ) -> MultiAttrGroups {
        let per_attr: BTreeMap<String, HashGroups> = attrs
            .into_iter()
            .map(|a| {
                (
                    a.into(),
                    HashGroups::generate(config.family, config.k, config.l, rng),
                )
            })
            .collect();
        assert!(!per_attr.is_empty(), "need at least one attribute");
        MultiAttrGroups {
            per_attr,
            l: config.l,
        }
    }

    /// The `l` combined identifiers of a multi-range: XOR across
    /// attributes of the per-attribute group identifiers.
    ///
    /// # Panics
    /// Panics if the multi-range references an attribute without groups.
    pub fn identifiers(&self, mr: &MultiRange) -> Vec<u32> {
        let mut combined = vec![0u32; self.l];
        for attr in mr.attrs() {
            let groups = self
                .per_attr
                .get(attr)
                .unwrap_or_else(|| panic!("no hash groups for attribute {attr}"));
            let ids = groups.identifiers(mr.range(attr).expect("attr present"));
            for (c, id) in combined.iter_mut().zip(ids) {
                *c ^= id;
            }
        }
        // Mix in the attribute *names* so conjunctions over different
        // attribute sets never share buckets by accident.
        let mut tag: u32 = 0x811C_9DC5;
        for attr in mr.attrs() {
            for b in attr.bytes() {
                tag = (tag ^ b as u32).wrapping_mul(0x0100_0193);
            }
        }
        for c in &mut combined {
            *c ^= tag;
        }
        combined
    }
}

/// Outcome of a multi-attribute query.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiQueryOutcome {
    /// The query.
    pub query: MultiRange,
    /// Best-matching cached multi-range partition.
    pub best_match: Option<MultiRange>,
    /// Product-set Jaccard similarity with the match.
    pub similarity: f64,
    /// Product-set containment of the query in the match.
    pub recall: f64,
    /// True when the match equals the query exactly.
    pub exact: bool,
    /// Per-identifier lookup hops.
    pub hops: Vec<usize>,
}

/// The paper's system generalized to multi-attribute partitions.
pub struct MultiAttrNetwork {
    config: SystemConfig,
    ring: Ring,
    groups: MultiAttrGroups,
    /// identifier → cached multi-range partitions (the buckets; ownership
    /// of an identifier follows the ring exactly as in the base system).
    cache: FxHashMap<u32, Vec<MultiRange>>,
    rng: DetRng,
}

impl MultiAttrNetwork {
    /// Build over `n_peers` with groups for the given attributes.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(
        n_peers: usize,
        attrs: I,
        config: SystemConfig,
    ) -> MultiAttrNetwork {
        let mut rng = DetRng::new(config.seed);
        let mut group_rng = rng.fork();
        let ring_seed = rng.next_u64();
        let ring = Ring::from_seed(n_peers, ring_seed);
        let groups = MultiAttrGroups::generate(attrs, &config, &mut group_rng);
        MultiAttrNetwork {
            config,
            ring,
            groups,
            cache: FxHashMap::default(),
            rng,
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total cached (identifier, multi-range) entries.
    pub fn total_partitions(&self) -> usize {
        self.cache.values().map(Vec::len).sum()
    }

    /// Execute the generalized §4 procedure for a multi-range.
    pub fn query(&mut self, q: &MultiRange) -> MultiQueryOutcome {
        let identifiers = self.groups.identifiers(q);
        let origin = {
            let ids = self.ring.node_ids();
            ids[self.rng.gen_index(ids.len())]
        };
        let mut hops = Vec::with_capacity(identifiers.len());
        let mut best: Option<(MultiRange, f64)> = None;
        for &ident in &identifiers {
            let (_owner, h) = self
                .ring
                .lookup(origin, place_identifier(&self.config, ident));
            hops.push(h);
            if let Some(bucket) = self.cache.get(&ident) {
                for candidate in bucket {
                    let score = match self.config.matching {
                        MatchMeasure::Jaccard => q.jaccard(candidate),
                        MatchMeasure::Containment => q.containment_in(candidate),
                    };
                    let better = match &best {
                        None => true,
                        Some((_, b)) => score > *b,
                    };
                    if better {
                        best = Some((candidate.clone(), score));
                    }
                }
            }
        }
        let exact = best.as_ref().map(|(m, _)| m == q).unwrap_or(false);
        if self.config.cache_on_miss && !exact {
            for &ident in &identifiers {
                let bucket = self.cache.entry(ident).or_default();
                if !bucket.contains(q) {
                    bucket.push(q.clone());
                }
            }
        }
        let (similarity, recall, best_match) = match &best {
            Some((m, _)) => (q.jaccard(m), q.containment_in(m), Some(m.clone())),
            None => (0.0, 0.0, None),
        };
        MultiQueryOutcome {
            query: q.clone(),
            best_match,
            similarity,
            recall,
            exact,
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mr(age: (u32, u32), date: (u32, u32)) -> MultiRange {
        MultiRange::new([
            ("age", RangeSet::interval(age.0, age.1)),
            ("date", RangeSet::interval(date.0, date.1)),
        ])
    }

    #[test]
    fn product_set_cardinalities() {
        let a = mr((0, 9), (0, 4)); // 10 × 5 = 50
        assert_eq!(a.len(), 50);
        let b = mr((5, 14), (0, 4)); // overlap ages 5..=9 → 5 × 5 = 25
        assert_eq!(a.intersection_len(&b), 25);
        // Jaccard = 25 / (50 + 50 − 25) = 1/3.
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
        // Containment = 25/50.
        assert!((a.containment_in(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn brute_force_product_set_agreement() {
        // Check the closed forms against explicit tuple enumeration.
        let a = mr((2, 6), (10, 13));
        let b = mr((4, 9), (12, 20));
        let tuples = |m: &MultiRange| {
            let mut out = std::collections::HashSet::new();
            for x in m.range("age").unwrap().iter() {
                for y in m.range("date").unwrap().iter() {
                    out.insert((x, y));
                }
            }
            out
        };
        let ta = tuples(&a);
        let tb = tuples(&b);
        assert_eq!(a.len(), ta.len() as u128);
        assert_eq!(a.intersection_len(&b), ta.intersection(&tb).count() as u128);
    }

    #[test]
    fn different_attribute_sets_do_not_match() {
        let a = MultiRange::new([("age", RangeSet::interval(0, 9))]);
        let b = mr((0, 9), (0, 9));
        assert_eq!(a.intersection_len(&b), 0);
        assert_eq!(a.jaccard(&b), 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_rejected() {
        MultiRange::new([
            ("age", RangeSet::interval(0, 1)),
            ("age", RangeSet::interval(2, 3)),
        ]);
    }

    #[test]
    fn identifiers_depend_on_every_attribute() {
        let config = SystemConfig::default().with_seed(5);
        let mut rng = DetRng::new(9);
        let groups = MultiAttrGroups::generate(["age", "date"], &config, &mut rng);
        let base = mr((30, 50), (100, 200));
        let age_moved = mr((500, 600), (100, 200));
        let date_moved = mr((30, 50), (700, 900));
        let ids = groups.identifiers(&base);
        assert_eq!(ids.len(), 5);
        // Identical input ⇒ identical identifiers; a clearly different
        // range on *either* attribute ⇒ different identifiers. (A barely
        // different range may legitimately collide — that is the point of
        // LSH — so the test uses disjoint replacements.)
        assert_eq!(ids, groups.identifiers(&base));
        assert_ne!(ids, groups.identifiers(&age_moved));
        assert_ne!(ids, groups.identifiers(&date_moved));
    }

    #[test]
    fn cache_miss_then_exact_hit() {
        let mut net =
            MultiAttrNetwork::new(40, ["age", "date"], SystemConfig::default().with_seed(3));
        let q = mr((30, 50), (36_524, 37_619));
        let miss = net.query(&q);
        assert!(miss.best_match.is_none());
        let hit = net.query(&q);
        assert!(hit.exact);
        assert_eq!(hit.recall, 1.0);
        assert!(net.total_partitions() >= 1);
    }

    #[test]
    fn similar_conjunctions_often_match() {
        // Both attributes nearly identical ⇒ per-attribute collision
        // probabilities multiply but stay high.
        let mut hits = 0;
        for seed in 0..10 {
            let mut net =
                MultiAttrNetwork::new(40, ["age", "date"], SystemConfig::default().with_seed(seed));
            net.query(&mr((30, 50), (100, 200)));
            let out = net.query(&mr((30, 49), (100, 199)));
            if out.best_match.is_some() {
                hits += 1;
            }
        }
        assert!(hits >= 5, "only {hits}/10 similar conjunctions matched");
    }

    #[test]
    fn dissimilar_conjunctions_do_not_match() {
        let mut net =
            MultiAttrNetwork::new(40, ["age", "date"], SystemConfig::default().with_seed(8));
        net.query(&mr((0, 20), (0, 50)));
        let out = net.query(&mr((500, 600), (800, 900)));
        assert!(out.best_match.is_none() || out.similarity == 0.0);
    }

    #[test]
    fn single_attribute_reduces_to_base_scheme() {
        // With one attribute the multi-attr machinery behaves like the
        // paper's base system: similar single ranges match.
        let mut net = MultiAttrNetwork::new(40, ["age"], SystemConfig::default().with_seed(2));
        let q1 = MultiRange::new([("age", RangeSet::interval(30, 50))]);
        let q2 = MultiRange::new([("age", RangeSet::interval(30, 50))]);
        net.query(&q1);
        assert!(net.query(&q2).exact);
    }
}
