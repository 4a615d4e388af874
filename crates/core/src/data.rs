//! The full §2 data-sharing architecture: relational partitions cached in
//! the P2P system and served to query plans.
//!
//! [`DataNetwork`] combines, per (relation, attribute) pair, the range
//! identifier machinery of [`crate::RangeSelectNetwork`] with a payload
//! store holding the actual tuples of each cached partition. It implements
//! [`ars_relation::exec::LeafSource`], so a query plan executes with its
//! selection leaves resolved through the P2P cache: on a usable
//! cached match the tuples come from a peer; otherwise they come from the
//! base relation at the source (and the partition is cached for the next
//! query) — exactly the workflow of the paper's Figure 2. It has no query
//! loop of its own: every lookup, match and store is
//! [`RangeSelectNetwork::query`] on the attribute's network.

use crate::config::SystemConfig;
use crate::network::RangeSelectNetwork;
use crate::plan::hashed_range;
use ars_common::FxHashMap;
use ars_lsh::RangeSet;
use ars_relation::exec::{BaseTables, ExecError, LeafSource};
use ars_relation::{HorizontalPartition, Predicate, Relation};
use std::collections::BTreeMap;

/// What a leaf fetch actually did (for experiment accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Served entirely from a cached partition.
    Cache,
    /// Served from the base relation at the source (and cached).
    Source,
    /// Served from a cached partition that only partially covered the
    /// query (partial answers accepted by configuration).
    PartialCache,
}

/// How to handle a cached match that only partially covers the query —
/// the binary choice of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartialPolicy {
    /// Ignore partial matches; go to the source for the whole range
    /// (always returns complete answers).
    #[default]
    SourceOnPartial,
    /// Return the covered part only — §5.2: "the system can present the
    /// user the part of the answer it is able to find fast".
    AcceptPartial,
}

/// Counters for leaf fetches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Leaves served from cache with full coverage.
    pub cache_hits: u64,
    /// Leaves that had to go to the source.
    pub source_fetches: u64,
    /// Leaves served with partial coverage.
    pub partial_hits: u64,
}

/// The data-sharing P2P system of §2.
pub struct DataNetwork {
    n_peers: usize,
    config: SystemConfig,
    /// Per-(relation, attribute): the identifier/bucket machinery. Each
    /// attribute domain gets hash groups derived from its own seed (part
    /// of the global schema all peers share), over the same peer ring.
    nets: BTreeMap<(String, String), RangeSelectNetwork>,
    /// Cached partition payloads, keyed by the defining triple. (Placement
    /// follows the range identifiers; the payload map is the union of all
    /// peers' tuple stores.)
    payloads: FxHashMap<(String, String, RangeSet), HorizontalPartition>,
    /// The data sources (peers holding base relations, known to everyone).
    sources: BaseTables,
    /// Policy for partially-covering cached matches.
    pub partial_policy: PartialPolicy,
    /// Fetch accounting.
    pub stats: FetchStats,
}

impl DataNetwork {
    /// Create the system: `n_peers` cache peers plus the given sources.
    pub fn new(n_peers: usize, config: SystemConfig, sources: BaseTables) -> DataNetwork {
        DataNetwork {
            n_peers,
            config,
            nets: BTreeMap::new(),
            payloads: FxHashMap::default(),
            sources,
            partial_policy: PartialPolicy::default(),
            stats: FetchStats::default(),
        }
    }

    /// The identifier network for one attribute, created on first use with
    /// a seed derived from the attribute name (all peers derive the same
    /// functions from the global schema).
    fn net_for(&mut self, relation: &str, attr: &str) -> &mut RangeSelectNetwork {
        let key = (relation.to_string(), attr.to_string());
        let (n_peers, config) = (self.n_peers, self.config.clone());
        self.nets.entry(key).or_insert_with(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in relation.bytes().chain([0u8]).chain(attr.bytes()) {
                h = (h ^ b as u64).wrapping_mul(0x1_0000_01b3);
            }
            let seed = config.seed ^ h;
            RangeSelectNetwork::new(n_peers, config.with_seed(seed))
        })
    }

    /// Total partitions cached across all attributes.
    pub fn cached_partitions(&self) -> usize {
        self.payloads.len()
    }

    /// Direct access to one attribute's identifier network (after at least
    /// one query has touched it).
    #[cfg(test)]
    fn attribute_network(&self, relation: &str, attr: &str) -> Option<&RangeSelectNetwork> {
        self.nets.get(&(relation.to_string(), attr.to_string()))
    }

    /// Fetch one partition through the P2P system (the paper's Figure 2
    /// flow for a single leaf).
    fn fetch_partition(
        &mut self,
        relation: &str,
        attr: &str,
        range: &RangeSet,
    ) -> Result<(HorizontalPartition, FetchOutcome), ExecError> {
        let outcome = self.net_for(relation, attr).query(range);
        if let Some(matched) = &outcome.best_match {
            let key = (relation.to_string(), attr.to_string(), matched.clone());
            if let Some(part) = self.payloads.get(&key) {
                if outcome.recall >= 1.0 {
                    // Fully covered: refine to exactly the requested range.
                    let refined = part.refine(range).ok_or_else(|| {
                        ExecError::SourceUnavailable(format!(
                            "cached partition {matched} does not cover {range}"
                        ))
                    })?;
                    return Ok((refined, FetchOutcome::Cache));
                }
                let overlap = range.intersection(part.range());
                if self.partial_policy == PartialPolicy::AcceptPartial && !overlap.is_empty() {
                    // Partial answer: the covered part only.
                    if let Some(partial) = part.refine(&overlap) {
                        return Ok((partial, FetchOutcome::PartialCache));
                    }
                }
            }
        }
        // Go to the source; the identifier layer already cached the query
        // range on this miss (§4), so store the payload alongside.
        let base = self
            .sources
            .get(relation)
            .ok_or_else(|| ExecError::UnknownRelation(relation.to_string()))?;
        let hashed_range = hashed_range(range, self.config.padding);
        let part = HorizontalPartition::select_from(base, attr, &hashed_range);
        self.payloads.insert(
            (relation.to_string(), attr.to_string(), hashed_range),
            part.clone(),
        );
        let answer = part
            .refine(range)
            .expect("padded partition must cover the original range");
        Ok((answer, FetchOutcome::Source))
    }
}

impl LeafSource for DataNetwork {
    /// Resolve a leaf: route its single range predicate through the P2P
    /// cache, then apply any remaining predicates (e.g. string equalities)
    /// locally.
    fn fetch(&mut self, relation: &str, predicates: &[Predicate]) -> Result<Relation, ExecError> {
        // The paper's restriction is one ranged attribute per select; when
        // a future multi-attribute query pushes several, locate by the
        // most *selective* one (fewest values — smallest partition to
        // ship) and filter the rest locally.
        let ranged = predicates
            .iter()
            .filter_map(|p| p.range_set().map(|rs| (p.attr().to_string(), rs)))
            .min_by_key(|(_, rs)| rs.len());
        let (fetched, outcome) = match ranged {
            Some((attr, range)) => {
                // Reject a malformed leaf before it touches the network.
                self.sources.leaf_table(relation, predicates)?;
                let (part, outcome) = self.fetch_partition(relation, &attr, &range)?;
                (part.as_relation(), outcome)
            }
            // No ranged predicate (e.g. a pure string-equality leaf): this
            // leaf cannot be located by range hashing; go to the source
            // directly.
            None => (
                self.sources.leaf_table(relation, predicates)?.clone(),
                FetchOutcome::Source,
            ),
        };
        match outcome {
            FetchOutcome::Cache => self.stats.cache_hits += 1,
            FetchOutcome::Source => self.stats.source_fetches += 1,
            FetchOutcome::PartialCache => self.stats.partial_hits += 1,
        }
        // Apply all predicates locally (idempotent for the ranged one).
        let schema = fetched.schema().clone();
        let tuples = fetched
            .into_tuples()
            .into_iter()
            .filter(|t| predicates.iter().all(|p| p.matches(&schema, t)))
            .collect();
        Ok(Relation::new(schema, tuples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_relation::schema::medical;
    use ars_relation::Value;

    fn sources() -> BaseTables {
        let mut t = BaseTables::new();
        t.register(Relation::new(
            medical::patient(),
            (0..300u32)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::from(format!("p{i}")),
                        Value::Int(20 + (i % 60)),
                    ]
                })
                .collect(),
        ));
        t
    }

    fn leaf(lo: u32, hi: u32) -> Vec<Predicate> {
        vec![Predicate::range("age", lo, hi)]
    }

    #[test]
    fn first_fetch_goes_to_source_second_hits_cache() {
        let mut net = DataNetwork::new(40, SystemConfig::default().with_seed(4), sources());
        let r1 = net.fetch("Patient", &leaf(30, 50)).unwrap();
        assert_eq!(net.stats.source_fetches, 1);
        assert_eq!(net.stats.cache_hits, 0);
        let r2 = net.fetch("Patient", &leaf(30, 50)).unwrap();
        assert_eq!(net.stats.cache_hits, 1);
        assert_eq!(r1, r2);
        assert!(!r1.is_empty());
        assert_eq!(net.cached_partitions(), 1);
    }

    #[test]
    fn cached_answers_match_source_answers() {
        let mut net = DataNetwork::new(40, SystemConfig::default().with_seed(9), sources());
        let direct = {
            let mut s = sources();
            s.fetch("Patient", &leaf(25, 45)).unwrap()
        };
        net.fetch("Patient", &leaf(25, 45)).unwrap();
        let via_cache = net.fetch("Patient", &leaf(25, 45)).unwrap();
        assert_eq!(via_cache.len(), direct.len());
    }

    #[test]
    fn contained_query_served_from_broader_cached_partition() {
        use crate::config::MatchMeasure;
        // Cache [20,70]; then ask for [30,50] with containment matching —
        // the broader partition fully covers it.
        let config = SystemConfig::default()
            .with_matching(MatchMeasure::Containment)
            .with_seed(2);
        let mut net = DataNetwork::new(40, config, sources());
        net.fetch("Patient", &leaf(20, 70)).unwrap();
        let narrow = net.fetch("Patient", &leaf(30, 50)).unwrap();
        // Whether it hit depends on LSH collision; with high containment
        // similarity it usually does, but correctness must hold either way:
        let direct = {
            let mut s = sources();
            s.fetch("Patient", &leaf(30, 50)).unwrap()
        };
        assert_eq!(narrow.len(), direct.len());
    }

    #[test]
    fn partial_answers_when_enabled() {
        use crate::config::MatchMeasure;
        let config = SystemConfig::default()
            .with_matching(MatchMeasure::Containment)
            .with_seed(6);
        let mut net = DataNetwork::new(40, config, sources());
        net.partial_policy = PartialPolicy::AcceptPartial;
        net.fetch("Patient", &leaf(30, 49)).unwrap();
        // [30,50] overlaps the cached [30,49] but is not contained.
        let partial_or_full = net.fetch("Patient", &leaf(30, 50)).unwrap();
        assert!(!partial_or_full.is_empty());
        // If it was served partially, tuples must still satisfy the query
        // predicate.
        let idx = partial_or_full.schema().index_of("age").unwrap();
        for t in partial_or_full.tuples() {
            let a = t[idx].as_ordinal().unwrap();
            assert!((30..=50).contains(&a));
        }
    }

    #[test]
    fn unknown_relation_is_error() {
        let mut net = DataNetwork::new(10, SystemConfig::default(), sources());
        assert!(matches!(
            net.fetch("Nope", &leaf(0, 1)),
            Err(ExecError::UnknownRelation(_))
        ));
    }

    #[test]
    fn unknown_predicate_attribute_is_error_not_panic() {
        let mut net = DataNetwork::new(10, SystemConfig::default(), sources());
        for preds in [
            vec![Predicate::range("salary", 0, 1)],
            vec![Predicate::eq("employer", "x")],
        ] {
            assert_eq!(
                net.fetch("Patient", &preds),
                Err(ExecError::UnknownAttribute(preds[0].attr().to_string()))
            );
        }
        assert_eq!(net.cached_partitions(), 0);
    }

    #[test]
    fn string_only_leaf_goes_to_source() {
        let mut net = DataNetwork::new(10, SystemConfig::default(), sources());
        let preds = vec![Predicate::eq("name", "p5")];
        let r = net.fetch("Patient", &preds).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(net.stats.source_fetches, 1);
    }

    #[test]
    fn multi_attribute_leaf_locates_by_most_selective_range() {
        // A leaf with two ranged predicates (a step toward the paper's
        // multi-attribute future work): the narrow patient_id range [5,9]
        // should be the located partition, with the broad age range
        // filtered locally.
        let mut net = DataNetwork::new(20, SystemConfig::default().with_seed(8), sources());
        let preds = vec![
            Predicate::range("age", 0, 1000),     // broad
            Predicate::range("patient_id", 5, 9), // selective
        ];
        let r = net.fetch("Patient", &preds).unwrap();
        assert_eq!(r.len(), 5);
        // The cached partition is the selective one.
        assert!(net.attribute_network("Patient", "patient_id").is_some());
        assert!(net.attribute_network("Patient", "age").is_none());
        // Both predicates hold on the result.
        let id_idx = r.schema().index_of("patient_id").unwrap();
        for t in r.tuples() {
            let v = t[id_idx].as_ordinal().unwrap();
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn different_attributes_use_independent_identifier_spaces() {
        let mut net = DataNetwork::new(20, SystemConfig::default().with_seed(3), sources());
        net.fetch("Patient", &leaf(30, 50)).unwrap();
        let by_id = vec![Predicate::range("patient_id", 30, 50)];
        net.fetch("Patient", &by_id).unwrap();
        assert!(net.attribute_network("Patient", "age").is_some());
        assert!(net.attribute_network("Patient", "patient_id").is_some());
        // Same numeric range, different attribute → distinct cache entries.
        assert_eq!(net.cached_partitions(), 2);
        assert_eq!(net.stats.source_fetches, 2);
    }
}
