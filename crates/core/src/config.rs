//! System configuration.

use crate::durable::DurabilityConfig;
use ars_lsh::LshFamilyKind;

/// How a bucket-owning peer picks the best stored partition for a query
/// (the paper's §5.2 comparison, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchMeasure {
    /// Jaccard set similarity `|Q∩R| / |Q∪R|` — consistent with the hash
    /// family's locality principle.
    Jaccard,
    /// Containment `|Q∩R| / |Q|` — what the user actually cares about
    /// (how much of the answer the partition holds).
    Containment,
}

/// How a partition identifier is mapped to a ring position.
///
/// Min-hash identifiers are far from uniform: the minimum of `n` permuted
/// values concentrates near `2³² / n`, so using identifiers directly as
/// ring positions piles every bucket onto the few peers owning the low
/// arc of the circle. Chord's own convention — hash the key before
/// placement — preserves identifier *equality* (all that bucket matching
/// needs) while spreading buckets uniformly; it is what reproduces the
/// paper's balanced Fig. 11. The direct mapping is kept for the ablation
/// that demonstrates the imbalance (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// `ring position = SHA-1(identifier)` (Chord's key hashing).
    Uniformized,
    /// `ring position = identifier` (the paper's literal reading; severely
    /// imbalanced for min-hash identifiers).
    Direct,
}

/// How a query's bucket set is laid out on the ring and reached.
///
/// Orthogonal to [`Placement`] (which maps one identifier to one
/// position): the mode decides whether the `l` identifiers of a query
/// are *independent* positions (one Chord lookup each — the paper's §4
/// procedure) or *layered* into one arc keyed by a coarse anchor sketch,
/// reachable with a single lookup plus a bounded successor-list walk
/// (see `ars_chord::layered` and DESIGN.md §6d). Under layered placement
/// a stored copy's ring position depends on the range it holds (through
/// its anchor), not on the identifier alone —
/// [`crate::ChurnNetwork::replica_owners`] takes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// One placed position and one lookup per group identifier — the
    /// default; bit-identical to the pre-layered query paths.
    Independent,
    /// All of a query's buckets co-located in the anchor's arc: one
    /// lookup + a successor walk of at most
    /// [`SystemConfig::walk_window`] peers serves every group's bucket,
    /// and multi-probe candidates ([`SystemConfig::probes`]) are checked
    /// at the visited peers for free.
    Layered,
}

/// Full configuration of a [`crate::RangeSelectNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// LSH family for partition identifiers.
    pub family: LshFamilyKind,
    /// Hash functions per group (`k`; paper: 20).
    pub k: usize,
    /// Number of groups / identifiers per range (`l`; paper: 5).
    pub l: usize,
    /// Bucket matching measure.
    pub matching: MatchMeasure,
    /// Query padding fraction (§5.2; paper evaluates 0.0 and 0.2). The
    /// query range is expanded by this fraction of its width on each edge
    /// before hashing, matching, and caching.
    pub padding: f64,
    /// Cache the queried partition at the `l` identifier owners when no
    /// exact match was found (the paper's §4 procedure). Disable to measure
    /// a read-only system.
    pub cache_on_miss: bool,
    /// §5.3 extension: a contacted peer searches an index over *all* its
    /// buckets, not just the one bucket the identifier names.
    pub use_local_index: bool,
    /// Identifier → ring-position mapping.
    pub placement: Placement,
    /// Bucket layout / lookup strategy (see [`PlacementMode`]). The
    /// default `Independent` keeps every query path bit-identical to the
    /// pre-layered system; `Layered` is the opt-in half-the-lookups mode.
    /// Every network — static, churning, message-passing — takes either:
    /// the mode is decided once, when the network is built, and the query
    /// paths execute the same plan.
    pub placement_mode: PlacementMode,
    /// Multi-probe budget: extra ranked candidate identifiers
    /// (`ars_lsh::probe`) checked at visited peers in layered mode. `0`
    /// disables probing. Probe checks are local to peers a query already
    /// reached — they cost no messages.
    pub probes: usize,
    /// Anchor sketch width (`L`) in layered mode: the anchor is the XOR
    /// of `L` min-hashes, so similar ranges share an arc with probability
    /// ≈ `J^L`. Small values gate less (higher recall, coarser
    /// co-location); must be ≥ 1.
    pub layers: usize,
    /// Successor-walk bound in layered mode: after the single arc lookup,
    /// at most this many peers (the first owner included) are visited
    /// over existing successor links, one message per step. Must be ≥ 1.
    pub walk_window: usize,
    /// Successor replication factor for cached partitions (`r`): each
    /// stored partition is placed at the first `r` alive successors of its
    /// placed identifier, so up to `r - 1` abrupt failures leave a copy
    /// findable. `1` (the paper's implicit setting) disables replication;
    /// the fault-tolerance bench sweeps this (see `crate::resilient`).
    pub replication: usize,
    /// Durable per-peer bucket stores (see [`crate::durable`]). `None`
    /// (the default) is the paper's pure soft-state model: an abrupt
    /// failure loses the peer's cache. `Some` persists every placement
    /// and eviction to a crash-faulted op log, enabling
    /// [`crate::ChurnNetwork::crash_random`] and
    /// [`crate::ChurnNetwork::restart`] to bring peers back with their
    /// buckets recovered from disk.
    pub durability: Option<DurabilityConfig>,
    /// Capacity of the identifier memo cache
    /// ([`crate::network::IdentifierCache`]) in distinct ranges; `0` (the
    /// default) is unbounded. When bounded, entries are evicted FIFO —
    /// insertion order, never perturbed by hits — so the sequential and
    /// batched query paths evict identically.
    pub ident_cache_capacity: usize,
    /// Capacity of the Chord route cache (entries) consulted by lookups
    /// under churn ([`ars_chord::RouteCacheStats`]); `0` (the default)
    /// disables it. The cache is cleared on every membership or
    /// stabilization event, so it never changes which owner a lookup
    /// returns — only how many hops it spends (see `ars_chord::dynamic`).
    pub route_cache: usize,
    /// Seed for hash-function generation and origin-peer selection.
    pub seed: u64,
}

impl Default for SystemConfig {
    /// The paper's §5 parameters: approximate min-wise permutations,
    /// `k = 20`, `l = 5`, Jaccard matching, no padding, cache-on-miss.
    fn default() -> SystemConfig {
        SystemConfig {
            family: LshFamilyKind::ApproxMinWise,
            k: 20,
            l: 5,
            matching: MatchMeasure::Jaccard,
            padding: 0.0,
            cache_on_miss: true,
            use_local_index: false,
            placement: Placement::Uniformized,
            placement_mode: PlacementMode::Independent,
            probes: 0,
            layers: 1,
            walk_window: 4,
            replication: 1,
            durability: None,
            ident_cache_capacity: 0,
            route_cache: 0,
            seed: 0xA25_2003, // arbitrary fixed default
        }
    }
}

impl SystemConfig {
    /// Builder-style: set the hash family.
    pub fn with_family(mut self, family: LshFamilyKind) -> SystemConfig {
        self.family = family;
        self
    }

    /// Builder-style: set the matching measure.
    pub fn with_matching(mut self, matching: MatchMeasure) -> SystemConfig {
        self.matching = matching;
        self
    }

    /// Builder-style: set padding.
    ///
    /// # Panics
    /// Panics if `padding` is negative.
    pub fn with_padding(mut self, padding: f64) -> SystemConfig {
        assert!(padding >= 0.0, "padding must be non-negative");
        self.padding = padding;
        self
    }

    /// Builder-style: set the seed.
    pub fn with_seed(mut self, seed: u64) -> SystemConfig {
        self.seed = seed;
        self
    }

    /// Builder-style: set `k` and `l`.
    ///
    /// # Panics
    /// Panics if either is zero.
    pub fn with_kl(mut self, k: usize, l: usize) -> SystemConfig {
        assert!(k > 0 && l > 0, "k and l must be positive");
        self.k = k;
        self.l = l;
        self
    }

    /// Builder-style: enable the §5.3 local index.
    pub fn with_local_index(mut self, on: bool) -> SystemConfig {
        self.use_local_index = on;
        self
    }

    /// Builder-style: enable/disable cache-on-miss.
    pub fn with_cache_on_miss(mut self, on: bool) -> SystemConfig {
        self.cache_on_miss = on;
        self
    }

    /// Builder-style: set the identifier placement policy.
    pub fn with_placement(mut self, placement: Placement) -> SystemConfig {
        self.placement = placement;
        self
    }

    /// Builder-style: set the placement mode.
    pub fn with_placement_mode(mut self, mode: PlacementMode) -> SystemConfig {
        self.placement_mode = mode;
        self
    }

    /// Builder-style: set the multi-probe budget (`0` = no probing).
    pub fn with_probes(mut self, probes: usize) -> SystemConfig {
        self.probes = probes;
        self
    }

    /// Builder-style: set the layered-anchor sketch width.
    ///
    /// # Panics
    /// Panics if `layers` is zero (the anchor needs at least one
    /// min-hash).
    pub fn with_layers(mut self, layers: usize) -> SystemConfig {
        assert!(layers >= 1, "anchor sketch needs at least 1 layer");
        self.layers = layers;
        self
    }

    /// Builder-style: set the layered successor-walk bound.
    ///
    /// # Panics
    /// Panics if `window` is zero (the walk must visit the first owner).
    pub fn with_walk_window(mut self, window: usize) -> SystemConfig {
        assert!(window >= 1, "walk window must visit at least 1 peer");
        self.walk_window = window;
        self
    }

    /// Builder-style: set the successor replication factor.
    ///
    /// # Panics
    /// Panics if `r` is zero (a partition must live somewhere).
    pub fn with_replication(mut self, r: usize) -> SystemConfig {
        assert!(r >= 1, "replication factor must be at least 1");
        self.replication = r;
        self
    }

    /// Builder-style: give every peer a durable bucket store.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> SystemConfig {
        self.durability = Some(durability);
        self
    }

    /// Builder-style: bound the identifier memo cache (`0` = unbounded).
    pub fn with_ident_cache_capacity(mut self, capacity: usize) -> SystemConfig {
        self.ident_cache_capacity = capacity;
        self
    }

    /// Builder-style: enable the Chord route cache with the given capacity
    /// (`0` = disabled).
    pub fn with_route_cache(mut self, capacity: usize) -> SystemConfig {
        self.route_cache = capacity;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = SystemConfig::default();
        assert_eq!(c.k, 20);
        assert_eq!(c.l, 5);
        assert_eq!(c.family, LshFamilyKind::ApproxMinWise);
        assert_eq!(c.matching, MatchMeasure::Jaccard);
        assert_eq!(c.padding, 0.0);
        assert!(c.cache_on_miss);
        assert!(!c.use_local_index);
        assert_eq!(c.replication, 1, "paper stores one copy per identifier");
        assert_eq!(c.durability, None, "paper's cache is pure soft state");
        assert_eq!(c.ident_cache_capacity, 0, "memo cache unbounded by default");
        assert_eq!(c.route_cache, 0, "route cache off by default");
    }

    #[test]
    fn cache_builders() {
        let c = SystemConfig::default()
            .with_ident_cache_capacity(128)
            .with_route_cache(512);
        assert_eq!(c.ident_cache_capacity, 128);
        assert_eq!(c.route_cache, 512);
    }

    #[test]
    fn durability_builder() {
        let c = SystemConfig::default().with_durability(DurabilityConfig::default());
        assert_eq!(c.durability, Some(DurabilityConfig::default()));
    }

    #[test]
    fn replication_builder() {
        let c = SystemConfig::default().with_replication(3);
        assert_eq!(c.replication, 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_replication_rejected() {
        SystemConfig::default().with_replication(0);
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::default()
            .with_family(LshFamilyKind::Linear)
            .with_matching(MatchMeasure::Containment)
            .with_padding(0.2)
            .with_kl(10, 3)
            .with_seed(7)
            .with_local_index(true)
            .with_cache_on_miss(false);
        assert_eq!(c.family, LshFamilyKind::Linear);
        assert_eq!(c.matching, MatchMeasure::Containment);
        assert_eq!(c.padding, 0.2);
        assert_eq!((c.k, c.l), (10, 3));
        assert_eq!(c.seed, 7);
        assert!(c.use_local_index);
        assert!(!c.cache_on_miss);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_padding_rejected() {
        SystemConfig::default().with_padding(-0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_rejected() {
        SystemConfig::default().with_kl(0, 5);
    }
}
