//! The §4 query procedure as plain data, shared by every transport.
//!
//! A query is: hash the (padded) range to `l` identifiers
//! ([`HashStage::resolve`]), decide where they must be looked for
//! ([`targets`]), route and read — the one part a transport owns — and
//! reach the verdict on what came back ([`verdict`], [`Verdict::finish`]).
//! The static ring ([`crate::network`]), the churning ring
//! ([`crate::churn`]) and the message protocol ([`crate::proto`]) execute
//! the same [`Targets`] and finish through the same [`Verdict`]; none of
//! them looks at the placement mode, which is decided once, at
//! construction, by [`anchor_sketch`].

use crate::bucket::{Best, Match};
use crate::config::{Placement, PlacementMode, SystemConfig};
use crate::network::QueryOutcome;
use ars_chord::{arc_base, layered_position, position_in_arc, Id};
use ars_common::{DetRng, FxBuildHasher, FxHashMap, FxHashSet};
use ars_lsh::{HashGroups, RangeSet};
use ars_telemetry::Telemetry;
use std::hash::BuildHasher;
use std::ops::Range;

/// The anchor sketch of a config — one group of `config.layers`
/// min-hashes whose value names the arc all of a range's buckets share —
/// under layered placement; `None` under independent placement, where
/// every identifier is placed on its own. Every network calls this once
/// at construction and hands the result to the functions below: it is the
/// crate's one `match` on the placement mode.
///
/// The RNG is salted off the system seed, which keeps the anchor draw out
/// of the sequences the groups and the query path consume.
pub(crate) fn anchor_sketch(config: &SystemConfig) -> Option<HashGroups> {
    const ANCHOR_SALT: u64 = 0x6172_735F_6172_6373; // "ars_arcs"
    match config.placement_mode {
        PlacementMode::Independent => None,
        PlacementMode::Layered => {
            let mut rng = DetRng::new(config.seed ^ ANCHOR_SALT);
            Some(HashGroups::generate(
                config.family,
                config.layers,
                1,
                &mut rng,
            ))
        }
    }
}

/// The anchor of a hashed range: the single coarse identifier
/// (`SystemConfig::layers` min-hashes XOR-folded) that keys its arc.
/// Similar ranges share it with probability ≈ `J^layers`.
fn anchor_of(sketch: &HashGroups, hashed_range: &RangeSet) -> u32 {
    sketch.identifiers(hashed_range)[0]
}

/// Ring position of a partition identifier placed on its own, under
/// `config`'s placement policy.
pub(crate) fn place_identifier(config: &SystemConfig, identifier: u32) -> Id {
    match config.placement {
        Placement::Uniformized => Id(ars_chord::sha1::sha1_u32_of_word(identifier)),
        Placement::Direct => Id(identifier),
    }
}

/// Ring position of the copy of `range` stored under `identifier`: the
/// identifier's own position under independent placement, its offset
/// inside the arc of `range`'s anchor under layered placement — a stored
/// copy's position depends on the range it holds, not on the identifier
/// alone. Repair places through this, so it restores copies where
/// [`targets`] sends the queries that look for them.
pub(crate) fn position(
    config: &SystemConfig,
    anchors: Option<&HashGroups>,
    identifier: u32,
    range: &RangeSet,
) -> Id {
    match anchors {
        None => place_identifier(config, identifier),
        Some(sketch) => layered_position(anchor_of(sketch, range), identifier),
    }
}

/// [`position`] of every copy one bucket holds, in bucket order — worked
/// out once for the whole bucket where it depends on the identifier alone,
/// so a repair sweep pays independent placement's SHA-1 per bucket, not per
/// copy.
pub(crate) fn positions<'a>(
    config: &'a SystemConfig,
    anchors: Option<&'a HashGroups>,
    identifier: u32,
    ranges: impl Iterator<Item = RangeSet> + 'a,
) -> impl Iterator<Item = Id> + 'a {
    let own = (anchors.is_none()).then(|| place_identifier(config, identifier));
    ranges.map(move |range| own.unwrap_or_else(|| position(config, anchors, identifier, &range)))
}

/// §5.2 padding: the range a query is hashed, matched and cached under.
/// Every query path enters through here, so the input contract is checked
/// here and nowhere else.
///
/// # Panics
/// Panics if `q` is empty or `padding` is negative
/// ([`SystemConfig::padding`] is a public field).
pub(crate) fn hashed_range(q: &RangeSet, padding: f64) -> RangeSet {
    assert!(!q.is_empty(), "cannot query an empty range");
    assert!(padding >= 0.0, "padding must be non-negative");
    if padding > 0.0 {
        q.pad(padding)
    } else {
        q.clone()
    }
}

/// Independent placement's SHA-1 positions, remembered in a direct-mapped
/// table of [`Self::SLOTS`] `(identifier, position)` pairs: on the §5.1
/// trace `bench_e2e`'s `uniform_static` runs (seed 0) the identifier
/// cache's misses place 8 147 distinct identifiers 237 805 times, and
/// 83.5 % of those placements hit. Every slot holds a true pair from the
/// first use on, so a hit is never wrong and no valid bit is needed. Each
/// network keeps one.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlacementMemo(Vec<(u32, Id)>);

impl PlacementMemo {
    const SLOTS: usize = 1 << 14;

    /// The slot of `identifier`: the top bits of a Fibonacci hash. Not the
    /// low bits, which min-hash identifiers share: those 8 147 fall into
    /// 256 classes of their low 14 bits, and into 6 087 slots of this hash.
    fn slot(identifier: u32) -> usize {
        (identifier.wrapping_mul(0x9E37_79B9) >> (32 - Self::SLOTS.trailing_zeros())) as usize
    }

    /// Hash `hashed_range` to its `l` identifiers and append each to `out`
    /// beside the position independent placement stores it at — the miss
    /// side of the [`HashStage`], and the whole hash stage of the message
    /// executor, which keeps no [`IdentifierCache`]. Under layered
    /// placement [`targets`] derives positions from the anchor sketch, so
    /// the slot repeats the identifier rather than pay a SHA-1 for it.
    pub(crate) fn resolve_into(
        &mut self,
        config: &SystemConfig,
        groups: &HashGroups,
        anchors: Option<&HashGroups>,
        hashed_range: &RangeSet,
        out: &mut Vec<(u32, Id)>,
    ) {
        let own = anchors.is_none();
        out.extend(groups.fused_groups().iter().map(|g| {
            let i = g.identifier(hashed_range);
            (i, if own { self.place(config, i) } else { Id(i) })
        }));
    }

    /// [`place_identifier`], through the table where it is a SHA-1.
    fn place(&mut self, config: &SystemConfig, identifier: u32) -> Id {
        if config.placement != Placement::Uniformized {
            return place_identifier(config, identifier);
        }
        if self.0.is_empty() {
            self.0 = vec![(0, place_identifier(config, 0)); Self::SLOTS];
        }
        let slot = &mut self.0[Self::slot(identifier)];
        if slot.0 != identifier {
            *slot = (identifier, place_identifier(config, identifier));
        }
        slot.1
    }
}

/// Memoized identifiers and positions, keyed by the (padded) hashed range:
/// the cache in the `HashStage` of [`crate::RangeSelectNetwork`] and
/// [`crate::ChurnNetwork`]. Identifiers depend only on the hash groups and
/// positions only on [`SystemConfig::placement`], never on membership, so
/// entries never *invalidate*, under churn either.
///
/// A range is admitted on its second sighting (TinyLFU's doorkeeper): its
/// first miss records 32 bits of its Fx hash, its second stores the entry,
/// and it hits from its third on. A hash collision can only move an
/// admission by a sighting; entries are keyed by the exact range, so an
/// answer is never wrong. Entry `e` is row `e` of one arena of `l`-wide
/// `(identifier, position)` rows, `CHUNK` rows a block, so growing it
/// never copies a row or frees a block.
#[derive(Debug, Clone, Default)]
pub struct IdentifierCache {
    /// Each admitted range's entry number.
    map: FxHashMap<RangeSet, u32>,
    /// The arena: the admitted rows in admission order, then the last miss's.
    rows: Vec<Vec<(u32, Id)>>,
    /// The doorkeeper: the top 32 bits of the hash of each range seen once
    /// (an admitted range leaves it).
    seen: FxHashSet<u32>,
    hits: u64,
    misses: u64,
}

/// Rows per block of the [`IdentifierCache`]'s arena.
const CHUNK: usize = 256;

impl IdentifierCache {
    /// Cache lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache lookups that had to compute identifiers.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct ranges cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Row `entry` of the arena, `l` pairs wide.
    fn row(&self, entry: usize, l: usize) -> &[(u32, Id)] {
        &self.rows[entry / CHUNK][entry % CHUNK * l..][..l]
    }
}

/// The hash stage of the static and churn executors: a hashed range's
/// identifiers and positions from the [`IdentifierCache`] on a hit, through
/// the [`PlacementMemo`] on a miss, counted in `core.ident_cache.*`.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashStage {
    pub(crate) cache: IdentifierCache,
    memo: PlacementMemo,
    /// The entry number and width of the row last resolved.
    last: (usize, usize),
}

impl HashStage {
    /// The identifiers of `hashed_range`, each beside its placed position
    /// ([`PlacementMemo::resolve_into`]'s), borrowed from the cache's arena.
    pub(crate) fn resolve(
        &mut self,
        config: &SystemConfig,
        groups: &HashGroups,
        anchors: Option<&HashGroups>,
        telemetry: &Telemetry,
        hashed_range: &RangeSet,
    ) -> &[(u32, Id)] {
        let l = groups.fused_groups().len();
        let cache = &mut self.cache;
        let entry = if let Some(&entry) = cache.map.get(hashed_range) {
            cache.hits += 1;
            telemetry.counter_add("core.ident_cache.hits", 1);
            entry as usize
        } else {
            cache.misses += 1;
            telemetry.counter_add("core.ident_cache.misses", 1);
            let entry = cache.map.len();
            if entry / CHUNK == cache.rows.len() {
                cache.rows.push(Vec::with_capacity(CHUNK * l));
            }
            let block = &mut cache.rows[entry / CHUNK];
            block.truncate(entry % CHUNK * l);
            (self.memo).resolve_into(config, groups, anchors, hashed_range, block);
            let hash = (FxBuildHasher::default().hash_one(hashed_range) >> 32) as u32;
            if !cache.seen.insert(hash) {
                cache.seen.remove(&hash);
                cache.map.insert(hashed_range.clone(), entry as u32);
                telemetry.gauge_set("core.ident_cache.size", cache.map.len() as u64);
            }
            entry
        };
        self.last = (entry, l);
        self.placed()
    }

    /// The row [`Self::resolve`] last returned.
    pub(crate) fn placed(&self) -> &[(u32, Id)] {
        self.cache.row(self.last.0, self.last.1)
    }
}

/// The identifiers of a resolved range, in group order.
pub(crate) fn identifiers_of(placed: &[(u32, Id)]) -> Vec<u32> {
    placed.iter().map(|&(ident, _)| ident).collect()
}

/// One ring position a query must reach, and what to read there.
#[derive(Debug, PartialEq)]
pub(crate) struct Key {
    /// The position to route to.
    pub(crate) position: Id,
    /// The buckets to check at every peer this key visits, as a slice of
    /// [`Targets::candidates`].
    pub(crate) reads: Range<usize>,
    /// The cache-on-miss writes whose buckets this key reads, as a slice
    /// of [`Targets::stores`]; every store belongs to exactly one key.
    pub(crate) stores: Range<usize>,
    /// Peers to visit: the owner of `position`, then its successors over
    /// existing links, one message a step.
    pub(crate) walk: usize,
}

/// Where one query must look, and where it caches on a miss — plain data,
/// worked out by [`targets`] before anything is routed.
#[derive(Debug)]
pub(crate) struct Targets {
    /// The bucket identifiers the keys read: the distinct base
    /// identifiers, then (layered only) the ranked multi-probe candidates.
    pub(crate) candidates: Vec<u32>,
    /// The lookups, in the order their answers are folded. Independent
    /// placement: one key per distinct identifier, walk 1. Layered
    /// placement: the anchor's arc base, every candidate,
    /// [`SystemConfig::walk_window`].
    pub(crate) keys: Vec<Key>,
    /// Cache-on-miss writes: each distinct base identifier and the ring
    /// position of its copy. A cached partition lives at the owner of its
    /// position and at the next [`Self::copies`]` − 1` peers clockwise —
    /// every executor writes it there.
    pub(crate) stores: Vec<(u32, Id)>,
    /// Copies each store writes: [`SystemConfig::replication`].
    pub(crate) copies: usize,
    /// Lookups not paid because an identifier repeated within the query.
    pub(crate) dedup_saved: usize,
}

/// Decide where the query for `hashed_range`, resolved to `placed`, must
/// look. Pure: it reads no ring and no peer, so a transport whose routing
/// fails or takes time shares it with the one whose routing is a function
/// call.
pub(crate) fn targets(
    config: &SystemConfig,
    groups: &HashGroups,
    anchors: Option<&HashGroups>,
    hashed_range: &RangeSet,
    placed: &[(u32, Id)],
) -> Targets {
    // The arc every store and the one key hang off, hashed once a query.
    let arc = anchors.map(|sketch| arc_base(anchor_of(sketch, hashed_range)));
    let mut candidates: Vec<u32> = Vec::with_capacity(placed.len() + config.probes);
    let mut stores: Vec<(u32, Id)> = Vec::with_capacity(placed.len());
    for &(ident, own) in placed {
        if !candidates.contains(&ident) {
            candidates.push(ident);
            stores.push((ident, arc.map_or(own, |base| position_in_arc(base, ident))));
        }
    }
    let Some(arc) = arc else {
        return Targets {
            keys: (stores.iter().enumerate())
                .map(|(i, &(_, position))| Key {
                    position,
                    reads: i..i + 1,
                    stores: i..i + 1,
                    walk: 1,
                })
                .collect(),
            dedup_saved: placed.len() - stores.len(),
            candidates,
            stores,
            copies: config.replication,
        };
    };
    if config.probes > 0 {
        for c in groups.probe_candidates(hashed_range, config.probes) {
            if !candidates.contains(&c.identifier) {
                candidates.push(c.identifier);
            }
        }
    }
    Targets {
        keys: vec![Key {
            position: arc,
            reads: 0..candidates.len(),
            stores: 0..stores.len(),
            walk: config.walk_window,
        }],
        dedup_saved: 0,
        candidates,
        stores,
        copies: config.replication,
    }
}

/// What only the transport knows about how a query went.
#[derive(Debug, Default)]
pub(crate) struct Transport {
    /// Overlay hops of each lookup that reached an owner, in key order.
    pub(crate) hops: Vec<usize>,
    /// Lookup attempts spent, retries included.
    pub(crate) attempts: usize,
    /// Distinct peers that answered.
    pub(crate) peers_contacted: usize,
    /// No owner could be reached at all.
    pub(crate) fell_back_to_source: bool,
    /// Answered island-locally while a global owner was across a split.
    pub(crate) partition_degraded: bool,
}

/// What a query's reads found, and whether it must cache its partition.
#[derive(Debug)]
pub(crate) struct Verdict {
    best: Best,
    /// The best match is exactly the hashed range.
    exact: bool,
    /// No exact match: the transport caches the partition at
    /// [`Targets::stores`] (§4 always does) and reports whether any copy
    /// was new.
    pub(crate) store: bool,
}

/// Fold a query's reads, in planned order, into the verdict: the best
/// match across them (the earliest wins ties), whether it is exact, and
/// so whether the query's own partition is to be cached.
pub(crate) fn verdict(
    hashed_range: &RangeSet,
    reads: &mut dyn Iterator<Item = Option<Match>>,
) -> Verdict {
    let mut best = Best::default();
    for read in reads {
        best.offer(read);
    }
    let exact = best.is_exactly(hashed_range);
    Verdict {
        best,
        exact,
        store: !exact,
    }
}

impl Verdict {
    /// Grade the match against the original query and build the outcome —
    /// the crate's one [`QueryOutcome`] literal.
    pub(crate) fn finish(
        self,
        q: &RangeSet,
        identifiers: Vec<u32>,
        stored: bool,
        transport: Transport,
    ) -> QueryOutcome {
        let (similarity, recall, best_match) = self.best.grade(q);
        QueryOutcome {
            query: q.clone(),
            best_match,
            similarity,
            recall,
            exact: self.exact,
            stored,
            hops: transport.hops,
            identifiers,
            peers_contacted: transport.peers_contacted,
            attempts: transport.attempts,
            fell_back_to_source: transport.fell_back_to_source,
            partition_degraded: transport.partition_degraded,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::Placement;

    /// `PlacementMemo::resolve_into` without the memo: every identifier
    /// placed by SHA-1 — the oracle the memo and the cache are held to.
    pub(crate) fn resolve(
        config: &SystemConfig,
        groups: &HashGroups,
        anchors: Option<&HashGroups>,
        hashed_range: &RangeSet,
    ) -> Vec<(u32, Id)> {
        let at = |i| match anchors {
            None => place_identifier(config, i),
            Some(_) => Id(i),
        };
        let identifiers = groups.identifiers(hashed_range);
        identifiers.into_iter().map(|i| (i, at(i))).collect()
    }

    /// Every range `cache` admitted, beside its `l`-wide row.
    pub(crate) fn entries(
        cache: &IdentifierCache,
        l: usize,
    ) -> impl Iterator<Item = (&RangeSet, &[(u32, Id)])> {
        (cache.map.iter()).map(move |(range, &entry)| (range, cache.row(entry as usize, l)))
    }

    #[test]
    fn every_row_the_stage_lends_equals_a_fresh_resolve() {
        let mut rng = DetRng::new(53);
        let pool: Vec<RangeSet> = (0..600)
            .map(|_| {
                let lo = rng.gen_index(20_000) as u32;
                RangeSet::interval(lo, lo + rng.gen_index(400) as u32)
            })
            .collect();
        let independent = SystemConfig::default();
        let layered = independent
            .clone()
            .with_placement_mode(PlacementMode::Layered);
        for config in [independent, layered] {
            let groups = HashGroups::generate(config.family, config.k, config.l, &mut rng);
            let anchors = anchor_sketch(&config);
            let mut stage = HashStage::default();
            for _ in 0..4_000 {
                let range = &pool[rng.gen_index(pool.len())];
                let hits = stage.cache.hits();
                let telemetry = Telemetry::noop();
                let placed = stage.resolve(&config, &groups, anchors.as_ref(), &telemetry, range);
                let placed = placed.to_vec();
                assert_eq!(placed, resolve(&config, &groups, anchors.as_ref(), range));
                assert_eq!(stage.placed(), placed);
                // A hit's row is the one admitted, whatever came since.
                if stage.cache.hits() > hits {
                    assert!(stage.cache.map.contains_key(range));
                }
            }
            let cache = &stage.cache;
            assert!(cache.hits() > 2_000, "the pool repeats");
            assert!(cache.len() > 2 * CHUNK, "the arena spans blocks");
            for (range, row) in entries(cache, config.l) {
                assert_eq!(row, resolve(&config, &groups, anchors.as_ref(), range));
            }
        }
    }

    #[test]
    fn placement_memo_equals_sha1_placement() {
        let config = SystemConfig::default();
        let mut memo = PlacementMemo::default();
        let mut rng = DetRng::new(25);
        // Random identifiers, then the same again — misses, then hits
        // where no later identifier took the slot.
        let idents: Vec<u32> = (0..100_000).map(|_| rng.next_u32()).collect();
        for &ident in idents.iter().chain(&idents) {
            assert_eq!(memo.place(&config, ident), place_identifier(&config, ident));
        }
        // A run forced into one slot, identifier 0 of the seed pair among
        // them: each evicts the last, and a repeat hits.
        let crowd: Vec<u32> = (0..)
            .filter(|&i| PlacementMemo::slot(i) == PlacementMemo::slot(0))
            .take(40)
            .collect();
        assert_eq!(crowd[0], 0);
        for &ident in crowd.iter().chain(crowd.iter().rev()) {
            for _ in 0..2 {
                assert_eq!(memo.place(&config, ident), place_identifier(&config, ident));
            }
        }
        assert!(memo
            .0
            .iter()
            .all(|&(i, at)| at == place_identifier(&config, i)));
        // Direct placement never reads the table.
        let direct = config.clone().with_placement(Placement::Direct);
        assert_eq!(memo.place(&direct, 77), Id(77));
        // Through `resolve`, under both placement modes.
        let mut rng = DetRng::new(3);
        let groups = HashGroups::generate(config.family, config.k, config.l, &mut rng);
        let layered = config.clone().with_placement_mode(PlacementMode::Layered);
        let sketch = anchor_sketch(&layered);
        for lo in (0..5_000).step_by(97) {
            let range = RangeSet::interval(lo, lo + 300);
            for (config, anchors) in [(&config, None), (&layered, sketch.as_ref())] {
                let mut placed = Vec::new();
                memo.resolve_into(config, &groups, anchors, &range, &mut placed);
                assert_eq!(*placed, *resolve(config, &groups, anchors, &range));
            }
        }
    }
}
