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
use ars_chord::{arc_base, arc_offset, Id};
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
    sketch.fused_groups()[0].identifier(hashed_range)
}

/// Ring position of a partition identifier placed on its own, under
/// `config`'s placement policy.
pub(crate) fn place_identifier(config: &SystemConfig, identifier: u32) -> Id {
    match config.placement {
        Placement::Uniformized => Id(ars_chord::sha1::sha1_u32_of_word(identifier)),
        Placement::Direct => Id(identifier),
    }
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

/// A pure function of a `u32` key, remembered in a direct-mapped table of
/// `2^BITS` `(key, value)` pairs. The table starts filled with the pair of
/// key 0, so every slot holds a true pair from the first use on: a hit is
/// never wrong and no valid bit is needed.
#[derive(Debug, Clone)]
struct Table<V, const BITS: u32>(Vec<(u32, V)>);

impl<V, const BITS: u32> Default for Table<V, BITS> {
    fn default() -> Self {
        Table(Vec::new())
    }
}

impl<V: Copy, const BITS: u32> Table<V, BITS> {
    /// The slot of `key`: the top bits of a Fibonacci hash. Not the low
    /// bits, which min-hash identifiers share: the 8 147 identifiers of
    /// `uniform_static`'s misses fall into 256 classes of their low 14
    /// bits, and into 6 087 slots of this hash.
    fn slot(key: u32) -> usize {
        (key.wrapping_mul(0x9E37_79B9) >> (32 - BITS)) as usize
    }

    /// `f(key)`, through the table.
    fn get(&mut self, key: u32, f: impl Fn(u32) -> V) -> V {
        if self.0.is_empty() {
            self.0 = vec![(0, f(0)); 1 << BITS];
        }
        let slot = &mut self.0[Self::slot(key)];
        if slot.0 != key {
            *slot = (key, f(key));
        }
        slot.1
    }
}

/// The memo's table sizes, in bits of slot number: 2^11 in-arc offsets
/// and 2^9 arc bases held their own on `layered_probe` at a fraction of
/// the peak RSS that 2^12 and 2^10 cost (EXPERIMENTS.md, "Layered plans
/// without re-hashing").
const PLACE_BITS: u32 = 14;
pub(crate) const OFFSET_BITS: u32 = 11;
pub(crate) const ARC_BITS: u32 = 9;

/// Every SHA-1 a placement pays, remembered, and the one place a layered
/// position is hashed. Independent placement: each identifier's position
/// (on the §5.1 trace `bench_e2e`'s `uniform_static` runs, seed 0, the
/// identifier cache's misses place 8 147 distinct identifiers 237 805
/// times, and 83.5 % of those placements hit). Layered placement: each
/// identifier's offset inside an arc, which depends on the identifier
/// alone, and each anchor's arc base. Each network keeps one; the tables
/// cost their size (128, 16 and 4 KiB) once first used.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlacementMemo {
    /// Identifier → its SHA-1 position, under uniformized placement.
    places: Table<Id, PLACE_BITS>,
    /// Identifier → [`arc_offset`].
    offsets: Table<u32, OFFSET_BITS>,
    /// Anchor → [`arc_base`].
    arcs: Table<Id, ARC_BITS>,
    /// The `l × k` base min-hashes of the range [`Self::resolve_into`]
    /// last hashed, when it hashed them for the probe ladder; else empty.
    mins: Vec<u32>,
}

impl PlacementMemo {
    /// Hash `hashed_range` to its `l` identifiers and append each to `out`
    /// beside where it is placed — the miss side of the [`HashStage`], and
    /// the whole hash stage of the message executor, which keeps no
    /// [`IdentifierCache`]. Independent placement: the identifier's ring
    /// position. Layered placement: its in-arc offset, and the return
    /// value is the range's arc base, which [`targets`] ORs the offsets
    /// into; with probes, the identifiers are folded from min-hashes kept
    /// for the ladder ([`Self::mins`]).
    pub(crate) fn resolve_into(
        &mut self,
        config: &SystemConfig,
        groups: &HashGroups,
        anchors: Option<&HashGroups>,
        hashed_range: &RangeSet,
        out: &mut Vec<(u32, Id)>,
    ) -> Option<Id> {
        self.mins.clear();
        let fused = groups.fused_groups();
        let Some(sketch) = anchors else {
            out.extend(fused.iter().map(|g| {
                let i = g.identifier(hashed_range);
                (i, self.place(config, i))
            }));
            return None;
        };
        let offsets = &mut self.offsets;
        let mut row = |i: u32| (i, Id(offsets.get(i, arc_offset)));
        if config.probes > 0 {
            let k = groups.k();
            self.mins.resize(fused.len() * k, 0);
            groups.mins_into(hashed_range, &mut self.mins);
            out.extend((self.mins.chunks(k)).map(|m| row(m.iter().fold(0, |acc, &x| acc ^ x))));
        } else {
            out.extend(fused.iter().map(|g| row(g.identifier(hashed_range))));
        }
        Some(self.arc(sketch, hashed_range))
    }

    /// The min-hashes [`Self::resolve_into`] last folded identifiers from,
    /// if it did.
    pub(crate) fn mins(&self) -> Option<&[u32]> {
        (!self.mins.is_empty()).then_some(&self.mins[..])
    }

    /// [`place_identifier`], through the table where it is a SHA-1.
    fn place(&mut self, config: &SystemConfig, identifier: u32) -> Id {
        if config.placement != Placement::Uniformized {
            return place_identifier(config, identifier);
        }
        (self.places).get(identifier, |i| place_identifier(config, i))
    }

    /// The arc base of `range`'s anchor under `sketch`.
    fn arc(&mut self, sketch: &HashGroups, range: &RangeSet) -> Id {
        self.arcs.get(anchor_of(sketch, range), arc_base)
    }
}

/// Memoized identifiers and placements, keyed by the (padded) hashed
/// range: the cache in the `HashStage` of [`crate::RangeSelectNetwork`]
/// and [`crate::ChurnNetwork`]. Identifiers depend only on the hash groups
/// and placements (positions, or in-arc offsets under layered placement)
/// only on the config, never on membership, so entries never
/// *invalidate*, under churn either.
///
/// A range is admitted on its second sighting (TinyLFU's doorkeeper): its
/// first miss records 32 bits of its Fx hash, its second stores the entry,
/// and it hits from its third on. A hash collision can only move an
/// admission by a sighting; entries are keyed by the exact range, so an
/// answer is never wrong. Entry `e` is row `e` of one arena of `l`-wide
/// `(identifier, placement)` rows, `CHUNK` rows a block, so growing it
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
/// identifiers and placements from the [`IdentifierCache`] on a hit,
/// through the [`PlacementMemo`] on a miss, counted in
/// `core.ident_cache.*`.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashStage {
    pub(crate) cache: IdentifierCache,
    memo: PlacementMemo,
    /// The entry number and width of the row last resolved.
    last: (usize, usize),
    /// The arc base of the range last resolved (layered placement).
    arc: Option<Id>,
}

/// What a hashed range resolves to, as [`targets`] reads it: everything
/// the range hashes to but the probe ladder's perturbed evaluations.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolved<'a> {
    /// Each identifier beside its ring position (independent placement)
    /// or its offset inside the range's arc (layered placement).
    pub(crate) placed: &'a [(u32, Id)],
    /// Layered placement: the base of the range's arc.
    pub(crate) arc: Option<Id>,
    /// The `l × k` base min-hashes the identifiers were folded from, when
    /// they were just hashed for the probe ladder; `None` makes the ladder
    /// hash them itself.
    pub(crate) mins: Option<&'a [u32]>,
}

impl HashStage {
    /// What `hashed_range` resolves to: its row (
    /// [`PlacementMemo::resolve_into`]'s), borrowed from the cache's arena,
    /// its arc base through the memo, and on a miss the min-hashes the
    /// row was folded from.
    pub(crate) fn resolve(
        &mut self,
        config: &SystemConfig,
        groups: &HashGroups,
        anchors: Option<&HashGroups>,
        telemetry: &Telemetry,
        hashed_range: &RangeSet,
    ) -> Resolved<'_> {
        let l = groups.fused_groups().len();
        let cache = &mut self.cache;
        let memo = &mut self.memo;
        let (entry, arc) = if let Some(&entry) = cache.map.get(hashed_range) {
            cache.hits += 1;
            telemetry.counter_add("core.ident_cache.hits", 1);
            memo.mins.clear();
            (entry as usize, anchors.map(|s| memo.arc(s, hashed_range)))
        } else {
            cache.misses += 1;
            telemetry.counter_add("core.ident_cache.misses", 1);
            let entry = cache.map.len();
            if entry / CHUNK == cache.rows.len() {
                cache.rows.push(Vec::with_capacity(CHUNK * l));
            }
            let block = &mut cache.rows[entry / CHUNK];
            block.truncate(entry % CHUNK * l);
            let arc = memo.resolve_into(config, groups, anchors, hashed_range, block);
            let hash = (FxBuildHasher::default().hash_one(hashed_range) >> 32) as u32;
            if !cache.seen.insert(hash) {
                cache.seen.remove(&hash);
                cache.map.insert(hashed_range.clone(), entry as u32);
                telemetry.gauge_set("core.ident_cache.size", cache.map.len() as u64);
            }
            (entry, arc)
        };
        self.last = (entry, l);
        self.arc = arc;
        self.resolved()
    }

    /// What [`Self::resolve`] last returned.
    pub(crate) fn resolved(&self) -> Resolved<'_> {
        Resolved {
            placed: self.placed(),
            arc: self.arc,
            mins: self.memo.mins(),
        }
    }

    /// The row [`Self::resolve`] last returned.
    pub(crate) fn placed(&self) -> &[(u32, Id)] {
        self.cache.row(self.last.0, self.last.1)
    }

    /// Where each copy a bucket of `identifier` holds sits, as a function
    /// of the copy's range, through the memo's tables. Under independent
    /// placement every copy sits at the identifier's own position, placed
    /// once for the whole bucket; under layered placement each range sits
    /// in its anchor's arc, at the identifier's offset, so a copy's
    /// position depends on the range it holds. The churn executor's repair
    /// sweeps and
    /// [`crate::RangeSelectNetwork::store_partition`] place through it, so
    /// copies land where [`targets`] sends the queries that look for them.
    pub(crate) fn placer<'a>(
        &'a mut self,
        config: &'a SystemConfig,
        anchors: Option<&'a HashGroups>,
        identifier: u32,
    ) -> impl FnMut(&RangeSet) -> Id + 'a {
        let memo = &mut self.memo;
        let at = match anchors {
            None => memo.place(config, identifier),
            Some(_) => Id(memo.offsets.get(identifier, arc_offset)),
        };
        move |range| match anchors {
            None => at,
            Some(sketch) => Id(memo.arc(sketch, range).0 | at.0),
        }
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

/// Decide where the query for `hashed_range`, resolved to `resolved`,
/// must look. Pure, and it hashes nothing but the probe ladder's perturbed
/// ranges: it reads no ring and no peer, so a transport whose routing
/// fails or takes time shares it with the one whose routing is a function
/// call.
pub(crate) fn targets(
    config: &SystemConfig,
    groups: &HashGroups,
    hashed_range: &RangeSet,
    resolved: Resolved<'_>,
) -> Targets {
    let Resolved { placed, arc, mins } = resolved;
    let mut candidates: Vec<u32> = Vec::with_capacity(placed.len() + config.probes);
    let mut stores: Vec<(u32, Id)> = Vec::with_capacity(placed.len());
    for &(ident, at) in placed {
        if !candidates.contains(&ident) {
            candidates.push(ident);
            // A layered row holds the offset inside the range's arc.
            stores.push((ident, arc.map_or(at, |base| Id(base.0 | at.0))));
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
        for c in groups.probe_candidates_from(hashed_range, mins, config.probes) {
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
    use ars_chord::layered_position;

    /// `PlacementMemo::resolve_into` without the memo: every identifier
    /// placed by SHA-1, or beside its SHA-1 in-arc offset under layered
    /// placement — the oracle the memo and the cache are held to.
    pub(crate) fn resolve(
        config: &SystemConfig,
        groups: &HashGroups,
        anchors: Option<&HashGroups>,
        hashed_range: &RangeSet,
    ) -> Vec<(u32, Id)> {
        let at = |i| match anchors {
            None => place_identifier(config, i),
            Some(_) => Id(arc_offset(i)),
        };
        let identifiers = groups.identifiers(hashed_range);
        identifiers.into_iter().map(|i| (i, at(i))).collect()
    }

    /// Ring position of the copy of `range` stored under `identifier`,
    /// without the memo: the identifier's own position under independent
    /// placement, its offset inside the arc of `range`'s anchor under
    /// layered placement — a stored copy's position depends on the range
    /// it holds, not on the identifier alone. The oracle of every
    /// placement [`HashStage::placer`] and [`targets`] make.
    pub(crate) fn position(
        config: &SystemConfig,
        anchors: Option<&HashGroups>,
        identifier: u32,
        range: &RangeSet,
    ) -> Id {
        match anchors {
            None => place_identifier(config, identifier),
            Some(sketch) => layered_position(sketch.identifiers(range)[0], identifier),
        }
    }

    /// The distinct anchors of the ranges `entries` hold, after checking
    /// that each copy sits in the `replication`-peer window from the owner
    /// of its unmemoised position on `ring`.
    pub(crate) fn check_layered_copies(
        config: &SystemConfig,
        ring: &ars_chord::Ring,
        entries: impl Iterator<Item = (Id, u32, RangeSet)>,
    ) -> usize {
        let sketch = anchor_sketch(config).expect("layered");
        let mut anchors = std::collections::BTreeSet::new();
        for (holder, ident, range) in entries {
            let at = position(config, Some(&sketch), ident, &range);
            let window = ring.successors_window(ring.successor_of(at), config.replication);
            assert!(window.contains(&holder), "{ident} {range} at {holder}");
            anchors.insert(sketch.identifiers(&range)[0]);
        }
        anchors.len()
    }

    /// Every range `cache` admitted, beside its `l`-wide row.
    pub(crate) fn entries(
        cache: &IdentifierCache,
        l: usize,
    ) -> impl Iterator<Item = (&RangeSet, &[(u32, Id)])> {
        (cache.map.iter()).map(move |(range, &entry)| (range, cache.row(entry as usize, l)))
    }

    /// The three configs the stage serves: independent placement, and
    /// layered placement without probes and with them.
    fn configs() -> [SystemConfig; 3] {
        let independent = SystemConfig::default();
        let layered = (independent.clone()).with_placement_mode(PlacementMode::Layered);
        [independent, layered.clone(), layered.with_probes(16)]
    }

    /// `count` ranges of width up to 400 over `domain`; wide enough a
    /// domain, and nearly all differ.
    pub(crate) fn pool(rng: &mut DetRng, count: usize, domain: usize) -> Vec<RangeSet> {
        (0..count)
            .map(|_| {
                let lo = rng.gen_index(domain) as u32;
                RangeSet::interval(lo, lo + rng.gen_index(400) as u32)
            })
            .collect()
    }

    #[test]
    fn every_row_the_stage_lends_equals_a_fresh_resolve() {
        let mut rng = DetRng::new(53);
        let pool = pool(&mut rng, 600, 20_000);
        for config in configs() {
            let groups = HashGroups::generate(config.family, config.k, config.l, &mut rng);
            let anchors = anchor_sketch(&config);
            let mut stage = HashStage::default();
            for _ in 0..4_000 {
                let range = &pool[rng.gen_index(pool.len())];
                let hits = stage.cache.hits();
                let telemetry = Telemetry::noop();
                let resolved = stage.resolve(&config, &groups, anchors.as_ref(), &telemetry, range);
                let (placed, arc) = (resolved.placed.to_vec(), resolved.arc);
                let mins = resolved.mins.map(<[u32]>::to_vec);
                assert_eq!(placed, resolve(&config, &groups, anchors.as_ref(), range));
                assert_eq!(stage.placed(), placed);
                let anchor = anchors.as_ref().map(|s| s.identifiers(range)[0]);
                assert_eq!(arc, anchor.map(arc_base));
                let hit = stage.cache.hits() > hits;
                // A miss under layered placement with probes lends the
                // min-hashes its identifiers were folded from; a hit and
                // every other miss lend none.
                if hit || config.probes == 0 || anchors.is_none() {
                    assert_eq!(mins, None);
                } else {
                    let mut want = vec![0u32; config.l * config.k];
                    groups.mins_into(range, &mut want);
                    assert_eq!(mins, Some(want));
                }
                // A hit's row is the one admitted, whatever came since.
                if hit {
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

    /// `count` keys that `Table<_, BITS>` puts in the slot of key 0, 0
    /// among them: each evicts the last.
    fn crowd<const BITS: u32>(count: usize) -> Vec<u32> {
        let slot = Table::<u32, BITS>::slot;
        let crowd: Vec<u32> = (0..).filter(|&i| slot(i) == slot(0)).take(count).collect();
        assert_eq!(crowd[0], 0);
        crowd
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
        let crowd = crowd::<PLACE_BITS>(40);
        for &ident in crowd.iter().chain(crowd.iter().rev()) {
            for _ in 0..2 {
                assert_eq!(memo.place(&config, ident), place_identifier(&config, ident));
            }
        }
        assert!(memo
            .places
            .0
            .iter()
            .all(|&(i, at)| at == place_identifier(&config, i)));
        // Direct placement never reads the table.
        let direct = config.clone().with_placement(Placement::Direct);
        assert_eq!(memo.place(&direct, 77), Id(77));
        // Through `resolve_into`, under every placement the stage serves.
        let mut rng = DetRng::new(3);
        let groups = HashGroups::generate(config.family, config.k, config.l, &mut rng);
        for config in configs() {
            let anchors = anchor_sketch(&config);
            for lo in (0..5_000).step_by(97) {
                let range = RangeSet::interval(lo, lo + 300);
                let mut placed = Vec::new();
                let arc =
                    memo.resolve_into(&config, &groups, anchors.as_ref(), &range, &mut placed);
                assert_eq!(
                    *placed,
                    *resolve(&config, &groups, anchors.as_ref(), &range)
                );
                let anchor = anchors.as_ref().map(|s| s.identifiers(&range)[0]);
                assert_eq!(arc, anchor.map(arc_base));
            }
        }
    }

    #[test]
    fn layered_tables_equal_their_sha1s_through_evictions() {
        let mut memo = PlacementMemo::default();
        let mut rng = DetRng::new(55);
        let words: Vec<u32> = (0..20_000).map(|_| rng.next_u32()).collect();
        // Random keys twice over, then runs forced into one slot of each
        // table, forwards and back, each asked twice.
        let offsets = crowd::<OFFSET_BITS>(40);
        let arcs = crowd::<ARC_BITS>(40);
        for (keys, table) in [(&offsets, 0), (&arcs, 1)] {
            let keys = (words.iter().chain(&words)).chain(keys.iter().chain(keys.iter().rev()));
            for &key in keys {
                for _ in 0..2 {
                    if table == 0 {
                        assert_eq!(memo.offsets.get(key, arc_offset), arc_offset(key));
                    } else {
                        assert_eq!(memo.arcs.get(key, arc_base), arc_base(key));
                    }
                }
            }
        }
        assert!(memo.offsets.0.iter().all(|&(i, o)| o == arc_offset(i)));
        assert!(memo.arcs.0.iter().all(|&(a, base)| base == arc_base(a)));
        // Repair's placer, bucket by bucket, against the oracle: enough
        // identifiers and anchors that both tables evict.
        let config = SystemConfig::default().with_placement_mode(PlacementMode::Layered);
        let sketch = anchor_sketch(&config);
        let ranges = pool(&mut rng, 3_000, 1 << 24);
        let mut stage = HashStage::default();
        let idents: Vec<u32> = (0..6_000).map(|_| rng.next_u32()).collect();
        for ident in idents.into_iter().chain(offsets) {
            let mut place = stage.placer(&config, sketch.as_ref(), ident);
            for range in (0..2).map(|_| &ranges[rng.gen_index(ranges.len())]) {
                let want = position(&config, sketch.as_ref(), ident, range);
                assert_eq!(place(range), want, "{ident} {range}");
            }
        }
    }

    #[test]
    fn layered_targets_equal_the_oracle_through_the_stage_and_the_bare_memo() {
        // The static and churn executors plan from the stage, the message
        // executor from a bare memo: both must give the positions and the
        // candidates the unmemoised hashes give, across evictions (3 000
        // ranges: more anchors than the arc table holds, more identifiers
        // than the offset table does) and identifier-cache hits.
        let mut rng = DetRng::new(8);
        let ranges = pool(&mut rng, 3_000, 1 << 24);
        let [_, layered, probed] = configs();
        for config in [layered, probed] {
            let groups = HashGroups::generate(config.family, config.k, config.l, &mut rng);
            let anchors = anchor_sketch(&config);
            let sketch = anchors.as_ref().expect("layered");
            let (mut stage, mut memo) = (HashStage::default(), PlacementMemo::default());
            for _ in 0..6_000 {
                let range = &ranges[rng.gen_index(ranges.len())];
                let anchor = sketch.identifiers(range)[0];
                let idents = groups.identifiers(range);
                let mut candidates = idents.clone();
                candidates.dedup();
                if config.probes > 0 {
                    for c in groups.probe_candidates(range, config.probes) {
                        if !candidates.contains(&c.identifier) {
                            candidates.push(c.identifier);
                        }
                    }
                }
                let telemetry = Telemetry::noop();
                let staged = stage.resolve(&config, &groups, anchors.as_ref(), &telemetry, range);
                let from_stage = targets(&config, &groups, range, staged);
                let mut placed = Vec::new();
                let arc = memo.resolve_into(&config, &groups, anchors.as_ref(), range, &mut placed);
                let mins = memo.mins();
                let from_memo = targets(
                    &config,
                    &groups,
                    range,
                    Resolved {
                        placed: &placed,
                        arc,
                        mins,
                    },
                );
                for t in [from_stage, from_memo] {
                    assert_eq!(t.keys.len(), 1);
                    assert_eq!(t.keys[0].position, arc_base(anchor));
                    for &(ident, at) in &t.stores {
                        assert_eq!(at, layered_position(anchor, ident), "{ident} {range}");
                    }
                    assert_eq!(t.stores.len(), t.keys[0].stores.len());
                    assert_eq!(t.candidates, candidates, "{range}");
                }
            }
            assert!(stage.cache.hits() > 0, "the ranges repeat");
        }
    }
}
