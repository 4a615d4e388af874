//! The paper's system, end to end: hash → route → match → cache.
//!
//! [`RangeSelectNetwork`] wires the pieces together exactly as §4
//! describes. It is a *direct-call* simulation, the static executor of
//! the shared query plan (`plan.rs`): Chord routing is computed (with full
//! hop accounting) but replies do not traverse a message queue — see
//! [`crate::proto`] for the message-passing executor, which an integration
//! test holds equal to this one, and [`crate::ChurnNetwork`] for the one whose
//! routing can fail.

use crate::config::SystemConfig;
use crate::peer::Peer;
use crate::plan::{
    anchor_sketch, hashed_range, identifiers_of, place_identifier, targets, verdict, HashStage,
    Resolved, Targets, Transport,
};
use ars_chord::{Id, Ring};
use ars_common::{DetRng, FxHashMap};
use ars_lsh::{HashGroups, RangeSet};
use ars_telemetry::Telemetry;

pub use crate::plan::IdentifierCache;

/// The result of one range query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The original (unpadded) query range.
    pub query: RangeSet,
    /// The best-matching cached partition across the `l` replies, if any
    /// contacted bucket was non-empty.
    pub best_match: Option<RangeSet>,
    /// Jaccard similarity of `query` and the match (0 when none) — the
    /// x-axis of Figs. 6–7.
    pub similarity: f64,
    /// Recall `|Q∩R| / |Q|` of the match for the original query (0 when
    /// none) — the x-axis of Figs. 8–10.
    pub recall: f64,
    /// True if the match equals the (padded) hashed range exactly.
    pub exact: bool,
    /// True if this query's partition was newly cached at the identifier
    /// owners.
    pub stored: bool,
    /// Overlay hops of each routed lookup: one entry per *distinct*
    /// identifier under independent placement (duplicate identifiers
    /// within a query are deduplicated before routing), a single entry —
    /// the one arc lookup — under layered placement.
    pub hops: Vec<usize>,
    /// The `l` identifiers (diagnostics; shared identifiers across similar
    /// queries are the whole mechanism).
    pub identifiers: Vec<u32>,
    /// Number of distinct peers contacted.
    pub peers_contacted: usize,
    /// Total lookup attempts spent on this query, retries included. Equals
    /// the number of *distinct* identifiers on a healthy network under
    /// independent placement (duplicates are deduplicated before routing),
    /// `1` under layered placement (the single arc lookup); larger when
    /// the resilient query path
    /// ([`crate::ChurnNetwork::query_resilient`]) had to route around
    /// failures.
    pub attempts: usize,
    /// True if no identifier owner could be reached at all and the query
    /// degraded to fetching directly from the source relations — the
    /// paper's soft-state escape hatch, surfaced instead of an error.
    pub fell_back_to_source: bool,
    /// True if the query ran while the network was partitioned and at
    /// least one identifier's *global* owner was unreachable from the
    /// origin's island — the answer came from island-local replicas (or
    /// the source), so it may be stale until the partition heals and
    /// reconciliation runs. Only the partition-aware resilient path
    /// ([`crate::ChurnNetwork::query_resilient`]) sets this; every other
    /// query path reports `false`.
    pub partition_degraded: bool,
}

/// Wall-clock seconds each stage of a [`RangeSelectNetwork::query_batch`]
/// call spent. The three stages are the three calls every static query
/// makes — hash, plan, commit — run as three loops over the batch, so
/// the split says where a query's time goes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchTimings {
    /// Stage 1: padding, identifier hashing and identifier-cache accounting.
    pub hash_secs: f64,
    /// Stage 2: origin draw and planning (routing, walk and candidate
    /// sets) against the immutable ring.
    pub route_secs: f64,
    /// Stage 3: commit — matching, caching, stats, telemetry.
    pub commit_secs: f64,
}

/// Aggregate statistics over a network's lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    /// Queries executed.
    pub queries: u64,
    /// Queries that found some match.
    pub matched: u64,
    /// Queries whose match was exact.
    pub exact: u64,
    /// Queries that stored their partition.
    pub stored: u64,
    /// Total identifier lookups routed.
    pub lookups: u64,
    /// Total overlay hops across all lookups.
    pub total_hops: u64,
    /// Lookups *not* routed because the identifier repeated within a
    /// single query (two groups hashing a range to the same bucket) —
    /// each one a saved message.
    pub dedup_saved_lookups: u64,
    /// Successor-walk steps taken by layered-placement queries (one
    /// overlay message each; always zero under independent placement).
    pub walk_steps: u64,
    /// Multi-probe candidate buckets checked at already-visited peers
    /// (local work, not messages; always zero under independent
    /// placement).
    pub probe_checks: u64,
}

/// Everything a query's commit needs that can be worked out without
/// touching mutable state — plain data: the query's [`Targets`] routed on
/// the immutable ring by [`plan_query`], applied by the placement-blind
/// [`commit_plan`]. Because planning reads nothing a commit writes, a
/// caller may plan a whole batch before committing any of it and still
/// land on the outcomes of the interleaved one-at-a-time loop.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    /// `(owner, hops)` of every lookup paid, one per [`Targets::keys`]
    /// entry.
    lookups: Vec<(Id, usize)>,
    /// The bucket identifiers the visits index into
    /// ([`Targets::candidates`]).
    candidates: Vec<u32>,
    /// The reads, in the order the commit folds them: each key's owner,
    /// then the successors its walk continues to, checking the buckets
    /// `candidates[range]`.
    visits: Vec<(Id, std::ops::Range<usize>)>,
    /// Cache-on-miss writes: each distinct base identifier and every peer
    /// that holds one of its copies ([`Targets::stores`]).
    store_targets: Vec<(u32, Id)>,
    /// Candidates checked past the distinct base identifiers.
    probe_checks: usize,
    /// Lookups not paid because an identifier repeated within the query.
    dedup_saved: usize,
}

/// The static executor of a query's [`Targets`], from the peer of rank
/// `origin`: route every key with [`Ring::lookup_from`], continue each
/// walk over [`Ring::successors_window`], and resolve every store position
/// to its owner and the `copies − 1` peers after it. Pure — the ring is
/// immutable — and the only place the static paths route.
pub(crate) fn plan_query(ring: &Ring, origin: usize, targets: Targets) -> QueryPlan {
    let Targets {
        candidates,
        keys,
        stores: mut store_targets,
        copies,
        dedup_saved,
    } = targets;
    let lookups: Vec<(Id, usize)> = (keys.iter())
        .map(|key| ring.lookup_from(origin, key.position))
        .collect();
    let mut visits = Vec::with_capacity(keys.iter().map(|key| key.walk).sum());
    for (key, &(owner, _)) in keys.iter().zip(&lookups) {
        visits.push((owner, key.reads.clone()));
        if key.walk > 1 {
            let walked = ring.successors_window(owner, key.walk);
            visits.extend(walked[1..].iter().map(|&peer| (peer, key.reads.clone())));
        }
        for (_, position) in &mut store_targets[key.stores.clone()] {
            // A copy placed at the key itself needs no second resolution.
            *position = if *position == key.position {
                owner
            } else {
                ring.successor_of(*position)
            };
        }
    }
    let probe_checks = candidates.len() - store_targets.len();
    if copies > 1 {
        store_targets = (store_targets.iter())
            .flat_map(|&(ident, owner)| {
                let holders = ring.successors_window(owner, copies);
                holders.into_iter().map(move |peer| (ident, peer))
            })
            .collect();
    }
    QueryPlan {
        lookups,
        candidates,
        visits,
        store_targets,
        probe_checks,
        dedup_saved,
    }
}

/// Apply a [`QueryPlan`] — the one commit of the static paths: book the
/// plan's lookups, read its visits in order into the shared [`verdict`],
/// cache on miss at its store targets, record stats and telemetry, build
/// the outcome. It touches no peer the plan does not visit or store at.
///
/// `emit_span` gates the per-query `core.query` span: [`RangeSelectNetwork::query`]
/// and `query_batch` emit it (trace tests pin the event order), the batch
/// call of [`crate::engine`] does not (it emits one span per batch).
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_plan(
    config: &SystemConfig,
    telemetry: &Telemetry,
    peers: &mut FxHashMap<u32, Peer>,
    stats: &mut NetworkStats,
    q: &RangeSet,
    hashed_range: RangeSet,
    identifiers: Vec<u32>,
    plan: QueryPlan,
    emit_span: bool,
) -> QueryOutcome {
    let span = emit_span.then(|| telemetry.span("core.query", &[("l", identifiers.len().into())]));

    for &(_, h) in &plan.lookups {
        stats.lookups += 1;
        stats.total_hops += h as u64;
        telemetry.record("core.lookup.hops", h as u64);
    }
    if plan.dedup_saved > 0 {
        stats.dedup_saved_lookups += plan.dedup_saved as u64;
        telemetry.counter_add("core.dedup.saved_lookups", plan.dedup_saved as u64);
    }
    // Every visit past a lookup's owner is a walk message; every candidate
    // past the stored base identifiers is a probe, checked locally.
    let walk_steps = plan.visits.len() - plan.lookups.len();
    if walk_steps > 0 {
        stats.walk_steps += walk_steps as u64;
        telemetry.counter_add("core.walk.steps", walk_steps as u64);
    }
    if plan.probe_checks > 0 {
        stats.probe_checks += plan.probe_checks as u64;
        telemetry.counter_add("core.probe.checks", plan.probe_checks as u64);
    }

    // A planned peer without storage state (impossible on a static ring,
    // but reachable when a snapshot outlives a departure) is skipped
    // rather than panicking; the outcome records whether *any* was reached.
    let mut reached = 0usize;
    let mut reads = plan.visits.iter().filter_map(|(peer_id, buckets)| {
        let peer = peers.get(&peer_id.0)?;
        reached += 1;
        let buckets = &plan.candidates[buckets.clone()];
        let (best, scan_len) = peer.best_in_buckets(buckets, &hashed_range, config.matching);
        telemetry.record("core.bucket.scan_len", scan_len as u64);
        Some(best)
    });
    let verdict = verdict(&hashed_range, &mut reads);

    // Cache on miss: store the (padded) partition at every copy's holder,
    // so later similar queries find it where planning will look.
    let mut stored = false;
    if verdict.store {
        for &(ident, owner) in &plan.store_targets {
            if let Some(peer) = peers.get_mut(&owner.0) {
                stored |= peer.store(ident, hashed_range.clone());
            }
        }
    }

    let visited = |i: usize| plan.visits[i].0;
    let contacted = (0..plan.visits.len()).filter(|&i| !(0..i).any(|j| visited(j) == visited(i)));
    let transport = Transport {
        hops: plan.lookups.iter().map(|&(_, h)| h).collect(),
        attempts: plan.lookups.len(),
        peers_contacted: contacted.count(),
        fell_back_to_source: reached == 0,
        partition_degraded: false,
    };
    let out = verdict.finish(q, identifiers, stored, transport);
    stats.queries += 1;
    stats.matched += out.best_match.is_some() as u64;
    stats.exact += out.exact as u64;
    stats.stored += out.stored as u64;

    telemetry.counter_add("core.queries", 1);
    if out.best_match.is_some() {
        // ×1000 fixed point: histograms store u64.
        telemetry.record("core.query.jaccard", (out.similarity * 1000.0) as u64);
        telemetry.record("core.query.recall", (out.recall * 1000.0) as u64);
    }
    if let Some(span) = span {
        telemetry.span_end(
            span,
            &[
                ("matched", out.best_match.is_some().into()),
                ("exact", out.exact.into()),
                ("stored", out.stored.into()),
                ("similarity", out.similarity.into()),
                ("recall", out.recall.into()),
                ("fallback", out.fell_back_to_source.into()),
            ],
        );
    }
    out
}

/// The full simulated system.
#[derive(Debug, Clone)]
pub struct RangeSelectNetwork {
    pub(crate) config: SystemConfig,
    pub(crate) ring: Ring,
    pub(crate) peers: FxHashMap<u32, Peer>,
    pub(crate) groups: HashGroups,
    /// The anchor sketch layered placement keys arcs with; `None` under
    /// independent placement ([`anchor_sketch`]). Drawn from a *salted*
    /// RNG, fully decoupled from `rng`/`groups`, so the default
    /// independent paths consume exactly the pre-layered random sequences
    /// (pinned by the placement goldens).
    pub(crate) anchors: Option<HashGroups>,
    pub(crate) rng: DetRng,
    pub(crate) stats: NetworkStats,
    /// The identifier cache and the placement memo behind it.
    pub(crate) hash: HashStage,
    pub(crate) telemetry: Telemetry,
}

impl RangeSelectNetwork {
    /// Build a network of `n_peers` (ids seeded from the config seed) with
    /// freshly drawn hash groups. The system starts with no cached
    /// partitions, as in §5.
    pub fn new(n_peers: usize, config: SystemConfig) -> RangeSelectNetwork {
        let mut rng = DetRng::new(config.seed);
        let mut group_rng = rng.fork();
        let ring_seed = rng.next_u64();
        let ring = Ring::from_seed(n_peers, ring_seed);
        let groups = HashGroups::generate(config.family, config.k, config.l, &mut group_rng);
        let peers = ring
            .node_ids()
            .iter()
            .map(|&id| (id.0, Peer::new(id, config.use_local_index)))
            .collect();
        Self::from_parts(config, ring, peers, groups, rng)
    }

    /// Assemble a network from pre-existing parts — used by [`Self::new`]
    /// and by [`crate::ChurnNetwork::freeze`] to wrap a ring snapshot and
    /// cloned storage into a static network.
    /// Stats and the identifier cache start empty; telemetry starts as a
    /// no-op (install one with [`Self::set_telemetry`]).
    pub(crate) fn from_parts(
        config: SystemConfig,
        ring: Ring,
        peers: FxHashMap<u32, Peer>,
        groups: HashGroups,
        rng: DetRng,
    ) -> RangeSelectNetwork {
        let anchors = anchor_sketch(&config);
        RangeSelectNetwork {
            config,
            ring,
            peers,
            groups,
            anchors,
            rng,
            stats: NetworkStats::default(),
            hash: HashStage::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Install a telemetry sink. Queries emit `core.*` counters
    /// (`core.queries`, `core.ident_cache.hits`/`.misses`), histograms
    /// (`core.lookup.hops`, `core.bucket.scan_len`, `core.query.jaccard`,
    /// `core.query.recall` — the latter two ×1000 fixed point), and one
    /// `core.query` event per query.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if the network has no peers (cannot be constructed).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The underlying Chord ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The hash groups (shared by all peers — the global schema of §2
    /// includes the hash functions).
    pub fn groups(&self) -> &HashGroups {
        &self.groups
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Ring position of a partition identifier under the configured
    /// placement policy.
    pub fn place(&self, identifier: u32) -> Id {
        place_identifier(&self.config, identifier)
    }

    /// A peer's storage state.
    pub fn peer(&self, id: Id) -> Option<&Peer> {
        self.peers.get(&id.0)
    }

    /// Partition counts per peer, ring order (Fig. 11's metric).
    pub fn load_distribution(&self) -> Vec<usize> {
        self.ring
            .node_ids()
            .iter()
            .map(|id| self.peers[&id.0].partition_count())
            .collect()
    }

    /// Total partitions stored across all peers.
    pub fn total_partitions(&self) -> usize {
        self.peers.values().map(Peer::partition_count).sum()
    }

    /// Execute one range query through the full §4 procedure.
    pub fn query(&mut self, q: &RangeSet) -> QueryOutcome {
        let hashed_range = self.hash_stage(q);
        let origin = self.rng.gen_index(self.ring.len());
        let plan = self.plan_from(origin, &hashed_range, self.hash.resolved());
        let identifiers = identifiers_of(self.hash.placed());
        self.commit_stage(q, hashed_range, identifiers, plan, true)
    }

    /// Stage 1 of a query: pad, then resolve the group identifiers and
    /// their placements through the [`HashStage`], whose `resolved()`
    /// lends them out until the next query hashes.
    pub(crate) fn hash_stage(&mut self, q: &RangeSet) -> RangeSet {
        let hashed_range = hashed_range(q, self.config.padding);
        let (config, groups, anchors) = (&self.config, &self.groups, self.anchors.as_ref());
        (self.hash).resolve(config, groups, anchors, &self.telemetry, &hashed_range);
        hashed_range
    }

    /// Stage 2 of a batched query: draw the rank of the random origin peer
    /// routing starts from (hop accounting) — the one RNG draw a query
    /// makes, which [`Self::query`] makes inline beside the row it borrows
    /// — and plan from it.
    fn plan_stage(&mut self, hashed_range: &RangeSet, resolved: Resolved<'_>) -> QueryPlan {
        let origin = self.rng.gen_index(self.ring.len());
        self.plan_from(origin, hashed_range, resolved)
    }

    /// Plan a hashed range from the peer of rank `origin`.
    pub(crate) fn plan_from(
        &self,
        origin: usize,
        hashed_range: &RangeSet,
        resolved: Resolved<'_>,
    ) -> QueryPlan {
        let targets = targets(&self.config, &self.groups, hashed_range, resolved);
        plan_query(&self.ring, origin, targets)
    }

    /// Stage 3 of a query: apply the plan to the peers and the stats
    /// ([`commit_plan`], which `emit_span` is handed to).
    pub(crate) fn commit_stage(
        &mut self,
        q: &RangeSet,
        hashed_range: RangeSet,
        identifiers: Vec<u32>,
        plan: QueryPlan,
        emit_span: bool,
    ) -> QueryOutcome {
        commit_plan(
            &self.config,
            &self.telemetry,
            &mut self.peers,
            &mut self.stats,
            q,
            hashed_range,
            identifiers,
            plan,
            emit_span,
        )
    }

    /// Run a whole trace, returning per-query outcomes.
    pub fn run_trace<'a, I: IntoIterator<Item = &'a RangeSet>>(
        &mut self,
        queries: I,
    ) -> Vec<QueryOutcome> {
        queries.into_iter().map(|q| self.query(q)).collect()
    }

    /// Identifier-cache statistics (hits, misses, distinct entries).
    pub fn identifier_cache(&self) -> &IdentifierCache {
        &self.hash.cache
    }

    /// Execute a slice of queries stage by stage: hash them all, plan them
    /// all, commit them all, each in trace order on the calling thread.
    ///
    /// Outcomes, statistics, and cache contents are bit-identical to
    /// calling [`Self::query`] in a loop (asserted in tests): the stages
    /// are the same three calls [`Self::query`] makes, the
    /// identifier cache is only touched by the first, the RNG only by the
    /// second, peers and stats only by the third — so running them as
    /// three loops reorders nothing any stage can observe.
    pub fn query_batch(&mut self, queries: &[RangeSet]) -> Vec<QueryOutcome> {
        self.query_batch_timed(queries).0
    }

    /// [`Self::query_batch`] with per-stage wall-clock timings — the
    /// throughput bench uses this to report where a batch's time goes
    /// (hash / route / commit) instead of a single opaque number.
    pub fn query_batch_timed(&mut self, queries: &[RangeSet]) -> (Vec<QueryOutcome>, BatchTimings) {
        let t0 = std::time::Instant::now();
        // Each row and arc base is copied out; the min-hashes the stage
        // lends are the last query's only, so the ladder hashes its own.
        let hashed: Vec<_> = (queries.iter())
            .map(|q| {
                let hashed_range = self.hash_stage(q);
                let resolved = self.hash.resolved();
                (hashed_range, resolved.placed.to_vec(), resolved.arc)
            })
            .collect();
        let t1 = std::time::Instant::now();
        let plans: Vec<QueryPlan> = hashed
            .iter()
            .map(|(hashed_range, placed, arc)| {
                let (arc, mins) = (*arc, None);
                self.plan_stage(hashed_range, Resolved { placed, arc, mins })
            })
            .collect();
        let t2 = std::time::Instant::now();
        let outcomes = queries
            .iter()
            .zip(hashed)
            .zip(plans)
            .map(|((q, (hashed_range, placed, _)), plan)| {
                self.commit_stage(q, hashed_range, identifiers_of(&placed), plan, true)
            })
            .collect();
        let timings = BatchTimings {
            hash_secs: (t1 - t0).as_secs_f64(),
            route_secs: (t2 - t1).as_secs_f64(),
            commit_secs: t2.elapsed().as_secs_f64(),
        };
        (outcomes, timings)
    }

    /// Store a partition range directly (bypassing the query path) — used
    /// by the load-balance experiments, which populate the table without
    /// measuring match quality. Each identifier's copies go where a query
    /// caches them ([`SystemConfig::replication`] peers from the owner on).
    /// Returns the number of copies placed (a holder without storage state
    /// is skipped, never a panic).
    pub fn store_partition(&mut self, range: &RangeSet) -> usize {
        let mut placed = 0;
        for ident in self.groups.identifiers(range) {
            let pos = (self.hash).placer(&self.config, self.anchors.as_ref(), ident)(range);
            let owner = self.ring.successor_of(pos);
            for holder in self
                .ring
                .successors_window(owner, self.config.replication.max(1))
            {
                if let Some(peer) = self.peers.get_mut(&holder.0) {
                    placed += peer.store(ident, range.clone()) as usize;
                }
            }
        }
        placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MatchMeasure, PlacementMode};
    use crate::plan::tests::{check_layered_copies, entries, pool, position, resolve};
    use ars_lsh::LshFamilyKind;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    fn net(n: usize) -> RangeSelectNetwork {
        RangeSelectNetwork::new(n, SystemConfig::default().with_seed(99))
    }

    #[test]
    fn first_query_misses_and_caches() {
        let mut n = net(50);
        let out = n.query(&r(30, 50));
        assert!(out.best_match.is_none());
        assert_eq!(out.similarity, 0.0);
        assert_eq!(out.recall, 0.0);
        assert!(!out.exact);
        assert!(out.stored);
        assert_eq!(out.hops.len(), 5);
        assert_eq!(out.identifiers.len(), 5);
        assert!(out.peers_contacted >= 1 && out.peers_contacted <= 5);
        assert_eq!(out.attempts, 5, "one attempt per identifier, no retries");
        assert!(!out.fell_back_to_source);
        assert!(n.total_partitions() >= 1);
    }

    #[test]
    fn identical_requery_is_exact() {
        let mut n = net(50);
        n.query(&r(30, 50));
        let out = n.query(&r(30, 50));
        assert!(out.exact);
        assert_eq!(out.recall, 1.0);
        assert_eq!(out.similarity, 1.0);
        assert_eq!(out.best_match, Some(r(30, 50)));
        // Exact hit: nothing new stored.
        assert!(!out.stored);
    }

    #[test]
    fn similar_query_usually_finds_neighbor() {
        // [30,50] cached; [30,49] has J ≈ 0.95 — with k=20, l=5 the match
        // probability is ~0.98 per the amplification curve. Use several
        // independent networks to avoid flakiness.
        let mut hits = 0;
        for seed in 0..10 {
            let mut n = RangeSelectNetwork::new(50, SystemConfig::default().with_seed(seed));
            n.query(&r(30, 50));
            let out = n.query(&r(30, 49));
            if out.best_match == Some(r(30, 50)) {
                hits += 1;
            }
        }
        assert!(hits >= 7, "only {hits}/10 near-identical queries matched");
    }

    #[test]
    fn dissimilar_query_does_not_match() {
        let mut n = net(50);
        n.query(&r(0, 20));
        let out = n.query(&r(500, 600));
        assert!(out.best_match.is_none() || out.similarity == 0.0);
    }

    #[test]
    fn padding_stores_padded_range() {
        let mut n =
            RangeSelectNetwork::new(30, SystemConfig::default().with_padding(0.2).with_seed(5));
        // [100,199] padded 20% → [80,219].
        n.query(&r(100, 199));
        let padded = r(80, 219);
        let found = n
            .ring()
            .node_ids()
            .iter()
            .any(|id| n.peer(*id).unwrap().contains_range(&padded));
        assert!(found, "padded partition not stored anywhere");
    }

    #[test]
    fn padded_requery_recall_exceeds_query() {
        // A query contained in a previously-padded partition gets full
        // recall even though it is not identical.
        let mut n = RangeSelectNetwork::new(
            30,
            SystemConfig::default()
                .with_padding(0.2)
                .with_matching(MatchMeasure::Containment)
                .with_seed(11),
        );
        n.query(&r(100, 199)); // stores [80, 219]
        let out = n.query(&r(100, 199));
        assert_eq!(out.recall, 1.0);
    }

    #[test]
    fn local_index_finds_matches_plain_bucket_misses() {
        // Store under one identifier set; query with a range similar enough
        // to land on the same *peer* in a tiny network but under different
        // identifiers. With few peers, every identifier maps to one of few
        // peers, so a §5.3 read sees everything stored there.
        let config = SystemConfig::default().with_seed(3);
        let mut plain = RangeSelectNetwork::new(2, config.clone());
        let mut indexed = RangeSelectNetwork::new(2, config.with_local_index(true));
        for n in [&mut plain, &mut indexed] {
            n.query(&r(200, 300));
        }
        let q = r(190, 310); // similar but likely different identifiers
        let out_plain = plain.query(&q);
        let out_indexed = indexed.query(&q);
        assert!(out_indexed.recall >= out_plain.recall);
        // With 2 peers the indexed system must at least see the partition.
        assert!(out_indexed.best_match.is_some());
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(20);
        n.query(&r(0, 10));
        n.query(&r(0, 10));
        let s = n.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.exact, 1);
        // r(0,10) is narrow enough that all 5 groups hash it to one
        // identifier — the within-query dedup routes it once and books
        // the other 4 as saved lookups.
        assert_eq!(s.lookups, 2);
        assert_eq!(s.dedup_saved_lookups, 8);
        assert!(s.matched >= 1);
    }

    #[test]
    fn wide_query_still_routes_five_lookups() {
        let mut n = net(20);
        let out = n.query(&r(30, 50));
        assert_eq!(out.hops.len(), 5, "distinct identifiers all routed");
        assert_eq!(n.stats().lookups, 5);
        assert_eq!(n.stats().dedup_saved_lookups, 0);
    }

    #[test]
    fn store_partition_places_l_copies() {
        let mut n = net(100);
        n.store_partition(&r(5, 25));
        // l=5 identifiers; distinct owners may coincide, but the total
        // stored count equals the number of distinct (identifier, owner)
        // pairs — at most 5, at least 1.
        let total = n.total_partitions();
        assert!((1..=5).contains(&total), "stored {total} copies");
    }

    #[test]
    fn linear_family_finds_exact_match() {
        let mut n = RangeSelectNetwork::new(
            30,
            SystemConfig::default()
                .with_family(LshFamilyKind::Linear)
                .with_seed(8),
        );
        n.query(&r(30, 50));
        let out = n.query(&r(30, 50));
        assert!(out.exact, "linear permutations must find identical ranges");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_query_rejected() {
        net(5).query(&RangeSet::empty());
    }

    #[test]
    fn run_trace_collects_outcomes() {
        let mut n = net(20);
        let queries = [r(0, 5), r(10, 20), r(0, 5)];
        let outs = n.run_trace(queries.iter());
        assert_eq!(outs.len(), 3);
        assert!(outs[2].exact);
    }

    #[test]
    fn identifier_cache_counts_hits_and_misses() {
        // A range is admitted on its second sighting and hits from its
        // third; a range seen once is never cached.
        let mut n = net(20);
        n.query(&r(0, 10));
        assert!(
            n.identifier_cache().is_empty(),
            "one sighting admits nothing"
        );
        n.query(&r(0, 10));
        n.query(&r(5, 15));
        n.query(&r(0, 10));
        n.query(&r(0, 10));
        let c = n.identifier_cache();
        assert_eq!(c.misses(), 3);
        assert_eq!(c.hits(), 2);
        assert_eq!(c.len(), 1);
        let entries = entries(n.identifier_cache(), 5);
        assert_eq!(
            entries.map(|(range, _)| range).collect::<Vec<_>>(),
            [&r(0, 10)]
        );
    }

    /// A trace with repeats, overlaps, and multi-peer spread.
    fn batch_trace() -> Vec<RangeSet> {
        let mut qs = Vec::new();
        for i in 0..40u32 {
            let lo = (i * 37) % 900;
            qs.push(r(lo, lo + 10 + (i % 7) * 30));
            if i % 3 == 0 {
                qs.push(r(30, 50)); // popular repeat
            }
        }
        qs
    }

    #[test]
    fn query_batch_identical_to_sequential() {
        let config = SystemConfig::default().with_seed(42).with_padding(0.1);
        let mut seq = RangeSelectNetwork::new(40, config.clone());
        let mut bat = RangeSelectNetwork::new(40, config);
        let trace = batch_trace();

        let out_seq: Vec<QueryOutcome> = trace.iter().map(|q| seq.query(q)).collect();
        let out_bat = bat.query_batch(&trace);

        assert_eq!(out_seq, out_bat);
        assert_eq!(seq.stats(), bat.stats());
        assert_eq!(seq.total_partitions(), bat.total_partitions());
        // Cache accounting matches the sequential path exactly.
        assert_eq!(seq.identifier_cache().hits(), bat.identifier_cache().hits());
        assert_eq!(
            seq.identifier_cache().misses(),
            bat.identifier_cache().misses()
        );
        assert_eq!(seq.identifier_cache().len(), bat.identifier_cache().len());
        assert!(bat.identifier_cache().hits() > 0, "trace has repeats");
        // Final cached contents are identical, key by key.
        let sorted = |n: &RangeSelectNetwork| {
            let mut entries: Vec<_> = entries(n.identifier_cache(), 5).collect();
            entries.sort_unstable();
            entries
                .into_iter()
                .map(|(k, v)| (k.clone(), v.to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(sorted(&seq), sorted(&bat));
    }

    #[test]
    fn query_batch_then_queries_stay_consistent() {
        // Interleaving batch and single-query calls shares the same cache
        // and RNG stream as an all-sequential run.
        let config = SystemConfig::default().with_seed(7);
        let mut seq = RangeSelectNetwork::new(25, config.clone());
        let mut mixed = RangeSelectNetwork::new(25, config);
        let trace = batch_trace();
        let (head, tail) = trace.split_at(trace.len() / 2);

        let mut out_seq: Vec<QueryOutcome> = Vec::new();
        for q in &trace {
            out_seq.push(seq.query(q));
        }
        let mut out_mixed = mixed.query_batch(head);
        for q in tail {
            out_mixed.push(mixed.query(q));
        }
        assert_eq!(out_seq, out_mixed);
        assert_eq!(seq.stats(), mixed.stats());
    }

    #[test]
    fn telemetry_surfaces_cache_hit_rate_through_registry() {
        let mut n = net(30);
        let tel = ars_telemetry::Telemetry::recording();
        n.set_telemetry(tel.clone());
        let trace = batch_trace();
        // By the end of the second pass every range is admitted; the third
        // pass hits on all of them.
        for _ in 0..3 {
            n.query_batch(&trace);
        }
        let snap = tel.snapshot();
        let hits = snap.counter("core.ident_cache.hits");
        let misses = snap.counter("core.ident_cache.misses");
        let distinct = trace.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(misses, 2 * distinct as u64, "each range misses twice");
        assert!(
            hits >= trace.len() as u64,
            "third identical batch hits on every range"
        );
        assert_eq!(n.identifier_cache().len(), distinct);
        assert_eq!(snap.gauge("core.ident_cache.size"), Some(distinct as u64));
        // The registry mirrors the cache's own counters exactly, and every
        // query does exactly one cache lookup.
        assert_eq!(hits, n.identifier_cache().hits());
        assert_eq!(misses, n.identifier_cache().misses());
        assert_eq!(hits + misses, snap.counter("core.queries"));
        // Per-query spans were recorded for both batches.
        let spans = tel
            .events()
            .iter()
            .filter(|e| e.kind == ars_telemetry::EventKind::SpanStart && e.name == "core.query")
            .count();
        assert_eq!(spans, 3 * trace.len());
    }

    #[test]
    fn query_batch_empty_slice_is_noop() {
        let mut n = net(10);
        let outs = n.query_batch(&[]);
        assert!(outs.is_empty());
        assert_eq!(n.stats().queries, 0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn query_batch_rejects_empty_range() {
        net(5).query_batch(&[RangeSet::empty()]);
    }

    fn layered_config(seed: u64) -> SystemConfig {
        SystemConfig::default()
            .with_seed(seed)
            .with_placement_mode(PlacementMode::Layered)
            .with_probes(16)
    }

    #[test]
    fn layered_query_spends_one_lookup() {
        let mut n = RangeSelectNetwork::new(48, layered_config(3));
        let out = n.query(&r(30, 50));
        assert_eq!(out.hops.len(), 1, "layered = one arc lookup");
        assert_eq!(out.attempts, 1);
        assert!(out.peers_contacted <= n.config().walk_window);
        let s = n.stats();
        assert_eq!(s.lookups, 1);
        assert!((s.walk_steps as usize) < n.config().walk_window);
        assert!(s.probe_checks > 0, "probe budget 16 generates candidates");
        assert_eq!(s.dedup_saved_lookups, 0);
    }

    #[test]
    fn layered_exact_repeat_found_in_arc() {
        let mut n = RangeSelectNetwork::new(48, layered_config(5));
        n.query(&r(30, 50));
        let out = n.query(&r(30, 50));
        assert!(out.exact, "repeat query must find its own cached partition");
        assert_eq!(out.recall, 1.0);
    }

    #[test]
    fn layered_store_partition_found_by_query() {
        // Direct stores land at the layered positions, where queries look.
        let mut n = RangeSelectNetwork::new(48, layered_config(9));
        n.store_partition(&r(100, 200));
        let out = n.query(&r(100, 200));
        assert!(out.exact, "stored partition must be visible in its arc");
    }

    #[test]
    fn layered_usually_finds_jittered_neighbor() {
        // Same regime as similar_query_usually_finds_neighbor: [30,50]
        // cached, [30,49] queried (J ≈ 0.95). Layered adds the anchor
        // gate (≈ J at layers=1); multi-probe recovers base-identifier
        // misses at the visited peers.
        let mut hits = 0;
        for seed in 0..10 {
            let mut n = RangeSelectNetwork::new(48, layered_config(seed));
            n.query(&r(30, 50));
            let out = n.query(&r(30, 49));
            if out.best_match == Some(r(30, 50)) {
                hits += 1;
            }
        }
        assert!(
            hits >= 6,
            "only {hits}/10 near-identical layered queries matched"
        );
    }

    #[test]
    fn layered_batch_identical_to_sequential() {
        let config = layered_config(42).with_padding(0.1);
        let mut seq = RangeSelectNetwork::new(40, config.clone());
        let mut bat = RangeSelectNetwork::new(40, config);
        let trace = batch_trace();
        let out_seq: Vec<QueryOutcome> = trace.iter().map(|q| seq.query(q)).collect();
        let out_bat = bat.query_batch(&trace);
        assert_eq!(out_seq, out_bat);
        assert_eq!(seq.stats(), bat.stats());
        assert_eq!(seq.total_partitions(), bat.total_partitions());
        assert_eq!(seq.identifier_cache().hits(), bat.identifier_cache().hits());
        assert_eq!(
            seq.identifier_cache().misses(),
            bat.identifier_cache().misses()
        );
    }

    /// At `r = 3` every cached `(identifier, range)` sits at the owner of
    /// its position and at the next two peers clockwise, and nowhere else —
    /// where the churn executor writes it — under either placement mode.
    #[test]
    fn replication_places_r_copies_per_identifier() {
        for mode in [PlacementMode::Independent, PlacementMode::Layered] {
            let config = (SystemConfig::default().with_seed(21))
                .with_replication(3)
                .with_placement_mode(mode);
            let mut n = RangeSelectNetwork::new(12, config);
            let holders = |n: &RangeSelectNetwork, ident, range: &RangeSet| {
                let at = position(&n.config, n.anchors.as_ref(), ident, range);
                n.ring.successors_window(n.ring.successor_of(at), 3)
            };
            let mut stored = 0;
            for lo in (0..3_000).step_by(89) {
                let q = r(lo, lo + 150);
                if !n.query(&q).stored {
                    continue;
                }
                stored += 1;
                for ident in n.groups.identifiers(&q) {
                    for holder in holders(&n, ident, &q) {
                        let bucket = n.peer(holder).and_then(|p| p.bucket(ident));
                        assert!(bucket.is_some_and(|b| b.contains(&q)), "{mode:?} {q}");
                    }
                }
            }
            assert!(stored > 10, "{mode:?}: only {stored} queries cached");
            // A partition placed without a query lands at the same holders.
            let fresh = r(5_000, 5_100);
            let distinct: ars_common::FxHashSet<u32> =
                n.groups.identifiers(&fresh).into_iter().collect();
            assert_eq!(n.store_partition(&fresh), 3 * distinct.len(), "{mode:?}");
            for (&id, peer) in &n.peers {
                for (ident, range) in peer.entries() {
                    assert!(holders(&n, ident, &range).contains(&Id(id)), "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn commit_plan_books_deduped_lookups() {
        // Two groups hashing to the same bucket: one lookup, one saved.
        let config = SystemConfig::default();
        let tel = Telemetry::noop();
        let mut peers: FxHashMap<u32, Peer> = [100u32, 200]
            .map(|id| (id, Peer::new(Id(id), false)))
            .into_iter()
            .collect();
        let mut stats = NetworkStats::default();
        let q = r(0, 10);
        let plan = QueryPlan {
            lookups: vec![(Id(100), 2), (Id(200), 3)],
            candidates: vec![7, 9],
            visits: vec![(Id(100), 0..1), (Id(200), 1..2)],
            store_targets: vec![(7, Id(100)), (9, Id(200))],
            probe_checks: 0,
            dedup_saved: 1,
        };
        let out = commit_plan(
            &config,
            &tel,
            &mut peers,
            &mut stats,
            &q,
            q.clone(),
            vec![7, 7, 9],
            plan,
            false,
        );
        assert_eq!(out.hops, vec![2, 3], "duplicate identifier not re-routed");
        assert_eq!(out.attempts, 2);
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.total_hops, 5);
        assert_eq!(stats.dedup_saved_lookups, 1);
    }

    /// A copied row and arc base, as the batch call lends them to planning.
    fn lent(placed: &[(u32, Id)], arc: Option<Id>) -> Resolved<'_> {
        let mins = None;
        Resolved { placed, arc, mins }
    }

    /// `targets` of `q` on `n`, and the plan the static executor routes
    /// them into.
    fn targets_and_plan(n: &mut RangeSelectNetwork, q: &RangeSet) -> (Targets, QueryPlan) {
        let hashed = n.hash_stage(q);
        let targets = targets(&n.config, &n.groups, &hashed, n.hash.resolved());
        let (placed, arc) = (n.hash.placed().to_vec(), n.hash.resolved().arc);
        (targets, n.plan_stage(&hashed, lent(&placed, arc)))
    }

    #[test]
    fn plan_lists_lookups_visits_and_stores_per_placement_mode() {
        use crate::plan::Key;
        use ars_chord::{arc_base, layered_position};
        let q = r(30, 50);
        // Independent: one key per identifier, at the position `place`
        // puts it, reading that identifier alone, walking nowhere; the
        // partition is cached at the same positions.
        let mut n = net(40);
        let identifiers = n.groups().identifiers(&q);
        let (targets, plan) = targets_and_plan(&mut n, &q);
        assert_eq!(targets.candidates, identifiers, "five distinct identifiers");
        for (i, &ident) in identifiers.iter().enumerate() {
            let position = n.place(ident);
            let key = Key {
                position,
                reads: i..i + 1,
                stores: i..i + 1,
                walk: 1,
            };
            assert_eq!(
                (&targets.keys[i], targets.stores[i]),
                (&key, (ident, position))
            );
            // The static executor routes key i to the owner of its position,
            // which reads it and is where the store lands.
            let owner = n.ring().successor_of(position);
            assert_eq!(plan.lookups[i].0, owner);
            assert_eq!(plan.visits[i], (owner, i..i + 1));
            assert_eq!(plan.store_targets[i], (ident, owner));
        }
        assert_eq!((targets.keys.len(), targets.dedup_saved), (5, 0));
        assert_eq!((plan.visits.len(), plan.dedup_saved), (5, 0));
        // A repeated identifier is looked up and stored once, for everyone.
        n.hash_stage(&q);
        let mut placed = n.hash.placed().to_vec();
        placed[4] = placed[1];
        let repeated = crate::plan::targets(&n.config, &n.groups, &q, lent(&placed, None));
        assert_eq!(repeated.candidates, identifiers[..4]);
        assert_eq!((repeated.keys.len(), repeated.stores.len()), (4, 4));
        assert_eq!(repeated.dedup_saved, 1);

        // Layered: the one key is the anchor's arc base; every walked peer
        // checks every candidate; only the base identifiers are cached,
        // each inside the arc.
        let mut n = RangeSelectNetwork::new(40, layered_config(3));
        let identifiers = n.groups().identifiers(&q);
        let anchor = n.anchors.as_ref().expect("layered").identifiers(&q)[0];
        let (targets, plan) = targets_and_plan(&mut n, &q);
        let arc = Key {
            position: arc_base(anchor),
            reads: 0..targets.candidates.len(),
            stores: 0..5,
            walk: n.config().walk_window,
        };
        assert_eq!(targets.keys, [arc]);
        assert_eq!(targets.candidates[..5], identifiers[..]);
        assert!(
            targets.candidates.len() > 5,
            "probe budget 16 adds candidates"
        );
        let stores: Vec<(u32, Id)> = (identifiers.iter())
            .map(|&ident| (ident, layered_position(anchor, ident)))
            .collect();
        assert_eq!(targets.stores, stores);
        assert_eq!(targets.dedup_saved, 0);

        assert_eq!(plan.lookups.len(), 1);
        assert_eq!(plan.lookups[0].0, n.ring().successor_of(arc_base(anchor)));
        let walked = n.ring().successors_window(plan.lookups[0].0, 4);
        let visited: Vec<Id> = plan.visits.iter().map(|(peer, _)| *peer).collect();
        assert_eq!(visited, walked);
        assert!(plan
            .visits
            .iter()
            .all(|(_, buckets)| *buckets == (0..plan.candidates.len())));
        assert_eq!(plan.candidates, targets.candidates);
        for (&(ident, position), &(stored, owner)) in stores.iter().zip(&plan.store_targets) {
            assert_eq!((stored, owner), (ident, n.ring().successor_of(position)));
        }
    }

    #[test]
    fn position_is_where_each_placement_mode_stores_a_copy() {
        use crate::plan::HashStage;
        use ars_chord::layered_position;
        let range = r(100, 200);
        let plain = net(40);
        let layered = RangeSelectNetwork::new(40, layered_config(9));
        assert!(
            plain.anchors.is_none(),
            "independent placement draws no sketch"
        );
        let sketch = layered.anchors.as_ref().expect("layered placement does");
        let anchor = sketch.identifiers(&range)[0];
        for ident in plain.groups().identifiers(&range) {
            // Independent: the identifier's own position, whatever the range.
            assert_eq!(
                position(&plain.config, None, ident, &range),
                plain.place(ident)
            );
            assert_eq!(
                position(&plain.config, None, ident, &r(0, 1)),
                plain.place(ident)
            );
            // Layered: inside the arc of the range's anchor — another
            // range's copy of the same identifier lives elsewhere.
            let at = position(&layered.config, Some(sketch), ident, &range);
            assert_eq!(at, layered_position(anchor, ident));
            assert_ne!(
                at,
                position(&layered.config, Some(sketch), ident, &r(5_000, 9_000))
            );
            // A repair sweep places a whole bucket at once, copy by copy.
            let bucket = [range.clone(), r(5_000, 9_000)];
            for (config, anchors) in [(&plain.config, None), (&layered.config, Some(sketch))] {
                let each: Vec<Id> = (bucket.iter())
                    .map(|range| position(config, anchors, ident, range))
                    .collect();
                let mut stage = HashStage::default();
                let place = stage.placer(config, anchors, ident);
                let swept: Vec<Id> = bucket.iter().map(place).collect();
                assert_eq!(swept, each);
            }
        }
        // `store_partition` and the query path both place through it.
        let mut layered = layered;
        layered.store_partition(&range);
        for ident in layered.groups().identifiers(&range) {
            let at = position(&layered.config, layered.anchors.as_ref(), ident, &range);
            let owner = layered
                .peer(layered.ring().successor_of(at))
                .expect("owner");
            assert!(owner.bucket(ident).is_some_and(|b| b.contains(&range)));
        }
    }

    #[test]
    fn memoised_positions_equal_place_on_hit_and_miss() {
        let config = SystemConfig::default().with_seed(31).with_padding(0.1);
        let mut n = RangeSelectNetwork::new(40, config.clone());
        for q in &batch_trace() {
            // What the stage hands to planning — from the cache on a hit,
            // freshly resolved on a miss — is the range's identifiers, each
            // beside `place()` of it...
            let hashed = n.hash_stage(q);
            let placed = n.hash.placed().to_vec();
            assert_eq!(identifiers_of(&placed), n.groups().identifiers(&hashed));
            for &(ident, position) in placed.iter() {
                assert_eq!(position, n.place(ident));
            }
            // ...and planning routes to exactly those positions.
            let plan = n.plan_stage(&hashed, lent(&placed, None));
            for (&ident, &(owner, _)) in plan.candidates.iter().zip(&plan.lookups) {
                assert_eq!(owner, n.ring().successor_of(n.place(ident)));
            }
            n.commit_stage(q, hashed, identifiers_of(&placed), plan, true);
            // Every admitted entry is whole.
            for (range, cached) in entries(n.identifier_cache(), 5) {
                assert_eq!(*cached, *resolve(&config, n.groups(), None, range));
            }
        }
        let c = n.identifier_cache();
        assert!(c.hits() > 0, "the trace repeats ranges");
        assert!(c.misses() > 0);
    }

    #[test]
    fn layered_cache_entries_hold_in_arc_offsets() {
        // A layered row holds each identifier's offset inside an arc,
        // which planning ORs into the range's arc base: a miss pays no
        // SHA-1 per identifier for a position that depends on the anchor.
        // The offsets are all a row holds — the arc's bits stay clear.
        use ars_chord::{arc_base, arc_offset};
        let mut n = RangeSelectNetwork::new(40, layered_config(3));
        n.query_batch(&batch_trace());
        assert!(!n.identifier_cache().is_empty());
        let sketch = n.anchors.clone().expect("layered");
        for (range, placed) in entries(n.identifier_cache(), 5) {
            assert!(placed
                .iter()
                .all(|&(ident, offset)| offset == Id(arc_offset(ident))));
            // What planning makes of the row is the unmemoised placement.
            let arc = Some(arc_base(sketch.identifiers(range)[0]));
            let planned = targets(&n.config, &n.groups, range, lent(placed, arc));
            for &(ident, at) in &planned.stores {
                assert_eq!(at, position(&n.config, Some(&sketch), ident, range));
            }
        }
    }

    #[test]
    fn layered_copies_sit_where_the_oracle_places_them() {
        // Every copy a layered query or `store_partition` writes sits
        // where the unmemoised hashes place it — through more distinct
        // anchors than the memo's arc table holds and more identifiers
        // than its offset table does, so both evict, and through repeats
        // that hit the identifier cache.
        let config = layered_config(17).with_replication(2);
        let mut n = RangeSelectNetwork::new(60, config.clone());
        let queries = pool(&mut DetRng::new(17), 3_000, 1 << 24);
        n.run_trace(queries.iter().chain((0..3).flat_map(|_| &queries[..200])));
        assert!(n.identifier_cache().hits() >= 200);
        n.store_partition(&r(7, 9_000));
        let entries = (n.ring().node_ids().iter()).flat_map(|&id| {
            n.peer(id)
                .into_iter()
                .flat_map(move |p| p.entries().map(move |(i, r)| (id, i, r)))
        });
        let anchors = check_layered_copies(&config, n.ring(), entries);
        assert!(
            anchors > 2 << crate::plan::ARC_BITS,
            "the arc table evicts: {anchors} anchors"
        );
    }

    #[test]
    fn commit_reads_and_writes_only_planned_peers() {
        let layered = layered_config(13).with_walk_window(4);
        for config in [SystemConfig::default().with_seed(13), layered] {
            let mut n = RangeSelectNetwork::new(40, config.clone());
            let mut trace = batch_trace();
            // r(0, 10) hashes all five groups to one identifier.
            trace.push(r(0, 10));
            let layered = config.placement_mode == PlacementMode::Layered;
            let mut saved = 0;
            for q in &trace {
                let hashed = n.hash_stage(q);
                let mut placed = n.hash.placed().to_vec();
                if !layered {
                    placed[4] = placed[1]; // forced duplicate
                }
                let arc = n.hash.resolved().arc;
                let plan = n.plan_stage(&hashed, lent(&placed, arc));
                saved += plan.dedup_saved;
                let paid = if layered { 1 } else { placed.len() };
                assert_eq!(plan.lookups.len() + plan.dedup_saved, paid);
                let visited = plan.visits.iter().map(|&(peer, _)| peer);
                let planned: Vec<Id> = visited
                    .chain(plan.store_targets.iter().map(|&(_, owner)| owner))
                    .collect();
                let before = n.load_distribution();
                let out = commit_plan(
                    &config,
                    &n.telemetry,
                    &mut n.peers,
                    &mut n.stats,
                    q,
                    hashed,
                    identifiers_of(&placed),
                    plan,
                    false,
                );
                assert!(!out.fell_back_to_source);
                // Every peer the plan does not name holds what it held.
                let after = n.load_distribution();
                for (i, id) in n.ring().node_ids().iter().enumerate() {
                    if !planned.contains(id) {
                        assert_eq!(before[i], after[i], "commit wrote unplanned peer {id}");
                    }
                }
            }
            assert_eq!(n.stats().dedup_saved_lookups, saved as u64);
            assert!(n.stats().stored > 0, "the trace must write");
            assert!(n.stats().matched > 0, "the trace must read a hit");
        }
    }
}
