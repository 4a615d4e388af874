//! The range-selection system over a *live* Chord network.
//!
//! The experiment harness measures steady state over a static ring
//! ([`crate::RangeSelectNetwork`]); this module executes the same §4 query
//! plan (`plan.rs`: where a query must look is decided before anything is
//! routed, the verdict on what came back is reached once after) over
//! [`ars_chord::DynamicNetwork`], so peers can join, leave, and crash
//! mid-stream:
//!
//! * a graceful **leave** hands the peer's buckets to its ring successor
//!   (who becomes the owner of its identifier interval), so cached
//!   partitions survive;
//! * an abrupt **fail** loses the peer's buckets — subsequent queries miss
//!   and re-cache, which is exactly the paper's soft-state story (cached
//!   partitions are rebuildable from the sources);
//! * a **join** copies to the new peer every copy it now owns; the holders
//!   keep theirs as soft state.
//!
//! Every cached partition belongs at the first `r` alive successors of its
//! placed identifier (`r` is [`SystemConfig::with_replication`], 1 by
//! default), and each membership change restores that invariant on the arc
//! of the ring it touched ([`ChurnNetwork::re_replicate`] is the same pass
//! over everything, kept as the oracle). At `r = 1` that pass is what hands
//! a joining peer its arc; above 1 it also stops abrupt failures losing
//! buckets. The companion [`ChurnNetwork::query_resilient`] path
//! retries failed lookups with deterministic backoff and degrades to
//! source fetch instead of erroring.
//!
//! With [`SystemConfig::with_durability`] set, every peer additionally
//! persists its bucket placements to a crash-faulted
//! [`ars_store::BucketStore`], which splits the abrupt-departure story in
//! two: [`ChurnNetwork::fail`] still models a machine that never returns
//! (its disk is gone), while [`ChurnNetwork::crash`] parks the disk and
//! [`ChurnNetwork::restart`] replays its log — recovering every entry
//! before a corrupt tail — before rejoining the ring. The
//! [`ChurnNetwork::anti_entropy_round`] repair loop then exchanges
//! per-bucket digests between replica owners and re-replicates only the
//! missing entries, converging to the same state as the oracle
//! [`ChurnNetwork::re_replicate`] sweep under a per-round budget.
//!
//! [`ChurnNetwork::partition`] splits the network into isolated islands:
//! each island's ring collapses onto its own members (split-brain),
//! queries keep being answered island-locally — flagged
//! [`QueryOutcome::partition_degraded`] when an identifier's global owner
//! is across the split — and cache writes land at island-local owners
//! only. [`ChurnNetwork::heal`] re-merges the rings; the anti-entropy
//! loop then reconciles the diverged replica sets back to the same fixed
//! point as the oracle sweep, which is the whole partition-tolerance
//! story: degraded availability during the window, convergence after it.

use crate::bucket::{Bucket, Match};
use crate::config::SystemConfig;
use crate::durable::{decode_range, digest_bytes, encode_range, with_encoded};
use crate::network::{QueryOutcome, RangeSelectNetwork};
use crate::peer::Peer;
use crate::plan::{
    anchor_sketch, hashed_range, identifiers_of, targets, verdict, HashStage, IdentifierCache,
    Transport,
};
use crate::resilient::{
    backoff, BreakerConfig, BreakerState, GrayLayer, HedgePolicy, ResilienceStats, RetryPolicy,
    ATTEMPTS, HOP_BUDGET,
};
use ars_chord::dynamic::ChordError;
use ars_chord::{DynamicNetwork, Id};
use ars_common::{DetRng, FxHashMap, FxHashSet};
use ars_lsh::{HashGroups, RangeSet};
use ars_store::BucketStore;
use ars_telemetry::Telemetry;

/// One row of [`ChurnNetwork::inventory`]: a `(peer, identifier,
/// intervals)` triple in the canonical comparison form.
pub type InventoryEntry = (u32, u32, Vec<(u32, u32)>);

/// What one anti-entropy round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairRound {
    /// Per-(peer, identifier, owner) digest comparisons performed.
    pub digests_compared: u64,
    /// Entries pushed to replica owners that were missing them.
    pub entries_sent: u64,
    /// True if the per-round budget cut the sweep short — another round
    /// is needed before the network can be considered quiescent.
    pub hit_budget: bool,
}

/// What a membership event's repair pass reads: the copies `peers` hold
/// of identifiers placed in `(after, through]`.
struct RepairArc {
    peers: Vec<Id>,
    after: Id,
    through: Id,
}

/// An alive peer: its buckets and, under
/// [`SystemConfig::with_durability`], its op log.
struct Alive {
    peer: Peer,
    log: Option<BucketStore>,
}

impl Alive {
    /// A fresh peer `id`, its log empty.
    fn new(config: &SystemConfig, id: Id) -> Alive {
        let peer = Peer::new(id, config.use_local_index);
        let log = (config.durability.as_ref())
            .map(|d| BucketStore::new(d.store_config(), d.seed_for(config.seed, id.0)));
        Alive { peer, log }
    }
}

/// The paper's system over a dynamic (churning) Chord network.
pub struct ChurnNetwork {
    config: SystemConfig,
    chord: DynamicNetwork,
    alive: FxHashMap<u32, Alive>,
    /// Parked logs of crashed-but-restartable peers. `None` values mark
    /// peers crashed without durability (nothing to replay at restart).
    crashed: FxHashMap<u32, Option<BucketStore>>,
    groups: HashGroups,
    /// The anchor sketch of layered placement ([`anchor_sketch`]).
    anchors: Option<HashGroups>,
    /// The identifier cache and the placement memo behind it: positions
    /// never depend on membership, so no churn event touches them.
    hash: HashStage,
    rng: DetRng,
    retry: RetryPolicy,
    resilience: ResilienceStats,
    /// Probability that any single lookup attempt is lost in flight
    /// (request or reply dropped), exercising the retry path. 0 = clean.
    lookup_loss: f64,
    telemetry: Telemetry,
    /// Virtual clock, advanced by query latencies, probe sweeps, and
    /// backoff waits; breaker cooldowns and hedge timing read it.
    clock: u64,
    /// Slow peers and the mechanisms that dodge them.
    gray: GrayLayer,
}

impl ChurnNetwork {
    /// Grow a network to `n_peers` through the join protocol (each join
    /// followed by stabilization, as a slow deployment would).
    ///
    /// Returns [`ChordError::NotConverged`] if the ring fails to reach a
    /// consistent state while growing — impossible with the default
    /// stabilization effort, which a unit test starves to reach it.
    ///
    /// # Panics
    /// Panics if `n_peers` is zero.
    pub fn new(n_peers: usize, config: SystemConfig) -> Result<ChurnNetwork, ChordError> {
        Self::with_growth_rounds(n_peers, config, 32, 64)
    }

    /// Like [`Self::new`] but with explicit stabilization effort:
    /// `per_join_rounds` rounds after each join and at most `final_rounds`
    /// rounds of final convergence. Starving the protocol (e.g. zero
    /// per-join rounds and too few final rounds for the ring size) makes
    /// growth fail with [`ChordError::NotConverged`] instead of producing
    /// a silently broken network.
    ///
    /// # Panics
    /// Panics if `n_peers` is zero.
    pub(crate) fn with_growth_rounds(
        n_peers: usize,
        config: SystemConfig,
        per_join_rounds: usize,
        final_rounds: usize,
    ) -> Result<ChurnNetwork, ChordError> {
        let ids = |rng: &mut DetRng| Id(rng.next_u32());
        Self::grow(n_peers, config, per_join_rounds, final_rounds, ids)
    }

    /// [`Self::with_growth_rounds`] with each candidate id drawn by
    /// `next_id`, after the hash groups' fork.
    fn grow(
        n_peers: usize,
        config: SystemConfig,
        per_join_rounds: usize,
        final_rounds: usize,
        mut next_id: impl FnMut(&mut DetRng) -> Id,
    ) -> Result<ChurnNetwork, ChordError> {
        assert!(n_peers >= 1, "a network needs at least one peer");
        let mut rng = DetRng::new(config.seed);
        let mut group_rng = rng.fork();
        let groups = HashGroups::generate(config.family, config.k, config.l, &mut group_rng);
        let first = next_id(&mut rng);
        let mut chord = DynamicNetwork::bootstrap(first);
        let mut alive = FxHashMap::default();
        alive.insert(first.0, Alive::new(&config, first));
        while chord.len() < n_peers {
            let id = next_id(&mut rng);
            if chord.alive_ids().binary_search(&id).is_ok() {
                continue;
            }
            chord.join(id, first)?;
            chord.stabilize_all(per_join_rounds);
            alive.insert(id.0, Alive::new(&config, id));
        }
        chord
            .stabilize_until_consistent(final_rounds)
            .ok_or(ChordError::NotConverged {
                rounds: final_rounds,
            })?;
        // Enable route caching only after growth: the join/stabilize storm
        // above would clear it on every round anyway.
        chord.set_route_cache_capacity(config.route_cache);
        Ok(ChurnNetwork {
            anchors: anchor_sketch(&config),
            hash: HashStage::default(),
            config,
            chord,
            alive,
            crashed: FxHashMap::default(),
            groups,
            rng,
            retry: RetryPolicy::default(),
            resilience: ResilienceStats::default(),
            lookup_loss: 0.0,
            telemetry: Telemetry::noop(),
            clock: 0,
            gray: GrayLayer::default(),
        })
    }

    /// Install a telemetry sink, shared with the underlying Chord network
    /// so `chord.*` lookup metrics and `resilient.*` retry metrics land in
    /// one recorder. Resilient queries open a `core.query` span
    /// (`path="resilient"`) and count `core.ident_cache.*` as static ones
    /// do; retries emit `resilient.retry` events;
    /// re-replication emits one `replica.store` event per copy written.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.chord.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The installed telemetry handle (no-op by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Simulate message loss on the lookup path: each attempt (request or
    /// its reply) is independently lost with probability `p` and counts as
    /// a failed attempt, driving the retry machinery. Deterministic — the
    /// coin flips come from the network's seeded RNG stream.
    ///
    /// # Panics
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_lookup_loss(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.lookup_loss = p;
    }

    /// Resilience counters (retries, fallbacks, re-replication work).
    pub fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    /// Identifier-cache statistics (hits, misses, distinct entries).
    pub fn identifier_cache(&self) -> &IdentifierCache {
        &self.hash.cache
    }

    /// Mark `peer` gray-slow: it keeps answering correctly but every fetch
    /// it serves costs `factor` times a healthy one's virtual time. This is
    /// the live-network rendition of [`ars_simnet::SlowWindow`] — a fault
    /// no crash/retry path notices, only the tail latency does.
    ///
    /// # Panics
    /// Panics unless `factor ≥ 2` (1 would be an invisible no-op).
    pub fn set_slow(&mut self, peer: Id, factor: u64) {
        self.gray.set_slow(peer, factor);
    }

    /// Restore `peer` to healthy service time.
    pub fn clear_slow(&mut self, peer: Id) {
        self.gray.clear_slow(peer);
    }

    /// Deterministically slow `⌊fraction · n⌋` alive peers by `factor`,
    /// spread evenly through the sorted id order (the peers at positions
    /// `⌊i · n / count⌋`). Even spacing models independent gray failures
    /// scattered across the fleet: for any `fraction ≤ ½` consecutive ring
    /// positions are never both slowed, so a key's replica chain always
    /// contains a healthy substitute; above one half adjacency is
    /// unavoidable. (A *contiguous* slow arc is a correlated
    /// failure-domain scenario — a different experiment.) Crucially for
    /// twin-run experiments, the *same* peers are slowed at every call
    /// with the same membership (no RNG consumed). Returns the victims.
    ///
    /// # Panics
    /// Panics if `fraction` is not in `[0, 1]` or `factor` is below 2
    /// ([`Self::set_slow`]).
    pub fn slow_fraction(&mut self, fraction: f64, factor: u64) -> Vec<Id> {
        (self.gray).slow_fraction(self.chord.alive_ids(), fraction, factor)
    }

    /// Enable hedged lookups: when a primary fetch would take longer than
    /// the adaptive delay derived from `policy` and the observed latency
    /// distribution, a backup lookup detours to the next replica holder
    /// and the first response wins. Requires replication ≥ 2 to have any
    /// effect (the backup must actually hold the data).
    pub fn enable_hedging(&mut self, policy: HedgePolicy) {
        self.gray.enable_hedging(policy);
    }

    /// Enable per-peer circuit breakers: consecutive suspicious responses
    /// trip a peer open, fetches short-circuit straight to a replica while
    /// it cools down, and one half-open probe closes or re-trips it.
    pub fn enable_breakers(&mut self, config: BreakerConfig) {
        self.gray.enable_breakers(config);
    }

    /// Breaker state of `peer` at the current virtual clock, if breakers
    /// are enabled and the peer has been observed.
    pub fn breaker_state(&self, peer: Id) -> Option<BreakerState> {
        self.gray.breaker_state(peer, self.clock)
    }

    /// One health-probe sweep: contact every alive peer (sorted order,
    /// deterministic), feed its service time into the failure detector,
    /// and — when breakers are enabled — record the outcome against its
    /// breaker. Probes are honest traffic: each sweep counts `n` messages
    /// in [`ResilienceStats::probes_sent`] and advances the virtual clock
    /// by one healthy service time (probes fan out in parallel). Returns
    /// the number of peers probed.
    ///
    /// Run a few sweeps while the fleet is healthy to teach the detector
    /// each peer's baseline; a peer that is slow from the very first
    /// observation becomes its own baseline (phi-accrual semantics) and
    /// only *degradation* relative to it is suspected.
    pub fn probe_peers(&mut self) -> usize {
        let (gray, stats) = (&mut self.gray, &mut self.resilience);
        gray.probe(
            self.chord.alive_ids(),
            &mut self.clock,
            stats,
            &self.telemetry,
        )
    }

    /// Best match across the buckets of `idents` held by `peer`.
    fn read(&self, peer: Id, idents: &[u32], hashed_range: &RangeSet) -> Option<Match> {
        let peer = self.peer(peer.0)?;
        let (best, _) = peer.best_in_buckets(idents, hashed_range, self.config.matching);
        best
    }

    /// Number of alive peers.
    pub fn len(&self) -> usize {
        self.chord.len()
    }

    /// True if no peers are alive (cannot happen through this API).
    pub fn is_empty(&self) -> bool {
        self.chord.is_empty()
    }

    /// The underlying dynamic Chord network.
    pub fn chord(&self) -> &DynamicNetwork {
        &self.chord
    }

    /// Route-cache counters of the underlying Chord network (all zero when
    /// [`SystemConfig::route_cache`] is 0, the default).
    pub fn route_cache_stats(&self) -> ars_chord::RouteCacheStats {
        self.chord.route_cache_stats()
    }

    /// Total cached partition copies across alive peers.
    pub fn total_partitions(&self) -> usize {
        self.alive.values().map(|a| a.peer.partition_count()).sum()
    }

    /// The bucket ledger identity: every placement, loss and recovery is
    /// counted, so `buckets_placed + buckets_recovered` equals the live
    /// copies plus `buckets_lost`. `Err` carries the four terms.
    pub fn check_bucket_ledger(&self) -> Result<(), String> {
        let s = &self.resilience;
        let live = self.total_partitions() as u64;
        if s.buckets_placed + s.buckets_recovered == live + s.buckets_lost {
            return Ok(());
        }
        Err(format!(
            "bucket ledger violated: placed {} + recovered {} != live {} + lost {}",
            s.buckets_placed, s.buckets_recovered, live, s.buckets_lost
        ))
    }

    /// Freeze the current alive membership and storage into a static
    /// [`RangeSelectNetwork`] snapshot: a converged ring over the alive
    /// peers and a copy of their stores, untouched by later churn, with
    /// this network's generator state at freeze time — so a frozen run is
    /// reproducible from the seed and event history alone. Stats and the
    /// identifier cache start empty; the live network is unaffected.
    pub fn freeze(&self) -> RangeSelectNetwork {
        let peers = (self.alive.iter()).map(|(&id, a)| (id, a.peer.clone()));
        RangeSelectNetwork::from_parts(
            self.config.clone(),
            self.chord.snapshot_ring(),
            peers.collect(),
            self.groups.clone(),
            self.rng.clone(),
        )
    }

    /// The buckets of alive peer `id`.
    fn peer(&self, id: u32) -> Option<&Peer> {
        self.alive.get(&id).map(|a| &a.peer)
    }

    /// Store one partition copy at a peer — the single choke point every
    /// placement path goes through (query caching, re-replication, repair,
    /// leave handover), so the durable log and the
    /// `placed == live + lost − recovered` ledger move in lockstep with
    /// the in-memory state. Returns true if the copy was newly stored.
    fn store_at(&mut self, owner: u32, identifier: u32, range: &RangeSet) -> bool {
        let Some(alive) = self.alive.get_mut(&owner) else {
            return false;
        };
        if !alive.peer.store(identifier, range.clone()) {
            return false;
        }
        self.resilience.buckets_placed += 1;
        self.telemetry.counter_add("buckets.placed", 1);
        if self.chord.is_partitioned() {
            // Divergence ledger: every copy written while the network is
            // split is state that post-heal reconciliation must spread.
            self.resilience.partition_writes += 1;
            self.telemetry.counter_add("buckets.partition_writes", 1);
        }
        if let Some(log) = &mut alive.log {
            with_encoded(range, |payload| log.place(identifier, payload));
            self.telemetry.counter_add("store.appended", 1);
        }
        true
    }

    /// Account for live partition copies destroyed.
    fn lose_buckets(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.resilience.buckets_lost += n;
        self.telemetry.counter_add("buckets.lost", n);
    }

    /// Abruptly fail a peer *permanently*: the machine never returns, its
    /// disk (durable or not) is gone, and its cached partitions are lost
    /// — counted in [`ResilienceStats::buckets_lost`] and the
    /// `buckets.lost` telemetry counter. With a replication factor above 1,
    /// surviving replicas are immediately re-spread so the invariant (each
    /// partition at `r` alive successors) holds again. Contrast with
    /// [`Self::crash_random`], which parks the log for a later
    /// [`Self::restart`].
    pub fn fail(&mut self, id: Id) -> Result<(), ChordError> {
        self.drop_peer(id)?;
        self.re_replicate_around(id);
        Ok(())
    }

    /// The step [`Self::fail`] and [`Self::crash`] share: take `id` off
    /// the ring abruptly, drop its live copies and count them lost.
    /// Returns the copies lost and the peer's durable store, if any.
    fn drop_peer(&mut self, id: Id) -> Result<(u64, Option<BucketStore>), ChordError> {
        self.chord.fail(id)?;
        let gone = self.alive.remove(&id.0);
        let lost = gone.as_ref().map_or(0, |a| a.peer.partition_count() as u64);
        self.lose_buckets(lost);
        Ok((lost, gone.and_then(|a| a.log)))
    }

    /// A random alive peer to take down, or `None` when only one is left.
    fn draw_victim(&mut self) -> Option<Id> {
        let ids = self.chord.alive_ids();
        (ids.len() > 1).then(|| ids[self.rng.gen_index(ids.len())])
    }

    /// Crash `count` random peers at once.
    pub fn fail_random(&mut self, count: usize) {
        for _ in 0..count {
            let Some(victim) = self.draw_victim() else {
                return;
            };
            let _ = self.fail(victim);
        }
    }

    /// Gracefully leave: buckets are handed to the departing peer's ring
    /// successor before it goes. While the network is partitioned, the
    /// handover can only reach the successor *within the leaver's island*
    /// (computed before the node is removed); a node leaving as the sole
    /// member of its island has no reachable heir and its copies are lost
    /// like an abrupt failure's.
    pub fn leave(&mut self, id: Id) -> Result<(), ChordError> {
        // Determine the inheritor *before* removing the node — and before
        // the chord layer forgets which island the leaver was in. A
        // connected ring is one island, whose owner is the true one.
        let inheritor = self.chord.island_owner(id, id.plus(1));
        if inheritor != id && !self.alive.contains_key(&inheritor.0) {
            return Err(ChordError::UnknownNode(inheritor));
        }
        self.chord.leave(id)?;
        if let Some(mut gone) = self.alive.remove(&id.0) {
            let handed = gone.peer.drain();
            // The leaver's live copies are gone (its disks with them); the
            // handover re-places them at the heir, so the ledger records a
            // loss and a placement per copy that moved.
            self.lose_buckets(handed.len() as u64);
            if inheritor == id {
                // Sole member of its island: nobody reachable to inherit.
                self.telemetry
                    .counter_add("churn.orphaned_handovers", handed.len() as u64);
            } else {
                for (ident, range) in handed {
                    self.store_at(inheritor.0, ident, &range);
                }
            }
        }
        self.re_replicate_around(id);
        Ok(())
    }

    /// Join a fresh random peer, stabilize, and repair the arc it joined
    /// into — which stores at the new peer every copy it now owns (at any
    /// `r`); the previous holders keep theirs as soft state.
    pub fn join_random(&mut self) -> Result<Id, ChordError> {
        loop {
            let id = Id(self.rng.next_u32());
            let ids = self.chord.alive_ids();
            if ids.binary_search(&id).is_ok() {
                continue;
            }
            let via = ids[0];
            self.chord.join(id, via)?;
            self.alive.insert(id.0, Alive::new(&self.config, id));
            self.chord.stabilize_all(32);
            self.re_replicate_around(id);
            return Ok(id);
        }
    }

    /// Run stabilization rounds (after injected churn).
    pub fn stabilize(&mut self, max_rounds: usize) -> Option<usize> {
        self.chord.stabilize_until_consistent(max_rounds)
    }

    /// Run `rounds` unconditional stabilization passes over every node,
    /// even when the ring is already successor-consistent.
    /// [`Self::stabilize`] stops as soon as immediate successors match
    /// the ground truth, which right after a [`Self::heal`] can leave
    /// predecessor beliefs stale enough for the split-brain probe
    /// ([`DynamicNetwork::ring_view`]) to still report contested keys; a
    /// couple of settle rounds clears them.
    pub fn settle(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.chord.stabilize_all(32);
        }
    }

    /// Split the network into ≥ 2 islands: cross-island traffic (lookups,
    /// digest exchanges, replica pushes, leave handovers) stops until
    /// [`Self::heal`]. Alive nodes not listed in any group land in island
    /// 0. Each island's ring collapses onto its own members over the
    /// following stabilization rounds (split-brain); queries keep being
    /// answered island-locally through [`Self::query_resilient`], flagged
    /// [`QueryOutcome::partition_degraded`] when the global owner is on
    /// the far side.
    ///
    /// # Panics
    /// Panics (in the chord layer) on fewer than two islands, an empty
    /// island, a dead member, or a node listed twice.
    pub fn partition(&mut self, groups: &[Vec<Id>]) {
        self.chord.partition(groups);
        self.telemetry.counter_add("churn.partitions", 1);
        self.telemetry
            .event("churn.partition", &[("islands", groups.len().into())]);
    }

    /// True while a [`Self::partition`] is in force.
    pub fn is_partitioned(&self) -> bool {
        self.chord.is_partitioned()
    }

    /// Heal the partition: cross-island traffic resumes and every node
    /// whose successor belief diverged from the global ring is handed its
    /// true successor (the out-of-band rejoin bootstrap — see
    /// [`DynamicNetwork::heal`]). Returns the number of rejoined nodes.
    ///
    /// Healing the *ring* does not reconcile *storage*: copies written
    /// island-locally during the window sit at owners the other side never
    /// saw. Run [`Self::stabilize`] and then either the oracle
    /// [`Self::re_replicate`] or budgeted [`Self::repair_until_quiescent`]
    /// rounds to converge the replica sets (both reach the same fixed
    /// point — the bench and the partition-tolerance tests pin this).
    pub fn heal(&mut self) -> usize {
        let rejoined = self.chord.heal();
        self.telemetry.counter_add("churn.heals", 1);
        self.telemetry
            .event("churn.heal", &[("rejoined", rejoined.into())]);
        rejoined
    }

    /// Crash a peer: like [`Self::fail`] it drops off the ring abruptly
    /// and its live cache is lost, but its log survives (after taking the
    /// configured crash fault, possibly a flipped tail bit) and is parked
    /// for a later [`Self::restart`]. No re-replication sweep runs here: a
    /// crashed machine is expected back, and the anti-entropy repair loop
    /// is the path that restores the replication invariant afterwards.
    pub(crate) fn crash(&mut self, id: Id) -> Result<(), ChordError> {
        let (lost, mut store) = self.drop_peer(id)?;
        if let Some(store) = &mut store {
            store.crash();
        }
        self.crashed.insert(id.0, store);
        self.telemetry.event(
            "churn.crash",
            &[("node", id.0.into()), ("buckets_lost", lost.into())],
        );
        Ok(())
    }

    /// Crash up to `count` random alive peers (always leaving at least
    /// one). Returns the crashed ids, for matching [`Self::restart`] calls.
    pub fn crash_random(&mut self, count: usize) -> Vec<Id> {
        let mut downed = Vec::new();
        for _ in 0..count {
            let Some(victim) = self.draw_victim() else {
                break;
            };
            if self.crash(victim).is_ok() {
                downed.push(victim);
            }
        }
        downed
    }

    /// Restart a crashed peer: replay the longest valid prefix of its
    /// parked log, never panicking, rebuild its bucket state from the
    /// recovered entries, rejoin the ring through the join protocol, and
    /// stabilize. Returns the number of partition copies recovered from
    /// disk (0 without durability).
    ///
    /// The recovered identifiers are re-announced by the next
    /// anti-entropy round: the restarted holder pushes them back
    /// to their current replica owners, which is what makes recovery
    /// visible to queries again even if ring ownership shifted meanwhile.
    pub fn restart(&mut self, id: Id) -> Result<usize, ChordError> {
        // An empty ring has nobody to join through (unreachable through
        // this API, which never removes the last peer).
        let Some(&via) = self.chord.alive_ids().first() else {
            return Err(ChordError::RoutingFailed { from: id, key: id });
        };
        let Some(mut store) = self.crashed.remove(&id.0) else {
            return Err(ChordError::UnknownNode(id));
        };
        if let Err(e) = self.chord.join(id, via) {
            self.crashed.insert(id.0, store);
            return Err(e);
        }
        self.chord.stabilize_all(32);
        let mut peer = Peer::new(id, self.config.use_local_index);
        let mut recovered = 0u64;
        let mut torn = 0u64;
        if let Some(store) = &mut store {
            let report = store.recover();
            torn = report.discarded_bytes as u64;
            for (ident, payload) in &report.entries {
                if let Some(range) = decode_range(payload) {
                    if peer.store(*ident, range) {
                        recovered += 1;
                    }
                }
            }
        }
        self.alive.insert(id.0, Alive { peer, log: store });
        self.resilience.buckets_recovered += recovered;
        self.telemetry.counter_add("store.recovered", recovered);
        self.telemetry.counter_add("buckets.recovered", recovered);
        self.telemetry.counter_add("store.torn_discarded", torn);
        self.telemetry.event(
            "churn.restart",
            &[
                ("node", id.0.into()),
                ("recovered", recovered.into()),
                ("torn_bytes", torn.into()),
            ],
        );
        Ok(recovered as usize)
    }

    /// A peer's durable store, if durability is on and the peer is alive —
    /// read access for benches and tests (log length, disk statistics).
    pub fn log_of(&self, id: Id) -> Option<&BucketStore> {
        self.alive.get(&id.0)?.log.as_ref()
    }

    /// One anti-entropy repair round. Every alive peer walks its held
    /// identifiers in sorted order and compares a compact per-bucket
    /// digest (FNV-1a over the encoded entries, order-independent) with
    /// each replica owner of that identifier; on mismatch the holder
    /// pushes the entries the owner is missing. At most `budget` entries
    /// are transferred per round — a budget-cut round reports
    /// [`RepairRound::hit_budget`] and the sweep resumes next round.
    ///
    /// The loop is additive, exactly like the oracle
    /// [`Self::re_replicate`]: repeated rounds converge to the same fixed
    /// point (every entry present at all of its replica owners; stale
    /// copies left to age out as soft state), reached when a round sends
    /// nothing and was not cut short.
    ///
    /// # Panics
    /// Panics if `budget` is zero (such a round could never make progress).
    pub(crate) fn anti_entropy_round(&mut self, budget: usize) -> RepairRound {
        assert!(budget >= 1, "repair budget must be positive");
        self.resilience.repair_rounds += 1;
        self.telemetry.counter_add("repair.rounds", 1);
        let mut round = RepairRound::default();
        let mut peer_ids: Vec<u32> = self.alive.keys().copied().collect();
        peer_ids.sort_unstable();
        'sweep: for p in peer_ids {
            let mut idents: Vec<u32> = self.alive[&p].peer.buckets().map(|(i, _)| i).collect();
            idents.sort_unstable();
            for ident in idents {
                // Where each held copy belongs, and the owners those sets
                // name in first-seen order: one set for the whole bucket
                // under independent placement, one per arc when layered
                // placement put ranges of different anchors in it.
                let mut belongs: Vec<Vec<Id>> = Vec::new();
                {
                    let mut at = None;
                    let bucket = self.alive.get(&p).and_then(|a| a.peer.bucket(ident));
                    let mut place = (self.hash).placer(&self.config, self.anchors.as_ref(), ident);
                    for range in bucket.into_iter().flat_map(Bucket::ranges) {
                        let key = place(&range);
                        // Neighbours at one position share one owner set.
                        let owners = match belongs.last() {
                            Some(last) if at == Some(key) => last.clone(),
                            _ => self.chord.true_successors(key, self.config.replication),
                        };
                        at = Some(key);
                        belongs.push(owners);
                    }
                }
                let mut owners: Vec<Id> = Vec::new();
                for &owner in belongs.iter().flatten() {
                    if !owners.contains(&owner) {
                        owners.push(owner);
                    }
                }
                for owner in owners {
                    if owner.0 == p {
                        continue;
                    }
                    // A digest exchange is a message: while the network is
                    // split, a holder can only repair owners it can reach.
                    // Cross-island pairs are skipped (not counted as
                    // compared) and picked up by post-heal rounds.
                    if !self.chord.reachable(Id(p), owner) {
                        continue;
                    }
                    round.digests_compared += 1;
                    let src_digest = Self::bucket_digest(&self.alive[&p].peer, ident);
                    let dst = self.peer(owner.0);
                    let dst_digest = dst.map_or(0, |d| Self::bucket_digest(d, ident));
                    if src_digest == dst_digest {
                        continue;
                    }
                    // Digest mismatch: fetch the owner's entry list and
                    // push only what belongs there and it is missing.
                    let missing: Vec<RangeSet> = {
                        let dst_bucket = dst.and_then(|d| d.bucket(ident));
                        (self.held(p, ident).zip(&belongs))
                            .filter(|(r, to)| {
                                to.contains(&owner) && !dst_bucket.is_some_and(|d| d.contains(r))
                            })
                            .map(|(r, _)| r)
                            .collect()
                    };
                    for range in missing {
                        if round.entries_sent as usize >= budget {
                            round.hit_budget = true;
                            break 'sweep;
                        }
                        if self.store_at(owner.0, ident, &range) {
                            round.entries_sent += 1;
                            self.telemetry.counter_add("repair.entries_sent", 1);
                        }
                    }
                }
            }
        }
        self.resilience.repair_entries_sent += round.entries_sent;
        round
    }

    /// The ranges `peer` holds under `identifier`, in bucket order.
    fn held(&self, peer: u32, identifier: u32) -> impl Iterator<Item = RangeSet> + '_ {
        let bucket = self.peer(peer).and_then(|p| p.bucket(identifier));
        bucket.into_iter().flat_map(Bucket::ranges)
    }

    /// Run anti-entropy rounds until a round transfers nothing
    /// (and was not cut short by the budget), i.e. every replica set has
    /// converged. Returns the number of rounds run, or `None` if
    /// `max_rounds` elapsed first.
    pub fn repair_until_quiescent(&mut self, max_rounds: usize, budget: usize) -> Option<usize> {
        for round in 1..=max_rounds {
            let outcome = self.anti_entropy_round(budget);
            if outcome.entries_sent == 0 && !outcome.hit_budget {
                return Some(round);
            }
        }
        None
    }

    /// Order-independent digest of one peer's bucket for `identifier`:
    /// FNV-1a of each encoded entry XOR-combined, mixed with the entry
    /// count. 0 for an absent bucket. Two buckets digest equal iff they
    /// hold the same entry set (modulo negligible collision probability),
    /// which is all the repair loop needs to skip in-sync replicas.
    fn bucket_digest(peer: &Peer, identifier: u32) -> u64 {
        match peer.bucket(identifier) {
            None => 0,
            Some(bucket) => {
                let mut digest =
                    0x9e37_79b9_7f4a_7c15u64 ^ (bucket.len() as u64).wrapping_mul(0x100_0000_01b3);
                for range in bucket.ranges() {
                    digest ^= digest_bytes(&encode_range(&range));
                }
                digest
            }
        }
    }

    /// The full storage inventory as a sorted, canonical listing of
    /// `(peer, identifier, intervals)` triples — the bit-identical
    /// comparison form used to check that anti-entropy repair reaches the
    /// oracle [`Self::re_replicate`] fixed point.
    pub fn inventory(&self) -> Vec<InventoryEntry> {
        let mut out: Vec<InventoryEntry> = (self.alive.iter())
            .flat_map(|(&pid, a)| {
                (a.peer.entries())
                    .map(move |(ident, range)| (pid, ident, range.intervals().to_vec()))
            })
            .collect();
        out.sort();
        out
    }

    /// Publish the `buckets.live` gauge so a telemetry snapshot can check
    /// the ledger `placed == live + lost − recovered` at any quiet point.
    pub fn publish_ledger(&self) {
        self.telemetry
            .gauge_set("buckets.live", self.total_partitions() as u64);
    }

    /// The ground-truth replica set for the copy of `range` stored under
    /// `identifier`: the first `r` alive nodes clockwise from its ring
    /// position (which under layered placement depends on the range's
    /// anchor, not on the identifier alone). Computed from the membership
    /// oracle, not routing state, so it is correct even while finger
    /// tables are stale. The copy is placed through the hash stage's memo,
    /// as a query or a repair places it, hence `&mut self`.
    pub fn replica_owners(&mut self, identifier: u32, range: &RangeSet) -> Vec<Id> {
        let key = (self.hash).placer(&self.config, self.anchors.as_ref(), identifier)(range);
        self.chord.true_successors(key, self.config.replication)
    }

    /// Restore the successor-replication invariant: every cached
    /// (identifier, partition) pair must live at all of its
    /// [`Self::replica_owners`]. Missing copies are rebuilt from any
    /// surviving one (additive — stale extra copies are left as soft state
    /// to age out). Returns the number of copies created.
    ///
    /// This is the global pass, the oracle: it reads every copy on every
    /// peer. Membership events repair only what they touched
    /// (`re_replicate_around`); run this one after a [`Self::heal`] or a
    /// [`Self::restart`], or to check that nothing is left to restore.
    pub fn re_replicate(&mut self) -> usize {
        self.restore_replicas(None)
    }

    /// [`Self::re_replicate`] restricted to what the arrival or departure
    /// of the peer at `changed` can have broken. With `p_r` the `r`-th
    /// alive predecessor of `changed`, the identifiers whose replica set
    /// contains `changed` (or did, before it went) are exactly those placed
    /// in `(p_r, changed]`, and every owner of one of them, before or after
    /// the event, is among the `r` alive predecessors of `changed`,
    /// `changed` itself and its `r` alive successors — so the pass reads
    /// those peers and that arc only. It differs from the global pass only
    /// where the invariant was already broken outside the arc, which is
    /// what [`Self::anti_entropy_round`] is for. A partitioned network and
    /// one too small for the neighbourhood to be a proper part of it get
    /// the global pass.
    fn re_replicate_around(&mut self, changed: Id) -> usize {
        let r = self.config.replication;
        let ids = self.chord.alive_ids();
        let n = ids.len();
        if self.chord.is_partitioned() || n <= 2 * r + 1 {
            return self.re_replicate();
        }
        let at = ids.partition_point(|&v| v < changed);
        let span = 2 * r + usize::from(ids.get(at) == Some(&changed));
        let peers: Vec<Id> = (0..span).map(|j| ids[(at + n - r + j) % n]).collect();
        self.restore_replicas(Some(&RepairArc {
            after: peers[0],
            through: changed,
            peers,
        }))
    }

    /// The repair pass behind both forms: inventory the stored pairs,
    /// de-duplicated in first-seen order, then store each at every replica
    /// owner that lacks it. `arc` limits the inventory; `None` reads
    /// everything.
    fn restore_replicas(&mut self, arc: Option<&RepairArc>) -> usize {
        self.resilience.re_replications += 1;
        // Inventory of everything stored in scope, deduplicated, tagged
        // with the islands that hold a copy: while the network is split,
        // a missing replica can only be rebuilt at an owner some holder
        // can actually reach (a connected ring is all island 0). Each pair
        // keeps the first holder's island and its first-seen number; the
        // rare pair held on further islands lists them in `more_islands`.
        let mut seen: FxHashMap<(u32, RangeSet), (Id, usize, usize)> = FxHashMap::default();
        let mut more_islands: FxHashSet<(usize, usize)> = FxHashSet::default();
        let mut scanned = 0u64;
        for (&pid, alive) in &self.alive {
            if arc.is_some_and(|a| !a.peers.contains(&Id(pid))) {
                continue;
            }
            let island = self.chord.island_of(Id(pid));
            for (ident, bucket) in alive.peer.buckets() {
                let mut place = (self.hash).placer(&self.config, self.anchors.as_ref(), ident);
                for range in bucket.ranges() {
                    let key = place(&range);
                    if arc.is_some_and(|a| !key.in_open_closed(a.after, a.through)) {
                        continue;
                    }
                    scanned += 1;
                    let next = seen.len();
                    let &mut (_, first, pair) =
                        seen.entry((ident, range)).or_insert((key, island, next));
                    if first != island {
                        more_islands.insert((pair, island));
                    }
                }
            }
        }
        self.resilience.repair_scanned += scanned;
        self.telemetry.counter_add("replica.scanned", scanned);
        let mut pairs: Vec<_> = seen.into_iter().collect();
        pairs.sort_unstable_by_key(|&(_, (_, _, pair))| pair);
        let mut restored = 0;
        let mut owners = Vec::with_capacity(self.config.replication);
        for ((ident, range), (key, first, pair)) in pairs {
            self.chord
                .true_successors_into(key, self.config.replication, &mut owners);
            for &owner in &owners {
                let island = self.chord.island_of(owner);
                if island != first && !more_islands.contains(&(pair, island)) {
                    continue;
                }
                if self.store_at(owner.0, ident, &range) {
                    restored += 1;
                    self.telemetry.counter_add("replica.stores", 1);
                    self.telemetry.event(
                        "replica.store",
                        &[("ident", ident.into()), ("node", owner.0.into())],
                    );
                }
            }
        }
        self.resilience.replicas_restored += restored as u64;
        restored
    }

    /// One identifier lookup under the retry policy. Attempt 1 is the
    /// plain greedy lookup; retries back off (deterministic jitter), let a
    /// stabilization round run — modelling the repair a real deployment's
    /// periodic stabilizer performs while the client waits — and then route
    /// failure-aware through successor lists. Returns the owner, the hop
    /// count of the successful attempt, and how many attempts were spent;
    /// the failure side carries the attempts spent before giving up
    /// (attempts or whole-query deadline exhausted).
    ///
    /// `wall` accumulates backoff delay across the *whole query* (all `l`
    /// identifier lookups share it); when a deadline is set
    /// and the accumulated wall time reaches it, no further retries are
    /// scheduled — checked *before* the backoff jitter draw so a
    /// deadline-cut run stays deterministic.
    fn lookup_with_retry(
        &mut self,
        origin: Id,
        key: Id,
        wall: &mut u64,
    ) -> Result<(Id, usize, usize), usize> {
        let mut spent = 0usize;
        for attempt in 1..=ATTEMPTS {
            spent = attempt;
            self.resilience.lookups_attempted += 1;
            self.telemetry.counter_add("resilient.attempts", 1);
            if attempt > 1 {
                self.resilience.retries += 1;
                self.telemetry.counter_add("resilient.retries", 1);
            }
            let lost = self.lookup_loss > 0.0 && self.rng.gen_bool(self.lookup_loss);
            let result = if lost {
                // The request (or its reply) vanished in flight; the
                // client observes a timeout indistinguishable from a
                // routing failure.
                Err(ChordError::RoutingFailed { from: origin, key })
            } else if attempt == 1 {
                self.chord.lookup(origin, key)
            } else {
                self.chord.lookup_resilient(origin, key, HOP_BUDGET)
            };
            if let Ok((owner, hops)) = result {
                self.telemetry.counter_add("resilient.successes", 1);
                return Ok((owner, hops, attempt));
            }
            if attempt < ATTEMPTS {
                if self
                    .retry
                    .deadline
                    .is_some_and(|deadline| *wall >= deadline)
                {
                    self.resilience.deadline_exhausted += 1;
                    self.telemetry
                        .counter_add("resilient.deadline_exhausted", 1);
                    break;
                }
                let delay = backoff(attempt as u32, &mut self.rng);
                *wall += delay;
                self.resilience.backoff_time += delay;
                self.telemetry.counter_add("resilient.backoff_spent", delay);
                self.telemetry.event(
                    "resilient.retry",
                    &[("attempt", attempt.into()), ("backoff", delay.into())],
                );
                self.chord.stabilize_all(1);
            }
        }
        self.resilience.lookups_failed += 1;
        self.telemetry.counter_add("resilient.failures", 1);
        Err(spent)
    }

    /// Execute one query's plan (`plan::targets`) through the live routing
    /// state, *without* a failure escape hatch in the type: each planned
    /// key is looked up under the retry policy and fetched from (as is
    /// every successor its walk continues to, one message each — the
    /// `core.walk.steps` counter); keys whose owner stays unreachable are
    /// skipped; and if **no** owner is reachable the query degrades to a
    /// source fetch, reported via
    /// [`QueryOutcome::fell_back_to_source`] and counted in
    /// [`ResilienceStats::source_fallbacks`]. This path never panics and
    /// never returns an error, whatever the churn state.
    ///
    /// Cache-on-miss stores go to the full replica set
    /// ([`Self::replica_owners`]) of each planned store whose key was
    /// reached, which is where the replication factor pays off.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    ///
    /// While the network is [`Self::partition`]ed the query degrades
    /// gracefully instead of erroring: lookups route island-locally; when
    /// an identifier's *global* owner sits on the far side (or no owner is
    /// reachable at all) the outcome is flagged
    /// [`QueryOutcome::partition_degraded`] and counted in
    /// [`ResilienceStats::partition_degraded_queries`]; a routed owner with
    /// an empty bucket falls through to the island-local replica set
    /// ([`DynamicNetwork::island_successors`]); and cache-on-miss stores go
    /// to the island-local owners only — cross-island writes are
    /// physically impossible during the window and are what post-heal
    /// reconciliation restores.
    pub fn query_resilient(&mut self, q: &RangeSet) -> QueryOutcome {
        let hashed_range = hashed_range(q, self.config.padding);
        let (config, groups, anchors) = (&self.config, &self.groups, self.anchors.as_ref());
        let resolved = (self.hash).resolve(config, groups, anchors, &self.telemetry, &hashed_range);
        let identifiers = identifiers_of(resolved.placed);
        let targets = targets(config, groups, &hashed_range, resolved);
        self.telemetry.counter_add("resilient.queries", 1);
        let span = self.telemetry.span(
            "core.query",
            &[
                ("path", "resilient".into()),
                ("l", identifiers.len().into()),
            ],
        );
        let origin = {
            let ids = self.chord.alive_ids();
            ids[self.rng.gen_index(ids.len())]
        };

        let partitioned = self.chord.is_partitioned();
        // Sized once from the plan: growing these per key read +5 % on
        // `churn_durable`'s `query_p50_us`.
        let visits = targets.keys.iter().map(|key| key.walk).sum();
        let mut transport = Transport {
            hops: Vec::with_capacity(targets.keys.len()),
            ..Transport::default()
        };
        let mut wall = 0u64;
        let mut query_lat = 0u64;
        let mut contacted: Vec<Id> = Vec::with_capacity(visits);
        let mut writes: Vec<(u32, Id)> = Vec::with_capacity(targets.stores.len());
        let mut reads: Vec<Option<Match>> = Vec::with_capacity(visits);
        for key in &targets.keys {
            let idents = &targets.candidates[key.reads.clone()];
            match self.lookup_with_retry(origin, key.position, &mut wall) {
                Ok((owner, h, attempts)) => {
                    transport.hops.push(h);
                    self.telemetry
                        .counter_add("resilient.lookup.hops", h as u64);
                    writes.extend(&targets.stores[key.stores.clone()]);
                    transport.attempts += attempts;
                    if partitioned && owner != self.chord.true_owner(key.position) {
                        // Routing converged island-locally, but the node
                        // that globally owns this position is across the
                        // split — its buckets may hold answers we can't see.
                        transport.partition_degraded = true;
                    }
                    let fetch = (origin, key.position, owner, h);
                    let (read, lat) =
                        self.fetch(fetch, idents, &hashed_range, false, &mut contacted);
                    let mut answered = read.is_some();
                    reads.push(read);
                    query_lat += lat;
                    // The walk: the key's window of successors, one message
                    // each, every one fetched from as the owner was. It
                    // skips whoever was read already — the owner, which
                    // heads the window unless routing is stale (then the
                    // peer that does is read here), or a hedge's substitute.
                    let walked = match key.walk {
                        1 => Vec::new(),
                        w => self.chord.island_successors(origin, key.position, w),
                    };
                    for peer in walked {
                        if contacted.contains(&peer) {
                            continue;
                        }
                        self.telemetry.counter_add("core.walk.steps", 1);
                        let fetch = (origin, peer, peer, 1);
                        let (read, lat) =
                            self.fetch(fetch, idents, &hashed_range, answered, &mut contacted);
                        answered |= read.is_some();
                        reads.push(read);
                        query_lat += lat;
                    }
                }
                Err(spent) => {
                    transport.attempts += spent;
                    if partitioned {
                        transport.partition_degraded = true;
                    }
                }
            }
        }

        // Advance the virtual clock by what this query cost: fetch
        // latencies plus retry backoff wall time. Breaker cooldowns are
        // measured on this clock.
        let query_latency = query_lat + wall;
        self.telemetry
            .record("resilient.query.latency", query_latency);
        self.clock += query_latency;

        transport.fell_back_to_source = transport.hops.is_empty();
        if transport.fell_back_to_source {
            self.resilience.source_fallbacks += 1;
            self.telemetry.counter_add("resilient.source_fallbacks", 1);
        }
        if transport.partition_degraded {
            self.resilience.partition_degraded_queries += 1;
            self.telemetry
                .counter_add("resilient.partition_degraded", 1);
        }

        let verdict = verdict(&hashed_range, &mut reads.into_iter());
        let mut stored = false;
        if verdict.store {
            for (ident, key) in writes {
                // A write cannot cross a split: cache the partition at the
                // island-local owners only (all of them while connected).
                let owners = (self.chord).island_successors(origin, key, self.config.replication);
                for owner in owners {
                    stored |= self.store_at(owner.0, ident, &hashed_range);
                }
            }
        }

        contacted.sort_unstable();
        contacted.dedup();
        transport.peers_contacted = contacted.len();
        let out = verdict.finish(q, identifiers, stored, transport);
        self.telemetry.span_end(
            span,
            &[
                ("matched", out.best_match.is_some().into()),
                ("exact", out.exact.into()),
                ("attempts", out.attempts.into()),
                ("fallback", out.fell_back_to_source.into()),
                ("degraded", out.partition_degraded.into()),
                ("similarity", out.similarity.into()),
                ("recall", out.recall.into()),
            ],
        );
        out
    }

    /// One fetch of a query: `(origin, key, owner, h)` is a peer `owner`
    /// that holds `key`, reached in `h` hops — the routed owner of a
    /// planned key, or a successor its walk steps to. The gray-failure
    /// layer (`GrayLayer::fetch`) picks the peer that actually
    /// serves it (short-circuiting or hedging around a slow primary) and
    /// the buckets of `idents` are read there. While the key has nothing
    /// to show (`answered` is false) an empty read falls through two
    /// safety nets. Records every peer read in `contacted`; returns the
    /// best match and the virtual latency paid.
    fn fetch(
        &mut self,
        route @ (origin, key, owner, _): (Id, Id, Id, usize),
        idents: &[u32],
        hashed_range: &RangeSet,
        answered: bool,
        contacted: &mut Vec<Id>,
    ) -> (Option<Match>, u64) {
        contacted.push(owner);
        let (gray, stats) = (&mut self.gray, &mut self.resilience);
        let r = self.config.replication;
        let (serving, mut lat, primary_lat) =
            gray.fetch(&self.chord, r, self.clock, stats, &self.telemetry, route);
        if serving != owner {
            contacted.push(serving);
        }
        let mut read = self.read(serving, idents, hashed_range);
        if read.is_some() || answered {
            return (read, lat);
        }
        if serving != owner {
            // Replica-divergence safety net: the substitute's buckets
            // were empty, so wait for the primary after all — recall must
            // never pay for tail tolerance.
            read = self.read(owner, idents, hashed_range);
            if read.is_some() {
                lat = primary_lat.max(lat);
            }
        }
        if read.is_none() && self.chord.is_partitioned() {
            // Degraded read path: the routed owner came up empty, so
            // consult the rest of the island-local replica set before
            // giving up on these buckets.
            let replicas = (self.chord).island_successors(origin, key, self.config.replication);
            for replica in replicas.into_iter().filter(|&replica| replica != owner) {
                read = self.read(replica, idents, hashed_range);
                if read.is_some() {
                    contacted.push(replica);
                    break;
                }
            }
        }
        (read, lat)
    }

    /// [`Self::query_resilient`] plus the virtual latency the query cost
    /// (fetch service times, hop costs, hedge delays, retry backoff) —
    /// the measurement entry point for the tail-latency experiments.
    pub fn query_timed(&mut self, q: &RangeSet) -> (QueryOutcome, u64) {
        let start = self.clock;
        let outcome = self.query_resilient(q);
        (outcome, self.clock - start)
    }

    /// [`Self::query_resilient`] behind deadline admission, with the
    /// virtual clock as a single server: a query arriving at virtual time
    /// `arrival` starts at `max(clock, arrival)`. One that cannot start by
    /// `arrival + deadline` is shed: counted in [`ResilienceStats::shed`]
    /// and `resilient.shed`, answered `None`, and drawing no randomness —
    /// the admitted queries replay as if it had never been offered.
    /// Otherwise the clock idles forward to the start, the query runs, and
    /// its outcome comes back with its sojourn time (queueing wait plus
    /// service). Service times are the modelled ones, so slow peers,
    /// hedges and retry backoff lengthen the queue behind them.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub fn query_within(
        &mut self,
        q: &RangeSet,
        arrival: u64,
        deadline: u64,
    ) -> Option<(QueryOutcome, u64)> {
        assert!(!q.is_empty(), "cannot query an empty range");
        let start = self.clock.max(arrival);
        if start > arrival.saturating_add(deadline) {
            self.resilience.shed += 1;
            self.telemetry.counter_add("resilient.shed", 1);
            return None;
        }
        self.clock = start;
        let outcome = self.query_resilient(q);
        Some((outcome, self.clock - arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    fn small_net(seed: u64) -> ChurnNetwork {
        ChurnNetwork::new(12, SystemConfig::default().with_seed(seed)).expect("growth converges")
    }

    impl ChurnNetwork {
        /// Replace the retry policy used by [`Self::query_resilient`].
        fn set_retry_policy(&mut self, policy: RetryPolicy) {
            self.retry = policy;
        }

        /// A network whose peers are `ids`, joined in order, in place of
        /// ids drawn from the seed: a static network over the same ids
        /// routes every key to the same owner.
        ///
        /// # Panics
        /// Panics if `ids` is empty or holds a repeat.
        fn from_ids(ids: &[Id], config: SystemConfig) -> ChurnNetwork {
            let mut next = ids.iter().copied();
            let in_order = move |_: &mut DetRng| next.next().expect("ids are distinct");
            Self::grow(ids.len(), config, 32, 64, in_order).expect("growth converges")
        }
    }

    /// On a quiet ring the churn executor answers as the static one: over
    /// the same peers, with the same hash groups (both fork them from the
    /// config seed), every query of the §5.1 uniform trace finds the same
    /// match, caches the same way and reports the same identifiers — at
    /// `r = 1` and `2`, under both placement modes, without durability and
    /// with `churn_durable`'s (every copy also logged), since both
    /// executors write each copy at its owner and the `r − 1` peers after
    /// it. Not compared: `hops`, `attempts` and `peers_contacted`. The two
    /// draw their origins from different RNG streams, and the dynamic
    /// ring's route also reads successor lists, so the routes differ (see
    /// `ars_chord`'s `converged_rings_agree_on_fingers_and_owners`).
    #[test]
    fn quiet_churn_executor_answers_as_the_static_one() {
        use crate::config::PlacementMode;
        use crate::durable::DurabilityConfig;
        for seed in 0..4 {
            let trace = ars_workload::uniform_trace(3_000, 0, 1_000, seed);
            for (r, durable) in [(1, false), (2, false), (1, true), (2, true)] {
                let mut base = SystemConfig::default().with_seed(seed).with_replication(r);
                if durable {
                    base = base.with_durability(DurabilityConfig::default());
                }
                let layered = base.clone().with_placement_mode(PlacementMode::Layered);
                for config in [base, layered.with_probes(16)] {
                    let mut fixed = RangeSelectNetwork::new(60, config.clone());
                    let mut live = ChurnNetwork::from_ids(fixed.ring().node_ids(), config);
                    for (i, q) in trace.queries().iter().enumerate() {
                        let (a, b) = (fixed.query(q), live.query_resilient(q));
                        let at =
                            format!("seed {seed}, r = {r}, durable {durable}, query {i} ({q})");
                        assert_eq!(a.identifiers, b.identifiers, "{at}");
                        assert_eq!(a.best_match, b.best_match, "{at}");
                        assert_eq!(a.similarity, b.similarity, "{at}");
                        assert_eq!(a.recall, b.recall, "{at}");
                        assert_eq!(a.exact, b.exact, "{at}");
                        assert_eq!(a.stored, b.stored, "{at}");
                    }
                    // Durability on: every copy written is one op record.
                    let logged: u64 = (live.chord.alive_ids().iter())
                        .filter_map(|&id| live.log_of(id))
                        .map(BucketStore::records_appended)
                        .sum();
                    let placed = live.resilience().buckets_placed;
                    assert_eq!(
                        logged,
                        if durable { placed } else { 0 },
                        "seed {seed}, r = {r}"
                    );
                }
            }
        }
    }

    /// The shared hash stage on both executors: a range misses twice, is
    /// admitted on its second sighting and hits from its third, and the
    /// `core.ident_cache.*` telemetry says the same as the cache.
    #[test]
    fn both_executors_admit_a_range_on_its_second_sighting() {
        let config = SystemConfig::default().with_seed(5);
        let mut fixed = RangeSelectNetwork::new(12, config.clone());
        let mut live = ChurnNetwork::from_ids(fixed.ring().node_ids(), config);
        let tel = Telemetry::recording();
        live.set_telemetry(tel.clone());
        // (misses, hits, entries) after each query.
        let expected = [(1, 0, 0), (2, 0, 1), (2, 1, 1), (3, 1, 1), (3, 2, 1)];
        for (q, want) in [r(0, 10), r(0, 10), r(0, 10), r(5, 15), r(0, 10)]
            .iter()
            .zip(expected)
        {
            let (a, b) = (fixed.query(q), live.query_resilient(q));
            assert_eq!(a.identifiers, b.identifiers);
            for cache in [fixed.identifier_cache(), live.identifier_cache()] {
                assert_eq!(
                    (cache.misses(), cache.hits(), cache.len() as u64),
                    want,
                    "{q}"
                );
            }
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("core.ident_cache.misses"), 3);
        assert_eq!(snap.counter("core.ident_cache.hits"), 2);
        assert_eq!(snap.gauge("core.ident_cache.size"), Some(1));
    }

    /// Cache entries hold positions, which never depend on membership: a
    /// fail + join schedule leaves the churn executor's hit and miss counts
    /// those of the admission ledger (hits = Σ max(0, c − 2) over the
    /// trace's range counts, entries = #{c ≥ 2}), and every hit's
    /// identifiers are the range's own.
    #[test]
    fn identifier_cache_counts_hold_across_fail_and_join() {
        let mut net = ChurnNetwork::new(40, SystemConfig::default().with_seed(8)).unwrap();
        let popular = [r(10, 60), r(300, 340), r(900, 990)];
        let mut counts = std::collections::BTreeMap::<RangeSet, u64>::new();
        for i in 0..300u32 {
            let q = match i % 3 {
                0 => popular[(i / 3 % 3) as usize].clone(),
                _ => r(i * 7 % 5_000, i * 7 % 5_000 + 20 + i % 40),
            };
            *counts.entry(q.clone()).or_default() += 1;
            let out = net.query_resilient(&q);
            assert_eq!(out.identifiers, net.groups.identifiers(&q), "query {i}");
            if i % 25 == 24 {
                net.fail_random(1);
                net.stabilize(64).expect("the ring repairs");
                net.join_random().expect("a peer joins");
                net.stabilize(64).expect("the ring repairs");
            }
        }
        let cache = net.identifier_cache();
        let hits: u64 = counts.values().map(|&c| c.saturating_sub(2)).sum();
        assert_eq!(cache.hits(), hits);
        assert_eq!(cache.misses(), 300 - hits);
        assert_eq!(cache.len(), counts.values().filter(|&&c| c >= 2).count());
        assert!(hits >= 90, "the popular ranges hit: {hits}");
    }

    #[test]
    fn query_and_requery_as_in_static_network() {
        let mut net = small_net(1);
        let miss = net.query_resilient(&r(30, 50));
        assert!(!miss.exact);
        let hit = net.query_resilient(&r(30, 50));
        assert!(hit.exact);
        assert_eq!(hit.recall, 1.0);
        // A calm ring costs one attempt per identifier and nothing else.
        assert_eq!(hit.attempts, 5);
        assert!(!hit.fell_back_to_source);
        assert_eq!(net.resilience().retries, 0);
        assert_eq!(net.resilience().source_fallbacks, 0);
    }

    #[test]
    fn freeze_snapshots_membership_and_storage() {
        let mut net = small_net(4);
        net.query_resilient(&r(30, 50));
        let frozen = net.freeze();
        assert_eq!(frozen.len(), net.len());
        assert_eq!(frozen.total_partitions(), net.total_partitions());
        // The snapshot is decoupled: querying the live network afterwards
        // does not change the frozen state.
        net.query_resilient(&r(500, 600));
        assert_eq!(frozen.stats().queries, 0);
    }

    #[test]
    fn frozen_network_serves_cached_partitions_through_the_engine() {
        let mut net = small_net(7);
        net.query_resilient(&r(200, 260)); // cache the partition while live
        let mut frozen = net.freeze();
        let outs = frozen.query_batch_concurrent_with(
            &[r(200, 260), r(200, 260)],
            crate::engine::EngineOptions {
                shards: 4,
                workers: 2,
                queue: 8,
            },
        );
        assert!(
            outs.iter().any(|o| o.exact),
            "partition cached on the live network must be found in the frozen snapshot"
        );
        // Frozen runs are deterministic: an identical freeze replays
        // identically (per-shard RNG streams derive from the same state).
        let mut again = net.freeze();
        let outs2 = again.query_batch_concurrent_with(
            &[r(200, 260), r(200, 260)],
            crate::engine::EngineOptions {
                shards: 4,
                workers: 3,
                queue: 8,
            },
        );
        assert_eq!(outs, outs2, "an identical freeze replays identically");
    }

    #[test]
    fn abrupt_failure_loses_cached_partitions() {
        let mut net = small_net(2);
        net.query_resilient(&r(100, 200));
        let before = net.total_partitions();
        assert!(before >= 1);
        // Kill every peer that holds a partition copy (walk all peers).
        let holders: Vec<Id> = net
            .chord()
            .node_ids()
            .into_iter()
            .filter(|id| {
                net.peer(id.0)
                    .map(|p| p.partition_count() > 0)
                    .unwrap_or(false)
            })
            .collect();
        for h in holders {
            if net.len() > 1 {
                net.fail(h).unwrap();
            }
        }
        net.stabilize(128).expect("recovers");
        assert_eq!(net.total_partitions(), 0, "failed peers take data down");
        // The same query now misses again — and re-caches (soft state).
        let miss_again = net.query_resilient(&r(100, 200));
        assert!(!miss_again.exact);
        assert!(net.total_partitions() >= 1);
        let hit = net.query_resilient(&r(100, 200));
        assert!(hit.exact);
    }

    #[test]
    fn graceful_leave_preserves_cached_partitions() {
        let mut net = small_net(3);
        net.query_resilient(&r(100, 200));
        let before = net.total_partitions();
        // Every holder leaves gracefully (handing buckets to successors).
        loop {
            let holder = net.chord().node_ids().into_iter().find(|id| {
                net.peer(id.0)
                    .map(|p| p.partition_count() > 0)
                    .unwrap_or(false)
            });
            match holder {
                Some(h) if net.len() > 1 => {
                    // The successor inherits; the partitions must survive.
                    net.leave(h).unwrap();
                    net.stabilize(64).expect("recovers");
                }
                _ => break,
            }
            if net.len() <= 2 {
                break;
            }
        }
        assert_eq!(
            net.total_partitions(),
            before,
            "graceful leave must not lose partitions"
        );
        // And they are still *findable*: the successor now owns the
        // identifier interval the partitions were stored under.
        let hit = net.query_resilient(&r(100, 200));
        assert!(hit.exact, "handed-over partition must still be located");
    }

    #[test]
    fn join_does_not_disturb_existing_cache() {
        let mut net = small_net(4);
        net.query_resilient(&r(5, 80));
        let cached = net.total_partitions();
        for _ in 0..4 {
            net.join_random().unwrap();
        }
        net.stabilize(64).expect("converges");
        // A join only adds copies: the new peer receives the partitions of
        // the arc it now owns, and the old owners keep theirs.
        assert!(
            net.total_partitions() >= cached,
            "a join never drops a copy"
        );
        let out = net.query_resilient(&r(5, 80));
        assert!(out.recall >= 0.0);
        assert!(out.exact, "cached partition lost after joins");
    }

    #[test]
    fn join_with_migration_keeps_partitions_findable() {
        // At r = 1 a join hands the new peer its arc through the same
        // repair pass that restores replicas at r ≥ 2: the copies it now
        // owns are stored there, the old owners keep theirs as soft state,
        // and every previously cached partition stays an exact hit.
        let mut net = small_net(6);
        let queries = [r(5, 80), r(10, 60), r(200, 260), r(500, 580), r(800, 870)];
        for q in &queries {
            net.query_resilient(q);
        }
        let cached = net.total_partitions();
        for _ in 0..8 {
            net.join_random().unwrap();
        }
        net.stabilize(64).expect("converges");
        assert!(
            net.total_partitions() >= cached,
            "a join copies, never moves"
        );
        assert_eq!(net.re_replicate(), 0, "each join repaired its own arc");
        for q in &queries {
            let out = net.query_resilient(q);
            assert!(out.exact, "partition for {q} lost after joins");
        }
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn mixed_churn_stream_keeps_answering() {
        let mut net = ChurnNetwork::new(20, SystemConfig::default().with_seed(5)).unwrap();
        let queries: Vec<RangeSet> = (0..40).map(|i| r(i * 10, i * 10 + 50)).collect();
        let mut answered = 0;
        for (i, q) in queries.iter().enumerate() {
            if i % 7 == 3 {
                net.fail_random(1);
                net.stabilize(64).expect("recovers");
            }
            if i % 11 == 5 {
                net.join_random().unwrap();
                net.stabilize(64).expect("converges");
            }
            if !net.query_resilient(q).fell_back_to_source {
                answered += 1;
            }
        }
        assert_eq!(answered, 40, "stabilized network must answer everything");
    }

    #[test]
    fn route_cached_churn_network_matches_uncached_modulo_hops() {
        // Twin networks, one with the Chord route cache enabled, driven
        // through the same churn + query stream. Every outcome field
        // except per-lookup hop counts must be identical (the cache serves
        // a memoized owner in one hop); total hops must not increase; and
        // repeated queries must actually hit.
        let base = SystemConfig::default().with_seed(31);
        let mut plain = ChurnNetwork::new(20, base.clone()).unwrap();
        let mut cached = ChurnNetwork::new(20, base.with_route_cache(256)).unwrap();
        // A route is cached per (origin, key), and a query routes each
        // distinct identifier once: hits come from a later query drawing
        // the same origin, so the stream repeats its six ranges often.
        let queries: Vec<RangeSet> = (0..120)
            .map(|i| r((i % 6) * 100, (i % 6) * 100 + 50))
            .collect();
        let (mut plain_hops, mut cached_hops) = (0usize, 0usize);
        for (i, q) in queries.iter().enumerate() {
            if i % 9 == 4 {
                plain.fail_random(1);
                cached.fail_random(1);
                plain.stabilize(64).expect("recovers");
                cached.stabilize(64).expect("recovers");
            }
            let a = plain.query_resilient(q);
            let b = cached.query_resilient(q);
            assert_eq!(a.best_match, b.best_match, "query {i}");
            assert_eq!(a.identifiers, b.identifiers, "query {i}");
            assert_eq!(a.stored, b.stored, "query {i}");
            assert_eq!(a.exact, b.exact, "query {i}");
            assert_eq!(a.peers_contacted, b.peers_contacted, "query {i}");
            assert_eq!(a.attempts, b.attempts, "query {i}");
            let (ah, bh): (usize, usize) = (a.hops.iter().sum(), b.hops.iter().sum());
            assert!(bh <= ah, "cache increased hops on query {i}");
            plain_hops += ah;
            cached_hops += bh;
        }
        assert_eq!(plain.total_partitions(), cached.total_partitions());
        let stats = cached.route_cache_stats();
        assert!(stats.hits > 0, "repeated queries must hit the route cache");
        assert!(
            cached_hops < plain_hops,
            "route cache saved no hops ({cached_hops} vs {plain_hops})"
        );
        assert_eq!(plain.route_cache_stats(), Default::default());
    }

    #[test]
    fn route_cached_resilient_queries_match_uncached() {
        // Same twin-network check through the retrying resilient path with
        // lookup loss: retries, attempts, and fallbacks must stay aligned
        // because the loss RNG draw happens before every lookup either way.
        let base = SystemConfig::default().with_seed(37);
        let mut plain = ChurnNetwork::new(15, base.clone()).unwrap();
        let mut cached = ChurnNetwork::new(15, base.with_route_cache(128)).unwrap();
        // A route is cached per (origin, key), a query routes each distinct
        // identifier once, and every retry's stabilization round clears the
        // cache: a hit needs a later query over the same range to draw the
        // same origin with no retry in between. 100 queries over five
        // ranges at 10 % loss see both — retries and hits.
        plain.set_lookup_loss(0.1);
        cached.set_lookup_loss(0.1);
        for i in 0..100u32 {
            let q = r((i % 5) * 80, (i % 5) * 80 + 40);
            let a = plain.query_resilient(&q);
            let b = cached.query_resilient(&q);
            assert_eq!(a.best_match, b.best_match, "query {i}");
            assert_eq!(a.attempts, b.attempts, "query {i}");
            assert_eq!(a.fell_back_to_source, b.fell_back_to_source, "query {i}");
            let (ah, bh): (usize, usize) = (a.hops.iter().sum(), b.hops.iter().sum());
            assert!(bh <= ah, "cache increased hops on query {i}");
        }
        assert!(plain.resilience().retries > 0, "loss forced no retry");
        assert_eq!(plain.resilience().retries, cached.resilience().retries);
        assert!(cached.route_cache_stats().hits > 0);
    }

    #[test]
    fn layered_walk_reads_the_true_owner_behind_a_stale_route() {
        // A peer joins just past a cached range's arc and the old owner's
        // copies move to it, but nobody has stabilized yet:
        // routing still ends at the old owner, second in the oracle's
        // window. The walk must read the window's head all the same.
        use crate::config::PlacementMode;
        let config = SystemConfig::default().with_seed(3);
        let mut net =
            ChurnNetwork::new(20, config.with_placement_mode(PlacementMode::Layered)).unwrap();
        let q = r(100, 200);
        let miss = net.query_resilient(&q);
        assert!(miss.stored);
        let anchors = net.anchors.as_ref();
        let key = crate::plan::tests::position(&net.config, anchors, miss.identifiers[0], &q);
        let old = net.chord.true_owner(key);
        let arc_end = Id(key.0 | ((1 << ars_chord::ARC_SPAN_BITS) - 1));
        let new = arc_end.plus(1);
        assert!(
            new.in_open(arc_end, old),
            "seed put a peer on the arc's edge"
        );
        net.chord.join(new, old).unwrap();
        net.alive.insert(new.0, Alive::new(&net.config, new));
        let held = net.alive.get_mut(&old.0).unwrap().peer.drain();
        net.lose_buckets(held.len() as u64);
        for (ident, range) in held {
            net.store_at(new.0, ident, &range);
        }
        assert_eq!(net.chord.true_owner(key), new);
        for &from in net.chord.alive_ids() {
            if from != new {
                assert_eq!(net.chord.lookup(from, key).unwrap().0, old, "stale");
            }
        }
        let hit = net.query_resilient(&q);
        assert!(hit.exact, "the walk skipped the peer that holds the copies");
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn starved_growth_reports_nonconvergence() {
        // Zero stabilization anywhere leaves predecessor-side successor
        // pointers stale on a 10-node ring; the constructor must surface
        // that as an error, not a panic or a silently broken network.
        let err = ChurnNetwork::with_growth_rounds(10, SystemConfig::default().with_seed(8), 0, 0);
        match err {
            Err(ChordError::NotConverged { rounds }) => assert_eq!(rounds, 0),
            Err(e) => panic!("expected NotConverged, got {e}"),
            Ok(_) => panic!("starved growth must not converge"),
        }
    }

    #[test]
    fn generous_growth_still_converges() {
        assert!(
            ChurnNetwork::with_growth_rounds(10, SystemConfig::default().with_seed(8), 32, 64)
                .is_ok()
        );
    }

    #[test]
    fn replication_places_r_copies_per_identifier() {
        let mut net = ChurnNetwork::new(
            12,
            SystemConfig::default().with_seed(21).with_replication(2),
        )
        .unwrap();
        let out = net.query_resilient(&r(100, 200));
        assert!(out.stored);
        // Each of the l identifiers is stored at 2 replica owners (which
        // may coincide across identifiers, but per identifier there are 2
        // distinct peers in a 12-node ring).
        for &ident in &out.identifiers {
            let owners = net.replica_owners(ident, &r(100, 200));
            assert_eq!(owners.len(), 2);
            let held = owners
                .iter()
                .filter(|o| {
                    net.peer(o.0)
                        .map(|p| p.bucket(ident).is_some())
                        .unwrap_or(false)
                })
                .count();
            assert_eq!(held, 2, "identifier {ident} missing a replica");
        }
    }

    #[test]
    fn replication_survives_abrupt_failure() {
        let mut net =
            ChurnNetwork::new(12, SystemConfig::default().with_seed(2).with_replication(2))
                .unwrap();
        net.query_resilient(&r(100, 200));
        // Kill the *primary* owner of every identifier; the replica (next
        // successor) must keep every bucket findable after stabilization.
        let out = net.query_resilient(&r(100, 200));
        assert!(out.exact, "warm cache before failure");
        let primaries: Vec<Id> = out
            .identifiers
            .iter()
            .map(|&i| net.replica_owners(i, &r(100, 200))[0])
            .collect();
        for p in primaries {
            if net.len() > 2 && net.chord().node_ids().contains(&p) {
                net.fail(p).unwrap();
            }
        }
        net.stabilize(128).expect("recovers");
        let after = net.query_resilient(&r(100, 200));
        assert!(after.exact, "replicated partition lost to primary failures");
        assert!(net.resilience().re_replications > 0);
    }

    #[test]
    fn unreplicated_failure_still_loses_buckets() {
        // The r = 1 baseline keeps the paper's soft-state behavior: killing
        // every holder loses the data (the replication test above is the
        // contrast).
        let mut net = small_net(2);
        net.query_resilient(&r(100, 200));
        let holders: Vec<Id> = net
            .chord()
            .node_ids()
            .into_iter()
            .filter(|id| {
                net.peer(id.0)
                    .map(|p| p.partition_count() > 0)
                    .unwrap_or(false)
            })
            .collect();
        for h in holders {
            if net.len() > 1 {
                net.fail(h).unwrap();
            }
        }
        net.stabilize(128).expect("recovers");
        assert_eq!(net.total_partitions(), 0);
        assert_eq!(net.resilience().replicas_restored, 0, "no copy survived");
    }

    #[test]
    fn lookup_loss_drives_retries_but_queries_survive() {
        let mut net = small_net(17);
        net.set_lookup_loss(0.3);
        for i in 0..10u32 {
            // Clear of 0, which every bit permutation fixes: five
            // distinct identifiers per query.
            let out = net.query_resilient(&r(5_000 + i * 30, 5_040 + i * 30));
            assert!(out.attempts >= 5, "at least one attempt per identifier");
        }
        assert!(net.resilience().retries > 0, "30% loss must force retries");
        assert_eq!(
            net.resilience().lookups_attempted,
            net.resilience().retries + 50,
            "attempts = first tries + retries"
        );
    }

    #[test]
    fn telemetry_attempt_ledger_balances_under_loss() {
        let mut net = small_net(17);
        let tel = Telemetry::recording();
        net.set_telemetry(tel.clone());
        net.set_lookup_loss(0.3);
        for i in 0..10u32 {
            net.query_resilient(&r(i * 30, i * 30 + 40));
        }
        let snap = tel.snapshot();
        // Per lookup: n attempts = 1 first try (success or failure) plus
        // n−1 retries, so the counters balance exactly.
        assert_eq!(
            snap.counter("resilient.attempts"),
            snap.counter("resilient.successes")
                + snap.counter("resilient.failures")
                + snap.counter("resilient.retries")
        );
        assert!(snap.counter("resilient.retries") > 0, "30% loss retries");
        assert_eq!(snap.counter("resilient.queries"), 10);
        // The registry mirrors ResilienceStats exactly.
        assert_eq!(
            snap.counter("resilient.attempts"),
            net.resilience().lookups_attempted
        );
        assert_eq!(snap.counter("resilient.retries"), net.resilience().retries);
        assert_eq!(
            snap.counter("resilient.backoff_spent"),
            net.resilience().backoff_time
        );
        // Chord lookups triggered by the query path share the sink.
        assert!(snap.counter("chord.lookups") > 0);
    }

    #[test]
    fn re_replication_emits_one_store_event_per_copy() {
        let mut net =
            ChurnNetwork::new(12, SystemConfig::default().with_seed(2).with_replication(2))
                .unwrap();
        net.query_resilient(&r(100, 200));
        let out = net.query_resilient(&r(100, 200));
        assert!(out.exact, "warm cache first");
        let tel = Telemetry::recording();
        net.set_telemetry(tel.clone());
        let before = net.resilience().replicas_restored;
        let primary = net.replica_owners(out.identifiers[0], &r(100, 200))[0];
        net.fail(primary).unwrap(); // triggers re_replicate internally
        let restored = net.resilience().replicas_restored - before;
        assert!(restored > 0, "losing a primary must restore copies");
        let events = tel.events_named("replica.store");
        assert_eq!(events.len() as u64, restored);
        assert_eq!(tel.snapshot().counter("replica.stores"), restored);
        assert!(events
            .iter()
            .all(|e| e.field_u64("ident").is_some() && e.field_u64("node").is_some()));
    }

    #[test]
    #[should_panic(expected = "slow factor must be at least 2")]
    fn slow_fraction_rejects_a_small_factor_even_with_no_victims() {
        small_net(1).slow_fraction(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lookup_loss_rejects_bad_probability() {
        small_net(1).set_lookup_loss(1.5);
    }

    fn durable_config(seed: u64) -> SystemConfig {
        SystemConfig::default()
            .with_seed(seed)
            .with_durability(crate::durable::DurabilityConfig::default())
    }

    #[test]
    fn fail_counts_silently_discarded_buckets() {
        let mut net = small_net(2);
        net.query_resilient(&r(100, 200));
        let live = net.total_partitions() as u64;
        assert!(live >= 1);
        assert_eq!(net.resilience().buckets_lost, 0);
        let holder = net
            .chord()
            .node_ids()
            .into_iter()
            .find(|id| {
                net.peer(id.0)
                    .map(|p| p.partition_count() > 0)
                    .unwrap_or(false)
            })
            .expect("someone holds the cache");
        let held = net.peer(holder.0).unwrap().partition_count() as u64;
        net.fail(holder).unwrap();
        assert_eq!(net.resilience().buckets_lost, held);
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn ledger_identity_holds_across_mixed_churn() {
        let mut net = ChurnNetwork::new(16, durable_config(9)).unwrap();
        for i in 0..8u32 {
            net.query_resilient(&r(i * 40, i * 40 + 60));
            net.check_bucket_ledger().unwrap();
        }
        net.fail_random(2);
        net.check_bucket_ledger().unwrap();
        let leaver = net.chord().node_ids()[1];
        net.leave(leaver).unwrap();
        net.check_bucket_ledger().unwrap();
        net.join_random().unwrap();
        net.check_bucket_ledger().unwrap();
        let downed = net.crash_random(3);
        net.check_bucket_ledger().unwrap();
        for id in downed {
            net.restart(id).unwrap();
            net.check_bucket_ledger().unwrap();
        }
        net.stabilize(128).expect("recovers");
        net.repair_until_quiescent(64, 1_000).expect("quiesces");
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn crash_without_durability_loses_buckets_but_restart_rejoins() {
        let mut net = small_net(4);
        net.query_resilient(&r(100, 200));
        let n = net.len();
        let victim = net.crash_random(1)[0];
        assert_eq!(net.len(), n - 1);
        assert_eq!(net.crashed.len(), 1);
        let recovered = net.restart(victim).unwrap();
        assert_eq!(recovered, 0, "no disks, nothing to replay");
        assert_eq!(net.len(), n);
        assert_eq!(net.crashed.len(), 0);
        net.stabilize(128).expect("recovers");
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn crash_restart_recovers_buckets_from_disk() {
        let mut net = ChurnNetwork::new(12, durable_config(6)).unwrap();
        net.query_resilient(&r(100, 200));
        assert!(net.query_resilient(&r(100, 200)).exact, "warm cache");
        let before = net.total_partitions();
        // Crash every holder; with r = 1 the live cache is entirely gone.
        let holders: Vec<Id> = net
            .chord()
            .node_ids()
            .into_iter()
            .filter(|id| {
                net.peer(id.0)
                    .map(|p| p.partition_count() > 0)
                    .unwrap_or(false)
            })
            .collect();
        for h in &holders {
            net.crash(*h).unwrap();
        }
        assert_eq!(net.total_partitions(), 0, "crash drops the live cache");
        // Restart replays the logs: every copy comes back, and because the
        // same ids rejoin at the same ring positions, the warm hit returns
        // without any repair round.
        let mut recovered = 0;
        for h in &holders {
            recovered += net.restart(*h).unwrap();
        }
        net.stabilize(128).expect("recovers");
        assert_eq!(recovered, before, "every synced copy must replay");
        assert_eq!(net.total_partitions(), before);
        assert!(net.query_resilient(&r(100, 200)).exact, "cache survived");
        assert_eq!(net.resilience().buckets_recovered, before as u64);
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn restart_of_a_never_crashed_peer_errors() {
        let mut net = small_net(1);
        let alive = net.chord().node_ids()[0];
        match net.restart(alive) {
            Err(ChordError::UnknownNode(id)) => assert_eq!(id, alive),
            other => panic!("expected UnknownNode, got {other:?}"),
        }
    }

    #[test]
    fn anti_entropy_reaches_the_oracle_fixed_point() {
        // Two identical networks diverge replicas the same way; one runs
        // the budgeted digest-exchange repair, the other the global oracle
        // sweep. Their inventories must be bit-identical at the end.
        let run = |seed: u64| {
            let mut net = ChurnNetwork::new(14, durable_config(seed).with_replication(2)).unwrap();
            for i in 0..6u32 {
                net.query_resilient(&r(i * 70, i * 70 + 80));
            }
            let downed = net.crash_random(3);
            for id in downed {
                net.restart(id).unwrap();
            }
            net.stabilize(128).expect("recovers");
            net
        };
        let mut repaired = run(11);
        let mut oracle = run(11);
        assert_eq!(repaired.inventory(), oracle.inventory(), "same divergence");
        let rounds = repaired
            .repair_until_quiescent(64, 5)
            .expect("repair quiesces");
        assert!(rounds >= 1);
        oracle.re_replicate();
        assert_eq!(
            repaired.inventory(),
            oracle.inventory(),
            "anti-entropy fixed point must equal the oracle sweep"
        );
        // Quiescent means a further round moves nothing.
        let extra = repaired.anti_entropy_round(1_000);
        assert_eq!(extra.entries_sent, 0);
        assert!(!extra.hit_budget);
        repaired.check_bucket_ledger().unwrap();
    }

    #[test]
    fn repair_budget_cuts_rounds_short_but_converges() {
        let mut net = ChurnNetwork::new(14, durable_config(12).with_replication(3)).unwrap();
        for i in 0..6u32 {
            net.query_resilient(&r(i * 70, i * 70 + 80));
        }
        let downed = net.crash_random(4);
        for id in downed {
            net.restart(id).unwrap();
        }
        net.stabilize(128).expect("recovers");
        let first = net.anti_entropy_round(1);
        if first.entries_sent > 0 {
            assert!(first.hit_budget, "budget 1 must cut a non-trivial round");
            assert_eq!(first.entries_sent, 1);
        }
        let rounds = net.repair_until_quiescent(10_000, 1).expect("quiesces");
        // One entry per round, plus the final empty round that proves
        // quiescence.
        assert_eq!(
            rounds as u64,
            net.resilience().repair_entries_sent - first.entries_sent + 1
        );
        let extra = net.anti_entropy_round(1_000);
        assert_eq!(extra.entries_sent, 0);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_repair_budget_rejected() {
        small_net(1).anti_entropy_round(0);
    }

    /// The k smallest node ids become the minority island.
    fn split_minority(net: &mut ChurnNetwork, k: usize) -> (Vec<Id>, Vec<Id>) {
        let ids = net.chord().node_ids();
        assert!(k < ids.len());
        let minority: Vec<Id> = ids.iter().copied().take(k).collect();
        let majority: Vec<Id> = ids.iter().copied().skip(k).collect();
        net.partition(&[majority.clone(), minority.clone()]);
        (majority, minority)
    }

    #[test]
    fn partitioned_queries_degrade_and_heal_reconciles() {
        let mut net = ChurnNetwork::new(
            16,
            SystemConfig::default().with_seed(41).with_replication(2),
        )
        .unwrap();
        net.query_resilient(&r(100, 200));
        assert!(net.query_resilient(&r(100, 200)).exact, "warm cache");
        split_minority(&mut net, 5);
        net.stabilize(128).expect("islands settle");
        assert!(net.is_partitioned());
        // In-window queries never error; origins land on both sides, so
        // some must observe that a global owner sits across the split.
        let mut degraded = 0u64;
        for i in 0..12u32 {
            let out = net.query_resilient(&r(i * 60, i * 60 + 70));
            assert!((0.0..=1.0).contains(&out.recall));
            degraded += out.partition_degraded as u64;
        }
        assert!(degraded > 0, "a 5/16 split must degrade some queries");
        assert_eq!(net.resilience().partition_degraded_queries, degraded);
        assert!(
            net.resilience().partition_writes > 0,
            "in-window caching writes island-locally"
        );
        // Heal the ring, then reconcile storage: the pre-partition cache
        // must be an exact, undegraded hit again.
        let rejoined = net.heal();
        assert!(rejoined > 0, "split-brain rings must need rejoin edges");
        assert!(!net.is_partitioned());
        net.stabilize(128).expect("ring re-merges");
        net.repair_until_quiescent(256, 1_000)
            .expect("reconciliation quiesces");
        let out = net.query_resilient(&r(100, 200));
        assert!(out.exact, "pre-partition cache findable after heal");
        assert!(!out.partition_degraded);
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn post_heal_repair_matches_oracle_re_replication() {
        // Twin networks diverge identically through a partition window;
        // after healing, budgeted anti-entropy on one and the oracle sweep
        // on the other must land on bit-identical inventories.
        let run = |_: ()| {
            let mut net = ChurnNetwork::new(
                14,
                SystemConfig::default().with_seed(23).with_replication(2),
            )
            .unwrap();
            for i in 0..4u32 {
                net.query_resilient(&r(i * 90, i * 90 + 80));
            }
            split_minority(&mut net, 4);
            net.stabilize(128).expect("islands settle");
            for i in 0..8u32 {
                net.query_resilient(&r(i * 70 + 20, i * 70 + 90));
            }
            net.heal();
            net.stabilize(128).expect("ring re-merges");
            net
        };
        let mut repaired = run(());
        let mut oracle = run(());
        assert_eq!(repaired.inventory(), oracle.inventory(), "same divergence");
        assert!(repaired.resilience().partition_writes > 0);
        repaired
            .repair_until_quiescent(512, 7)
            .expect("repair quiesces");
        oracle.re_replicate();
        assert_eq!(
            repaired.inventory(),
            oracle.inventory(),
            "post-heal anti-entropy must reach the oracle fixed point"
        );
        let extra = repaired.anti_entropy_round(1_000);
        assert_eq!(extra.entries_sent, 0);
        repaired.check_bucket_ledger().unwrap();
    }

    #[test]
    fn leave_during_partition_hands_buckets_island_locally() {
        let mut net = ChurnNetwork::new(16, SystemConfig::default().with_seed(41)).unwrap();
        let (_, minority) = split_minority(&mut net, 5);
        net.stabilize(128).expect("islands settle");
        // Populate minority-island storage through in-window queries.
        for i in 0..10u32 {
            net.query_resilient(&r(i * 55, i * 55 + 65));
        }
        let leaver = *minority
            .iter()
            .find(|m| {
                net.peer(m.0)
                    .map(|p| p.partition_count() > 0)
                    .unwrap_or(false)
            })
            .expect("some minority node caches a partition in-window");
        let handed: Vec<(u32, RangeSet)> = net
            .peer(leaver.0)
            .unwrap()
            .entries()
            .map(|(i, rg)| (i, rg.clone()))
            .collect();
        net.leave(leaver).unwrap();
        net.stabilize(128).expect("recovers");
        for (ident, range) in &handed {
            let in_minority = minority.iter().filter(|m| **m != leaver).any(|m| {
                net.peer(m.0)
                    .and_then(|p| p.bucket(*ident))
                    .map(|b| b.contains(range))
                    .unwrap_or(false)
            });
            assert!(
                in_minority,
                "copy for identifier {ident} must stay inside the island"
            );
        }
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn leave_as_sole_island_member_loses_buckets() {
        let mut net = ChurnNetwork::new(12, SystemConfig::default().with_seed(2)).unwrap();
        net.query_resilient(&r(100, 200));
        let ids = net.chord().node_ids();
        let holder = *ids
            .iter()
            .find(|id| {
                net.peer(id.0)
                    .map(|p| p.partition_count() > 0)
                    .unwrap_or(false)
            })
            .expect("someone holds the cache");
        let rest: Vec<Id> = ids.iter().copied().filter(|i| *i != holder).collect();
        let held = net.peer(holder.0).unwrap().partition_count() as u64;
        net.partition(&[rest, vec![holder]]);
        let lost_before = net.resilience().buckets_lost;
        // Nobody reachable to inherit: the copies are lost, like an
        // abrupt failure, and the ledger records it.
        net.leave(holder).unwrap();
        assert_eq!(net.resilience().buckets_lost, lost_before + held);
        net.heal();
        net.stabilize(128).expect("recovers");
        net.check_bucket_ledger().unwrap();
    }

    #[test]
    fn unset_deadline_is_bit_for_bit_with_unreachable_deadline() {
        // The deadline budget must not perturb the deterministic stream
        // when it never fires: a policy with a never-reached deadline
        // replays identically to the default.
        let mut a = ChurnNetwork::new(15, SystemConfig::default().with_seed(37)).unwrap();
        let mut b = ChurnNetwork::new(15, SystemConfig::default().with_seed(37)).unwrap();
        b.set_retry_policy(RetryPolicy::default().with_deadline(u64::MAX));
        a.set_lookup_loss(0.3);
        b.set_lookup_loss(0.3);
        for i in 0..20u32 {
            let q = r((i % 5) * 80, (i % 5) * 80 + 40);
            assert_eq!(a.query_resilient(&q), b.query_resilient(&q), "query {i}");
        }
        assert!(a.resilience().retries > 0, "loss must force retries");
        assert_eq!(a.resilience(), b.resilience());
    }

    #[test]
    fn zero_deadline_forfeits_every_retry() {
        let mut net = ChurnNetwork::new(15, SystemConfig::default().with_seed(37)).unwrap();
        net.set_retry_policy(RetryPolicy::default().with_deadline(0));
        net.set_lookup_loss(0.4);
        for i in 0..15u32 {
            let out = net.query_resilient(&r(i * 50, i * 50 + 45));
            assert!((0.0..=1.0).contains(&out.recall));
        }
        assert_eq!(net.resilience().retries, 0, "deadline 0 bars all retries");
        assert!(net.resilience().deadline_exhausted > 0);
        assert!(
            net.resilience().lookups_failed > 0,
            "lost lookups give up on the spot"
        );
        assert_eq!(net.resilience().backoff_time, 0, "no waiting ever happens");
    }

    /// The `chord.*` lookup counters and the `replica.*` repair counters
    /// after every step of one seeded fail / join / partition / heal
    /// schedule, pinned: a change to how stabilization resolves fingers or
    /// how repair places copies must leave every route, lookup and copy
    /// as it was. Independent placement under both `Placement` variants,
    /// and layered placement.
    #[test]
    fn churn_schedule_counts_are_pinned() {
        use crate::config::{Placement, PlacementMode};
        type Step = (&'static str, fn(&mut ChurnNetwork));
        /// Queries `from..from + 30` of one seeded uniform trace.
        fn queries(net: &mut ChurnNetwork, from: usize) {
            let trace = ars_workload::uniform_trace(from + 30, 0, 2_000, 9);
            for q in &trace.queries()[from..] {
                net.query_resilient(q);
            }
        }
        let steps: [Step; 16] = [
            ("warm", |n| queries(n, 0)),
            ("fail", |n| n.fail_random(1)),
            ("stabilize", |n| {
                let _ = n.stabilize(64);
            }),
            ("join", |n| {
                let _ = n.join_random();
            }),
            ("stabilize", |n| {
                let _ = n.stabilize(64);
            }),
            ("query", |n| queries(n, 30)),
            ("partition", |n| {
                let _ = split_minority(n, 6);
            }),
            ("settle", |n| n.settle(2)),
            ("split query", |n| queries(n, 60)),
            ("split fail", |n| n.fail_random(1)),
            ("split join", |n| {
                let _ = n.join_random();
            }),
            ("heal", |n| {
                let _ = n.heal();
            }),
            ("settle", |n| n.settle(1)),
            ("re-replicate", |n| {
                let _ = n.re_replicate();
            }),
            ("anti-entropy", |n| {
                let _ = n.repair_until_quiescent(16, 1_000);
            }),
            ("query", |n| queries(n, 90)),
        ];
        let base = SystemConfig::default().with_seed(13).with_replication(2);
        let direct = base.clone().with_placement(Placement::Direct);
        let layered = (base.clone().with_placement_mode(PlacementMode::Layered))
            .with_probes(16)
            .with_walk_window(2);
        // (lookups, hops, finger touches, lookup failures, scanned, stores)
        // after each step.
        let pinned: [[[u64; 6]; 16]; 3] = [
            [
                [150, 407, 10_280, 0, 0, 0],
                [150, 407, 10_280, 0, 5, 5],
                [150, 407, 10_280, 0, 5, 5],
                [1111, 1581, 18_644, 0, 31, 18],
                [2071, 2746, 26_844, 0, 31, 18],
                [2221, 3157, 37_284, 0, 31, 18],
                [2221, 3157, 37_284, 0, 31, 18],
                [4141, 5385, 52_500, 56, 31, 18],
                [4291, 5757, 61_159, 56, 31, 18],
                [4291, 5757, 61_159, 56, 904, 52],
                [5252, 6900, 68_122, 56, 1811, 53],
                [5252, 6900, 68_122, 56, 1811, 53],
                [6212, 8113, 77_999, 56, 1811, 53],
                [6212, 8113, 77_999, 56, 2719, 159],
                [6212, 8113, 77_999, 56, 2719, 159],
                [6362, 8539, 88_755, 56, 2719, 159],
            ],
            [
                [150, 375, 9000, 0, 0, 0],
                [150, 375, 9000, 0, 0, 0],
                [150, 375, 9000, 0, 0, 0],
                [1111, 1549, 17_364, 0, 0, 0],
                [2071, 2714, 25_564, 0, 0, 0],
                [2221, 3114, 35_564, 0, 0, 0],
                [2221, 3114, 35_564, 0, 0, 0],
                [4141, 5342, 50_780, 56, 0, 0],
                [4291, 5707, 58_995, 56, 0, 0],
                [4291, 5707, 58_995, 56, 900, 0],
                [5252, 6850, 65_958, 56, 1800, 0],
                [5252, 6850, 65_958, 56, 1800, 0],
                [6212, 8063, 75_835, 56, 1800, 0],
                [6212, 8063, 75_835, 56, 2700, 240],
                [6212, 8063, 75_835, 56, 2700, 240],
                [6362, 8553, 89_210, 56, 2700, 240],
            ],
            [
                [30, 87, 2280, 0, 0, 0],
                [30, 87, 2280, 0, 0, 0],
                [30, 87, 2280, 0, 0, 0],
                [991, 1261, 10_644, 0, 20, 10],
                [1951, 2426, 18_844, 0, 20, 10],
                [1981, 2506, 20_844, 0, 20, 10],
                [1981, 2506, 20_844, 0, 20, 10],
                [3901, 4734, 36_060, 56, 20, 10],
                [3931, 4813, 37_969, 56, 20, 10],
                [3931, 4813, 37_969, 56, 890, 45],
                [4892, 5956, 44_932, 56, 1795, 45],
                [4892, 5956, 44_932, 56, 1795, 45],
                [5852, 7169, 54_809, 56, 1795, 45],
                [5852, 7169, 54_809, 56, 2700, 125],
                [5852, 7169, 54_809, 56, 2700, 125],
                [5882, 7254, 56_961, 56, 2700, 125],
            ],
        ];
        let mut seen = Vec::new();
        for (name, config) in [
            ("independent", base),
            ("direct", direct),
            ("layered", layered),
        ] {
            let mut net = ChurnNetwork::new(30, config).expect("growth converges");
            let tel = Telemetry::recording();
            net.set_telemetry(tel.clone());
            let mut got = Vec::new();
            for (step, run) in steps {
                run(&mut net);
                let snap = tel.snapshot();
                let counts = [
                    "chord.lookups",
                    "chord.hops",
                    "chord.finger_touches",
                    "chord.lookup_failures",
                    "replica.scanned",
                    "replica.stores",
                ]
                .map(|c| snap.counter(c));
                got.push((step, counts));
            }
            seen.push((name, got));
        }
        let all = format!("{seen:?}");
        for ((name, got), want) in seen.iter().zip(pinned) {
            for ((step, counts), want) in got.iter().zip(want) {
                assert_eq!(*counts, want, "{name}, after {step}\n{all}");
            }
        }
    }

    /// Repair places through the hash stage's memo: every (identifier,
    /// range) a repair sweep reads — every copy on every alive peer, after
    /// queries, failures, joins and both repair passes — gets from
    /// [`HashStage::placer`] the position the unmemoised oracle gives it, twice
    /// over (the second time from the memo), under independent placement
    /// with both `Placement` variants and under layered placement, where
    /// the copies name more anchors than the memo's arc table holds.
    #[test]
    fn repair_places_every_copy_where_position_does() {
        use crate::config::{Placement, PlacementMode};
        let base = SystemConfig::default().with_seed(21).with_replication(2);
        let direct = base.clone().with_placement(Placement::Direct);
        let layered = (base.clone().with_placement_mode(PlacementMode::Layered))
            .with_probes(16)
            .with_walk_window(2);
        for config in [base, direct, layered] {
            let mut net = ChurnNetwork::new(24, config.clone()).expect("growth converges");
            // The §5.1 trace's repeats, then more distinct ranges than the
            // memo's arc table holds anchors.
            let trace = ars_workload::uniform_trace(200, 0, 3_000, 4);
            let distinct = crate::plan::tests::pool(&mut DetRng::new(4), 1_800, 1 << 24);
            for (i, q) in trace.queries().iter().chain(&distinct).enumerate() {
                net.query_resilient(q);
                if i % 50 == 49 {
                    net.fail_random(1);
                    net.join_random().expect("a peer joins");
                }
            }
            net.re_replicate();
            net.repair_until_quiescent(8, 1_000)
                .expect("repair quiesces");
            let mut copies = 0;
            let mut arcs = std::collections::BTreeSet::new();
            for _ in 0..2 {
                for alive in net.alive.values() {
                    for (ident, bucket) in alive.peer.buckets() {
                        let anchors = net.anchors.as_ref();
                        let mut place = net.hash.placer(&net.config, anchors, ident);
                        for range in bucket.ranges() {
                            let want =
                                crate::plan::tests::position(&config, anchors, ident, &range);
                            assert_eq!(place(&range), want, "{ident} {range}");
                            copies += 1;
                            arcs.extend(anchors.map(|s| s.identifiers(&range)[0]));
                        }
                    }
                }
            }
            assert!(copies > 400, "the sweep reads the cache: {copies}");
            let slots = 1 << crate::plan::ARC_BITS;
            assert!(
                net.anchors.is_none() || arcs.len() > slots,
                "{} anchors",
                arcs.len()
            );
        }
    }

    #[test]
    fn query_resilient_survives_unstabilized_mass_failure() {
        // Crash a third of the ring and query *before* stabilization: the
        // retry path (failure-aware routing + backoff-with-stabilize) must
        // answer without panicking or erroring, falling back to source only
        // as a last resort.
        let mut net = ChurnNetwork::new(20, SystemConfig::default().with_seed(31)).unwrap();
        net.query_resilient(&r(100, 200));
        net.fail_random(6);
        let mut fallbacks = 0;
        for i in 0..10u32 {
            let out = net.query_resilient(&r(i * 50, i * 50 + 60));
            assert!(out.recall >= 0.0 && out.recall <= 1.0);
            fallbacks += out.fell_back_to_source as u32;
        }
        assert_eq!(
            net.resilience().source_fallbacks as u32,
            fallbacks,
            "stats must agree with outcomes"
        );
    }
}
