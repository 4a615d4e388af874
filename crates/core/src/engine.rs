//! The concurrent query engine: per-shard commit, per-shard RNG streams,
//! and a worker pool behind one batch call.
//!
//! [`RangeSelectNetwork::query`] and `query_batch` run every stage of a
//! query — hash, plan, commit — on the calling thread, so their
//! throughput is bounded by a single core no matter how wide the machine
//! is. This module runs the same `plan_query` / `commit_plan` pair on
//! worker threads by partitioning the network's mutable state into
//! **shards**:
//!
//! * each shard owns a slice of the peers (by ring position), a segment
//!   of the [`IdentifierCache`], and its own [`NetworkStats`]
//!   accumulator, each behind its own lock;
//! * each shard has its own deterministic RNG stream, split off the
//!   network generator with [`DetRng::split_streams`] — stream 0
//!   continues the unsplit sequence exactly, so a one-shard engine
//!   reproduces the sequential path bit for bit;
//! * commits for queries touching disjoint shard sets run concurrently;
//!   commits that share a shard are ordered by a deterministic
//!   conflict scheduler (below), so the *outcomes* are identical across
//!   every worker count and schedule.
//!
//! # The equivalence contract
//!
//! The sequential path promises bit-identical replay. The engine relaxes
//! that to **equivalent modulo commutative reordering**:
//!
//! * **Outcomes are schedule-invariant** — in fact bitwise equal across
//!   worker counts at a fixed shard count, because the conflict scheduler
//!   commits any two queries that touch a common shard in submission
//!   order, and commits that reorder freely touch disjoint peers (so
//!   they commute). Changing the *shard count* changes which RNG stream
//!   draws each origin, so outcomes differ across shard counts only in
//!   origin-dependent fields (`hops`); identifiers, owners, matches, and
//!   recall are origin-independent.
//! * **Ledgers are conserved** — stats and cache counters are sums of
//!   commutative additions, so the merged totals are schedule-invariant:
//!   cache `hits + misses == queries`, `lookups == Σ attempts`, etc. The
//!   hit/miss *split* may differ from the sequential path when two
//!   workers race to first-compute the same range (both miss), which is
//!   exactly the relaxation; with one worker the split is sequential-
//!   exact (asserted in tests).
//!
//! # The conflict scheduler
//!
//! Prepared queries enroll in submission order; each shard keeps a FIFO
//! of enrolled queries that will touch it. A query commits when it is at
//! the head of *every* owner shard's FIFO — so two conflicting commits
//! always apply in submission order (making the outcome deterministic),
//! while disjoint commits proceed concurrently on different workers, and
//! a shard's locks are, by construction, never contended by two commits
//! at once.
//!
//! # The worker runtime
//!
//! The module's public surface is [`EngineOptions`] and two methods:
//! [`RangeSelectNetwork::query_batch_concurrent_with`] and its inline
//! oracle [`RangeSelectNetwork::query_trace_sharded`]. Behind the batch
//! call a private runtime spawns a pool of worker threads draining jobs
//! from one shared queue (a `Mutex<VecDeque>` and a `Condvar` — `std`
//! alone): `Prepare` jobs hash/route a query against the immutable ring
//! snapshot, `Commit` jobs apply scheduled commits. Submission blocks
//! once [`EngineOptions::queue`] queries are in flight; shutdown waits
//! the pipeline empty, joins the workers, merges the shards back into
//! the donor network (peers union, stats and cache-counter sums, cache
//! segments re-concatenated and re-trimmed, RNG advanced to stream 0's
//! final state) and returns the outcomes in submission order.

use crate::config::SystemConfig;
use crate::network::{
    commit_plan, plan_query, IdentifierCache, NetworkStats, PeerAccess, QueryOutcome, QueryPlan,
    RangeSelectNetwork, StatsSink,
};
use crate::peer::Peer;
use crate::plan::{hashed_range, identifiers_of, resolve, targets, Placed};
use ars_chord::{Id, Ring};
use ars_common::{DetRng, FxHashMap, FxHasher};
use ars_lsh::{HashGroups, RangeSet};
use ars_telemetry::Telemetry;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, MutexGuard};

/// Tuning knobs for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// State shards (≥ 1). Fixed per run; affects RNG stream assignment,
    /// so outcomes are comparable only at equal shard counts.
    pub shards: usize,
    /// Worker threads; `0` = one per available core. Never affects
    /// outcomes, only the schedule.
    pub workers: usize,
    /// In-flight query bound: submission blocks while this many queries
    /// are prepared or waiting to commit.
    pub queue: usize,
}

impl EngineOptions {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Shard index owning ring position `peer` out of `nshards`.
/// Multiplicative hashing spreads the (already SHA-1-uniformized) ring
/// positions evenly regardless of shard count.
fn shard_of(peer: u32, nshards: usize) -> usize {
    (((peer as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % nshards as u64) as usize
}

/// Identifier-cache segment for a hashed range.
fn segment_of(range: &RangeSet, nshards: usize) -> usize {
    let mut h = FxHasher::default();
    range.hash(&mut h);
    (h.finish() % nshards as u64) as usize
}

/// `std::sync::Mutex` that ignores poisoning. A worker panic is caught at
/// the job boundary and latched in [`Shared::failure`], which is how the
/// caller learns of it; the locks an unwound commit held must stay usable
/// so its successors commit and the shards merge back.
struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The peers owned by one shard.
struct ShardCore {
    peers: FxHashMap<u32, Peer>,
}

/// One independently locked slice of the network's mutable state. The
/// three locks are separate on purpose: prepares touch only `cache`,
/// commits touch `core` (and `stats` transiently), so the two pipeline
/// stages never contend with each other.
struct Shard {
    core: Mutex<ShardCore>,
    cache: Mutex<IdentifierCache>,
    stats: Mutex<NetworkStats>,
}

/// A worker panicked while processing a query. The panic was caught at
/// the job boundary: the worker thread survives, the conflict scheduler
/// is released (a panicked prepare enrolls a tombstone so the
/// submission-order watermark still advances; a panicked commit pops its
/// shard FIFOs), and the first failure is latched until shutdown, which
/// returns it instead of deadlocking.
#[derive(Debug)]
struct WorkerPanic {
    /// Sequence number of the poisoned query.
    seq: u64,
    /// Pipeline stage that panicked (`"prepare"` or `"commit"`).
    stage: &'static str,
    /// The panic payload, when it was a string.
    message: String,
}

/// Render a caught panic payload for [`WorkerPanic::message`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A query after its read-only phase: hashed, identifiers and positions
/// resolved (via the owning cache segment), planned against the immutable
/// ring — everything the commit needs, plus the sorted set of shards it
/// will lock.
struct Prepared {
    query: RangeSet,
    hashed: RangeSet,
    placed: Placed,
    plan: QueryPlan,
    shards: Vec<usize>,
}

/// The shared immutable context plus the shard array.
struct EngineCore {
    config: SystemConfig,
    groups: HashGroups,
    /// Anchor-sketch group for layered placement (unused under the
    /// default independent mode).
    anchors: Option<HashGroups>,
    ring: Ring,
    telemetry: Telemetry,
    nshards: usize,
    shards: Vec<Shard>,
    /// Test-only fault hook: a query equal to the range panics at the
    /// named stage, exercising the worker supervision path.
    #[cfg(test)]
    poison: Mutex<Option<(RangeSet, &'static str)>>,
}

/// [`PeerAccess`] over the locked owner shards of one commit.
struct ShardedView<'a> {
    nshards: usize,
    guards: Vec<(usize, MutexGuard<'a, ShardCore>)>,
}

impl PeerAccess for ShardedView<'_> {
    fn peer(&self, id: u32) -> Option<&Peer> {
        let s = shard_of(id, self.nshards);
        let (_, guard) = self.guards.iter().find(|(i, _)| *i == s)?;
        guard.peers.get(&id)
    }
    fn peer_mut(&mut self, id: u32) -> Option<&mut Peer> {
        let s = shard_of(id, self.nshards);
        let (_, guard) = self.guards.iter_mut().find(|(i, _)| *i == s)?;
        guard.peers.get_mut(&id)
    }
}

/// [`StatsSink`] routing lookup counts to the owner's shard and query
/// counts to the query's home shard (`seq % nshards`). Each add takes
/// the target shard's stats lock transiently; adds commute, so placement
/// plus merge reproduces the global totals.
struct ShardStats<'a> {
    shards: &'a [Shard],
    nshards: usize,
    home: usize,
}

impl StatsSink for ShardStats<'_> {
    fn on_lookup(&mut self, owner: Id, hops: usize) {
        let mut stats = self.shards[shard_of(owner.0, self.nshards)].stats.lock();
        stats.lookups += 1;
        stats.total_hops += hops as u64;
    }
    fn on_dedup_saved(&mut self, count: usize) {
        self.shards[self.home].stats.lock().dedup_saved_lookups += count as u64;
    }
    fn on_walk(&mut self, steps: usize) {
        self.shards[self.home].stats.lock().walk_steps += steps as u64;
    }
    fn on_probes(&mut self, count: usize) {
        self.shards[self.home].stats.lock().probe_checks += count as u64;
    }
    fn on_query(&mut self, matched: bool, exact: bool, stored: bool) {
        let mut stats = self.shards[self.home].stats.lock();
        stats.queries += 1;
        if matched {
            stats.matched += 1;
        }
        if exact {
            stats.exact += 1;
        }
        if stored {
            stats.stored += 1;
        }
    }
}

impl EngineCore {
    /// Partition `net`'s mutable state (peers, identifier cache) into
    /// `nshards` shards, leaving the network hollow until
    /// [`Self::reassemble`] puts everything back.
    fn from_network(net: &mut RangeSelectNetwork, nshards: usize) -> EngineCore {
        let mut peer_maps: Vec<FxHashMap<u32, Peer>> =
            (0..nshards).map(|_| FxHashMap::default()).collect();
        for (id, peer) in net.peers.drain() {
            peer_maps[shard_of(id, nshards)].insert(id, peer);
        }
        let segments = net
            .ident_cache
            .split_segments(nshards, |r| segment_of(r, nshards));
        let shards = peer_maps
            .into_iter()
            .zip(segments)
            .map(|(peers, cache)| Shard {
                core: Mutex::new(ShardCore { peers }),
                cache: Mutex::new(cache),
                stats: Mutex::new(NetworkStats::default()),
            })
            .collect();
        EngineCore {
            config: net.config.clone(),
            groups: net.groups.clone(),
            anchors: net.anchors.clone(),
            ring: net.ring.clone(),
            telemetry: net.telemetry.clone(),
            nshards,
            shards,
            #[cfg(test)]
            poison: Mutex::new(None),
        }
    }

    /// Panic if the fault hook marks this query for the given stage.
    #[cfg(test)]
    fn check_poison(&self, q: &RangeSet, stage: &str) {
        if let Some((poisoned, at)) = self.poison.lock().as_ref() {
            if *at == stage && poisoned == q {
                panic!("poisoned query reached {stage}");
            }
        }
    }

    /// The read-only phase: pad, resolve identifiers and positions through
    /// the owning cache segment, plan from the peer of rank `origin`
    /// against the immutable ring, and read the shards the commit will
    /// touch off the plan.
    fn prepare(&self, q: &RangeSet, origin: usize) -> Prepared {
        #[cfg(test)]
        self.check_poison(q, "prepare");
        let hashed = hashed_range(q, self.config.padding);
        let segment = segment_of(&hashed, self.nshards);
        let cached = {
            let mut cache = self.shards[segment].cache.lock();
            match cache.get_hit(&hashed) {
                Some(placed) => {
                    self.telemetry.counter_add("core.ident_cache.hits", 1);
                    Some(placed)
                }
                None => {
                    cache.note_miss();
                    self.telemetry.counter_add("core.ident_cache.misses", 1);
                    None
                }
            }
        };
        let placed = match cached {
            Some(placed) => placed,
            None => {
                // Hash outside the lock — the k·l min-hashes dominate the
                // prepare cost and are pure. Two workers racing on the
                // same fresh range both miss (the relaxation); `insert`
                // deduplicates the entry itself.
                let anchors = self.anchors.as_ref();
                let placed = resolve(&self.config, &self.groups, anchors, &hashed);
                let evicted = self.shards[segment]
                    .cache
                    .lock()
                    .insert(hashed.clone(), placed.clone());
                if evicted > 0 {
                    self.telemetry
                        .counter_add("core.ident_cache.evictions", evicted);
                }
                placed
            }
        };
        let anchors = self.anchors.as_ref();
        let targets = targets(&self.config, &self.groups, anchors, &hashed, &placed);
        let plan = plan_query(&self.ring, origin, targets);
        let mut shards: Vec<usize> = plan
            .peers()
            .map(|peer| shard_of(peer.0, self.nshards))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        Prepared {
            query: q.clone(),
            hashed,
            placed,
            plan,
            shards,
        }
    }

    /// Apply one scheduled commit: lock the owner shards, replay the
    /// shared commit procedure against the sharded view. The conflict
    /// scheduler guarantees no other in-flight commit holds any of these
    /// shards, so the locks are uncontended by construction.
    fn commit(&self, seq: u64, prepared: Prepared) -> QueryOutcome {
        #[cfg(test)]
        self.check_poison(&prepared.query, "commit");
        let guards: Vec<(usize, MutexGuard<'_, ShardCore>)> = prepared
            .shards
            .iter()
            .map(|&s| (s, self.shards[s].core.lock()))
            .collect();
        let mut view = ShardedView {
            nshards: self.nshards,
            guards,
        };
        let mut stats = ShardStats {
            shards: &self.shards,
            nshards: self.nshards,
            home: (seq % self.nshards as u64) as usize,
        };
        commit_plan(
            &self.config,
            &self.telemetry,
            &mut view,
            &mut stats,
            &prepared.query,
            prepared.hashed,
            identifiers_of(&prepared.placed),
            prepared.plan,
            false,
        )
    }

    /// Merge the shards back into `net`: peers union, per-shard stats and
    /// cache counters summed, cache segments re-concatenated in shard
    /// order and re-trimmed to the global capacity. Empties the shards;
    /// the caller has stopped everything else that could lock them.
    fn reassemble(&self, net: &mut RangeSelectNetwork) {
        for shard in &self.shards {
            net.peers.extend(shard.core.lock().peers.drain());
            net.stats.merge(&std::mem::take(&mut *shard.stats.lock()));
            net.ident_cache
                .absorb(std::mem::take(&mut *shard.cache.lock()));
        }
        self.telemetry
            .gauge_set("core.ident_cache.size", net.ident_cache.len() as u64);
    }
}

/// The deterministic conflict scheduler. Queries enroll strictly in
/// submission order (`watermark`), joining the FIFO of every shard their
/// commit will touch; a query is dispatched for commit once it heads all
/// of its FIFOs, and on completion releases its successors.
struct Sched {
    /// Next sequence number to enroll; prepares finishing out of order
    /// park in `pending` until their turn. `None` marks a tombstone — a
    /// query whose prepare panicked; it advances the watermark without
    /// joining any shard FIFO, so its successors are not wedged.
    watermark: u64,
    pending: FxHashMap<u64, Option<Prepared>>,
    /// Enrolled but not yet committed.
    enrolled: FxHashMap<u64, Prepared>,
    /// Per-shard FIFOs of enrolled sequence numbers.
    queues: Vec<VecDeque<u64>>,
    /// Enrolled queries → number of owner FIFOs they do not yet head.
    blocked: FxHashMap<u64, usize>,
}

impl Sched {
    fn new(nshards: usize) -> Sched {
        Sched {
            watermark: 0,
            pending: FxHashMap::default(),
            enrolled: FxHashMap::default(),
            queues: (0..nshards).map(|_| VecDeque::new()).collect(),
            blocked: FxHashMap::default(),
        }
    }
}

/// Work items on the engine's job queue.
enum Job {
    /// Hash + route query `seq` from the origin of the given rank.
    Prepare(u64, RangeSet, usize),
    /// Apply the scheduled commit of query `seq`.
    Commit(u64),
    /// Worker shutdown (one per worker).
    Stop,
}

/// State shared between the controller and the workers.
struct Shared {
    core: EngineCore,
    sched: Mutex<Sched>,
    /// The job queue every worker drains: FIFO, unbounded (the in-flight
    /// bound below is what limits it), each job taken by exactly one
    /// worker.
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    results: Mutex<FxHashMap<u64, QueryOutcome>>,
    /// In-flight query count; the controller blocks on the condvar for
    /// backpressure and for the final drain.
    flow: Mutex<usize>,
    flow_cv: Condvar,
    queue_cap: usize,
    /// First worker panic, latched until shutdown, which then reports it
    /// instead of outcomes.
    failure: Mutex<Option<WorkerPanic>>,
}

impl Shared {
    /// Queue a job and wake one idle worker.
    fn send(&self, job: Job) {
        self.jobs.lock().push_back(job);
        self.jobs_cv.notify_one();
    }

    /// Take the oldest job, sleeping while the queue is empty.
    fn recv(&self) -> Job {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return job;
            }
            jobs = self.jobs_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Enroll newly prepared queries in submission order and dispatch any
    /// that are immediately unblocked. A `None` entry is a tombstone for
    /// a query whose prepare panicked: the watermark moves past it so
    /// later queries still commit.
    fn enroll(&self, seq: u64, prepared: Option<Prepared>) {
        let mut sched = self.sched.lock();
        sched.pending.insert(seq, prepared);
        loop {
            let next = sched.watermark;
            let Some(slot) = sched.pending.remove(&next) else {
                break;
            };
            sched.watermark += 1;
            let Some(prepared) = slot else {
                continue;
            };
            let mut waits = 0usize;
            for &s in &prepared.shards {
                sched.queues[s].push_back(next);
                if sched.queues[s].len() > 1 {
                    waits += 1;
                }
            }
            sched.enrolled.insert(next, prepared);
            if waits == 0 {
                self.send(Job::Commit(next));
            } else {
                sched.blocked.insert(next, waits);
            }
        }
    }

    /// Latch the first worker panic (later ones are dropped — the first
    /// is the root cause; the rest are usually collateral).
    fn record_failure(
        &self,
        seq: u64,
        stage: &'static str,
        payload: Box<dyn std::any::Any + Send>,
    ) {
        let mut failure = self.failure.lock();
        if failure.is_none() {
            *failure = Some(WorkerPanic {
                seq,
                stage,
                message: panic_message(payload.as_ref()),
            });
        }
        self.core.telemetry.counter_add("engine.worker_panics", 1);
    }

    /// Free one in-flight slot and wake the controller.
    fn finish_one(&self) {
        *self.flow.lock() -= 1;
        self.flow_cv.notify_all();
    }

    /// Pop `seq` from its owner FIFOs and dispatch any successor that
    /// now heads all of its own.
    fn release(&self, seq: u64, owner_shards: &[usize]) {
        let mut sched = self.sched.lock();
        for &s in owner_shards {
            let popped = sched.queues[s].pop_front();
            debug_assert_eq!(popped, Some(seq), "commit out of shard-FIFO order");
            if let Some(&next) = sched.queues[s].front() {
                let waits = sched
                    .blocked
                    .get_mut(&next)
                    .expect("waiting query has a blocked entry");
                *waits -= 1;
                if *waits == 0 {
                    sched.blocked.remove(&next);
                    self.send(Job::Commit(next));
                }
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        match shared.recv() {
            Job::Stop => break,
            Job::Prepare(seq, query, origin) => {
                // Supervise the job, not the thread: a panicking query
                // must not take a worker down (the pool would starve) or
                // wedge the watermark (successors would never enroll).
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    shared.core.prepare(&query, origin)
                }));
                match result {
                    Ok(prepared) => shared.enroll(seq, Some(prepared)),
                    Err(payload) => {
                        shared.record_failure(seq, "prepare", payload);
                        shared.enroll(seq, None);
                        shared.finish_one();
                    }
                }
            }
            Job::Commit(seq) => {
                let prepared = shared
                    .sched
                    .lock()
                    .enrolled
                    .remove(&seq)
                    .expect("scheduled commit was enrolled");
                let owner_shards = prepared.shards.clone();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    shared.core.commit(seq, prepared)
                }));
                // Release the shard FIFOs even on panic — successors
                // sharing a shard must not deadlock behind a dead commit.
                // (The shard locks ignore poisoning; an unwound commit
                // may leave partial peer state, which the latched error
                // makes visible.)
                shared.release(seq, &owner_shards);
                match result {
                    Ok(outcome) => {
                        shared.results.lock().insert(seq, outcome);
                    }
                    Err(payload) => shared.record_failure(seq, "commit", payload),
                }
                shared.finish_one();
            }
        }
    }
}

/// The runtime behind [`RangeSelectNetwork::query_batch_concurrent_with`].
///
/// [`Self::launch`] takes the network by value, partitions its state
/// into shards, and spawns the worker pool; [`Self::submit`] feeds
/// queries (blocking once the in-flight bound is hit);
/// [`Self::shutdown`] waits for quiescence, merges everything back and
/// returns the network — which then behaves as if the engine's queries
/// had run through it directly (modulo the documented relaxations) —
/// with the outcomes in submission order.
struct QueryEngine {
    shared: Arc<Shared>,
    donor: RangeSelectNetwork,
    streams: Vec<DetRng>,
    next_seq: u64,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl QueryEngine {
    /// Partition `net` into shards and spawn the worker pool.
    ///
    /// # Panics
    /// Panics if `opts.shards` or `opts.queue` is zero.
    fn launch(mut net: RangeSelectNetwork, opts: EngineOptions) -> QueryEngine {
        assert!(opts.shards >= 1, "engine needs at least 1 shard");
        assert!(opts.queue >= 1, "engine queue must admit at least 1 query");
        let nworkers = opts.resolved_workers();
        let streams = net.rng.split_streams(opts.shards);
        let core = EngineCore::from_network(&mut net, opts.shards);
        let shared = Arc::new(Shared {
            core,
            sched: Mutex::new(Sched::new(opts.shards)),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            results: Mutex::new(FxHashMap::default()),
            flow: Mutex::new(0),
            flow_cv: Condvar::new(),
            queue_cap: opts.queue,
            failure: Mutex::new(None),
        });
        let workers = (0..nworkers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        QueryEngine {
            shared,
            donor: net,
            streams,
            next_seq: 0,
            workers,
        }
    }

    /// Submit a query, blocking while the in-flight bound is reached.
    /// Its origin peer is drawn from its home shard's RNG stream here, on
    /// the submitting thread, so draws happen in submission order
    /// regardless of schedule.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    fn submit(&mut self, q: &RangeSet) {
        assert!(!q.is_empty(), "cannot query an empty range");
        {
            let mut inflight = self.shared.flow.lock();
            while *inflight >= self.shared.queue_cap {
                inflight = self
                    .shared
                    .flow_cv
                    .wait(inflight)
                    .unwrap_or_else(|e| e.into_inner());
            }
            *inflight += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let home = (seq % self.streams.len() as u64) as usize;
        let origin = self.streams[home].gen_index(self.shared.core.ring.len());
        self.shared.send(Job::Prepare(seq, q.clone(), origin));
    }

    /// Arm the test-only fault hook: the next query equal to `q` panics
    /// at `stage` (`"prepare"` or `"commit"`).
    #[cfg(test)]
    fn poison(&self, q: RangeSet, stage: &'static str) {
        *self.shared.core.poison.lock() = Some((q, stage));
    }

    /// Send every worker its stop and join them. Jobs still queued ahead
    /// of the stops are served first.
    fn stop_workers(&mut self) {
        for _ in 0..self.workers.len() {
            self.shared.send(Job::Stop);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Wait until every submitted query has committed or tombstoned, stop
    /// the workers, and merge the shards back into the network. Returns
    /// the network and the outcomes in submission order — or the latched
    /// [`WorkerPanic`] if a worker panicked, in which case the batch is
    /// not trustworthy and the merged network may contain a partially
    /// applied commit.
    ///
    /// The wait always terminates: a worker panic is caught at the job
    /// boundary and frees its in-flight slot.
    fn shutdown(mut self) -> (RangeSelectNetwork, Result<Vec<QueryOutcome>, WorkerPanic>) {
        {
            let mut inflight = self.shared.flow.lock();
            while *inflight > 0 {
                inflight = self
                    .shared
                    .flow_cv
                    .wait(inflight)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        self.stop_workers();
        let outcomes = match self.shared.failure.lock().take() {
            Some(panic) => Err(panic),
            None => {
                let mut results = self.shared.results.lock();
                Ok((0..self.next_seq)
                    .map(|seq| results.remove(&seq).expect("committed query has a result"))
                    .collect())
            }
        };
        let mut net = std::mem::replace(&mut self.donor, RangeSelectNetwork::placeholder());
        self.shared.core.reassemble(&mut net);
        // Advance the network generator to stream 0's final state: a
        // later plain `query` continues the deterministic sequence.
        net.rng = self.streams.swap_remove(0);
        (net, outcomes)
    }
}

/// An engine dropped without [`QueryEngine::shutdown`] — a caller that
/// unwound, say — still stops and joins its workers: they hold the shared
/// state, so they would otherwise sleep on the job queue for the life of
/// the process.
impl Drop for QueryEngine {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

impl RangeSelectNetwork {
    /// The engine's single-threaded inline reference: the same shard
    /// partitioning, per-shard RNG streams, cache segments, and commit
    /// procedure as [`Self::query_batch_concurrent_with`], executed one query
    /// at a time in submission order on the calling thread. This is the
    /// oracle the schedule-invariance suite compares the concurrent
    /// engine against; with `shards == 1` it reproduces [`Self::query`]
    /// run in a loop bit for bit (outcomes, stats, and cache accounting).
    pub fn query_trace_sharded(
        &mut self,
        queries: &[RangeSet],
        shards: usize,
    ) -> Vec<QueryOutcome> {
        assert!(shards >= 1, "engine needs at least 1 shard");
        let mut streams = self.rng.split_streams(shards);
        let core = EngineCore::from_network(self, shards);
        let mut outcomes = Vec::with_capacity(queries.len());
        for (seq, q) in queries.iter().enumerate() {
            let home = seq % shards;
            let origin = streams[home].gen_index(core.ring.len());
            let prepared = core.prepare(q, origin);
            outcomes.push(core.commit(seq as u64, prepared));
        }
        core.reassemble(self);
        self.rng = streams.swap_remove(0);
        outcomes
    }

    /// Run `queries` through the concurrent engine as one batch.
    /// Outcomes are schedule-invariant: bitwise equal across worker
    /// counts, equal to [`Self::query_trace_sharded`] at the same shard
    /// count; with one worker the cache accounting is sequential-exact
    /// too.
    pub fn query_batch_concurrent_with(
        &mut self,
        queries: &[RangeSet],
        opts: EngineOptions,
    ) -> Vec<QueryOutcome> {
        let telemetry = self.telemetry.clone();
        let span = telemetry.span(
            "engine.batch",
            &[
                ("queries", queries.len().into()),
                ("shards", opts.shards.into()),
                ("workers", opts.resolved_workers().into()),
            ],
        );
        let net = std::mem::replace(self, RangeSelectNetwork::placeholder());
        let mut engine = QueryEngine::launch(net, opts);
        for q in queries {
            engine.submit(q);
        }
        let (net, outcomes) = engine.shutdown();
        *self = net;
        // The batch API has no error channel: a worker panic surfaces as
        // a panic on the calling thread.
        let outcomes = outcomes.unwrap_or_else(|p| {
            panic!(
                "engine worker panicked in {} of query {}: {}",
                p.stage, p.seq, p.message
            )
        });
        telemetry.span_end(span, &[("queries", outcomes.len().into())]);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementMode;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    fn trace() -> Vec<RangeSet> {
        let mut qs = Vec::new();
        for i in 0..60u32 {
            let lo = (i * 41) % 900;
            qs.push(r(lo, lo + 12 + (i % 5) * 25));
            if i % 4 == 0 {
                qs.push(r(100, 160)); // popular repeat
            }
        }
        qs
    }

    /// The engine with a single worker: pipelined prepare/commit with
    /// sequential-exact cache accounting.
    fn one_worker(shards: usize) -> EngineOptions {
        EngineOptions {
            shards,
            workers: 1,
            queue: 1024,
        }
    }

    #[test]
    fn shard_of_in_bounds_and_spread() {
        for nshards in [1usize, 2, 4, 7, 16] {
            let mut seen = vec![false; nshards];
            for p in 0..10_000u32 {
                let s = shard_of(p.wrapping_mul(2_654_435_761), nshards);
                assert!(s < nshards);
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "{nshards} shards not all hit");
        }
    }

    #[test]
    fn single_shard_engine_reproduces_sequential_accounting() {
        // Satellite: one shard == the old global cache + global RNG,
        // exactly — outcomes (including hops), stats, and every cache
        // counter.
        for capacity in [0usize, 3] {
            let config = SystemConfig::default()
                .with_seed(77)
                .with_padding(0.1)
                .with_ident_cache_capacity(capacity);
            let mut seq = RangeSelectNetwork::new(40, config.clone());
            let mut eng = RangeSelectNetwork::new(40, config);
            let qs = trace();
            let out_seq: Vec<QueryOutcome> = qs.iter().map(|q| seq.query(q)).collect();
            let out_eng = eng.query_trace_sharded(&qs, 1);
            assert_eq!(out_seq, out_eng, "capacity {capacity}");
            assert_eq!(seq.stats(), eng.stats());
            let (sc, ec) = (seq.identifier_cache(), eng.identifier_cache());
            assert_eq!(sc.hits(), ec.hits());
            assert_eq!(sc.misses(), ec.misses());
            assert_eq!(sc.evictions(), ec.evictions());
            assert_eq!(sc.len(), ec.len());
            // And the engine-run network continues the same RNG stream.
            assert_eq!(seq.query(&r(5, 50)), eng.query(&r(5, 50)));
        }
    }

    #[test]
    fn single_worker_engine_matches_inline_reference() {
        for shards in [1usize, 2, 4, 7] {
            let config = SystemConfig::default().with_seed(21);
            let mut inline = RangeSelectNetwork::new(40, config.clone());
            let mut engine = RangeSelectNetwork::new(40, config);
            let qs = trace();
            let out_inline = inline.query_trace_sharded(&qs, shards);
            let out_engine = engine.query_batch_concurrent_with(&qs, one_worker(shards));
            assert_eq!(out_inline, out_engine, "shards {shards}");
            assert_eq!(inline.stats(), engine.stats());
            assert_eq!(
                inline.identifier_cache().hits(),
                engine.identifier_cache().hits(),
                "single worker prepares in submission order"
            );
            assert_eq!(
                inline.identifier_cache().misses(),
                engine.identifier_cache().misses()
            );
        }
    }

    #[test]
    fn layered_engine_matches_layered_sequential() {
        // One shard: the engine must reproduce the layered sequential
        // path bit for bit, same as the independent-mode guarantee.
        let layered = SystemConfig::default()
            .with_seed(61)
            .with_placement_mode(PlacementMode::Layered)
            .with_probes(8);
        let mut seq = RangeSelectNetwork::new(40, layered.clone());
        let mut eng = RangeSelectNetwork::new(40, layered.clone());
        let qs = trace();
        let out_seq: Vec<QueryOutcome> = qs.iter().map(|q| seq.query(q)).collect();
        let out_eng = eng.query_trace_sharded(&qs, 1);
        assert_eq!(out_seq, out_eng);
        assert_eq!(seq.stats(), eng.stats());
        assert!(
            seq.stats().walk_steps > 0,
            "layered queries walk successors"
        );

        // Multi-shard, real worker pool: invariant against the inline
        // sharded reference.
        let reference = {
            let mut net = RangeSelectNetwork::new(40, layered.clone());
            net.query_trace_sharded(&qs, 4)
        };
        for workers in [1usize, 4] {
            let mut net = RangeSelectNetwork::new(40, layered.clone());
            let opts = EngineOptions {
                shards: 4,
                workers,
                queue: 32,
            };
            let out = net.query_batch_concurrent_with(&qs, opts);
            assert_eq!(reference, out, "workers {workers}");
        }
    }

    #[test]
    fn concurrent_outcomes_invariant_across_worker_counts() {
        let shards = 4;
        let qs = trace();
        let reference = {
            let mut net = RangeSelectNetwork::new(40, SystemConfig::default().with_seed(33));
            net.query_trace_sharded(&qs, shards)
        };
        for workers in [1usize, 2, 3, 8] {
            let mut net = RangeSelectNetwork::new(40, SystemConfig::default().with_seed(33));
            let opts = EngineOptions {
                shards,
                workers,
                queue: 64,
            };
            let out = net.query_batch_concurrent_with(&qs, opts);
            assert_eq!(reference, out, "workers {workers}");
        }
    }

    #[test]
    fn concurrent_conserves_cache_ledger() {
        let qs = trace();
        let mut net = RangeSelectNetwork::new(40, SystemConfig::default().with_seed(9));
        let opts = EngineOptions {
            shards: 4,
            workers: 4,
            queue: 32,
        };
        let out = net.query_batch_concurrent_with(&qs, opts);
        assert_eq!(out.len(), qs.len());
        let cache = net.identifier_cache();
        assert_eq!(
            cache.hits() + cache.misses(),
            qs.len() as u64,
            "each query does exactly one cache lookup"
        );
        assert_eq!(net.stats().queries, qs.len() as u64);
        assert_eq!(
            net.stats().lookups,
            out.iter().map(|o| o.attempts as u64).sum::<u64>()
        );
    }

    #[test]
    fn cache_entries_stay_placed_across_split_and_absorb() {
        for capacity in [0usize, 7] {
            let config = SystemConfig::default()
                .with_seed(45)
                .with_ident_cache_capacity(capacity);
            let mut net = RangeSelectNetwork::new(40, config);
            let qs = trace();
            // Warm on the plain path, so the split moves entries it
            // resolved; afterwards the plain path hits what the engine did.
            for q in &qs[..20] {
                net.query(q);
            }
            let opts = EngineOptions {
                shards: 4,
                workers: 2,
                queue: 16,
            };
            net.query_batch_concurrent_with(&qs, opts);
            net.query_trace_sharded(&qs, 3);
            assert!(!net.identifier_cache().is_empty());
            for (range, placed) in &net.identifier_cache().map {
                assert_eq!(identifiers_of(placed), net.groups().identifiers(range));
                for &(ident, position) in placed.iter() {
                    assert_eq!(position, net.place(ident), "capacity {capacity}");
                }
            }
            let hits = net.identifier_cache().hits();
            let last = qs.last().expect("the trace is not empty");
            assert!(net.query(last).exact);
            assert_eq!(net.identifier_cache().hits(), hits + 1);
        }
    }

    #[test]
    fn tiny_queue_backpressure_makes_progress() {
        let net = RangeSelectNetwork::new(20, SystemConfig::default().with_seed(3));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 1,
            },
        );
        for q in trace() {
            engine.submit(&q);
            assert!(*engine.shared.flow.lock() <= 1);
        }
        let (net, out) = engine.shutdown();
        let out = out.expect("no worker panicked");
        assert_eq!(out.len(), trace().len());
        assert_eq!(net.stats().queries, trace().len() as u64);
    }

    #[test]
    fn empty_batch_is_identity() {
        let config = SystemConfig::default().with_seed(13);
        let mut a = RangeSelectNetwork::new(25, config.clone());
        let mut b = RangeSelectNetwork::new(25, config);
        let out = a.query_batch_concurrent_with(
            &[],
            EngineOptions {
                shards: 8,
                workers: 2,
                queue: 4,
            },
        );
        assert!(out.is_empty());
        assert_eq!(a.stats().queries, 0);
        // State roundtrips: identical subsequent behaviour.
        assert_eq!(a.query(&r(1, 40)), b.query(&r(1, 40)));
    }

    #[test]
    fn network_usable_after_concurrent_batch() {
        // `query_batch_concurrent` swaps the network out and back in; a
        // plain query afterwards must see the cached partitions.
        let mut net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(71));
        net.query_batch_concurrent_with(
            &[r(200, 260), r(200, 260)],
            EngineOptions {
                shards: 4,
                workers: 2,
                queue: 16,
            },
        );
        let out = net.query(&r(200, 260));
        assert!(out.exact, "partition cached by the engine must be found");
    }

    #[test]
    fn engine_emits_batch_span_not_query_spans() {
        let mut net = RangeSelectNetwork::new(20, SystemConfig::default().with_seed(5));
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        net.query_batch_concurrent_with(
            &trace(),
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 16,
            },
        );
        let starts: Vec<_> = tel
            .events()
            .into_iter()
            .filter(|e| e.kind == ars_telemetry::EventKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 1, "one engine.batch span, no per-query spans");
        assert_eq!(starts[0].name, "engine.batch");
    }

    #[test]
    fn prepare_panic_latches_error_and_successors_still_commit() {
        let net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(19));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 4,
                workers: 2,
                queue: 8,
            },
        );
        engine.poison(r(666, 700), "prepare");
        engine.submit(&r(10, 50));
        engine.submit(&r(666, 700)); // panics mid-prepare

        // Successors enroll past the tombstone — the watermark must not
        // wedge behind the dead query.
        for i in 0..20u32 {
            engine.submit(&r(i * 30 + 1, i * 30 + 40));
        }
        // Shutdown reports the failure but still hands the network back.
        let (net, outcomes) = engine.shutdown();
        let err = outcomes.expect_err("poisoned batch must error");
        assert_eq!(err.seq, 1);
        assert_eq!(err.stage, "prepare");
        assert!(err.message.contains("poisoned"), "got: {}", err.message);
        assert_eq!(net.len(), 30);
        assert_eq!(net.stats().queries, 21, "all but the dead query committed");
    }

    #[test]
    fn commit_panic_releases_conflicting_successors() {
        let net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(23));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 2,
                queue: 16,
            },
        );
        engine.poison(r(400, 460), "commit");
        // Identical queries own the same shards, so every successor
        // queues in the panicking commit's FIFOs: the release on unwind
        // is what keeps this from deadlocking.
        for _ in 0..8 {
            engine.submit(&r(400, 460));
        }
        let shared = Arc::clone(&engine.shared);
        let err = engine.shutdown().1.expect_err("commit panic must latch");
        assert_eq!(err.stage, "commit");
        assert_eq!(*shared.flow.lock(), 0, "every slot freed despite panics");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn engine_rejects_empty_range() {
        let net = RangeSelectNetwork::new(5, SystemConfig::default());
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 2,
                workers: 1,
                queue: 4,
            },
        );
        engine.submit(&RangeSet::empty());
    }

    #[test]
    fn dropped_engine_joins_its_workers() {
        // No shutdown, queries still in flight: the drop must stop and
        // join every worker, or they pin the shared state forever.
        let net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(59));
        let mut engine = QueryEngine::launch(
            net,
            EngineOptions {
                shards: 4,
                workers: 3,
                queue: 64,
            },
        );
        for q in trace().iter().take(40) {
            engine.submit(q);
        }
        let shared = Arc::downgrade(&engine.shared);
        drop(engine);
        assert!(
            shared.upgrade().is_none(),
            "a worker thread outlived its engine"
        );
    }
}
