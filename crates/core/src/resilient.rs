//! Failure resilience for the query path.
//!
//! The paper treats cached partitions as soft state: anything lost to a
//! crashed peer is rebuildable from the source relations (§4). This module
//! supplies the machinery that makes that story operational instead of
//! aspirational:
//!
//! * bounded retries of identifier lookups with exponential backoff and
//!   *deterministic* jitter (drawn from the network's own
//!   [`ars_common::DetRng`] stream, so a seeded run replays
//!   bit-identically);
//! * graceful degradation — when every retry is exhausted the query falls
//!   back to fetching from the source relations, surfaced through
//!   [`crate::QueryOutcome::fell_back_to_source`] and counted in
//!   [`ResilienceStats`], never a panic or an error the caller must
//!   unwrap;
//! * successor replication — [`crate::ChurnNetwork`] places each cached
//!   partition at the first `r` alive successors of its placed identifier
//!   (configured via [`crate::SystemConfig::with_replication`]) and
//!   re-replicates after joins, leaves, and failures, so up to `r - 1`
//!   abrupt crashes leave every bucket findable;
//! * the gray-failure layer (DESIGN §13) — slow peers, the failure
//!   detector, circuit breakers and hedged lookups, in one crate-private
//!   value the churn executor calls for every fetch and probe sweep.

use ars_chord::{DynamicNetwork, Id};
use ars_common::{DetRng, FxHashMap};
use ars_telemetry::{Hist, Telemetry};
use std::collections::BTreeMap;

/// Virtual service time of a healthy peer answering one fetch, in the same
/// time units as retry backoffs. Gray-slow peers multiply this.
const BASE_SERVICE: u64 = 100;

/// Virtual cost of one routing hop on the lookup path.
const HOP_COST: u64 = 10;

/// Attempts per identifier lookup, first try included. Attempt 1 is the
/// ordinary greedy Chord lookup; later attempts use the failure-aware
/// routing ([`ars_chord::DynamicNetwork::lookup_resilient`]) that detours
/// through successor lists, after a backoff. Two waits of at most
/// [`MAX_BACKOFF`] are all a lookup can spend, so no per-lookup time
/// budget is needed.
pub(crate) const ATTEMPTS: usize = 3;

/// Backoff before the first retry; doubles each retry after that, and
/// `MAX_BACKOFF` caps it, jitter included.
const BASE_BACKOFF: u64 = 100;
const MAX_BACKOFF: u64 = 1_600;

/// Hop budget of the failure-aware routing that retries and hedges use.
pub(crate) const HOP_BUDGET: usize = 64;

/// Retry schedule for identifier lookups under churn: the constants above
/// and an optional whole-query deadline, all in virtual time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Once the backoff a query has waited across all `l` identifier
    /// lookups reaches it, no further retries are scheduled: remaining
    /// identifiers get their first attempt only (an attempt costs no wall
    /// time in the simulation; only waiting does). `None`, the default,
    /// disables it.
    pub(crate) deadline: Option<u64>,
}

/// Backoff delay before retry number `retry` (1-based): exponential
/// `BASE_BACKOFF · 2^(retry-1)` plus jitter uniform in `[0, BASE_BACKOFF)`
/// drawn from the deterministic stream, the whole sum capped at
/// [`MAX_BACKOFF`]. The jitter is drawn even when the cap swallows it, so
/// every later draw is the one an uncapped sum would leave.
pub(crate) fn backoff(retry: u32, rng: &mut DetRng) -> u64 {
    let shift = retry.saturating_sub(1).min(16);
    let exp = BASE_BACKOFF.saturating_mul(1u64 << shift).min(MAX_BACKOFF);
    let jitter = rng.gen_range_u64(BASE_BACKOFF);
    exp.saturating_add(jitter).min(MAX_BACKOFF)
}

/// Per-peer adaptive failure detector in the phi-accrual style: an EWMA of
/// observed response latencies and an EWMA of their absolute deviation feed
/// a suspicion score — "how many deviations above the learned mean is this
/// observation?" — so slowness is judged *relative to the peer's own
/// history*, not against a fixed timeout. A peer that is consistently slow
/// from the start is learned as such; a peer that suddenly degrades spikes
/// the score immediately. Entirely arithmetic: no RNG, no wall clock, so
/// attaching a detector to a run never perturbs replay.
///
/// Layout: one Fx hash table from peer id to its estimate, searched on
/// every fetch and never iterated, so no order is kept (the breakers,
/// which `GrayLayer::avoided_peers` walks in id order, stay a `BTreeMap`).
#[derive(Debug, Clone, Default)]
struct FailureDetector {
    estimates: FxHashMap<u32, PeerEstimate>,
}

/// Learned latency profile of one peer.
#[derive(Debug, Clone, Copy)]
struct PeerEstimate {
    /// EWMA of observed latencies.
    mean: f64,
    /// EWMA of absolute deviations from the mean.
    dev: f64,
}

/// EWMA smoothing factor: new observations carry 20% weight, so the
/// estimate converges in a handful of probes yet rides out single spikes.
const EWMA_ALPHA: f64 = 0.2;

impl FailureDetector {
    /// Suspicion score of observing latency `latency` from `peer`, judged
    /// against the peer's history *before* this observation is absorbed:
    /// `(latency − mean) / max(dev, mean/8, 1)`. Zero (never negative) for
    /// at-or-below-mean responses and for unknown peers — a peer earns
    /// suspicion only by deviating from its own learned behaviour.
    fn suspicion(&self, peer: u32, latency: u64) -> f64 {
        let Some(est) = self.estimates.get(&peer) else {
            return 0.0;
        };
        // Floor the deviation so a perfectly stable history (dev → 0)
        // doesn't turn infinitesimal jitter into infinite suspicion.
        let floor = (est.mean / 8.0).max(1.0);
        ((latency as f64 - est.mean) / est.dev.max(floor)).max(0.0)
    }

    /// Absorb one latency observation for `peer`.
    fn observe(&mut self, peer: u32, latency: u64) {
        let first = PeerEstimate {
            mean: latency as f64,
            dev: 0.0,
        };
        let est = self.estimates.entry(peer).or_insert(first);
        let err = latency as f64 - est.mean;
        est.mean += EWMA_ALPHA * err;
        est.dev += EWMA_ALPHA * (err.abs() - est.dev);
    }
}

/// Consecutive suspicious observations that trip a closed breaker.
const BREAKER_TRIP_FAILURES: u32 = 2;

/// Suspicion score (see `FailureDetector::suspicion`) at or above which an
/// observation counts as a failure.
const SUSPICION_THRESHOLD: f64 = 3.0;

/// Circuit-breaker configuration shared by every per-peer breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Virtual time an open breaker waits before admitting one half-open
    /// probe (deterministic: the transition is a pure function of the
    /// opening instant, not of a timer thread).
    pub cooldown: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig { cooldown: 2_000 }
    }
}

/// Breaker state at a given virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are short-circuited to a replica.
    Open,
    /// Cooldown elapsed: exactly one probe request is admitted; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

/// What a recorded observation did to the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerTransition {
    /// No state change.
    None,
    /// Closed (or half-open) → open.
    Opened,
    /// Half-open probe succeeded → closed.
    Closed,
}

/// Per-peer circuit breaker: closed → open after two consecutive
/// suspicious responses, half-open after `cooldown` virtual
/// time units, closed again on a successful probe (re-opened on a failed
/// one). All transitions are pure functions of `(observations, virtual
/// time)` — nothing here can break deterministic replay.
#[derive(Debug, Clone)]
struct CircuitBreaker {
    config: BreakerConfig,
    consecutive_failures: u32,
    /// `Some(instant)` while tripped.
    opened_at: Option<u64>,
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration.
    fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            consecutive_failures: 0,
            opened_at: None,
        }
    }

    /// State at virtual time `now`.
    fn state(&self, now: u64) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if now >= at.saturating_add(self.config.cooldown) => BreakerState::HalfOpen,
            Some(_) => BreakerState::Open,
        }
    }

    /// Record the outcome of one admitted request at `now`.
    fn record(&mut self, ok: bool, now: u64) -> BreakerTransition {
        match self.state(now) {
            BreakerState::Closed => {
                if ok {
                    self.consecutive_failures = 0;
                    BreakerTransition::None
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= BREAKER_TRIP_FAILURES {
                        self.opened_at = Some(now);
                        BreakerTransition::Opened
                    } else {
                        BreakerTransition::None
                    }
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    self.opened_at = None;
                    self.consecutive_failures = 0;
                    BreakerTransition::Closed
                } else {
                    // Failed probe: re-open, restarting the cooldown.
                    self.opened_at = Some(now);
                    BreakerTransition::Opened
                }
            }
            BreakerState::Open => BreakerTransition::None,
        }
    }
}

/// Which latency quantile anchors the hedge delay.
const HEDGE_QUANTILE: f64 = 0.9;

/// Multiplier on the anchored quantile.
const HEDGE_MULTIPLIER: f64 = 2.0;

/// Upper clamp on the hedge delay, so one catastrophic tail sample cannot
/// disable hedging for the rest of a run.
const HEDGE_MAX_DELAY: u64 = 5_000;

/// How hedged lookups derive their backup-launch delay.
///
/// The delay adapts to the *observed* latency distribution: a backup fires
/// once the primary has been outstanding longer than twice the q90 of
/// recent query latencies, clamped to `[min_delay, 5 000]`. On a healthy
/// network the observed quantile sits far below `min_delay`, so no hedge
/// ever fires and the feature is a pure observer (see the tail-tolerance
/// proptests); once gray-slow peers stretch the tail, the delay tracks the
/// healthy quantile and backups fire exactly for the slow primaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Lower clamp — also the zero-history default. Must exceed any
    /// healthy-path latency or hedges fire on clean networks: under the
    /// virtual service model the worst clean fetch costs
    /// `HOP_BUDGET × HOP_COST + BASE_SERVICE` (64 × 10 + 100 = 740), so
    /// the default floor of 1 000 guarantees the pure-observer
    /// property unconditionally. A floor above the 5 000 ceiling wins.
    pub min_delay: u64,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy { min_delay: 1_000 }
    }
}

impl HedgePolicy {
    /// The hedge delay derived from an observed latency histogram.
    /// With no history the quantile reads 0, so the floor applies.
    fn delay(&self, observed: &Hist) -> u64 {
        let anchored = (observed.quantile(HEDGE_QUANTILE) as f64 * HEDGE_MULTIPLIER) as u64;
        anchored.min(HEDGE_MAX_DELAY).max(self.min_delay)
    }
}

/// The query's gray-failure layer (DESIGN §13): which peers are slow, and
/// the detector, breakers and hedges that dodge them. [`crate::ChurnNetwork`]
/// owns one and hands it the ring, the virtual clock and its ledgers for
/// every fetch and probe sweep; its fault-stack methods document each knob.
#[derive(Debug, Default)]
pub(crate) struct GrayLayer {
    /// Gray-slow peers: id → service-time multiplier (≥ 2).
    slow: BTreeMap<u32, u64>,
    /// Per-peer latency estimator feeding suspicion scores.
    detector: FailureDetector,
    /// Per-peer circuit breakers (populated lazily; only meaningful when
    /// `breaker_cfg` is set).
    breakers: BTreeMap<u32, CircuitBreaker>,
    /// Breaker configuration; `None` (default) disables breakers.
    breaker_cfg: Option<BreakerConfig>,
    /// Hedged-lookup policy; `None` (default) disables hedging.
    hedge: Option<HedgePolicy>,
    /// Observed per-identifier fetch latencies — the distribution hedge
    /// delays adapt to (the same histogram shape the telemetry registry
    /// uses, so bench reports and hedge timing read identical quantiles).
    latency_hist: Hist,
}

impl GrayLayer {
    /// Slow `peer` by `factor` ([`crate::ChurnNetwork::set_slow`]).
    pub(crate) fn set_slow(&mut self, peer: Id, factor: u64) {
        assert!(factor >= 2, "slow factor must be at least 2");
        self.slow.insert(peer.0, factor);
    }

    /// Restore `peer` to healthy service time.
    pub(crate) fn clear_slow(&mut self, peer: Id) {
        self.slow.remove(&peer.0);
    }

    /// Slow `⌊fraction · n⌋` of the sorted `ids`, evenly spaced
    /// ([`crate::ChurnNetwork::slow_fraction`]). Returns the victims.
    pub(crate) fn slow_fraction(&mut self, ids: &[Id], fraction: f64, factor: u64) -> Vec<Id> {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        // Checked before counting victims: a fraction that picks none must
        // still refuse a factor `set_slow` would.
        assert!(factor >= 2, "slow factor must be at least 2");
        let count = (ids.len() as f64 * fraction).floor() as usize;
        let victims: Vec<Id> = (0..count).map(|i| ids[i * ids.len() / count]).collect();
        for &v in &victims {
            self.set_slow(v, factor);
        }
        victims
    }

    /// Turn hedged lookups on.
    pub(crate) fn enable_hedging(&mut self, policy: HedgePolicy) {
        self.hedge = Some(policy);
    }

    /// Turn per-peer circuit breakers on.
    pub(crate) fn enable_breakers(&mut self, config: BreakerConfig) {
        self.breaker_cfg = Some(config);
    }

    /// Breaker state of `peer` at `now`, if it has a breaker.
    pub(crate) fn breaker_state(&self, peer: Id, now: u64) -> Option<BreakerState> {
        self.breakers.get(&peer.0).map(|b| b.state(now))
    }

    /// One health-probe sweep over `peers` at `*clock`
    /// ([`crate::ChurnNetwork::probe_peers`]): each probe feeds the
    /// detector and breakers, and the sweep advances the clock by one
    /// `BASE_SERVICE` round. Returns the number of peers probed.
    pub(crate) fn probe(
        &mut self,
        peers: &[Id],
        clock: &mut u64,
        stats: &mut ResilienceStats,
        telemetry: &Telemetry,
    ) -> usize {
        let now = *clock;
        for &id in peers {
            let svc = self.service_time(id);
            stats.probes_sent += 1;
            telemetry.counter_add("resilient.probes", 1);
            self.note_response(id.0, svc, now, stats, telemetry);
        }
        *clock += BASE_SERVICE;
        peers.len()
    }

    /// Virtual service time of one fetch served by `peer`:
    /// `BASE_SERVICE`, multiplied by the peer's slow factor if gray-slow.
    fn service_time(&self, peer: Id) -> u64 {
        BASE_SERVICE * self.slow.get(&peer.0).copied().unwrap_or(1)
    }

    /// Judge one observed response (service time `svc` from `peer` at
    /// virtual time `now`) against the peer's learned baseline, drive its
    /// breaker, and absorb the sample into the detector. Estimates are
    /// *frozen* while a breaker is non-closed: samples from a degraded
    /// period must not drift the healthy baseline upward, or the
    /// half-open probe would compare the still-slow peer against its own
    /// degradation and wrongly re-close the breaker.
    fn note_response(
        &mut self,
        peer: u32,
        svc: u64,
        now: u64,
        stats: &mut ResilienceStats,
        telemetry: &Telemetry,
    ) {
        let Some(cfg) = self.breaker_cfg else {
            self.detector.observe(peer, svc);
            return;
        };
        let ok = self.detector.suspicion(peer, svc) < SUSPICION_THRESHOLD;
        let breaker = self
            .breakers
            .entry(peer)
            .or_insert_with(|| CircuitBreaker::new(cfg));
        if breaker.state(now) != BreakerState::Open
            && breaker.record(ok, now) == BreakerTransition::Opened
        {
            stats.breaker_opens += 1;
            telemetry.counter_add("resilient.breaker_opens", 1);
        }
        if breaker.state(now) == BreakerState::Closed {
            self.detector.observe(peer, svc);
        }
    }

    /// The avoid set for backup routing at `now`: the primary plus every
    /// peer whose breaker is currently open (sorted — `BTreeMap` order —
    /// so the set is deterministic).
    fn avoided_peers(&self, now: u64, primary: Id) -> Vec<Id> {
        let mut avoid = vec![primary];
        for (&id, b) in &self.breakers {
            if id != primary.0 && b.state(now) == BreakerState::Open {
                avoid.push(Id(id));
            }
        }
        avoid
    }

    /// The gray-failure service layer for one identifier fetch, applied
    /// after routing resolved `owner` of `key` from `origin` in `h` hops,
    /// on `chord` at virtual time `now`. Returns `(serving peer, effective
    /// latency, primary latency)`:
    ///
    /// 1. **Breaker short-circuit** — if the primary's breaker is open,
    ///    the fetch goes straight to the successor-list substitute along
    ///    the already-routed chain (one hop per chain step), never
    ///    touching the slow peer.
    /// 2. **Hedge** — otherwise, if the primary would take longer than
    ///    the adaptive hedge delay, a backup lookup detours around the
    ///    primary ([`DynamicNetwork::lookup_detour`], a full independent
    ///    route, honestly costed in [`ResilienceStats::hedge_hops`]) and
    ///    the first response wins:
    ///    `min(primary, delay + backup_route + backup_service)`.
    /// 3. Every contacted peer's service time feeds the failure detector
    ///    and its breaker (`note_response`).
    ///
    /// Both mechanisms require `replication ≥ 2` (the substitute must hold
    /// the data) and consume **no randomness** — with no gray-slow peers
    /// the fetch is served by `owner` at model latency and this layer is
    /// a pure observer (the tail-tolerance proptests pin this).
    pub(crate) fn fetch(
        &mut self,
        chord: &DynamicNetwork,
        replication: usize,
        now: u64,
        stats: &mut ResilienceStats,
        telemetry: &Telemetry,
        (origin, key, owner, h): (Id, Id, Id, usize),
    ) -> (Id, u64, u64) {
        let primary_svc = self.service_time(owner);
        let primary_lat = h as u64 * HOP_COST + primary_svc;
        let backup_viable = replication >= 2;

        // 1. Short-circuit an open-breaker primary (breakers exist only
        //    while they are enabled).
        if backup_viable && self.breaker_state(owner, now) == Some(BreakerState::Open) {
            let avoid = self.avoided_peers(now, owner);
            if let Some((sub, chain)) = chord.successor_substitute(owner, &avoid) {
                let svc = self.service_time(sub);
                let lat = (h + chain) as u64 * HOP_COST + svc;
                stats.breaker_short_circuits += 1;
                stats.hedge_hops += chain as u64;
                telemetry.counter_add("resilient.hedge_hops", chain as u64);
                telemetry.counter_add("resilient.short_circuits", 1);
                self.note_response(sub.0, svc, now, stats, telemetry);
                self.latency_hist.record(lat);
                telemetry.record("resilient.lookup.latency", lat);
                return (sub, lat, primary_lat);
            }
        }

        // 2. The primary is contacted (closed breaker, or the half-open
        //    probe). Hedge if it looks slow against the observed tail.
        let mut serving = owner;
        let mut lat = primary_lat;
        if backup_viable {
            if let Some(policy) = self.hedge {
                let delay = policy.delay(&self.latency_hist);
                if primary_lat > delay {
                    let avoid = self.avoided_peers(now, owner);
                    if let Ok((backup, bh)) = chord.lookup_detour(origin, key, HOP_BUDGET, &avoid) {
                        if backup != owner {
                            stats.hedges_fired += 1;
                            stats.hedge_hops += bh as u64;
                            telemetry.counter_add("resilient.hedge_hops", bh as u64);
                            telemetry.counter_add("resilient.hedges_fired", 1);
                            let bsvc = self.service_time(backup);
                            let alt_lat = delay + bh as u64 * HOP_COST + bsvc;
                            self.note_response(backup.0, bsvc, now, stats, telemetry);
                            if alt_lat < primary_lat {
                                stats.hedges_won += 1;
                                telemetry.counter_add("resilient.hedges_won", 1);
                                serving = backup;
                                lat = alt_lat;
                            }
                        }
                    }
                }
            }
        }
        // The primary's response arrives (possibly after the backup won);
        // judge it either way — that is how slowness is detected.
        self.note_response(owner.0, primary_svc, now, stats, telemetry);
        self.latency_hist.record(lat);
        telemetry.record("resilient.lookup.latency", lat);
        (serving, lat, primary_lat)
    }
}

/// Counters describing how hard the resilient query path had to work.
///
/// Separate from [`crate::NetworkStats`]: these only move when something
/// went wrong (or was repaired), so a clean run reports all zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Individual lookup attempts issued, including first tries.
    pub lookups_attempted: u64,
    /// Attempts beyond the first (retries through failure-aware routing).
    pub retries: u64,
    /// Identifier lookups abandoned after the whole retry schedule.
    pub lookups_failed: u64,
    /// Queries in which *no* identifier owner was reachable and the answer
    /// came from the source relations.
    pub source_fallbacks: u64,
    /// Virtual time spent backing off between attempts.
    pub backoff_time: u64,
    /// Re-replication sweeps run after membership changes.
    pub re_replications: u64,
    /// Partition copies created by those sweeps (missing replicas
    /// restored from surviving ones).
    pub replicas_restored: u64,
    /// Stored copies those sweeps read to find them: every copy on every
    /// peer for a global [`crate::ChurnNetwork::re_replicate`], only the
    /// copies the changed peer's ring neighbours hold in its arc for the
    /// pass a membership event runs.
    pub repair_scanned: u64,
    /// Partition copies placed at any peer by any path (query caching,
    /// re-replication, which includes the arc a join hands over,
    /// anti-entropy repair, leave handover).
    /// With `buckets_lost`/`buckets_recovered` this forms the ledger
    /// `placed == live + lost − recovered` checked by the trace tests.
    pub buckets_placed: u64,
    /// Live partition copies destroyed: abrupt failures and crashes take
    /// down a peer's whole cache; graceful leaves count the drained copies
    /// here (and their re-stores in `buckets_placed`).
    pub buckets_lost: u64,
    /// Partition copies rebuilt from a durable log at restart.
    pub buckets_recovered: u64,
    /// Anti-entropy repair rounds run.
    pub repair_rounds: u64,
    /// Partition copies pushed to replica owners by those rounds.
    pub repair_entries_sent: u64,
    /// Queries answered while the network was split and at least one
    /// identifier's global owner was unreachable (mirrors
    /// [`crate::QueryOutcome::partition_degraded`]).
    pub partition_degraded_queries: u64,
    /// Partition copies written anywhere while the network was split —
    /// the divergence that post-heal reconciliation must converge.
    pub partition_writes: u64,
    /// Retries forfeited because the whole-query deadline (a test-only
    /// setting) was exhausted.
    pub deadline_exhausted: u64,
    /// Backup lookups launched because a primary was outstanding past the
    /// adaptive hedge delay.
    pub hedges_fired: u64,
    /// Hedges whose backup answered before the primary (first response
    /// wins; the loser's cost stays in `hedge_hops`).
    pub hedges_won: u64,
    /// Routing hops spent on backup lookups — the honest price of
    /// hedging, whether or not the backup won.
    pub hedge_hops: u64,
    /// Circuit breakers tripped (closed/half-open → open).
    pub breaker_opens: u64,
    /// Fetches short-circuited straight to a replica because the
    /// primary's breaker was open.
    pub breaker_short_circuits: u64,
    /// Health-probe messages sent by [`crate::ChurnNetwork::probe_peers`]
    /// sweeps (each feeds the failure detector and breakers).
    pub probes_sent: u64,
    /// Queries [`crate::ChurnNetwork::query_within`] refused because the
    /// virtual clock could not start them within their deadline.
    pub shed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RetryPolicy {
        /// This policy with a whole-query wall-clock deadline installed.
        pub(crate) fn with_deadline(mut self, deadline: u64) -> RetryPolicy {
            self.deadline = Some(deadline);
            self
        }
    }

    #[test]
    fn default_policy_is_sane() {
        // The schedule retries, its cap clears its base, and retries route.
        const { assert!(ATTEMPTS >= 2 && MAX_BACKOFF >= BASE_BACKOFF && HOP_BUDGET > 0) };
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut rng = DetRng::new(7);
        let d1 = backoff(1, &mut rng);
        let d2 = backoff(2, &mut rng);
        let d5 = backoff(5, &mut rng);
        assert!((100..200).contains(&d1), "retry 1: base + jitter, got {d1}");
        assert!(
            (200..300).contains(&d2),
            "retry 2: 2·base + jitter, got {d2}"
        );
        assert_eq!(d5, MAX_BACKOFF, "retry 5: the cap bounds the whole sum");
    }

    #[test]
    fn backoff_never_exceeds_max() {
        // The cap applies to exp + jitter, not the exponential term alone.
        for seed in 0..16 {
            let mut rng = DetRng::new(seed);
            for retry in 1..40 {
                let d = backoff(retry, &mut rng);
                assert!(d <= MAX_BACKOFF, "seed {seed} retry {retry}: {d}");
            }
        }
    }

    #[test]
    fn backoff_clamp_preserves_rng_stream() {
        // The jitter draw happens whether or not the cap swallows it, so
        // a clamped call leaves the stream exactly where the old
        // overshooting code did — later draws are unchanged.
        let mut a = DetRng::new(13);
        let mut b = DetRng::new(13);
        let _ = backoff(10, &mut a); // deep retry: clamped
        let _ = b.gen_range_u64(BASE_BACKOFF); // what the old code drew
        assert_eq!(a.gen_range_u64(1_000_000), b.gen_range_u64(1_000_000));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        for retry in 1..6 {
            assert_eq!(backoff(retry, &mut a), backoff(retry, &mut b));
        }
    }

    #[test]
    fn huge_retry_number_does_not_overflow() {
        let mut rng = DetRng::new(0);
        let d = backoff(u32::MAX, &mut rng);
        assert!(d <= MAX_BACKOFF);
    }

    #[test]
    fn stats_default_all_zero() {
        assert_eq!(
            ResilienceStats::default(),
            ResilienceStats {
                lookups_attempted: 0,
                retries: 0,
                lookups_failed: 0,
                source_fallbacks: 0,
                backoff_time: 0,
                re_replications: 0,
                replicas_restored: 0,
                repair_scanned: 0,
                buckets_placed: 0,
                buckets_lost: 0,
                buckets_recovered: 0,
                repair_rounds: 0,
                repair_entries_sent: 0,
                partition_degraded_queries: 0,
                partition_writes: 0,
                deadline_exhausted: 0,
                hedges_fired: 0,
                hedges_won: 0,
                hedge_hops: 0,
                breaker_opens: 0,
                breaker_short_circuits: 0,
                probes_sent: 0,
                shed: 0,
            }
        );
    }

    #[test]
    fn detector_learns_and_scores_relative_to_history() {
        let mut d = FailureDetector::default();
        assert_eq!(d.suspicion(7, 10_000), 0.0, "unknown peers earn nothing");
        for _ in 0..20 {
            d.observe(7, 100);
        }
        let est = &d.estimates[&7];
        assert!(
            (est.mean - 100.0).abs() < 1.0,
            "mean converged: {}",
            est.mean
        );
        // At-or-below-mean responses are never suspicious.
        assert_eq!(d.suspicion(7, 100), 0.0);
        assert_eq!(d.suspicion(7, 10), 0.0);
        // A 10× spike against a stable history is loudly suspicious.
        assert!(d.suspicion(7, 1_000) > 3.0);
        // A consistently-slow peer is its own baseline: same 1000 from a
        // peer that always answers in 1000 is not suspicious.
        for _ in 0..20 {
            d.observe(8, 1_000);
        }
        assert!(d.suspicion(8, 1_000) < 1.0);
    }

    /// `FailureDetector` as it read over a `BTreeMap`, and
    /// `GrayLayer::note_response` over it: the oracle of the test below.
    #[derive(Default)]
    struct OrderedDetector {
        estimates: BTreeMap<u32, PeerEstimate>,
        breakers: BTreeMap<u32, CircuitBreaker>,
    }

    impl OrderedDetector {
        fn suspicion(&self, peer: u32, latency: u64) -> f64 {
            let Some(est) = self.estimates.get(&peer) else {
                return 0.0;
            };
            let floor = (est.mean / 8.0).max(1.0);
            ((latency as f64 - est.mean) / est.dev.max(floor)).max(0.0)
        }

        fn observe(&mut self, peer: u32, latency: u64) {
            let first = PeerEstimate {
                mean: latency as f64,
                dev: 0.0,
            };
            let est = self.estimates.entry(peer).or_insert(first);
            let err = latency as f64 - est.mean;
            est.mean += EWMA_ALPHA * err;
            est.dev += EWMA_ALPHA * (err.abs() - est.dev);
        }

        /// Returns whether a breaker opened.
        fn note_response(
            &mut self,
            cfg: Option<BreakerConfig>,
            peer: u32,
            svc: u64,
            now: u64,
        ) -> bool {
            let Some(cfg) = cfg else {
                self.observe(peer, svc);
                return false;
            };
            let ok = self.suspicion(peer, svc) < SUSPICION_THRESHOLD;
            let breaker = (self.breakers)
                .entry(peer)
                .or_insert_with(|| CircuitBreaker::new(cfg));
            let opened = breaker.state(now) != BreakerState::Open
                && breaker.record(ok, now) == BreakerTransition::Opened;
            if breaker.state(now) == BreakerState::Closed {
                self.observe(peer, svc);
            }
            opened
        }
    }

    /// The hashed detector scores and absorbs every observation exactly as
    /// the ordered one did, before and after breakers are enabled mid-run
    /// (which freezes the estimates of a peer whose breaker is not closed):
    /// every suspicion bit, every estimate, every breaker state and every
    /// opening agree, on a seeded stream over 24 peers, a quarter of which
    /// degrade part-way.
    #[test]
    fn hashed_detector_scores_as_the_ordered_one() {
        let mut rng = DetRng::new(54);
        let mut layer = GrayLayer::default();
        let mut oracle = OrderedDetector::default();
        let mut stats = ResilienceStats::default();
        let telemetry = Telemetry::noop();
        let cfg = BreakerConfig { cooldown: 1_000 };
        let mut opened = 0;
        for step in 0..3_000u64 {
            if step == 900 {
                layer.enable_breakers(cfg);
            }
            let now = step * 40;
            let peer = rng.gen_index(24) as u32 * 7;
            let slow = (1_200..2_400).contains(&step) && peer.is_multiple_of(4);
            let svc = BASE_SERVICE * if slow { 6 } else { 1 } + rng.gen_range_u64(30);
            for probe in [0, svc, 2 * svc, 10 * svc] {
                let (got, want) = (
                    layer.detector.suspicion(peer, probe),
                    oracle.suspicion(peer, probe),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "step {step}, peer {peer}");
            }
            layer.note_response(peer, svc, now, &mut stats, &telemetry);
            opened += u64::from(oracle.note_response(layer.breaker_cfg, peer, svc, now));
            assert_eq!(stats.breaker_opens, opened, "step {step}");
            assert_eq!(layer.detector.estimates.len(), oracle.estimates.len());
            for (&id, want) in &oracle.estimates {
                let got = layer.detector.estimates[&id];
                assert_eq!(
                    (got.mean.to_bits(), got.dev.to_bits()),
                    (want.mean.to_bits(), want.dev.to_bits()),
                    "step {step}, peer {id}"
                );
            }
            for (&id, want) in &oracle.breakers {
                assert_eq!(layer.breaker_state(Id(id), now), Some(want.state(now)));
            }
        }
        assert!(opened > 0, "the degraded peers trip their breakers");
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let cfg = BreakerConfig { cooldown: 1_000 };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.state(0), BreakerState::Closed);
        // One failure: still closed (threshold is 2).
        assert_eq!(b.record(false, 10), BreakerTransition::None);
        assert_eq!(b.state(10), BreakerState::Closed);
        // Second consecutive failure: trips.
        assert_eq!(b.record(false, 20), BreakerTransition::Opened);
        assert_eq!(b.state(20), BreakerState::Open);
        assert_eq!(b.state(500), BreakerState::Open);
        // Cooldown elapsed: half-open admits exactly the probe.
        assert_eq!(b.state(1_020), BreakerState::HalfOpen);
        // Successful probe closes it and resets the failure streak.
        assert_eq!(b.record(true, 1_020), BreakerTransition::Closed);
        assert_eq!(b.state(1_020), BreakerState::Closed);
        assert_eq!(b.record(false, 1_030), BreakerTransition::None);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let cfg = BreakerConfig { cooldown: 1_000 };
        let mut b = CircuitBreaker::new(cfg);
        assert_eq!(b.record(false, 0), BreakerTransition::None);
        assert_eq!(b.record(false, 0), BreakerTransition::Opened);
        assert_eq!(b.state(1_000), BreakerState::HalfOpen);
        assert_eq!(b.record(false, 1_000), BreakerTransition::Opened);
        assert_eq!(b.state(1_500), BreakerState::Open, "cooldown restarted");
        assert_eq!(b.state(2_000), BreakerState::HalfOpen);
    }

    #[test]
    fn interleaved_success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig::default()); // threshold 2
        assert_eq!(b.record(false, 0), BreakerTransition::None);
        assert_eq!(b.record(true, 1), BreakerTransition::None);
        assert_eq!(b.record(false, 2), BreakerTransition::None);
        assert_eq!(
            b.state(3),
            BreakerState::Closed,
            "non-consecutive failures never trip"
        );
    }

    #[test]
    fn hedge_delay_clamps_and_tracks_quantile() {
        let policy = HedgePolicy::default();
        // No history: the floor.
        assert_eq!(policy.delay(&ars_telemetry::Hist::default()), 1_000);
        // The floor must clear the worst clean-path latency so clean
        // networks never hedge.
        assert!(policy.min_delay > 64 * HOP_COST + BASE_SERVICE);
        // Healthy history far below the floor: still the floor.
        let mut fast = ars_telemetry::Hist::default();
        for _ in 0..100 {
            fast.record(150);
        }
        assert_eq!(policy.delay(&fast), 1_000);
        // A stretched tail pulls the delay up with the q90…
        let mut slow = ars_telemetry::Hist::default();
        for _ in 0..100 {
            slow.record(1_000);
        }
        let d = policy.delay(&slow);
        assert!((1_000..=2_048).contains(&d), "2 × q90 ≈ 2000, got {d}");
        // …but the ceiling bounds catastrophe.
        let mut awful = ars_telemetry::Hist::default();
        awful.record(1_000_000);
        assert_eq!(policy.delay(&awful), 5_000);
    }

    /// The floor the pure-observer argument rests on, pinned as an
    /// invariant: if someone lowers the default hedge floor below the worst
    /// clean-path latency, this fails before the proptest gets flaky.
    #[test]
    fn default_hedge_floor_clears_worst_clean_path() {
        let policy = HedgePolicy::default();
        let worst_clean = HOP_BUDGET as u64 * HOP_COST + BASE_SERVICE;
        assert!(
            policy.min_delay > worst_clean,
            "hedge floor {} must exceed worst clean-path latency {}",
            policy.min_delay,
            worst_clean
        );
    }

    #[test]
    fn default_policy_has_no_deadline() {
        // The deadline budget is strictly opt-in: the default policy must
        // behave bit-for-bit like revisions that predate the field.
        assert_eq!(RetryPolicy::default().deadline, None);
        assert_eq!(
            RetryPolicy::default().with_deadline(500).deadline,
            Some(500)
        );
    }
}
