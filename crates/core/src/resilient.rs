//! Failure resilience for the query path.
//!
//! The paper treats cached partitions as soft state: anything lost to a
//! crashed peer is rebuildable from the source relations (§4). This module
//! supplies the machinery that makes that story operational instead of
//! aspirational:
//!
//! * [`RetryPolicy`] — bounded retries of identifier lookups with
//!   exponential backoff and *deterministic* jitter (drawn from the
//!   network's own [`ars_common::DetRng`] stream, so a seeded run replays
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
//!   abrupt crashes leave every bucket findable.

use ars_common::DetRng;
use std::collections::BTreeMap;

/// Virtual service time of a healthy peer answering one fetch, in the same
/// time units as [`RetryPolicy`] backoffs. Gray-slow peers multiply this.
pub const BASE_SERVICE: u64 = 100;

/// Virtual cost of one routing hop on the lookup path.
pub const HOP_COST: u64 = 10;

/// Retry schedule for identifier lookups under churn.
///
/// Attempt 1 is the ordinary greedy Chord lookup; subsequent attempts use
/// the failure-aware routing ([`ars_chord::DynamicNetwork::lookup_resilient`])
/// that detours through successor lists, separated by exponentially growing
/// backoff delays. All delays are virtual time — the simulator has no wall
/// clock — and the jitter comes from the deterministic RNG, so retries
/// never break reproducibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per identifier lookup (≥ 1, first try included).
    pub attempts: usize,
    /// Total backoff budget (virtual time units) per identifier; once the
    /// accumulated delays exceed it, remaining attempts are forfeited.
    pub timeout_budget: u64,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_backoff: u64,
    /// Cap on the exponential term (jitter rides on top).
    pub max_backoff: u64,
    /// Hop budget handed to the failure-aware routing of retries.
    pub hop_budget: usize,
    /// Optional wall-clock deadline (virtual time units) for one *whole*
    /// query: [`crate::ChurnNetwork::query_resilient`] accumulates every
    /// backoff delay it spends across all `l` identifier lookups, and once
    /// the total reaches the deadline no further retries are scheduled —
    /// remaining identifiers get their first attempt only (an attempt
    /// itself costs no wall time in the simulation; only waiting does).
    /// `None` (the default) disables the budget, preserving bit-for-bit
    /// behavior of earlier revisions. Contrast with `timeout_budget`,
    /// which bounds backoff *per identifier*.
    pub deadline: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            timeout_budget: 10_000,
            base_backoff: 100,
            max_backoff: 1_600,
            hop_budget: 64,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// This policy with a whole-query wall-clock deadline installed.
    #[cfg(test)]
    pub(crate) fn with_deadline(mut self, deadline: u64) -> RetryPolicy {
        self.deadline = Some(deadline);
        self
    }

    /// Backoff delay before retry number `retry` (1-based): exponential
    /// `base · 2^(retry-1)` plus jitter uniform in `[0, base)` drawn from
    /// the deterministic stream, the whole sum capped at `max_backoff`.
    ///
    /// The jitter is drawn even when the cap swallows it, so the RNG
    /// stream — and therefore every decision downstream of it — is
    /// unchanged from earlier revisions where the cap applied to the
    /// exponential term only and `exp + jitter` could overshoot
    /// `max_backoff` by up to `base_backoff − 1`.
    pub(crate) fn backoff(&self, retry: u32, rng: &mut DetRng) -> u64 {
        let shift = (retry.saturating_sub(1)).min(16);
        let exp = self
            .base_backoff
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff);
        let jitter = if self.base_backoff > 0 {
            rng.gen_range_u64(self.base_backoff)
        } else {
            0
        };
        exp.saturating_add(jitter).min(self.max_backoff)
    }
}

/// Per-peer adaptive failure detector in the phi-accrual style: an EWMA of
/// observed response latencies and an EWMA of their absolute deviation feed
/// a suspicion score — "how many deviations above the learned mean is this
/// observation?" — so slowness is judged *relative to the peer's own
/// history*, not against a fixed timeout. A peer that is consistently slow
/// from the start is learned as such; a peer that suddenly degrades spikes
/// the score immediately. Entirely arithmetic: no RNG, no wall clock, so
/// attaching a detector to a run never perturbs replay.
#[derive(Debug, Clone, Default)]
pub struct FailureDetector {
    estimates: BTreeMap<u32, PeerEstimate>,
}

/// Learned latency profile of one peer.
#[derive(Debug, Clone, Copy)]
pub struct PeerEstimate {
    /// EWMA of observed latencies.
    pub mean: f64,
    /// EWMA of absolute deviations from the mean.
    pub dev: f64,
    /// Observations recorded.
    pub samples: u64,
}

/// EWMA smoothing factor: new observations carry 20% weight, so the
/// estimate converges in a handful of probes yet rides out single spikes.
const EWMA_ALPHA: f64 = 0.2;

impl FailureDetector {
    /// A detector with no history.
    pub(crate) fn new() -> FailureDetector {
        FailureDetector::default()
    }

    /// Suspicion score of observing latency `latency` from `peer`, judged
    /// against the peer's history *before* this observation is absorbed:
    /// `(latency − mean) / max(dev, mean/8, 1)`. Zero (never negative) for
    /// at-or-below-mean responses and for unknown peers — a peer earns
    /// suspicion only by deviating from its own learned behaviour.
    pub(crate) fn suspicion(&self, peer: u32, latency: u64) -> f64 {
        let Some(est) = self.estimates.get(&peer) else {
            return 0.0;
        };
        if est.samples == 0 {
            return 0.0;
        }
        // Floor the deviation so a perfectly stable history (dev → 0)
        // doesn't turn infinitesimal jitter into infinite suspicion.
        let floor = (est.mean / 8.0).max(1.0);
        ((latency as f64 - est.mean) / est.dev.max(floor)).max(0.0)
    }

    /// Absorb one latency observation for `peer`.
    pub(crate) fn observe(&mut self, peer: u32, latency: u64) {
        let est = self.estimates.entry(peer).or_insert(PeerEstimate {
            mean: latency as f64,
            dev: 0.0,
            samples: 0,
        });
        let err = latency as f64 - est.mean;
        est.mean += EWMA_ALPHA * err;
        est.dev += EWMA_ALPHA * (err.abs() - est.dev);
        est.samples += 1;
    }
}

/// Circuit-breaker configuration shared by every per-peer breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive suspicious observations that trip a closed breaker.
    pub failure_threshold: u32,
    /// Virtual time an open breaker waits before admitting one half-open
    /// probe (deterministic: the transition is a pure function of the
    /// opening instant, not of a timer thread).
    pub cooldown: u64,
    /// Suspicion score (see `FailureDetector::suspicion`) at or above
    /// which an observation counts as a failure.
    pub suspicion_threshold: f64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 2,
            cooldown: 2_000,
            suspicion_threshold: 3.0,
        }
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
pub enum BreakerTransition {
    /// No state change.
    None,
    /// Closed (or half-open) → open.
    Opened,
    /// Half-open probe succeeded → closed.
    Closed,
}

/// Per-peer circuit breaker: closed → open after `failure_threshold`
/// consecutive suspicious responses, half-open after `cooldown` virtual
/// time units, closed again on a successful probe (re-opened on a failed
/// one). All transitions are pure functions of `(observations, virtual
/// time)` — nothing here can break deterministic replay.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    consecutive_failures: u32,
    /// `Some(instant)` while tripped.
    opened_at: Option<u64>,
}

impl CircuitBreaker {
    /// A closed breaker with the given configuration.
    pub(crate) fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            consecutive_failures: 0,
            opened_at: None,
        }
    }

    /// State at virtual time `now`.
    pub(crate) fn state(&self, now: u64) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(at) if now >= at.saturating_add(self.config.cooldown) => BreakerState::HalfOpen,
            Some(_) => BreakerState::Open,
        }
    }

    /// Record the outcome of one admitted request at `now`.
    pub(crate) fn record(&mut self, ok: bool, now: u64) -> BreakerTransition {
        match self.state(now) {
            BreakerState::Closed => {
                if ok {
                    self.consecutive_failures = 0;
                    BreakerTransition::None
                } else {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.config.failure_threshold {
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

/// How hedged lookups derive their backup-launch delay.
///
/// The delay adapts to the *observed* latency distribution: a backup fires
/// once the primary has been outstanding longer than
/// `multiplier × quantile(q)` of recent query latencies, clamped to
/// `[min_delay, max_delay]`. On a healthy network the observed quantile
/// sits far below `min_delay`, so no hedge ever fires and the feature is a
/// pure observer (see the tail-tolerance proptests); once gray-slow peers
/// stretch the tail, the delay tracks the healthy quantile and backups
/// fire exactly for the slow primaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Which latency quantile anchors the delay (e.g. 0.9).
    pub quantile: f64,
    /// Multiplier on the anchored quantile.
    pub multiplier: f64,
    /// Lower clamp — also the zero-history default. Must exceed any
    /// healthy-path latency or hedges fire on clean networks: under the
    /// virtual service model the worst clean fetch costs
    /// `hop_budget × HOP_COST + BASE_SERVICE` (740 at the default budget
    /// of 64), so the default floor of 1 000 guarantees the pure-observer
    /// property unconditionally.
    pub min_delay: u64,
    /// Upper clamp, so one catastrophic tail sample cannot disable
    /// hedging for the rest of a run.
    pub max_delay: u64,
}

impl Default for HedgePolicy {
    fn default() -> HedgePolicy {
        HedgePolicy {
            quantile: 0.9,
            multiplier: 2.0,
            min_delay: 1_000,
            max_delay: 5_000,
        }
    }
}

impl HedgePolicy {
    /// The hedge delay derived from an observed latency histogram.
    pub(crate) fn delay(&self, observed: &ars_telemetry::Hist) -> u64 {
        if observed.count == 0 {
            return self.min_delay;
        }
        let anchored = (observed.quantile(self.quantile) as f64 * self.multiplier) as u64;
        anchored.clamp(self.min_delay, self.max_delay)
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
    /// re-replication, anti-entropy repair, leave handover, migration).
    /// With `buckets_lost`/`buckets_recovered` this forms the ledger
    /// `placed == live + lost − recovered` checked by the trace tests.
    pub buckets_placed: u64,
    /// Live partition copies destroyed: abrupt failures and crashes take
    /// down a peer's whole cache; graceful leaves and key migrations count
    /// the drained copies here (and their re-stores in `buckets_placed`).
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
    /// Retries forfeited because the whole-query
    /// [`RetryPolicy::deadline`] was exhausted.
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

    #[test]
    fn default_policy_is_sane() {
        let p = RetryPolicy::default();
        assert!(p.attempts >= 2, "default must actually retry");
        assert!(p.max_backoff >= p.base_backoff);
        assert!(p.hop_budget > 0);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            attempts: 6,
            timeout_budget: u64::MAX,
            base_backoff: 100,
            max_backoff: 400,
            hop_budget: 8,
            deadline: None,
        };
        let mut rng = DetRng::new(7);
        let d1 = p.backoff(1, &mut rng);
        let d2 = p.backoff(2, &mut rng);
        let d5 = p.backoff(5, &mut rng);
        assert!((100..200).contains(&d1), "retry 1: base + jitter, got {d1}");
        assert!(
            (200..300).contains(&d2),
            "retry 2: 2·base + jitter, got {d2}"
        );
        assert_eq!(d5, 400, "retry 5: the cap bounds the whole sum");
    }

    #[test]
    fn backoff_never_exceeds_max() {
        // The cap applies to exp + jitter, not the exponential term alone.
        for seed in 0..16 {
            let p = RetryPolicy {
                attempts: 8,
                timeout_budget: u64::MAX,
                base_backoff: 100,
                max_backoff: 400,
                hop_budget: 8,
                deadline: None,
            };
            let mut rng = DetRng::new(seed);
            for retry in 1..40 {
                let d = p.backoff(retry, &mut rng);
                assert!(d <= p.max_backoff, "seed {seed} retry {retry}: {d}");
            }
        }
    }

    #[test]
    fn backoff_clamp_preserves_rng_stream() {
        // The jitter draw happens whether or not the cap swallows it, so
        // a clamped call leaves the stream exactly where the old
        // overshooting code did — later draws are unchanged.
        let p = RetryPolicy {
            attempts: 8,
            timeout_budget: u64::MAX,
            base_backoff: 100,
            max_backoff: 400,
            hop_budget: 8,
            deadline: None,
        };
        let mut a = DetRng::new(13);
        let mut b = DetRng::new(13);
        let _ = p.backoff(10, &mut a); // deep retry: clamped
        let _ = b.gen_range_u64(p.base_backoff); // what the old code drew
        assert_eq!(a.gen_range_u64(1_000_000), b.gen_range_u64(1_000_000));
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        for retry in 1..6 {
            assert_eq!(p.backoff(retry, &mut a), p.backoff(retry, &mut b));
        }
    }

    #[test]
    fn huge_retry_number_does_not_overflow() {
        let p = RetryPolicy::default();
        let mut rng = DetRng::new(0);
        let d = p.backoff(u32::MAX, &mut rng);
        assert!(d <= p.max_backoff);
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
        let mut d = FailureDetector::new();
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

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: 1_000,
            suspicion_threshold: 3.0,
        };
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
        let cfg = BreakerConfig {
            failure_threshold: 1,
            cooldown: 1_000,
            suspicion_threshold: 3.0,
        };
        let mut b = CircuitBreaker::new(cfg);
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
