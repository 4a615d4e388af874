//! Gray-failure tolerance integration suite: slow-but-alive peers, the
//! adaptive failure detector and circuit breakers, hedged lookups, and
//! deadline-aware overload shedding.
//!
//! Five angles:
//!
//! 1. message accounting — a `SlowWindow` multiplies latency without
//!    losing anything: the conservation identity
//!    `sent == delivered + dropped + partitioned + queued` holds with the
//!    `slowed` column counted *outside* it;
//! 2. pure observation — with hedging and breakers enabled but **zero**
//!    gray faults, query outcomes, the inventory, and the resilience
//!    ledger are bit-identical to a run with the machinery disabled,
//!    including under churn (proptest);
//! 3. detection — a live network's probes walk a slow peer's breaker
//!    through closed → open, and a healed peer through
//!    half-open → closed, on the deterministic virtual clock;
//! 4. tail tolerance — with a fraction of peers slowed, hedges fire and
//!    win, breaker short-circuits keep the p99 down, and recall is
//!    *identical* to the baseline run (substitutes serve the same
//!    buckets);
//! 5. shedding — deadline admission on the churn network's virtual clock
//!    keeps its ledger balanced (`offered == admitted + shed`), sheds
//!    deterministically, leaves the admitted queries' answers untouched,
//!    and composes with slow peers.
//!
//! The fixed seed honors `ARS_FAULT_SEED` (default 0) so CI can sweep a
//! small matrix of seeds over the same assertions.

mod common;

use ars::common::env_seed;
use ars::core::resilient::{BASE_SERVICE, HOP_COST};
use ars::prelude::*;
use common::relays;
use proptest::prelude::*;

/// Distinct well-spread query ranges for cache warm/measure phases.
fn trace(n: usize) -> Vec<RangeSet> {
    (0..n as u32)
        .map(|i| {
            let lo = i * 523 % 40_000;
            RangeSet::interval(lo, lo + 60 + (i % 5) * 25)
        })
        .collect()
}

fn grown(n: usize, seed: u64) -> ChurnNetwork {
    grown_placed(n, seed, PlacementMode::Independent)
}

/// [`grown`] under a placement mode ([`common::placed`]).
fn grown_placed(n: usize, seed: u64, mode: PlacementMode) -> ChurnNetwork {
    let config = SystemConfig::default()
        .with_kl(16, 4)
        .with_matching(MatchMeasure::Containment)
        .with_replication(2)
        .with_seed(seed);
    ChurnNetwork::new(n, common::placed(config, mode)).expect("growth converges")
}

// ---------------------------------------------------------------------
// 1. Message accounting: slow windows delay, never lose.
// ---------------------------------------------------------------------

#[test]
fn sim_slow_window_delays_but_conserves() {
    let n = 12;
    let mut sim = SimNet::new(relays(n), 5);
    sim.set_faults(
        FaultPlan::none().with_slow(vec![3, 7], 10, 0, u64::MAX),
        env_seed("ARS_FAULT_SEED"),
    );
    for i in 0..n {
        sim.inject(0, i, 30);
    }
    while sim.step() {
        assert!(
            sim.stats().is_conserved(),
            "conservation violated during slow-window run"
        );
    }
    let stats = sim.stats();
    assert_eq!(stats.queued, 0, "queue must drain");
    assert_eq!(stats.dropped, 0, "gray failure loses nothing");
    assert_eq!(stats.sent, stats.delivered, "every send arrives");
    assert!(stats.slowed > 0, "traffic through nodes 3/7 must be slowed");
    assert!(
        stats.slowed < stats.delivered,
        "slowed is a subset of delivered, not a ledger column"
    );
}

// ---------------------------------------------------------------------
// 2. Pure observation: the machinery enabled on a healthy fleet changes
//    nothing — bit for bit.
// ---------------------------------------------------------------------

/// Run the same scripted scenario on two networks grown from the same
/// seed — `featured` has hedging + breakers enabled — and assert the
/// runs are indistinguishable where it matters.
fn assert_pure_observer(n: usize, seed: u64, churn_mid_trace: bool) {
    let mut plain = grown(n, seed);
    let mut featured = grown(n, seed);
    // Default policies: the hedge floor provably exceeds the worst
    // clean-path latency (hop_budget × HOP_COST + BASE_SERVICE), so no
    // hedge can fire, and a healthy peer's suspicion is 0, so no breaker
    // can open — even mid-churn.
    featured.enable_hedging(HedgePolicy::default());
    featured.enable_breakers(BreakerConfig::default());

    let queries = trace(24);
    for (i, q) in queries.iter().enumerate() {
        if churn_mid_trace && i == queries.len() / 2 {
            for net in [&mut plain, &mut featured] {
                net.fail_random(n / 8);
                net.stabilize(256).expect("ring recovers");
            }
        }
        if i % 6 == 0 {
            // Probing is part of the featured machinery, but it is pure
            // observation too — run it on both so the probe ledger also
            // matches exactly.
            assert_eq!(plain.probe_peers(), featured.probe_peers());
        }
        let a = plain.query_resilient(q);
        let b = featured.query_resilient(q);
        assert_eq!(a, b, "outcome diverged at query {}", i);
    }
    assert_eq!(plain.inventory(), featured.inventory());
    assert_eq!(plain.resilience(), featured.resilience());
    let f = featured.resilience();
    assert_eq!(f.hedges_fired, 0, "no hedge may fire on a healthy fleet");
    assert_eq!(f.breaker_opens, 0, "no breaker may open on a healthy fleet");
    assert_eq!(f.breaker_short_circuits, 0);
}

#[test]
fn hedging_and_breakers_are_pure_observers_without_faults() {
    assert_pure_observer(40, 0x0B5E ^ env_seed("ARS_FAULT_SEED"), false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pure_observer_property_survives_churn(
        n in 24usize..48,
        seed in 0u64..1_000,
        churn in any::<bool>(),
    ) {
        assert_pure_observer(n, seed ^ (env_seed("ARS_FAULT_SEED") << 32), churn);
    }
}

/// The floor the pure-observer argument rests on, pinned as an
/// invariant: if someone lowers the default hedge floor below the worst
/// clean-path latency, this fails before the proptest gets flaky.
#[test]
fn default_hedge_floor_clears_worst_clean_path() {
    let policy = HedgePolicy::default();
    let worst_clean = RetryPolicy::default().hop_budget as u64 * HOP_COST + BASE_SERVICE;
    assert!(
        policy.min_delay > worst_clean,
        "hedge floor {} must exceed worst clean-path latency {}",
        policy.min_delay,
        worst_clean
    );
}

// ---------------------------------------------------------------------
// 3. Detection: breakers open on sustained slowness and close after the
//    peer heals, on the live virtual clock.
// ---------------------------------------------------------------------

#[test]
fn breaker_opens_on_slow_peer_and_recloses_after_heal() {
    let mut net = grown(30, 0xB4EA ^ env_seed("ARS_FAULT_SEED"));
    net.enable_breakers(BreakerConfig::default());
    // Teach the detector healthy baselines.
    for _ in 0..3 {
        net.probe_peers();
    }
    let victim = net.chord().node_ids()[0];
    assert_eq!(net.breaker_state(victim), Some(BreakerState::Closed));

    net.set_slow(victim, 10);
    net.probe_peers(); // first suspicious sample
    net.probe_peers(); // second trips the breaker (failure_threshold = 2)
    assert_eq!(net.breaker_state(victim), Some(BreakerState::Open));
    let opens = net.resilience().breaker_opens;
    assert!(opens >= 1, "the trip must be counted");

    // Still slow at the half-open probe: the breaker re-opens (estimates
    // are frozen while non-closed, so the degraded period cannot drift
    // the baseline up and sneak the peer back in). Probes while Open are
    // short-circuited, so the re-open happens exactly at the first probe
    // landing in the half-open window — walk the clock until then.
    let mut sweeps = 0;
    while net.resilience().breaker_opens == opens {
        net.probe_peers();
        sweeps += 1;
        assert!(sweeps < 100, "breaker never re-opened at half-open probe");
    }
    assert_eq!(net.breaker_state(victim), Some(BreakerState::Open));

    // Healed: the next half-open probe sees a healthy sample and closes.
    net.clear_slow(victim);
    let mut sweeps = 0;
    while net.breaker_state(victim) != Some(BreakerState::Closed) {
        net.probe_peers();
        sweeps += 1;
        assert!(sweeps < 100, "healed peer's breaker never re-closed");
    }
    // And it stays closed: the frozen healthy baseline still fits.
    net.probe_peers();
    assert_eq!(net.breaker_state(victim), Some(BreakerState::Closed));
}

// ---------------------------------------------------------------------
// 4. Tail tolerance: hedges win, short-circuits cut the tail, recall
//    never moves.
// ---------------------------------------------------------------------

/// The tuned policy used for converged-ring measurements (the default
/// floor is conservative enough for churning networks; here routes are
/// short, so 500 still never fires on healthy peers).
fn tuned_hedge() -> HedgePolicy {
    HedgePolicy {
        min_delay: 500,
        ..HedgePolicy::default()
    }
}

/// What one measured run observed: per-query virtual latencies, mean
/// recall, the answer-shaping fields of every outcome, and the honest
/// message bill of the measured window — routed hops of the measured
/// lookups, every hedge/detour hop (losers included) and every health
/// probe, warm-up routing excluded.
#[derive(Debug, PartialEq)]
struct Measured {
    latencies: Vec<u64>,
    recall: f64,
    digest: Vec<(f64, bool, usize)>,
    messages: u64,
}

impl Measured {
    fn total(&self) -> u64 {
        self.latencies.iter().sum()
    }

    /// Exact quantile over the sorted latencies, not histogram-rebuilt.
    fn p99(&self) -> u64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() * 99).div_ceil(100) - 1]
    }
}

/// Warm `n_queries` on a healthy fleet, slow 20% of it 10×, then measure
/// `rounds` passes over the same trace.
fn measured_run(
    net: &mut ChurnNetwork,
    with_breaker_probes: bool,
    n_queries: usize,
    rounds: usize,
) -> Measured {
    let tel = Telemetry::recording();
    net.set_telemetry(tel.clone());
    let queries = trace(n_queries);
    for q in &queries {
        net.query_resilient(q);
    }
    let warm_hops = tel.snapshot().counter("resilient.lookup.hops");
    if with_breaker_probes {
        for _ in 0..3 {
            net.probe_peers();
        }
    }
    net.slow_fraction(0.2, 10);
    if with_breaker_probes {
        for _ in 0..2 {
            net.probe_peers();
        }
    }
    let mut latencies = Vec::new();
    let mut recall = 0.0;
    let mut digest = Vec::new();
    for _ in 0..rounds {
        for q in &queries {
            let (out, lat) = net.query_timed(q);
            latencies.push(lat);
            recall += out.recall;
            digest.push((out.recall, out.exact, out.hops.len()));
        }
    }
    Measured {
        recall: recall / latencies.len() as f64,
        latencies,
        digest,
        messages: tel.snapshot().total_messages() - warm_hops,
    }
}

/// Production-shaped breaker cooldown — thousands of service times — so a
/// tripped peer stays short-circuited for the whole measured window.
fn guard(net: &mut ChurnNetwork) {
    net.enable_hedging(tuned_hedge());
    net.enable_breakers(BreakerConfig {
        cooldown: 250_000,
        ..BreakerConfig::default()
    });
}

#[test]
fn hedges_fire_win_and_cut_latency_under_slowness() {
    let seed = 0x6ED6 ^ env_seed("ARS_FAULT_SEED");
    let mut baseline = grown(40, seed);
    let mut hedged = grown(40, seed);
    hedged.enable_hedging(tuned_hedge());

    let base = measured_run(&mut baseline, false, 40, 2);
    let fast = measured_run(&mut hedged, false, 40, 2);

    let res = hedged.resilience();
    assert!(res.hedges_fired > 0, "slow primaries must trigger hedges");
    assert!(res.hedges_won > 0, "some backups must win the race");
    assert!(
        res.hedge_hops > 0,
        "the losing/backup routes must be costed honestly"
    );
    assert!(
        fast.total() < base.total(),
        "hedging must cut total latency ({} vs {})",
        fast.total(),
        base.total()
    );
    // A hedge serves the same bucket from a replica: answers identical.
    assert_eq!(base.recall, fast.recall, "recall must not move");
    assert_eq!(base.digest, fast.digest, "answers must be identical");
}

#[test]
fn breaker_short_circuits_cut_tail_and_keep_recall() {
    let seed = 0x5C5C ^ env_seed("ARS_FAULT_SEED");
    let mut baseline = grown(40, seed);
    let mut guarded = grown(40, seed);
    guard(&mut guarded);

    let base = measured_run(&mut baseline, false, 40, 2);
    let fast = measured_run(&mut guarded, true, 40, 2);

    let res = guarded.resilience();
    assert!(res.breaker_opens > 0, "slowed peers must trip breakers");
    assert!(
        res.breaker_short_circuits > 0,
        "open breakers must short-circuit fetches"
    );
    assert!(
        fast.total() * 2 < base.total(),
        "short-circuits should at least halve total latency ({} vs {})",
        fast.total(),
        base.total()
    );
    assert_eq!(base.recall, fast.recall, "recall must not move");
    assert_eq!(base.digest, fast.digest, "answers must be identical");
}

/// The gray-failure headline (DESIGN.md §13): with 20% of 50 peers slowed
/// 10×, hedging plus breakers cut p99 query latency at least 2× for at
/// most 1.3× the honestly counted messages, move no answer, and replay
/// bit-identically from scratch.
#[test]
fn hedged_breaker_headline_halves_p99_within_message_budget() {
    let seed = 0x7A11 ^ env_seed("ARS_FAULT_SEED");
    let run = |mode: PlacementMode, guarded: bool| {
        let mut net = grown_placed(50, seed, mode);
        if guarded {
            guard(&mut net);
        }
        let measured = measured_run(&mut net, guarded, 60, 5);
        net.check_bucket_ledger().expect("ledger balances");
        measured
    };
    let guarded = common::MODES.map(|mode| {
        let (base, fast) = (run(mode, false), run(mode, true));
        assert!(
            fast.p99() * 2 <= base.p99(),
            "p99 {} vs baseline {} is not a 2x cut ({mode:?})",
            fast.p99(),
            base.p99()
        );
        assert!(
            fast.messages as f64 <= 1.3 * base.messages as f64,
            "messages {} vs baseline {} exceed the 1.3x budget ({mode:?})",
            fast.messages,
            base.messages
        );
        assert_eq!(base.recall, fast.recall, "recall must not move");
        assert_eq!(base.digest, fast.digest, "answers must be identical");
        assert_eq!(
            fast,
            run(mode, true),
            "a from-scratch rerun must be bit-identical"
        );
        fast
    });
    // The arc read, hedged and short-circuited like any fetch, holds the
    // recall of four lookups on at most half their messages.
    let [independent, layered] = guarded;
    assert!(
        layered.recall >= independent.recall - 0.01,
        "layered recall {} trails independent {}",
        layered.recall,
        independent.recall
    );
    assert!(
        layered.messages * 2 <= independent.messages,
        "layered spent {} messages, independent {}",
        layered.messages,
        independent.messages
    );
}

#[test]
fn slow_fraction_is_stride_spaced_and_deterministic() {
    // 50 x 0.3 and 64 x 0.3 are the non-dividing cases: a fixed stride
    // of ceil(n / count) runs off the end of the ring before it has
    // taken `count` victims.
    for (n, fraction, count) in [(30, 0.2, 6), (50, 0.3, 15), (64, 0.3, 19), (40, 0.5, 20)] {
        let seed = 0x51DE ^ env_seed("ARS_FAULT_SEED");
        let mut net = grown(n, seed);
        let victims = net.slow_fraction(fraction, 4);
        assert_eq!(victims.len(), count, "{n} peers x {fraction}");
        // Even spacing: ring-consecutive positions (the wrap from last to
        // first included) are never both slow, so every victim's
        // successor replica is healthy.
        let ids = net.chord().alive_ids();
        for (i, id) in ids.iter().enumerate() {
            let next = ids[(i + 1) % ids.len()];
            assert!(
                !(victims.contains(id) && victims.contains(&next)),
                "{n} peers x {fraction}: adjacent ring positions both slowed"
            );
        }
        // Same membership → same victims (no RNG consumed).
        assert_eq!(grown(n, seed).slow_fraction(fraction, 4), victims);
    }
}

// ---------------------------------------------------------------------
// 5. Shedding: deadline admission on the churn clock keeps its books.
// ---------------------------------------------------------------------

/// Offer `trace(60)` to a fresh 40-peer ring as three bursts of twenty,
/// one query every `gap` ticks within a burst and 20 000 idle ticks
/// between bursts (so queries are admitted again after others were
/// shed), each worthless unless it starts within 1 500 ticks of arriving;
/// with `slowed`, a fifth of the peers serve 10× slower.
fn offered(gap: u64, slowed: bool) -> (Vec<Option<(QueryOutcome, u64)>>, ChurnNetwork) {
    let mut net = grown(40, env_seed("ARS_FAULT_SEED") ^ 0xADA);
    net.set_telemetry(Telemetry::recording());
    if slowed {
        net.slow_fraction(0.2, 10);
    }
    let answers = trace(60)
        .iter()
        .zip(0u64..)
        .map(|(q, i)| net.query_within(q, i * gap + i / 20 * 20_000, 1_500))
        .collect();
    (answers, net)
}

#[test]
fn admission_ledger_balances_under_overload() {
    // Bursts arriving about twice as fast as a query is served (some
    // 500 ticks: four fetches and their hops): the backlog grows until
    // the deadline dooms the excess.
    let (answers, net) = offered(250, false);
    let shed = answers.iter().filter(|a| a.is_none()).count() as u64;
    let admitted = answers.len() as u64 - shed;
    assert!(shed > 0, "the overload bursts must shed");
    assert!(admitted > 0, "the head of each burst must be served");
    assert_eq!(net.resilience().shed, shed, "every None is counted");
    assert_eq!(net.telemetry().snapshot().counter("resilient.shed"), shed);
    assert_eq!(
        net.telemetry().snapshot().counter("resilient.queries"),
        admitted,
        "offered == admitted + shed"
    );

    // Shed pattern, outcomes and sojourn times replay on a rebuilt network.
    assert_eq!(offered(250, false).0, answers, "shedding must replay");

    // A shed query drew no randomness and touched no peer: a twin that
    // was only ever offered the admitted subsequence, with no admission
    // in front of it, answers identically.
    let mut twin = grown(40, env_seed("ARS_FAULT_SEED") ^ 0xADA);
    for (q, answer) in trace(60).iter().zip(&answers) {
        if let Some((outcome, _)) = answer {
            assert_eq!(&twin.query_resilient(q), outcome);
        }
    }

    // Arrivals slower than the service rate: nothing waits, nothing is shed.
    let (slack, net) = offered(10_000, false);
    assert!(slack.iter().all(|a| a.is_some()));
    assert_eq!(net.resilience().shed, 0);

    // Overload composes with a gray failure on the one clock: slow peers
    // lengthen the modelled service times, so the same bursts shed more.
    let (degraded, net) = offered(250, true);
    assert!(
        net.resilience().shed > shed,
        "slowed fleet shed {} of {}, healthy fleet {shed}",
        net.resilience().shed,
        degraded.len()
    );
}

// ---------------------------------------------------------------------
// The README's hedged-query example, kept runnable.
// ---------------------------------------------------------------------

#[test]
fn readme_hedged_query_example() {
    // A 40-peer network with successor replication; hedging and
    // circuit breakers watch every fetch.
    let config = SystemConfig::default().with_replication(2).with_seed(7);
    let mut net = ChurnNetwork::new(40, config).expect("ring converges");
    net.enable_hedging(HedgePolicy {
        min_delay: 500,
        ..HedgePolicy::default()
    });
    net.enable_breakers(BreakerConfig::default());

    // Cache a partition, then gray-slow a fifth of the fleet 10×.
    let q = RangeSet::interval(30, 50);
    net.query_resilient(&q);
    net.slow_fraction(0.2, 10);

    // Queries keep answering at healthy-path latency: slow primaries are
    // hedged or short-circuited to replica holders of the same buckets.
    let (out, latency) = net.query_timed(&q);
    assert_eq!(out.recall, 1.0);
    let stats = net.resilience();
    println!(
        "latency {latency}, hedges fired {}, won {}",
        stats.hedges_fired, stats.hedges_won
    );
}

#[test]
fn readme_layered_churn_example() {
    let config = SystemConfig::default()
        .with_seed(7)
        .with_placement_mode(PlacementMode::Layered)
        .with_probes(16);
    // The churning and message-passing networks take the same
    // configuration; repair re-places a copy by (identifier, range).
    let mut net = ChurnNetwork::new(40, config.with_replication(2)).expect("ring converges");
    net.query_resilient(&RangeSet::interval(400, 520)); // cached in its arc, twice
    net.fail_random(4); // repaired where queries look
    assert!(net.query_resilient(&RangeSet::interval(400, 520)).exact);
    net.check_bucket_ledger().expect("ledger balances");
}
