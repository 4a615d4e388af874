//! Fault-injection integration suite: arbitrary churn interleavings
//! against the ground-truth oracle, message-accounting conservation under
//! seeded fault plans, fuzz-style graceful-degradation checks through
//! every query path, and the headline replication acceptance criterion
//! (r = 2 keeps recall within 5% of the no-churn baseline under 10%
//! abrupt failures, while r = 1 demonstrably loses buckets).
//!
//! The fixed seed honors `ARS_FAULT_SEED` (default 0) so CI can sweep a
//! small matrix of seeds over the same assertions.

mod common;

use ars::common::env_seed;
use ars::prelude::*;
use common::{placed, relays, MODES};
use proptest::prelude::*;

/// Grow a converged dynamic ring of `n` nodes (same idiom as the churn
/// recovery suite).
fn grown(n: usize, seed: u64) -> DynamicNetwork {
    let mut rng = DetRng::new(seed);
    let first = Id(rng.next_u32());
    let mut net = DynamicNetwork::bootstrap(first);
    while net.len() < n {
        let id = Id(rng.next_u32());
        if net.node_ids().contains(&id) {
            continue;
        }
        net.join(id, first).expect("join during growth");
        net.stabilize_all(32);
    }
    net.stabilize_until_consistent(64)
        .expect("growth converges");
    net
}

/// Distinct well-spread query ranges for cache warm/measure phases.
fn trace(n: usize) -> Vec<RangeSet> {
    (0..n as u32)
        .map(|i| {
            let lo = i * 523 % 40_000;
            RangeSet::interval(lo, lo + 60 + (i % 5) * 25)
        })
        .collect()
}

// ---------------------------------------------------------------------
// 1. Arbitrary join/leave/fail interleavings: after stabilization, every
//    live node resolves every key to the ground-truth owner.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_churn_interleaving_converges_to_correct_lookups(
        ops in prop::collection::vec((0u8..3, 0u32..u32::MAX), 1..12),
        key_seed in 0u64..1_000_000,
    ) {
        let mut net = grown(16, 7);
        for (op, val) in ops {
            match op {
                0 => {
                    let id = Id(val);
                    if !net.node_ids().contains(&id) {
                        let via = net.node_ids()[0];
                        net.join(id, via).expect("join into live ring");
                    }
                }
                _ => {
                    // Keep enough nodes alive that the 8-deep successor
                    // lists always span the damage.
                    if net.len() > 6 {
                        let ids = net.node_ids();
                        let victim = ids[val as usize % ids.len()];
                        if op == 1 {
                            net.leave(victim).expect("graceful leave");
                        } else {
                            net.fail(victim).expect("abrupt fail");
                        }
                    }
                }
            }
        }
        prop_assert!(
            net.stabilize_until_consistent(512).is_some(),
            "ring failed to re-converge after churn interleaving"
        );
        let mut rng = DetRng::new(key_seed);
        let ids = net.node_ids();
        for _ in 0..10 {
            let key = Id(rng.next_u32());
            let owner = net.true_owner(key);
            for &from in &ids {
                let (got, _) = net
                    .lookup(from, key)
                    .expect("lookup on converged ring succeeds");
                prop_assert_eq!(got, owner, "lookup disagreed with ground truth");
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Message accounting: sent == delivered + dropped + queued, at every
//    point in a faulted run, and the queue fully drains.
// ---------------------------------------------------------------------

#[test]
fn sim_accounting_invariant_holds_under_drops() {
    let n = 20;
    let mut sim = SimNet::new(relays(n), 5);
    sim.set_faults(
        FaultPlan::none().with_drop(0.10),
        env_seed("ARS_FAULT_SEED"),
    );
    for i in 0..n {
        sim.inject(0, i, 40);
    }
    // Mid-flight: messages are queued, and the ledger already balances.
    assert!(sim.stats().queued > 0, "injections should be in flight");
    assert!(
        sim.stats().is_conserved(),
        "conservation violated mid-flight"
    );
    // Interleave stepping with conservation checks so a transient
    // imbalance cannot hide inside a single long run.
    while sim.step() {
        assert!(
            sim.stats().is_conserved(),
            "conservation violated during run"
        );
    }
    let stats = sim.stats();
    assert_eq!(stats.queued, 0, "queue must drain");
    assert!(
        stats.dropped > 0,
        "10% drop over hundreds of sends loses some"
    );
    assert!(stats.delivered > 0, "most messages still arrive");
    assert_eq!(stats.sent, stats.delivered + stats.dropped);
}

// ---------------------------------------------------------------------
// 3. Fuzz: no query path panics under any fault plan; outcomes stay
//    well-formed however hostile the network.
// ---------------------------------------------------------------------

fn well_formed(out: &QueryOutcome, l: usize) {
    assert!(
        (0.0..=1.0).contains(&out.recall),
        "recall out of range: {}",
        out.recall
    );
    assert!(
        (0.0..=1.0).contains(&out.similarity),
        "similarity out of range: {}",
        out.similarity
    );
    assert!(out.hops.len() <= l, "more lookups than hash groups");
    assert!(
        out.identifiers.len() <= l,
        "more identifiers than hash groups"
    );
    assert!(
        out.attempts >= out.hops.len(),
        "attempts must cover every successful lookup"
    );
    if out.fell_back_to_source {
        assert!(out.best_match.is_none(), "fallback implies no cached match");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The message-protocol path under arbitrary seeded fault plans with
    /// every fault kind live at once — drops, duplication, extra delay, a
    /// crash, a pause, a partition window and a slow window — and the
    /// transport ledger `sent == delivered + dropped + partitioned +
    /// queued` balancing after every query.
    #[test]
    fn proto_query_survives_arbitrary_fault_plans(
        drop_p in 0.0f64..0.8,
        dup_p in 0.0f64..0.5,
        delay_p in 0.0f64..0.5,
        crash in 0usize..12,
        pause in 0usize..12,
        cut in 1usize..12,
        slowed in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        // Window bounds and the slow factor come from `seed`; a query
        // spans a few hundred virtual ticks, so the windows open and
        // close inside the twelve-query run.
        let (split_at, slow_at) = (seed % 2_000, seed / 7 % 2_000);
        let islands = vec![(0..cut).collect(), (cut..12).collect()];
        let plan = FaultPlan::none()
            .with_drop(drop_p)
            .with_duplicate(dup_p)
            .with_delay(delay_p, 1, 50)
            .with_crash(crash, 0)
            .with_pause(pause, 10, 500)
            .with_partition(islands, split_at, split_at + 1_000)
            .with_slow(vec![slowed], 2 + seed % 7, slow_at, slow_at + 1_500);
        let config = SystemConfig::default().with_kl(8, 2).with_seed(seed);
        // Odd seeds run layered placement: arc reads walking the ring.
        let config = placed(config, MODES[(seed % 2) as usize]);
        let mut net = ProtoNetwork::new_faulty(12, config, plan, seed);
        for q in trace(6) {
            well_formed(&net.query(&q), 2);
            prop_assert!(net.sim_stats().is_conserved(), "{:?}", net.sim_stats());
            // A repeat of the same query must also stay graceful (the
            // first attempt may or may not have cached anything).
            well_formed(&net.query(&q), 2);
            prop_assert!(net.sim_stats().is_conserved(), "{:?}", net.sim_stats());
        }
    }

    /// The churn path: abrupt failures plus per-attempt lookup loss, with
    /// no stabilization before querying. `query_resilient` is infallible
    /// and must degrade gracefully; `query_batch` on the static network
    /// stays well-formed on the same trace.
    #[test]
    fn churn_and_static_queries_stay_graceful(
        victims in 0usize..6,
        loss in 0.0f64..0.9,
        replication in 1usize..3,
        layered in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let config = SystemConfig::default()
            .with_kl(8, 2)
            .with_replication(replication)
            .with_seed(seed);
        let config = placed(config, MODES[usize::from(layered)]);
        let mut net = ChurnNetwork::new(16, config.clone())
            .expect("growth converges");
        net.fail_random(victims);
        // Deliberately no stabilization: the resilient path must cope
        // with stale fingers and dead successors on its own.
        net.set_lookup_loss(loss);
        for q in trace(8) {
            well_formed(&net.query_resilient(&q), 2);
            prop_assert_eq!(net.check_bucket_ledger(), Ok(()));
        }
        let stats = net.resilience();
        prop_assert!(stats.lookups_attempted >= stats.retries);

        let mut fixed = RangeSelectNetwork::new(16, config);
        for out in fixed.query_batch(&trace(8)) {
            well_formed(&out, 2);
        }
    }

    /// Route-cache equivalence: twin churn networks — one with the Chord
    /// route cache at an arbitrary capacity — driven through the same
    /// failures, lookup loss, and resilient query stream produce
    /// identical outcomes in every field except hop counts, which the
    /// cache may only lower. The cache is cleared on every membership and
    /// stabilization event, so no interleaving can make it serve a stale
    /// owner or change the success/retry pattern.
    #[test]
    fn route_cached_queries_equal_uncached_under_arbitrary_churn(
        victims in 0usize..5,
        loss in 0.0f64..0.7,
        capacity in 1usize..200,
        seed in 0u64..1_000_000,
    ) {
        let base = SystemConfig::default().with_kl(8, 2).with_seed(seed);
        let mut plain = ChurnNetwork::new(14, base.clone()).expect("growth converges");
        let mut cached = ChurnNetwork::new(14, base.with_route_cache(capacity))
            .expect("growth converges");
        plain.fail_random(victims);
        cached.fail_random(victims);
        plain.set_lookup_loss(loss);
        cached.set_lookup_loss(loss);
        for (i, q) in trace(8).iter().enumerate() {
            let a = plain.query_resilient(q);
            let b = cached.query_resilient(q);
            prop_assert_eq!(&a.best_match, &b.best_match, "match diverged on query {}", i);
            prop_assert_eq!(&a.identifiers, &b.identifiers, "identifiers diverged on query {}", i);
            prop_assert_eq!(a.stored, b.stored, "stored diverged on query {}", i);
            prop_assert_eq!(a.exact, b.exact, "exact diverged on query {}", i);
            prop_assert_eq!(a.attempts, b.attempts, "attempts diverged on query {}", i);
            prop_assert_eq!(
                a.fell_back_to_source, b.fell_back_to_source,
                "fallback diverged on query {}", i
            );
            prop_assert_eq!(a.hops.len(), b.hops.len(), "lookup count diverged on query {}", i);
            for (ah, bh) in a.hops.iter().zip(&b.hops) {
                prop_assert!(bh <= ah, "cache increased hops on query {}", i);
            }
        }
        prop_assert_eq!(plain.total_partitions(), cached.total_partitions());
        let stats = cached.route_cache_stats();
        prop_assert!(stats.hits + stats.misses > 0, "cache was never consulted");
    }
}

// ---------------------------------------------------------------------
// 4. Acceptance: with r = 2, recall under 10% abrupt failures stays
//    within 5% of the no-churn baseline; with r = 1 buckets are lost.
// ---------------------------------------------------------------------

/// What [`recall_under_failures`] measured.
struct FailureRun {
    /// Mean recall of the warm trace before the failures.
    baseline: f64,
    /// Mean recall after 10 % of the peers crashed and the ring recovered.
    faulted: f64,
    /// Stored copies before and after the crashes.
    copies: (usize, usize),
    /// Overlay messages of the two measured passes (lookup hops and walk
    /// steps; warm-up excluded).
    messages: u64,
}

/// Warm a replicated network, measure baseline recall, crash 10% of the
/// peers, stabilize, and measure again, with the bucket ledger checked
/// after every step.
fn recall_under_failures(
    mode: PlacementMode,
    l: usize,
    replication: usize,
    seed: u64,
) -> FailureRun {
    const N_PEERS: usize = 40;
    let queries = trace(60);
    // At l = 1 each partition lives at exactly one identifier — with
    // r = 1 a crashed owner loses the bucket, with r = 2 the successor
    // replica keeps it findable. The paper's l = 5 default would mask the
    // contrast behind its five natural copies.
    let config = SystemConfig::default()
        .with_kl(16, l)
        .with_matching(MatchMeasure::Containment)
        .with_replication(replication)
        .with_seed(0xACCE55 ^ seed);
    let mut net = ChurnNetwork::new(N_PEERS, placed(config, mode)).expect("growth converges");
    for q in &queries {
        net.query_resilient(q);
    }
    net.check_bucket_ledger().expect("after warm-up");
    let tel = ars::telemetry::Telemetry::recording();
    net.set_telemetry(tel.clone());
    let mean_recall = |net: &mut ChurnNetwork| {
        let sum: f64 = queries.iter().map(|q| net.query_resilient(q).recall).sum();
        net.check_bucket_ledger().expect("after a measured pass");
        sum / queries.len() as f64
    };
    let baseline = mean_recall(&mut net);
    let before = net.total_partitions();
    net.fail_random(N_PEERS / 10);
    net.check_bucket_ledger().expect("after the failures");
    net.stabilize(256).expect("ring recovers");
    // Count survivors before re-querying: the measurement pass itself
    // re-caches lost partitions on miss (soft-state healing).
    let after = net.total_partitions();
    let faulted = mean_recall(&mut net);
    FailureRun {
        baseline,
        faulted,
        copies: (before, after),
        messages: tel.snapshot().total_messages(),
    }
}

#[test]
fn replicated_recall_survives_ten_percent_failures() {
    let seed = env_seed("ARS_FAULT_SEED");
    for mode in MODES {
        let FailureRun {
            baseline, faulted, ..
        } = recall_under_failures(mode, 1, 2, seed);
        assert!(
            baseline > 0.95,
            "warm replicated cache should answer its own trace (got {baseline:.3}, {mode:?})"
        );
        assert!(
            faulted >= baseline - 0.05,
            "r=2 recall {faulted:.3} fell more than 5% below baseline {baseline:.3} \
             (seed {seed}, {mode:?})"
        );
    }
    // At the paper's l = 5 the arc read replaces five lookups: the same
    // recall for at most half the messages.
    let independent = recall_under_failures(PlacementMode::Independent, 5, 2, seed);
    let layered = recall_under_failures(PlacementMode::Layered, 5, 2, seed);
    assert!(
        layered.faulted >= independent.faulted - 0.01
            && layered.baseline >= independent.baseline - 0.01,
        "layered recall {:.3} / {:.3} trails independent {:.3} / {:.3} (seed {seed})",
        layered.baseline,
        layered.faulted,
        independent.baseline,
        independent.faulted
    );
    assert!(
        layered.messages * 2 <= independent.messages,
        "layered spent {} messages, independent {} (seed {seed})",
        layered.messages,
        independent.messages
    );
}

// ---------------------------------------------------------------------
// 5. Trace artifact: a faulted run under a recording sink exports a
//    well-formed JSON trace; when `ARS_TRACE_OUT` is set (CI does this)
//    the trace is also written there for artifact upload.
// ---------------------------------------------------------------------

#[test]
fn faulted_run_exports_json_trace_artifact() {
    let seed = env_seed("ARS_FAULT_SEED");
    let config = SystemConfig::default()
        .with_kl(8, 2)
        .with_replication(2)
        .with_seed(seed);
    let mut net = ChurnNetwork::new(16, config).expect("growth converges");
    let tel = ars::telemetry::Telemetry::recording();
    net.set_telemetry(tel.clone());
    net.fail_random(3);
    net.set_lookup_loss(0.25);
    for q in trace(10) {
        net.query_resilient(&q);
    }
    let json = tel.to_json();
    // Spot-check the trace is substantive, not an empty shell: the
    // metric vocabulary is present and the ledger made it out intact.
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"resilient.queries\":10"));
    assert!(json.contains("\"resilient.attempts\""));
    assert!(json.contains("\"core.query\""));
    assert!(json.contains("\"events\":["));
    let stats = net.resilience();
    assert!(json.contains(&format!("\"resilient.retries\":{}", stats.retries)));
    if let Ok(path) = std::env::var("ARS_TRACE_OUT") {
        std::fs::write(&path, &json)
            .unwrap_or_else(|e| panic!("writing trace artifact to {path}: {e}"));
    }
}

#[test]
fn unreplicated_failures_demonstrably_lose_buckets() {
    let seed = env_seed("ARS_FAULT_SEED");
    for mode in MODES {
        let FailureRun {
            baseline,
            faulted,
            copies: (before, after),
            ..
        } = recall_under_failures(mode, 1, 1, seed);
        assert!(
            after < before,
            "crashing 10% of peers must lose r=1 partitions \
             ({before} -> {after}, seed {seed}, {mode:?})"
        );
        assert!(
            faulted < baseline,
            "r=1 recall should drop below the {baseline:.3} baseline \
             (got {faulted:.3}, seed {seed}, {mode:?})"
        );
        let replicated = recall_under_failures(mode, 1, 2, seed).faulted;
        assert!(
            faulted < replicated,
            "r=1 recall {faulted:.3} should trail r=2's {replicated:.3} (seed {seed}, {mode:?})"
        );
    }
}

// ---------------------------------------------------------------------
// 6. Repair proportional to the change: a membership event re-replicates
//    only the changed peer's arc. Against the global pass as oracle it
//    must leave nothing to restore, and it must read a small share of
//    what is stored.
// ---------------------------------------------------------------------

#[test]
fn arc_repair_leaves_the_global_pass_nothing_to_restore() {
    let seed = env_seed("ARS_FAULT_SEED");
    // Under layered placement a copy's position hangs off its range's
    // anchor: the arc pass must place by (identifier, range) too.
    for (replication, mode) in [2usize, 3].into_iter().flat_map(|r| MODES.map(|m| (r, m))) {
        let config = SystemConfig::default()
            .with_replication(replication)
            .with_seed(0xA4C ^ seed);
        let config = placed(config, mode);
        // `net` only ever repairs arcs; `twin` lives the same life and
        // additionally runs the global pass after every event.
        let mut net = ChurnNetwork::new(28, config.clone()).expect("growth converges");
        let mut twin = ChurnNetwork::new(28, config).expect("growth converges");
        let mut rng = DetRng::new(seed ^ 0x5EED ^ replication as u64);
        let mut events = 0;
        for step in 0..160 {
            let at = format!("at step {step}, r = {replication}, {mode:?}, ARS_FAULT_SEED={seed}");
            let op = rng.gen_index(10);
            if op < 6 {
                let lo = rng.gen_index(3_000) as u32;
                let q = RangeSet::interval(lo, lo + 40 + rng.gen_index(4) as u32 * 20);
                assert_eq!(
                    net.query_resilient(&q),
                    twin.query_resilient(&q),
                    "twins diverged {at}"
                );
                continue;
            }
            // Keep the ring large enough that the arc form, not its
            // small-network fallback, is what runs.
            let shrink = net.len() > 2 * replication + 8;
            let pick = rng.gen_index(net.len());
            for side in [&mut net, &mut twin] {
                match op {
                    6 if shrink => side.fail_random(1),
                    7 if shrink => {
                        let leaver = side.chord().node_ids()[pick];
                        side.leave(leaver).expect("an alive peer can leave");
                    }
                    _ => drop(side.join_random()),
                }
                // Every other event meets the next one unstabilized.
                if step % 2 == 0 {
                    side.stabilize(64);
                }
            }
            events += 1;
            assert_eq!(twin.re_replicate(), 0, "arc repair missed copies {at}");
            assert_eq!(net.inventory(), twin.inventory(), "inventories differ {at}");
            for side in [&net, &twin] {
                side.check_bucket_ledger()
                    .unwrap_or_else(|e| panic!("{e} {at}"));
            }
        }
        assert!(
            events >= 30,
            "schedule held only {events} membership events"
        );
        assert!(net.total_partitions() > 0);
    }
}

#[test]
fn arc_repair_reads_a_small_share_of_what_is_stored() {
    let config = SystemConfig::default().with_replication(2).with_seed(2003);
    let mut net = ChurnNetwork::new(200, config).expect("growth converges");
    let mut first = None;
    for q in trace(1_100) {
        let out = net.query_resilient(&q);
        first.get_or_insert((out.identifiers[0], q.clone()));
    }
    let total = net.total_partitions() as u64;
    assert!(total >= 10_000, "only {total} partitions stored");
    let tel = ars::telemetry::Telemetry::recording();
    net.set_telemetry(tel.clone());

    let before = net.resilience().clone();
    let (ident, range) = first.expect("queries ran");
    let victim = net.replica_owners(ident, &range)[0];
    net.fail(victim).expect("victim is alive");
    net.join_random().expect("join routes on a healthy ring");
    let after = net.resilience().clone();
    let scanned = after.repair_scanned - before.repair_scanned;
    assert_eq!(after.re_replications - before.re_replications, 2);
    assert!(
        after.replicas_restored > before.replicas_restored,
        "losing a primary must restore copies"
    );
    assert!(
        scanned * 20 < total,
        "one fail + one join read {scanned} of {total} stored copies"
    );
    assert_eq!(tel.snapshot().counter("replica.scanned"), scanned);

    // The oracle reads everything and finds nothing the arcs left undone.
    let live = net.total_partitions() as u64;
    assert_eq!(net.re_replicate(), 0, "arc repair missed copies");
    assert_eq!(net.resilience().repair_scanned - after.repair_scanned, live);
}
