//! Trace-based testing through the telemetry layer: assertions on what
//! the system *did* (hop-by-hop events, metric ledgers) rather than only
//! on what it returned.
//!
//! * hop-bound: on a healthy converged ring, every `lookup_resilient`
//!   trace event stays within ⌈log₂N⌉ + successor-list budget hops;
//! * ledger conservation (property tests): `core.queries ==
//!   cache_hits + cache_misses`, `resilient.attempts == successes +
//!   failures + retries`, and the `simnet.*` gauges reproduce
//!   `SimStats::is_conserved`;
//! * non-perturbation: attaching a recording sink changes no outcome;
//! * determinism: two identical seeded runs export byte-identical JSON.
//!
//! The seed honors `ARS_FAULT_SEED` (default 0), same as the
//! fault-injection suite, so CI sweeps the matrix over these assertions.

mod common;

use ars::common::env_seed;
use ars::prelude::*;
use ars::telemetry::EventKind;
use common::relays;
use proptest::prelude::*;

/// Grow a converged dynamic ring of `n` nodes (same idiom as the
/// fault-injection suite).
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

fn trace_ranges(n: usize) -> Vec<RangeSet> {
    (0..n as u32)
        .map(|i| {
            let lo = i * 523 % 40_000;
            RangeSet::interval(lo, lo + 60 + (i % 5) * 25)
        })
        .collect()
}

// ---------------------------------------------------------------------
// 1. Hop bound, asserted on the trace: every resilient lookup on a
//    healthy converged ring completes within ⌈log₂N⌉ + the successor-
//    list budget, without a single backtrack.
// ---------------------------------------------------------------------

#[test]
fn resilient_lookup_trace_respects_hop_bound_on_healthy_ring() {
    const N: usize = 32;
    const SUCC_LIST_BUDGET: usize = 8; // each node keeps eight successors
    let mut net = grown(N, 11 + env_seed("ARS_FAULT_SEED"));
    let tel = Telemetry::recording();
    net.set_telemetry(tel.clone());

    let ids = net.node_ids();
    let mut rng = DetRng::new(env_seed("ARS_FAULT_SEED") ^ 0x7e1e);
    for _ in 0..100 {
        let from = ids[rng.gen_index(ids.len())];
        let key = Id(rng.next_u32());
        let (owner, _) = net
            .lookup_resilient(from, key, 4 * N)
            .expect("healthy ring resolves everything");
        assert_eq!(owner, net.true_owner(key));
    }

    let bound = ((N as f64).log2().ceil() as u64) + SUCC_LIST_BUDGET as u64;
    let events = tel.events_named("chord.lookup_resilient");
    assert_eq!(events.len(), 100, "one trace event per lookup");
    for e in &events {
        assert_eq!(e.field_bool("ok"), Some(true));
        assert_eq!(
            e.field_u64("backtracks"),
            Some(0),
            "no detours when healthy"
        );
        let hops = e.field_u64("hops").expect("hops field");
        assert!(
            hops <= bound,
            "lookup took {hops} hops, over the ⌈log₂{N}⌉+{SUCC_LIST_BUDGET} = {bound} bound"
        );
    }
    // The histogram agrees with the per-event stream.
    let snap = tel.snapshot();
    let hist = snap.hist("chord.resilient.lookup.hops").expect("hist");
    assert_eq!(hist.count, 100);
    assert!(hist.max <= bound);
}

// ---------------------------------------------------------------------
// 2. Ledger conservation properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Static network: every query does exactly one identifier-cache
    /// lookup, so `core.queries == hits + misses` for any trace shape,
    /// sequential or batched.
    #[test]
    fn cache_ledger_balances(
        n_queries in 1usize..30,
        repeat_every in 1usize..6,
        batched in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let config = SystemConfig::default().with_kl(8, 2).with_seed(seed);
        let mut net = RangeSelectNetwork::new(16, config);
        let tel = Telemetry::recording();
        net.set_telemetry(tel.clone());
        let queries: Vec<RangeSet> = (0..n_queries as u32)
            .map(|i| {
                let j = i / repeat_every as u32 * repeat_every as u32;
                RangeSet::interval(j * 100, j * 100 + 50)
            })
            .collect();
        if batched {
            net.query_batch(&queries);
        } else {
            for q in &queries {
                net.query(q);
            }
        }
        let snap = tel.snapshot();
        let hits = snap.counter("core.ident_cache.hits");
        let misses = snap.counter("core.ident_cache.misses");
        prop_assert_eq!(snap.counter("core.queries"), n_queries as u64);
        prop_assert_eq!(hits + misses, n_queries as u64);
        // And the registry mirrors the cache's own view exactly.
        prop_assert_eq!(hits, net.identifier_cache().hits());
        prop_assert_eq!(misses, net.identifier_cache().misses());
    }

    /// Churn network: each lookup spends 1 first try plus its retries and
    /// ends in exactly one of success/failure, so for any fault plan
    /// `attempts == successes + failures + retries`.
    #[test]
    fn attempt_ledger_balances_under_arbitrary_faults(
        victims in 0usize..6,
        loss in 0.0f64..0.9,
        replication in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let config = SystemConfig::default()
            .with_kl(8, 2)
            .with_replication(replication)
            .with_seed(seed);
        let mut net = ChurnNetwork::new(16, config).expect("growth converges");
        let tel = Telemetry::recording();
        net.set_telemetry(tel.clone());
        net.fail_random(victims);
        net.set_lookup_loss(loss);
        for q in trace_ranges(8) {
            net.query_resilient(&q);
        }
        let snap = tel.snapshot();
        prop_assert_eq!(
            snap.counter("resilient.attempts"),
            snap.counter("resilient.successes")
                + snap.counter("resilient.failures")
                + snap.counter("resilient.retries")
        );
        prop_assert_eq!(snap.counter("resilient.queries"), 8);
        // Cross-check against the ResilienceStats ledger.
        prop_assert_eq!(
            snap.counter("resilient.attempts"),
            net.resilience().lookups_attempted
        );
        prop_assert_eq!(
            snap.counter("resilient.source_fallbacks"),
            net.resilience().source_fallbacks
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bucket ledger: every partition copy is placed once, lost at
    /// most once, and recovered at most once, so at any quiet point
    /// `placed == live + lost − recovered` — under any interleaving of
    /// queries, fails, leaves, joins, crashes, and restarts, without
    /// durable stores, with them on a perfect disk and with them on a disk
    /// that flips bits. Checked both
    /// against the telemetry counters and the published `buckets.live`
    /// gauge. On the perfect disk every alive peer's log also recovers to
    /// exactly the copies the peer holds.
    #[test]
    fn bucket_ledger_balances_under_churn_crash_restart(
        ops in prop::collection::vec((0u8..7, any::<u16>()), 1..25),
        disk in 0u8..3,
        replication in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut config = SystemConfig::default()
            .with_kl(8, 2)
            .with_replication(replication)
            .with_seed(seed ^ (env_seed("ARS_FAULT_SEED") << 48));
        if disk > 0 {
            let flip = if disk == 1 { 0.0 } else { 0.1 };
            config = config.with_durability(
                DurabilityConfig::default().with_faults(StorageFaults::none().with_bit_flip(flip)),
            );
        }
        let mut net = ChurnNetwork::new(14, config).expect("growth converges");
        let tel = Telemetry::recording();
        net.set_telemetry(tel.clone());
        let mut downed: Vec<Id> = Vec::new();
        for (op, arg) in ops {
            match op {
                0 | 1 => {
                    let lo = (arg as u32) * 7 % 40_000;
                    net.query_resilient(&RangeSet::interval(lo, lo + 80));
                }
                2 => {
                    if net.len() > 8 {
                        net.fail_random(1);
                    }
                }
                3 => {
                    if net.len() > 8 {
                        let ids = net.chord().node_ids();
                        let _ = net.leave(ids[arg as usize % ids.len()]);
                    }
                }
                4 => {
                    if net.len() > 8 {
                        downed.extend(net.crash_random(1));
                    }
                }
                5 => {
                    if let Some(id) = downed.pop() {
                        net.restart(id).expect("restart rejoins");
                    } else {
                        let _ = net.join_random();
                    }
                }
                _ => {
                    let _ = net.join_random();
                }
            }
        }
        net.stabilize(256).expect("recovers");
        if disk == 1 {
            common::assert_logs_match_peers(&net);
        }
        net.publish_ledger();
        let snap = tel.snapshot();
        let live = snap.gauge("buckets.live").unwrap_or(0);
        prop_assert_eq!(live, net.total_partitions() as u64);
        prop_assert_eq!(
            snap.counter("buckets.placed") + snap.counter("buckets.recovered"),
            live + snap.counter("buckets.lost"),
            "placed == live + lost − recovered must hold"
        );
        // The telemetry counters mirror ResilienceStats exactly.
        let s = net.resilience();
        prop_assert_eq!(snap.counter("buckets.placed"), s.buckets_placed);
        prop_assert_eq!(snap.counter("buckets.lost"), s.buckets_lost);
        prop_assert_eq!(snap.counter("buckets.recovered"), s.buckets_recovered);
        prop_assert_eq!(snap.counter("store.recovered"), s.buckets_recovered);
        if disk == 0 {
            prop_assert_eq!(snap.counter("store.appended"), 0);
            prop_assert_eq!(snap.counter("buckets.recovered"), 0);
        }
    }
}

// ---------------------------------------------------------------------
// 3. SimNet's message ledger, re-exported as gauges, reproduces the
//    conservation invariant from the snapshot alone.
// ---------------------------------------------------------------------

#[test]
fn simnet_gauges_reproduce_conservation_invariant() {
    let n = 16;
    let mut sim = SimNet::new(relays(n), 3);
    sim.set_faults(
        FaultPlan::none().with_drop(0.15),
        env_seed("ARS_FAULT_SEED"),
    );
    for i in 0..n {
        sim.inject(0, i, 30);
    }
    let tel = Telemetry::recording();
    // Mid-flight export: the gauges must balance even with messages
    // still queued.
    sim.stats().export_telemetry(&tel);
    let snap = tel.snapshot();
    assert_eq!(
        snap.gauge("simnet.sent").unwrap(),
        snap.gauge("simnet.delivered").unwrap()
            + snap.gauge("simnet.dropped").unwrap()
            + snap.gauge("simnet.queued").unwrap(),
        "gauge ledger must balance mid-flight"
    );
    sim.run(u64::MAX);
    sim.stats().export_telemetry(&tel); // gauges are last-write-wins
    let snap = tel.snapshot();
    assert!(sim.stats().is_conserved());
    assert_eq!(snap.gauge("simnet.queued"), Some(0));
    assert_eq!(
        snap.gauge("simnet.sent").unwrap(),
        snap.gauge("simnet.delivered").unwrap() + snap.gauge("simnet.dropped").unwrap()
    );
    assert_eq!(snap.gauge("simnet.sent"), Some(sim.stats().sent));
    assert!(snap.gauge("simnet.dropped").unwrap() > 0, "15% drop bites");
}

// ---------------------------------------------------------------------
// 4. Observing must not perturb: a recording sink leaves every outcome
//    bit-identical to the no-op run.
// ---------------------------------------------------------------------

#[test]
fn recording_sink_does_not_perturb_outcomes() {
    let config = SystemConfig::default().with_seed(env_seed("ARS_FAULT_SEED") ^ 0xCAFE);
    let queries = trace_ranges(12);

    let mut plain = RangeSelectNetwork::new(24, config.clone());
    let mut observed = RangeSelectNetwork::new(24, config);
    observed.set_telemetry(Telemetry::recording());

    let out_plain: Vec<QueryOutcome> = queries.iter().map(|q| plain.query(q)).collect();
    let out_observed: Vec<QueryOutcome> = queries.iter().map(|q| observed.query(q)).collect();
    assert_eq!(out_plain, out_observed, "telemetry must be a pure observer");
    assert_eq!(plain.stats(), observed.stats());
}

// ---------------------------------------------------------------------
// 5. Determinism: identical seeded runs export byte-identical JSON, and
//    chord events nest under the query span that caused them.
// ---------------------------------------------------------------------

fn churn_run_json(seed: u64) -> String {
    let config = SystemConfig::default().with_kl(8, 2).with_seed(seed);
    let mut net = ChurnNetwork::new(12, config).expect("growth converges");
    let tel = Telemetry::recording();
    net.set_telemetry(tel.clone());
    net.fail_random(2);
    net.set_lookup_loss(0.2);
    for q in trace_ranges(5) {
        net.query_resilient(&q);
    }
    tel.to_json()
}

#[test]
fn identical_seeded_runs_export_identical_json() {
    let seed = env_seed("ARS_FAULT_SEED").wrapping_add(3);
    let a = churn_run_json(seed);
    let b = churn_run_json(seed);
    assert_eq!(a, b, "same seed must produce the same trace bytes");
    assert!(a.contains("\"resilient.queries\":5"));
    assert!(a.contains("\"events\":["));
}

#[test]
fn chord_events_nest_under_their_query_span() {
    let config = SystemConfig::default()
        .with_kl(8, 2)
        .with_seed(env_seed("ARS_FAULT_SEED"));
    let mut net = ChurnNetwork::new(12, config).expect("growth converges");
    let tel = Telemetry::recording();
    net.set_telemetry(tel.clone());
    net.fail_random(3); // force the resilient path (and its events)
    for q in trace_ranges(4) {
        net.query_resilient(&q);
    }
    let events = tel.events();
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanStart && e.name == "core.query")
        .collect();
    assert_eq!(spans.len(), 4, "one span per resilient query");
    let span_ids: Vec<u64> = spans.iter().map(|e| e.seq).collect();
    // Every chord-level event recorded during a query points back at an
    // open core.query span.
    let chord_events: Vec<_> = events
        .iter()
        .filter(|e| e.name == "chord.lookup_resilient" || e.name == "resilient.retry")
        .collect();
    for e in &chord_events {
        assert!(
            span_ids.contains(&e.span.0),
            "{} event at seq {} is not nested in a query span",
            e.name,
            e.seq
        );
    }
}

// ---------------------------------------------------------------------
// 6. The no-op sink is truly silent.
// ---------------------------------------------------------------------

#[test]
fn noop_sink_records_nothing_across_the_stack() {
    let mut net = ChurnNetwork::new(
        12,
        SystemConfig::default()
            .with_kl(8, 2)
            .with_seed(env_seed("ARS_FAULT_SEED")),
    )
    .expect("growth converges");
    // Default telemetry is the no-op sink; run a workload and confirm
    // nothing is observable.
    for q in trace_ranges(4) {
        net.query_resilient(&q);
    }
    assert!(!net.telemetry().is_recording());
    assert!(net.telemetry().snapshot().is_empty());
    assert_eq!(net.telemetry().event_count(), 0);
}
