//! Partition-tolerance integration suite: the network splits into
//! islands, each side keeps answering queries in degraded mode, and after
//! the heal the replica sets reconcile back to the ground-truth oracle.
//!
//! Four angles, mirroring the fault-injection suite's structure:
//!
//! 1. message accounting — a `PartitionWindow` severs cross-island sends
//!    into the `partitioned` ledger column and the conservation identity
//!    `sent == delivered + dropped + partitioned + queued` holds at every
//!    step of the discrete-event run;
//! 2. ring health — split-brain is visible through [`ars::chord`]'s ring
//!    probe exactly while a partition is in force, lookups stay
//!    island-local during the window, and healing restores global
//!    correctness (proptest over minority sizes and churn during the
//!    window);
//! 3. protocol — arbitrary partition/heal/churn/query interleavings keep
//!    `query_resilient` infallible and well-formed, keep the bucket
//!    ledger balanced, and always reconcile: once budgeted anti-entropy
//!    is quiescent the oracle `re_replicate` sweep finds nothing left to
//!    restore (the two repair paths share one fixed point);
//! 4. degraded mode — queries during the window are flagged
//!    `partition_degraded` (never after the heal), island-local cache
//!    writes are counted, and post-heal repair makes every in-window
//!    write globally findable again.
//!
//! The fixed seed honors `ARS_FAULT_SEED` (default 0) so CI can sweep a
//! small matrix of seeds over the same assertions.

mod common;

use ars::common::env_seed;
use ars::prelude::*;
use common::{placed, relays, MODES};
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

/// Distinct well-spread query ranges for cache warm/measure phases.
fn trace(n: usize) -> Vec<RangeSet> {
    (0..n as u32)
        .map(|i| {
            let lo = i * 523 % 40_000;
            RangeSet::interval(lo, lo + 60 + (i % 5) * 25)
        })
        .collect()
}

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

// ---------------------------------------------------------------------
// 1. Message accounting: a partition window moves cross-island sends
//    into the `partitioned` column without breaking conservation.
// ---------------------------------------------------------------------

// `relays` forward a decrementing counter around the ring: each lap
// crosses the island boundary twice, so an open window must sever some
// sends.

#[test]
fn sim_ledger_conserved_through_partition_window() {
    let n = 12;
    let mut sim = SimNet::new(relays(n), 5);
    // Islands {0,1,2} vs the rest over [20, 400); a light drop rate on
    // top so the partitioned column must stay distinct from `dropped`.
    sim.set_faults(
        FaultPlan::none().with_drop(0.05).with_partition(
            vec![vec![0, 1, 2], (3..n).collect()],
            20,
            400,
        ),
        env_seed("ARS_FAULT_SEED"),
    );
    for i in 0..n {
        sim.inject(0, i, 60);
    }
    assert!(sim.stats().is_conserved(), "conservation violated at start");
    while sim.step() {
        assert!(
            sim.stats().is_conserved(),
            "conservation violated during run"
        );
    }
    let s = sim.stats();
    assert_eq!(s.queued, 0, "queue must drain once the window closes");
    assert!(
        s.partitioned > 0,
        "ring relays cross the cut while the window is open"
    );
    assert!(s.delivered > 0, "same-island relaying continues throughout");
    assert_eq!(s.sent, s.delivered + s.dropped + s.partitioned);
}

// ---------------------------------------------------------------------
// 2. Ring health: split-brain is observable exactly while the partition
//    is in force, and healing restores ground-truth lookups — under
//    arbitrary minority sizes and churn during the window.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn split_brain_visible_iff_partitioned_and_heal_restores_truth(
        minority in 3usize..7,
        churn in 0u8..4,
        churn_val in 0u32..u32::MAX,
        key_seed in 0u64..1_000_000,
        cache in 1usize..64,
    ) {
        let mut net = grown(16, 7 ^ env_seed("ARS_FAULT_SEED"));
        // Route memoization on: repeated lookups below take the cached
        // path, so a stale island route surviving the heal would be
        // caught against the oracles.
        net.set_route_cache_capacity(cache);
        prop_assert!(
            !net.ring_view().is_split_brain(),
            "healthy converged ring misreported as split"
        );
        let ids = net.node_ids();
        let min: Vec<Id> = ids[..minority].to_vec();
        let maj: Vec<Id> = ids[minority..].to_vec();
        net.partition(&[maj.clone(), min.clone()]);
        net.stabilize_until_consistent(128)
            .expect("each island converges onto its own ring");
        // Unconditional extra rounds: successor lists can satisfy the
        // island ground truth with zero rounds (the next island member
        // was already in the 8-deep list), but the split-brain probe
        // reads *predecessor* beliefs, which only island-local
        // stabilize/notify rounds collapse.
        for _ in 0..4 {
            net.stabilize_all(32);
        }
        prop_assert!(net.is_partitioned());
        prop_assert!(
            net.ring_view().is_split_brain(),
            "a stabilized partition must be visible to the ring probe"
        );

        // During the window lookups never leave the observer's island and
        // agree with the island-restricted ownership oracle.
        let mut rng = DetRng::new(key_seed);
        for _ in 0..8 {
            let key = Id(rng.next_u32());
            for &from in &[min[0], maj[0]] {
                // Twice per key: the second resolution is a cache hit and
                // must return the same island-restricted owner.
                for _ in 0..2 {
                    let (owner, _) = net.lookup(from, key).expect("island-local lookup");
                    prop_assert_eq!(owner, net.island_owner(from, key));
                    prop_assert!(net.reachable(from, owner), "lookup left the island");
                }
            }
        }

        // Churn during the window (all against majority members so both
        // islands stay populated), then heal and re-merge.
        match churn {
            0 => {}
            1 => {
                let id = Id(churn_val);
                if !net.node_ids().contains(&id) {
                    net.join(id, maj[0]).expect("join via majority contact");
                }
            }
            2 => net.leave(maj[1]).expect("graceful leave during window"),
            _ => net.fail(maj[2]).expect("abrupt failure during window"),
        }
        net.stabilize_all(32);
        net.heal();
        prop_assert!(!net.is_partitioned());
        net.stabilize_until_consistent(256).expect("healed ring re-merges");
        // A few extra rounds to settle predecessors after the merge.
        net.stabilize_all(32);
        net.stabilize_all(32);
        prop_assert!(
            !net.ring_view().is_split_brain(),
            "healed ring still contested"
        );
        let ids = net.node_ids();
        for _ in 0..8 {
            let key = Id(rng.next_u32());
            let from = ids[rng.gen_index(ids.len())];
            // Twice per key with no stabilization in between: the second
            // resolution is served from the post-heal cache and must still
            // be the *global* owner — no island route outlives the heal.
            for _ in 0..2 {
                let (owner, _) = net.lookup(from, key).expect("post-heal lookup");
                prop_assert_eq!(owner, net.true_owner(key), "post-heal lookup disagreed with ground truth");
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. Protocol: arbitrary partition/heal/churn/query interleavings stay
//    graceful, keep the bucket ledger balanced, and reconcile to the
//    oracle fixed point after the final heal.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn partition_interleavings_reconcile_to_oracle_fixed_point(
        ops in prop::collection::vec((0u8..4, 0u32..u32::MAX), 1..10),
        replication in 2usize..4,
        layered in any::<bool>(),
        seed in 0u64..100_000,
    ) {
        let config = SystemConfig::default()
            .with_kl(8, 2)
            .with_replication(replication)
            .with_seed(seed ^ (env_seed("ARS_FAULT_SEED") << 32));
        let config = placed(config, MODES[usize::from(layered)]);
        let mut net = ChurnNetwork::new(14, config).expect("growth converges");
        for q in trace(6) {
            well_formed(&net.query_resilient(&q), 2);
        }
        net.check_bucket_ledger().unwrap();
        let queries = trace(18);
        for (op, val) in ops {
            match op {
                0 => {
                    let out = net.query_resilient(&queries[val as usize % queries.len()]);
                    well_formed(&out, 2);
                    if out.partition_degraded {
                        prop_assert!(
                            net.is_partitioned(),
                            "degradation flagged on a connected network"
                        );
                    }
                }
                1 => {
                    // Abrupt failure mid-window or mid-health; keep the
                    // ring deep enough for the successor lists.
                    if net.len() > 9 {
                        let ids = net.chord().node_ids();
                        net.fail(ids[val as usize % ids.len()]).expect("fail");
                    }
                }
                2 => {
                    if !net.is_partitioned() {
                        let ids = net.chord().node_ids();
                        let k = 3.min(ids.len() / 3);
                        let min: Vec<Id> = ids[..k].to_vec();
                        let maj: Vec<Id> = ids[k..].to_vec();
                        net.partition(&[maj, min]);
                        // Let the islands collapse (may not fully converge
                        // before the next op — queries must cope anyway).
                        net.stabilize(64);
                    }
                }
                _ => {
                    if net.is_partitioned() {
                        net.heal();
                        net.stabilize(256).expect("healed ring re-merges");
                    }
                }
            }
            net.check_bucket_ledger().unwrap();
        }
        if net.is_partitioned() {
            net.heal();
        }
        prop_assert!(net.stabilize(512).is_some(), "final ring re-converges");
        net.settle(2); // settle predecessors so the ring probe clears
        prop_assert!(!net.chord().ring_view().is_split_brain());

        // Reconciliation: budgeted anti-entropy runs to quiescence, after
        // which the oracle re-replication sweep must find *nothing* left
        // to restore — the two repair paths share one fixed point.
        prop_assert!(
            net.repair_until_quiescent(64, 10_000).is_some(),
            "anti-entropy must quiesce on a healed ring"
        );
        let inventory = net.inventory();
        let restored = net.re_replicate();
        prop_assert_eq!(
            restored, 0,
            "anti-entropy quiescence must equal the re_replicate fixed point"
        );
        prop_assert_eq!(net.inventory(), inventory);
        net.check_bucket_ledger().unwrap();
    }
}

// ---------------------------------------------------------------------
// 4. Degraded mode: in-window queries are flagged, island-local writes
//    are counted, and after heal + repair everything written during the
//    window is globally findable — with no lingering degradation flags.
// ---------------------------------------------------------------------

/// The degraded-mode scenario under one placement mode. Returns the
/// overlay messages the whole run spent (lookup hops and walk steps); every
/// recall it measures is asserted to be 1.0.
fn degraded_run(mode: PlacementMode, seed: u64) -> u64 {
    let config = SystemConfig::default()
        .with_replication(2)
        .with_seed(0xDE6_0000 ^ seed);
    let mut net = ChurnNetwork::new(16, placed(config, mode)).expect("growth converges");
    let tel = Telemetry::recording();
    net.set_telemetry(tel.clone());
    for q in trace(10) {
        net.query_resilient(&q); // warm the cache pre-partition
    }
    net.check_bucket_ledger().unwrap();
    let ids = net.chord().node_ids();
    let min: Vec<Id> = ids[..4].to_vec();
    let maj: Vec<Id> = ids[4..].to_vec();
    net.partition(&[maj, min]);
    net.stabilize(128);

    let writes_before = net.resilience().partition_writes;
    let mut degraded = 0u64;
    for q in trace(30) {
        // 10 warm repeats + 20 fresh misses cached island-locally.
        let out = net.query_resilient(&q);
        well_formed(&out, 5);
        if out.partition_degraded {
            degraded += 1;
        }
        net.check_bucket_ledger().unwrap();
    }
    assert!(
        degraded > 0,
        "a quarter of the ring is unreachable; some query must degrade ({mode:?})"
    );
    assert_eq!(
        net.resilience().partition_degraded_queries,
        degraded,
        "stats must mirror the per-outcome flags"
    );
    assert!(
        net.resilience().partition_writes > writes_before,
        "fresh misses during the window must be cached island-locally"
    );

    net.heal();
    net.stabilize(256).expect("healed ring re-merges");
    net.repair_until_quiescent(64, 10_000)
        .expect("post-heal repair quiesces");
    net.check_bucket_ledger().unwrap();
    let flagged_before = net.resilience().partition_degraded_queries;
    for q in trace(30) {
        let out = net.query_resilient(&q);
        assert!(
            !out.partition_degraded,
            "healed network must not report degradation"
        );
        assert_eq!(
            out.recall, 1.0,
            "every in-window write must be globally findable after repair ({mode:?})"
        );
    }
    assert_eq!(
        net.resilience().partition_degraded_queries,
        flagged_before,
        "degradation counter must freeze after the heal"
    );
    net.check_bucket_ledger().unwrap();
    tel.snapshot().total_messages()
}

#[test]
fn degraded_flags_and_island_writes_reconcile_after_heal() {
    let seed = env_seed("ARS_FAULT_SEED");
    let [independent, layered] = MODES.map(|mode| degraded_run(mode, seed));
    // Post-heal recall is 1.0 under both; the arc read gets there on at
    // most half the messages of five lookups.
    assert!(
        layered * 2 <= independent,
        "layered spent {layered} messages, independent {independent} (seed {seed})"
    );
}

/// The partition headline (DESIGN.md §12): a fifth of a 50-peer ring is
/// severed, both sides keep caching island-locally, and the minority
/// member holding the most copies fails abruptly mid-window. With `l = 1`
/// the replication factor is the only redundancy: at r = 2 heal + repair
/// bring mean recall back to exactly 1.0, at r = 1 the failure's sole
/// copies are gone for good — and the bucket ledger balances at every step.
#[test]
fn mid_window_failure_heals_to_full_recall_at_r2_and_loses_buckets_at_r1() {
    let seed = env_seed("ARS_FAULT_SEED");
    for replication in [2, 1] {
        let config = SystemConfig::default()
            .with_kl(16, 1)
            .with_matching(MatchMeasure::Containment)
            .with_replication(replication)
            .with_seed(0x5011D ^ seed);
        let mut net = ChurnNetwork::new(50, config).expect("growth converges");
        // 80 warmed before the split, 20 first seen inside the window.
        let queries = trace(100);
        for q in &queries[..80] {
            net.query_resilient(q);
        }
        net.check_bucket_ledger().unwrap();

        let ids = net.chord().node_ids();
        let (min, maj) = ids.split_at(10);
        net.partition(&[maj.to_vec(), min.to_vec()]);
        net.stabilize(256);
        net.settle(4);
        for q in &queries {
            net.query_resilient(q);
        }
        net.check_bucket_ledger().unwrap();

        let inventory = net.inventory();
        let copies = |id: &&Id| inventory.iter().filter(|(p, _, _)| *p == id.0).count();
        let victim = *min
            .iter()
            .max_by_key(copies)
            .expect("minority is non-empty");
        let lost_before = net.resilience().buckets_lost;
        net.fail(victim).expect("minority member fails mid-window");
        let lost = net.resilience().buckets_lost - lost_before;
        net.check_bucket_ledger().unwrap();

        net.heal();
        net.stabilize(512).expect("healed ring re-merges");
        net.settle(4);
        net.repair_until_quiescent(128, 10_000)
            .expect("post-heal repair quiesces");
        let recall = queries
            .iter()
            .map(|q| net.query_resilient(q).recall)
            .sum::<f64>()
            / queries.len() as f64;
        net.check_bucket_ledger().unwrap();
        if replication == 2 {
            assert_eq!(recall, 1.0, "r=2 post-heal recall (seed {seed})");
        } else {
            assert!(
                recall < 1.0 || lost > 0,
                "r=1 must show the cost of no replication: recall {recall}, lost {lost} (seed {seed})"
            );
        }
    }
}
