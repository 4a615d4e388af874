//! Crash-restart recovery and anti-entropy repair, end to end (ISSUE 4).
//!
//! The headline scenario: a 50-peer network at replication r = 2 with
//! durable bucket stores under storage faults warms a query cache,
//! crashes 20% of its peers, restarts them — replaying each peer's op log
//! past whatever the crash corrupted — runs the anti-entropy repair loop
//! to quiescence, and answers every warmed query with recall exactly
//! 1.000. The stores are write-through, so the damage a crash does is a
//! tail bit flip. The r = 1
//! fail-without-restart contrast (PR 2's soft-state baseline) loses
//! buckets for good.
//!
//! Also here: the repair convergence property — after an arbitrary
//! interleaving of queries, fails, leaves, joins, crashes, and restarts,
//! at r = 1 and r = 2, the budgeted digest-exchange repair reaches a fixed
//! point bit-identical to the oracle `re_replicate` sweep, and at r = 2
//! recall returns to 1.0. Along the way every alive peer's
//! durable log recovers to exactly the copies the peer holds.
//!
//! Every run honors `ARS_FAULT_SEED` (default 0) and is asserted
//! byte-identical across reruns: same seed, same trace JSON, same final
//! inventory.

mod common;

use ars::common::env_seed;
use ars::core::InventoryEntry;
use ars::prelude::*;
use proptest::prelude::*;

fn warm_queries(n: usize) -> Vec<RangeSet> {
    (0..n as u32)
        .map(|i| {
            let lo = i * 977 % 30_000;
            RangeSet::interval(lo, lo + 70 + (i % 4) * 30)
        })
        .collect()
}

/// The faulted durable configuration of the headline scenario: a tail bit
/// flip on 10% of crashes.
fn faulted_durability() -> DurabilityConfig {
    DurabilityConfig::default().with_faults(StorageFaults::none().with_bit_flip(0.1))
}

/// One full run of the headline scenario. Returns everything a
/// determinism comparison needs: the exported trace, the final storage
/// inventory, the per-query recalls after repair, and the recovery stats.
struct ScenarioResult {
    trace_json: String,
    inventory: Vec<InventoryEntry>,
    recalls: Vec<f64>,
    recovered: u64,
    repair_rounds: usize,
}

fn crash_restart_scenario(seed: u64) -> ScenarioResult {
    const N: usize = 50;
    const CRASHES: usize = N / 5; // 20% of the ring
    let config = SystemConfig::default()
        .with_kl(8, 2)
        .with_replication(2)
        .with_seed(seed)
        .with_durability(faulted_durability());
    let mut net = ChurnNetwork::new(N, config).expect("growth converges");
    let tel = Telemetry::recording();
    net.set_telemetry(tel.clone());

    let queries = warm_queries(20);
    for q in &queries {
        let out = net.query_resilient(q);
        assert!(out.stored || out.exact, "warmup must populate the cache");
    }
    for q in &queries {
        assert_eq!(net.query_resilient(q).recall, 1.0, "cache is warm");
    }

    let downed = net.crash_random(CRASHES);
    assert_eq!(downed.len(), CRASHES);
    assert_eq!(net.len(), N - CRASHES);
    for id in &downed {
        net.restart(*id).expect("restart rejoins the ring");
    }
    assert_eq!(net.len(), N);
    net.stabilize(256).expect("ring reconverges");
    let repair_rounds = net
        .repair_until_quiescent(256, 50)
        .expect("repair quiesces under a 50-entry round budget");
    net.publish_ledger();

    let recalls: Vec<f64> = queries
        .iter()
        .map(|q| net.query_resilient(q).recall)
        .collect();
    ScenarioResult {
        trace_json: tel.to_json(),
        inventory: net.inventory(),
        recalls,
        recovered: net.resilience().buckets_recovered,
        repair_rounds,
    }
}

// ---------------------------------------------------------------------
// 1. Headline: 20% crashed + restarted under storage faults, repaired,
//    recall exactly 1.000 — and the whole run replays byte-identically.
// ---------------------------------------------------------------------

#[test]
fn crash_restart_with_repair_restores_full_recall() {
    let result = crash_restart_scenario(env_seed("ARS_FAULT_SEED") ^ 0x2003_0A25);
    if let Ok(path) = std::env::var("ARS_RECOVERY_TRACE_OUT") {
        std::fs::write(&path, &result.trace_json).expect("write recovery trace");
    }
    assert!(
        result.recovered > 0,
        "restarts must replay entries from the durable logs"
    );
    assert!(result.repair_rounds >= 1);
    for (i, recall) in result.recalls.iter().enumerate() {
        assert_eq!(
            *recall, 1.0,
            "query {i} lost recall after crash-restart + repair"
        );
    }
}

#[test]
fn crash_restart_scenario_is_byte_identical_across_reruns() {
    let seed = env_seed("ARS_FAULT_SEED") ^ 0x2003_0A25;
    let a = crash_restart_scenario(seed);
    let b = crash_restart_scenario(seed);
    assert_eq!(
        a.trace_json, b.trace_json,
        "same seed must export the same trace bytes"
    );
    assert_eq!(a.inventory, b.inventory, "same final storage state");
    assert_eq!(a.recalls, b.recalls);
    assert_eq!(a.recovered, b.recovered);
    assert_eq!(a.repair_rounds, b.repair_rounds);
}

// ---------------------------------------------------------------------
// 2. Contrast: the r = 1 soft-state baseline with fail (no restart)
//    cannot hold full recall — this is what durability + repair buys.
// ---------------------------------------------------------------------

#[test]
fn fail_without_restart_at_r1_loses_recall() {
    const N: usize = 50;
    let config = SystemConfig::default()
        .with_kl(8, 2)
        .with_seed(env_seed("ARS_FAULT_SEED") ^ 0x2003_0A25);
    let mut net = ChurnNetwork::new(N, config).expect("growth converges");
    let queries = warm_queries(20);
    for q in &queries {
        net.query_resilient(q);
    }
    for q in &queries {
        assert_eq!(net.query_resilient(q).recall, 1.0, "cache is warm");
    }
    // Kill the single holder of each of the first query's identifiers:
    // at r = 1 those are the only copies, so the data is gone for good.
    let victim_query = &queries[0];
    let idents = net.query_resilient(victim_query).identifiers;
    for ident in idents {
        let owner = net.replica_owners(ident, victim_query)[0];
        if net.chord().node_ids().contains(&owner) && net.len() > 1 {
            net.fail(owner).expect("owner is alive");
        }
    }
    net.stabilize(256).expect("recovers");
    let recall = net.query_resilient(victim_query).recall;
    assert!(
        recall < 1.0,
        "failing every holder at r = 1 must lose the bucket (recall {recall})"
    );
    assert!(net.resilience().buckets_lost > 0);
    assert_eq!(net.resilience().buckets_recovered, 0, "nothing comes back");
}

/// The hostile-storage contrast: every crash flips a bit in the log tail,
/// and with `l = 1`, `r = 1` the corrupted entry was the only copy — restart
/// replays what it can, repair has nothing to copy from, and recall stays
/// below 1 for good.
#[test]
fn guaranteed_tail_corruption_at_r1_loses_recall_despite_restart_and_repair() {
    let seed = env_seed("ARS_FAULT_SEED");
    let faults = StorageFaults::none().with_bit_flip(1.0);
    let config = SystemConfig::default()
        .with_kl(16, 1)
        .with_matching(MatchMeasure::Containment)
        .with_seed(0x10_2003 ^ seed)
        .with_durability(DurabilityConfig::default().with_faults(faults));
    let mut net = ChurnNetwork::new(50, config).expect("growth converges");
    let queries = warm_queries(40);
    for q in &queries {
        net.query_resilient(q);
    }
    for id in net.crash_random(10) {
        net.restart(id).expect("restart rejoins the ring");
    }
    net.stabilize(256).expect("ring reconverges");
    net.repair_until_quiescent(256, 50)
        .expect("repair quiesces");
    let recall = queries
        .iter()
        .map(|q| net.query_resilient(q).recall)
        .sum::<f64>()
        / queries.len() as f64;
    assert!(
        recall < 1.0,
        "sole copies behind a corrupt tail cannot come back (recall {recall}, seed {seed})"
    );
}

// ---------------------------------------------------------------------
// 3. Convergence property: repair after an arbitrary churn/crash/restart
//    interleaving reaches the oracle fixed point bit-identically at r = 1
//    and r = 2, and recall returns to 1.0 at r = 2 once repair quiesces.
// ---------------------------------------------------------------------

/// Replay one generated churn script on a fresh network. The cache is
/// warmed before any churn; crashes park logs (a perfect disk, so
/// restarts recover everything) and every downed peer is restarted
/// before the verdict.
fn churned_network(
    ops: &[(u8, u16)],
    seed: u64,
    replication: usize,
    mode: PlacementMode,
) -> (ChurnNetwork, Vec<RangeSet>) {
    let config = SystemConfig::default()
        .with_kl(8, 2)
        .with_replication(replication)
        .with_seed(seed)
        .with_durability(DurabilityConfig::default());
    let mut net = ChurnNetwork::new(16, common::placed(config, mode)).expect("growth converges");
    let queries = warm_queries(6);
    for q in &queries {
        net.query_resilient(q);
    }
    let mut downed: Vec<Id> = Vec::new();
    for &(op, arg) in ops {
        net.check_bucket_ledger().expect("ledger balances");
        match op {
            0 => {
                if net.len() > 8 {
                    net.fail_random(1);
                }
            }
            1 => {
                if net.len() > 8 {
                    let ids = net.chord().node_ids();
                    let _ = net.leave(ids[arg as usize % ids.len()]);
                }
            }
            2 | 3 => {
                if net.len() > 8 {
                    downed.extend(net.crash_random(1));
                }
            }
            4 | 5 => {
                if let Some(id) = downed.pop() {
                    net.restart(id).expect("restart rejoins");
                } else {
                    let _ = net.join_random();
                }
            }
            6 => {
                let _ = net.join_random();
            }
            _ => {
                let lo = u32::from(arg) % 30_000;
                net.query_resilient(&RangeSet::interval(lo, lo + 80));
            }
        }
    }
    for id in downed {
        net.restart(id).expect("final restarts rejoin");
    }
    net.stabilize(256).expect("ring reconverges");
    (net, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn repair_converges_to_the_oracle_after_arbitrary_churn(
        ops in prop::collection::vec((0u8..8, any::<u16>()), 1..20),
        budget in 1usize..40,
        replication in 1usize..3,
        layered in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let seed = seed ^ (env_seed("ARS_FAULT_SEED") << 40);
        let mode = common::MODES[usize::from(layered)];
        let (mut repaired, queries) = churned_network(&ops, seed, replication, mode);
        let (mut oracle, _) = churned_network(&ops, seed, replication, mode);
        prop_assert_eq!(
            repaired.inventory(),
            oracle.inventory(),
            "identical scripts must diverge identically"
        );
        common::assert_logs_match_peers(&repaired);
        repaired
            .repair_until_quiescent(100_000, budget)
            .expect("repair quiesces");
        oracle.re_replicate();
        prop_assert_eq!(
            repaired.inventory(),
            oracle.inventory(),
            "anti-entropy fixed point must equal the oracle sweep bit-for-bit"
        );
        common::assert_logs_match_peers(&repaired);
        common::assert_logs_match_peers(&oracle);
        // With r = 2, a perfect disk, and every crashed peer restarted,
        // no bucket was ever unrecoverable: full recall returns. At r = 1
        // a failed peer's copies are gone for good.
        if replication == 2 {
            for q in &queries {
                prop_assert_eq!(repaired.query_resilient(q).recall, 1.0);
            }
        }
        prop_assert_eq!(repaired.check_bucket_ledger(), Ok(()));
        prop_assert_eq!(oracle.check_bucket_ledger(), Ok(()));
    }
}
