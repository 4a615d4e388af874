//! Pinned golden digests of the default query paths.
//!
//! `PlacementMode::Independent` (the default) must stay bit-identical to
//! the pre-layered-placement query paths: these digests were captured on
//! the commit *before* multi-probe and layered placement landed, over a
//! fixed trace at seeds 0–3, and fold every field of every
//! [`ars_core::QueryOutcome`] plus the final stats and stored-copy count.
//! Any change to the default path's outcomes — identifiers, routing,
//! matching, caching, stats — moves a digest and fails loudly here. The
//! identifier cache's own hit/miss counters are not folded: the cache is a
//! pure memo, so its admission policy moves no outcome, and
//! `tests/property_invariants.rs` pins its accounting exactly.
//!
//! The second half pins the churn path (`ChurnNetwork::query_resilient`)
//! and the message path (`ProtoNetwork::query`) the same way, captured on
//! the commit before both began to execute the static path's plan.
//!
//! Run with `ARS_PRINT_GOLDENS=1` to print freshly computed digests
//! (the capture procedure; see EXPERIMENTS.md).

use ars_core::config::MatchMeasure;
use ars_core::{RangeSelectNetwork, SystemConfig};
use ars_lsh::RangeSet;

/// FNV-1a over a byte slice, folded into `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The fixed golden trace: popular repeats, small jitters around them
/// (the regime LSH placement exists for), and cold singletons.
fn golden_trace() -> Vec<RangeSet> {
    let mut qs = Vec::new();
    for i in 0..60u32 {
        let lo = (i * 53) % 1200;
        qs.push(RangeSet::interval(lo, lo + 20 + (i % 5) * 40));
        if i % 3 == 0 {
            qs.push(RangeSet::interval(400, 520)); // popular repeat
        }
        if i % 4 == 0 {
            // Jittered neighbor of the popular range.
            qs.push(RangeSet::interval(400 + (i % 3), 520 + (i % 2)));
        }
        if i % 7 == 0 {
            qs.push(RangeSet::from_intervals([(30, 90), (2_000, 2_300)]));
        }
    }
    qs
}

/// Digest of the sequential path under `config`: every outcome's full
/// debug rendering, then the final stats and stored-copy count.
///
/// The digests predate the within-query identifier dedup, whose entire
/// observable effect on the default path is sharper lookup accounting: a
/// duplicate identifier no longer routes, so `hops` drops its entry and
/// `attempts`/`lookups`/`total_hops` shrink by exactly the duplicate's
/// share. Everything else — matching, caching, RNG draws, routing of the
/// first occurrence — must be untouched. We pin that by *reconstructing*
/// the pre-dedup rendering (each duplicate's hop equals its first
/// occurrence's hop, so the reconstruction is exact) and digesting that;
/// any deviation beyond pure dedup cannot reproduce the old digests.
fn digest(config: SystemConfig) -> u64 {
    let mut net = RangeSelectNetwork::new(48, config);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut saved_hops = 0u64;
    let mut saved_lookups = 0u64;
    for q in &golden_trace() {
        let out = net.query(q);
        // Re-expand hops to one entry per identifier (pre-dedup shape):
        // out.hops holds the distinct identifiers' hops in first-
        // appearance order.
        let mut hop_of: Vec<(u32, usize)> = Vec::new();
        {
            let mut it = out.hops.iter();
            for &ident in &out.identifiers {
                if !hop_of.iter().any(|&(i, _)| i == ident) {
                    hop_of.push((ident, *it.next().expect("one hop per distinct identifier")));
                }
            }
            assert!(it.next().is_none(), "more hops than distinct identifiers");
        }
        let full_hops: Vec<usize> = out
            .identifiers
            .iter()
            .map(|ident| hop_of.iter().find(|&&(i, _)| i == *ident).unwrap().1)
            .collect();
        saved_hops += (full_hops.iter().sum::<usize>() - out.hops.iter().sum::<usize>()) as u64;
        saved_lookups += (full_hops.len() - out.hops.len()) as u64;
        fnv(
            &mut h,
            format!(
                "QueryOutcome {{ query: {:?}, best_match: {:?}, similarity: {:?}, \
                 recall: {:?}, exact: {:?}, stored: {:?}, hops: {:?}, \
                 identifiers: {:?}, peers_contacted: {:?}, attempts: {:?}, \
                 fell_back_to_source: {:?}, partition_degraded: {:?} }}",
                out.query,
                out.best_match,
                out.similarity,
                out.recall,
                out.exact,
                out.stored,
                full_hops,
                out.identifiers,
                out.peers_contacted,
                out.identifiers.len(),
                out.fell_back_to_source,
                out.partition_degraded,
            )
            .as_bytes(),
        );
    }
    // The pre-layered `NetworkStats` debug rendering, reproduced field by
    // field: the digests were captured before the layered-placement
    // counters (dedup/walk/probe) existed, and those must all stay zero on
    // the default path anyway — asserted below so the rendering is
    // faithful, not just format-compatible.
    let s = net.stats();
    assert_eq!(
        s.dedup_saved_lookups, saved_lookups,
        "stats book exactly the per-outcome dedup savings"
    );
    assert_eq!(s.walk_steps, 0, "default path never walks successors");
    assert_eq!(s.probe_checks, 0, "default path never multi-probes");
    fnv(
        &mut h,
        format!(
            "NetworkStats {{ queries: {}, matched: {}, exact: {}, stored: {}, \
             lookups: {}, total_hops: {} }}",
            s.queries,
            s.matched,
            s.exact,
            s.stored,
            s.lookups + saved_lookups,
            s.total_hops + saved_hops
        )
        .as_bytes(),
    );
    fnv(&mut h, &(net.total_partitions() as u64).to_le_bytes());
    h
}

/// Digests of the paper-default configuration at seeds 0–3, recomputed
/// without the cache counters on the code the earlier, counter-folding
/// goldens passed on.
const GOLDEN_DEFAULT: [u64; 4] = [
    0x9a29_cafb_2302_626d,
    0xc926_a09d_017b_b3de,
    0x6842_62d2_164b_2edb,
    0xd7d3_6f01_0bc3_7e96,
];

/// Digests of the padded + containment configuration (the other commonly
/// benched operating point) at seeds 0–3, recomputed the same way. They
/// read the same with the identifier cache bounded to 16 ranges (as these
/// goldens once ran it) and unbounded: a memo moves no outcome.
const GOLDEN_PADDED: [u64; 4] = [
    0x0518_2dab_eae5_42bd,
    0x4531_5b5c_2cbd_5136,
    0xad58_ed32_79b4_cb21,
    0xd08a_5c35_b373_93e6,
];

#[test]
fn default_config_outcomes_match_pre_layered_goldens() {
    for seed in 0u64..4 {
        let d = digest(SystemConfig::default().with_seed(seed));
        if std::env::var("ARS_PRINT_GOLDENS").is_ok() {
            println!("default seed {seed}: 0x{d:016x}");
            continue;
        }
        assert_eq!(
            d, GOLDEN_DEFAULT[seed as usize],
            "default-path outcomes diverged from the pre-layered goldens at seed {seed}"
        );
    }
}

#[test]
fn padded_containment_outcomes_match_pre_layered_goldens() {
    for seed in 0u64..4 {
        let d = digest(
            SystemConfig::default()
                .with_seed(seed)
                .with_padding(0.2)
                .with_matching(MatchMeasure::Containment),
        );
        if std::env::var("ARS_PRINT_GOLDENS").is_ok() {
            println!("padded seed {seed}: 0x{d:016x}");
            continue;
        }
        assert_eq!(
            d, GOLDEN_PADDED[seed as usize],
            "padded-path outcomes diverged from the pre-layered goldens at seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// The churn and message paths, pinned at the commit before they began to
// execute the shared `targets` / `finish` plan: under independent
// placement sharing the plan must not move one bit of either.
// ---------------------------------------------------------------------

use ars_core::{BreakerConfig, ChurnNetwork, HedgePolicy, ProtoNetwork, QueryOutcome};
use ars_simnet::FaultPlan;
use ars_workload::{uniform_trace, zipf_trace};

/// Fold one outcome, field by field. The message path reported
/// `peers_contacted: 0` when its digests were captured and counts the
/// distinct repliers since, so its goldens leave that field out.
fn fold_outcome(h: &mut u64, out: &QueryOutcome, with_peers: bool) {
    let mut distinct = out.identifiers.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        out.identifiers.len(),
        "golden traces carry no repeated identifier (query {})",
        out.query
    );
    fnv(
        h,
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
            out.query,
            out.best_match,
            out.similarity,
            out.recall,
            out.exact,
            out.stored,
            out.hops,
            out.identifiers,
            with_peers.then_some(out.peers_contacted),
            out.attempts,
            out.fell_back_to_source,
            out.partition_degraded,
        )
        .as_bytes(),
    );
}

/// Scenario (i), with (ii)'s tail-tolerance machinery when `guarded` and
/// (iii)'s partition window when `split`: a 400-query Zipf trace on 80
/// churning peers, replication 2, a fifth of the lookup attempts lost, one
/// failure and one join every 50 queries. Folds every outcome, then the
/// final resilience ledger and stored-copy count.
fn churn_digest(guarded: bool, split: bool) -> u64 {
    let config = SystemConfig::default().with_replication(2).with_seed(23);
    let mut net = ChurnNetwork::new(80, config).expect("growth converges");
    net.set_lookup_loss(0.2);
    if guarded {
        net.enable_hedging(HedgePolicy { min_delay: 500 });
        net.enable_breakers(BreakerConfig::default());
        // Probes teach the detector the healthy baseline, then meet the
        // slowed fifth of the fleet.
        for _ in 0..3 {
            net.probe_peers();
        }
        net.slow_fraction(0.2, 10);
        for _ in 0..2 {
            net.probe_peers();
        }
    }
    let trace = zipf_trace(400, 5_000, 6_000, 16, 1.0, 200, 23);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, q) in trace.queries().iter().enumerate() {
        if i > 0 && i % 50 == 0 {
            net.fail_random(1);
            net.join_random().expect("join routes on a live ring");
            net.stabilize(64);
        }
        if split && i == 120 {
            let ids = net.chord().node_ids();
            let (minority, majority) = ids.split_at(ids.len() / 4);
            net.partition(&[majority.to_vec(), minority.to_vec()]);
            net.stabilize(64);
        }
        if split && i == 160 {
            net.heal();
            net.stabilize(256);
        }
        fold_outcome(&mut h, &net.query_resilient(q), true);
    }
    let stats = net.resilience();
    assert!(
        stats.retries > 0 && stats.replicas_restored > 0,
        "{stats:?}"
    );
    assert_eq!(guarded, stats.hedges_fired > 0, "{stats:?}");
    assert_eq!(guarded, stats.breaker_short_circuits > 0, "{stats:?}");
    assert_eq!(split, stats.partition_degraded_queries > 0, "{stats:?}");
    assert_eq!(split, stats.partition_writes > 0, "{stats:?}");
    fnv(&mut h, format!("{stats:?}").as_bytes());
    fnv(&mut h, &(net.total_partitions() as u64).to_le_bytes());
    net.check_bucket_ledger().expect("ledger balances");
    h
}

/// Scenario (iv): a 400-query uniform trace through the message protocol
/// on 40 peers; folds every outcome, then the transport's ledger. A plan
/// with a drop probability must drop; any other must not.
fn proto_digest(plan: Option<FaultPlan>) -> u64 {
    let config = SystemConfig::default().with_seed(29);
    let lossy = plan.as_ref().is_some_and(|plan| plan.drop_p > 0.0);
    let mut net = match plan {
        None => ProtoNetwork::new(40, config),
        Some(plan) => ProtoNetwork::new_faulty(40, config, plan, 29),
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for q in uniform_trace(400, 5_000, 6_000, 29).queries() {
        fold_outcome(&mut h, &net.query(q), false);
    }
    let stats = net.sim_stats();
    assert!(stats.is_conserved() && stats.queued == 0, "{stats:?}");
    assert_eq!(lossy, stats.dropped > 0, "{stats:?}");
    fnv(&mut h, format!("{stats:?}").as_bytes());
    h
}

fn check_golden(name: &str, digest: u64, golden: u64) {
    if std::env::var("ARS_PRINT_GOLDENS").is_ok() {
        println!("{name}: 0x{digest:016x}");
        return;
    }
    assert_eq!(
        digest, golden,
        "{name} outcomes diverged from the pre-shared-plan golden"
    );
}

#[test]
fn churn_path_outcomes_match_pre_shared_plan_goldens() {
    check_golden("churn", churn_digest(false, false), 0x7a85_ac2c_fa8e_2861);
    check_golden(
        "churn guarded",
        churn_digest(true, false),
        0x87dc_12b7_2817_4904,
    );
    check_golden(
        "churn split",
        churn_digest(false, true),
        0xefbd_8571_6914_ef47,
    );
}

#[test]
fn message_path_outcomes_match_pre_shared_plan_goldens() {
    check_golden("proto lossless", proto_digest(None), 0x9c35_461a_71c5_6736);
    let lossy = FaultPlan::none().with_drop(0.1).with_duplicate(0.1);
    check_golden(
        "proto lossy",
        proto_digest(Some(lossy)),
        0xe1e4_5309_643b_eadb,
    );
}

/// The two goldens above never reorder a delivery: without a delay,
/// pause or slow factor, every message arrives in the order it was sent.
/// This plan's extra delays (up to four hops' latency), duplicates, one
/// pause window and one slow window deliver messages out of send order,
/// so it pins the order in which the queue releases them.
#[test]
fn message_path_reordered_outcomes_match_their_golden() {
    let reordered = FaultPlan::none()
        .with_delay(0.2, 1, 200)
        .with_duplicate(0.1)
        .with_pause(7, 60_000, 90_000)
        .with_slow(vec![3, 11], 4, 120_000, 180_000);
    check_golden(
        "proto reordered",
        proto_digest(Some(reordered)),
        0xaf58_cfa8_15ea_c429,
    );
}
