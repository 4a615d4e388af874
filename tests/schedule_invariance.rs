//! Schedule-invariance suite for the concurrent query engine (ISSUE 6).
//!
//! The engine's contract is "equivalent modulo commutative reordering":
//! at a fixed shard count, the sequential inline reference
//! (`query_trace_sharded`) and the concurrent engine
//! (`query_batch_concurrent_with`), at one worker and at several, must
//! produce identical outcome multisets (here: identical *sequences*, a
//! stronger claim the conflict scheduler makes true), identical recall,
//! and matching
//! conserved ledgers — cache `hits + misses == queries`, `lookups ==
//! Σ attempts`, identical stored-partition totals. With one shard the
//! engine must reproduce the plain sequential `query()` loop bit for
//! bit, bounded caches included; with many shards it must match the
//! sequential path on every origin-independent field (only `hops`
//! depends on which RNG stream drew the origin).
//!
//! The fixed seed honors `ARS_FAULT_SEED` (default 0) so CI sweeps a
//! small matrix of seeds over the same assertions.

use ars::common::env_seed;
use ars::prelude::*;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Strategy: a short trace of non-empty ranges with planted repeats so
/// the identifier cache and bucket matching both get exercised.
fn trace_strategy() -> impl Strategy<Value = Vec<RangeSet>> {
    prop::collection::vec((0u32..800, 0u32..80, any::<bool>()), 4..24).prop_map(|specs| {
        let mut qs = Vec::with_capacity(specs.len() * 2);
        for (lo, width, repeat) in specs {
            qs.push(RangeSet::interval(lo, lo + width));
            if repeat {
                qs.push(RangeSet::interval(100, 160)); // popular range
            }
        }
        qs
    })
}

fn net(seed: u64, capacity: usize) -> RangeSelectNetwork {
    RangeSelectNetwork::new(
        24,
        SystemConfig::default()
            .with_seed(seed)
            .with_ident_cache_capacity(capacity),
    )
}

/// The conserved ledgers every engine run must balance, regardless of
/// schedule: one cache lookup per query, `l` routed lookups per attempt,
/// stats consistent with the outcomes they summarize.
fn assert_ledgers(net: &RangeSelectNetwork, outs: &[QueryOutcome], label: &str) {
    let cache = net.identifier_cache();
    assert_eq!(
        cache.hits() + cache.misses(),
        outs.len() as u64,
        "{label}: cache lookups != queries"
    );
    let stats = net.stats();
    assert_eq!(stats.queries, outs.len() as u64, "{label}: query count");
    assert_eq!(
        stats.lookups,
        outs.iter().map(|o| o.attempts as u64).sum::<u64>(),
        "{label}: lookups != Σ attempts"
    );
    assert_eq!(
        stats.matched,
        outs.iter().filter(|o| o.best_match.is_some()).count() as u64,
        "{label}: matched ledger"
    );
    assert_eq!(
        stats.exact,
        outs.iter().filter(|o| o.exact).count() as u64,
        "{label}: exact ledger"
    );
    assert_eq!(
        stats.stored,
        outs.iter().filter(|o| o.stored).count() as u64,
        "{label}: stored ledger"
    );
    assert_eq!(
        stats.total_hops,
        outs.iter()
            .flat_map(|o| o.hops.iter())
            .map(|&h| h as u64)
            .sum::<u64>(),
        "{label}: hop ledger"
    );
    for o in outs {
        let mut distinct = o.identifiers.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            o.attempts,
            distinct.len(),
            "{label}: one attempt per distinct identifier \
             (within-query dedup; static ring never retries)"
        );
    }
}

/// Strip the only origin-dependent field for cross-shard-count and
/// engine-vs-legacy comparison.
fn without_hops(mut o: QueryOutcome) -> QueryOutcome {
    o.hops.clear();
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: at each shard count, all three engines
    /// produce identical outcomes, stats, and balanced ledgers — and the
    /// concurrent engine agrees at every worker count.
    #[test]
    fn engines_agree_at_every_shard_count(qs in trace_strategy(), salt in 0u64..64) {
        let seed = env_seed("ARS_FAULT_SEED").wrapping_mul(0x9E37_79B9).wrapping_add(salt);
        for shards in SHARD_COUNTS {
            let mut inline = net(seed, 0);
            let out_inline = inline.query_trace_sharded(&qs, shards);
            assert_ledgers(&inline, &out_inline, "inline");

            let mut sharded = net(seed, 0);
            let out_sharded = sharded.query_batch_concurrent_with(
                &qs,
                EngineOptions { shards, workers: 1, queue: 1024 },
            );
            prop_assert_eq!(&out_inline, &out_sharded, "sharded engine diverged at {} shards", shards);
            prop_assert_eq!(inline.stats(), sharded.stats());
            assert_ledgers(&sharded, &out_sharded, "sharded");

            for workers in [2usize, 4] {
                let mut conc = net(seed, 0);
                let out_conc = conc.query_batch_concurrent_with(
                    &qs,
                    EngineOptions { shards, workers, queue: 16 },
                );
                prop_assert_eq!(
                    &out_inline, &out_conc,
                    "concurrent engine diverged at {} shards / {} workers", shards, workers
                );
                prop_assert_eq!(inline.stats(), conc.stats());
                prop_assert_eq!(inline.total_partitions(), conc.total_partitions());
                assert_ledgers(&conc, &out_conc, "concurrent");
                // Recall is part of the outcome, but assert it explicitly:
                // it is the paper-facing metric the relaxation must not move.
                for (a, b) in out_inline.iter().zip(&out_conc) {
                    prop_assert_eq!(a.recall, b.recall);
                }
            }
        }
    }

    /// Against the legacy sequential loop: every origin-independent field
    /// matches at any shard count (owners are origin-independent on a
    /// static ring), and the stats differ at most in `total_hops`.
    #[test]
    fn concurrent_matches_legacy_modulo_hops(qs in trace_strategy(), salt in 0u64..64) {
        let seed = env_seed("ARS_FAULT_SEED").wrapping_mul(0x9E37_79B9).wrapping_add(salt);
        let mut legacy = net(seed, 0);
        let out_legacy: Vec<QueryOutcome> = qs.iter().map(|q| legacy.query(q)).collect();
        for shards in [2usize, 7] {
            let mut conc = net(seed, 0);
            let out_conc = conc.query_batch_concurrent_with(
                &qs,
                EngineOptions { shards, workers: 3, queue: 8 },
            );
            let a: Vec<QueryOutcome> = out_legacy.iter().cloned().map(without_hops).collect();
            let b: Vec<QueryOutcome> = out_conc.into_iter().map(without_hops).collect();
            prop_assert_eq!(a, b, "origin-independent fields diverged at {} shards", shards);
            let (ls, cs) = (legacy.stats(), conc.stats());
            prop_assert_eq!(ls.queries, cs.queries);
            prop_assert_eq!(ls.matched, cs.matched);
            prop_assert_eq!(ls.exact, cs.exact);
            prop_assert_eq!(ls.stored, cs.stored);
            prop_assert_eq!(ls.lookups, cs.lookups);
            prop_assert_eq!(legacy.total_partitions(), conc.total_partitions());
        }
    }

    /// Bounded caches under concurrency: FIFO segments still balance the
    /// ledgers and respect the global capacity after merge.
    #[test]
    fn bounded_cache_ledgers_conserved(qs in trace_strategy(), capacity in 1usize..8) {
        let seed = env_seed("ARS_FAULT_SEED").wrapping_add(capacity as u64);
        let mut conc = net(seed, capacity);
        let outs = conc.query_batch_concurrent_with(
            &qs,
            EngineOptions { shards: 4, workers: 4, queue: 8 },
        );
        assert_ledgers(&conc, &outs, "bounded");
        prop_assert!(conc.identifier_cache().len() <= capacity);
    }
}

/// Satellite 2's exactness half: one shard reproduces the old global
/// cache accounting *exactly* — hits, misses, FIFO evictions, final
/// size — across unbounded and tightly bounded capacities, and the two
/// single-worker engine forms agree with it.
#[test]
fn single_shard_reproduces_global_cache_accounting() {
    let base = env_seed("ARS_FAULT_SEED");
    let mut qs = Vec::new();
    for i in 0..50u32 {
        let lo = (i * 37) % 700;
        qs.push(RangeSet::interval(lo, lo + 10 + (i % 6) * 20));
        if i % 3 == 0 {
            qs.push(RangeSet::interval(30, 50));
        }
    }
    for capacity in [0usize, 1, 2, 3, 7] {
        let mut seq = net(base.wrapping_add(41), capacity);
        let out_seq: Vec<QueryOutcome> = qs.iter().map(|q| seq.query(q)).collect();

        for (label, out_eng, eng) in [
            {
                let mut n = net(base.wrapping_add(41), capacity);
                let o = n.query_trace_sharded(&qs, 1);
                ("inline", o, n)
            },
            {
                let mut n = net(base.wrapping_add(41), capacity);
                let o = n.query_batch_concurrent_with(
                    &qs,
                    EngineOptions {
                        shards: 1,
                        workers: 1,
                        queue: 1024,
                    },
                );
                ("engine", o, n)
            },
        ] {
            assert_eq!(out_seq, out_eng, "{label} outcomes, capacity {capacity}");
            assert_eq!(seq.stats(), eng.stats(), "{label} stats");
            let (sc, ec) = (seq.identifier_cache(), eng.identifier_cache());
            assert_eq!(sc.hits(), ec.hits(), "{label} hits, capacity {capacity}");
            assert_eq!(
                sc.misses(),
                ec.misses(),
                "{label} misses, capacity {capacity}"
            );
            assert_eq!(
                sc.evictions(),
                ec.evictions(),
                "{label} evictions, capacity {capacity}"
            );
            assert_eq!(sc.len(), ec.len(), "{label} size, capacity {capacity}");
        }
    }
}

/// Identical concurrent runs are deterministic in their outcomes even
/// at high worker counts — the conflict scheduler, not the OS, decides
/// commit order wherever it matters.
#[test]
fn concurrent_runs_are_reproducible() {
    let seed = env_seed("ARS_FAULT_SEED").wrapping_add(17);
    let mut qs = Vec::new();
    for i in 0..80u32 {
        qs.push(RangeSet::interval((i * 29) % 500, (i * 29) % 500 + 25));
    }
    let opts = EngineOptions {
        shards: 7,
        workers: 8,
        queue: 32,
    };
    let run = |_: usize| {
        let mut n = net(seed, 0);
        let o = n.query_batch_concurrent_with(&qs, opts);
        (o, n.stats().clone(), n.total_partitions())
    };
    let (o1, s1, p1) = run(0);
    let (o2, s2, p2) = run(1);
    assert_eq!(o1, o2);
    assert_eq!(s1, s2);
    assert_eq!(p1, p2);
}
