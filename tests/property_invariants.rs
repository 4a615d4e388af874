//! Cross-crate property tests: invariants that tie the layers together,
//! each checked against a brute-force oracle.

use ars::common::env_seed;
use ars::lsh::{ApproxMinWisePerm, LshFunction, MinWisePerm, RangeAwareBitPerm};
use ars::prelude::*;
use ars::relation::exec::BaseTables;
use ars::relation::schema::medical;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Strategy: an arbitrary small multi-interval range set plus its exact
/// value set.
fn range_set_strategy() -> impl Strategy<Value = (RangeSet, HashSet<u32>)> {
    prop::collection::vec((0u32..500, 0u32..40), 0..5).prop_map(|pairs| {
        let intervals: Vec<(u32, u32)> = pairs.into_iter().map(|(lo, w)| (lo, lo + w)).collect();
        let rs = RangeSet::from_intervals(intervals.iter().copied());
        let mut values = HashSet::new();
        for (lo, hi) in intervals {
            values.extend(lo..=hi);
        }
        (rs, values)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// RangeSet algebra agrees with naive sets on every operation.
    #[test]
    fn range_set_algebra_matches_brute_force(
        (a, sa) in range_set_strategy(),
        (b, sb) in range_set_strategy(),
    ) {
        prop_assert_eq!(a.len(), sa.len() as u64);
        prop_assert_eq!(a.intersection_len(&b), sa.intersection(&sb).count() as u64);
        prop_assert_eq!(a.union_len(&b), sa.union(&sb).count() as u64);
        let inter = a.intersection(&b);
        let inter_set: HashSet<u32> = inter.iter().collect();
        let expect: HashSet<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(inter_set, expect);
        // Jaccard from sets.
        let union_count = sa.union(&sb).count();
        if union_count > 0 {
            let expect_j =
                sa.intersection(&sb).count() as f64 / union_count as f64;
            prop_assert!((a.jaccard(&b) - expect_j).abs() < 1e-12);
        }
        // Subset relation.
        prop_assert_eq!(a.is_subset_of(&b), sa.is_subset(&sb));
    }

    /// Padding always contains the original and respects the fraction
    /// bound per interval.
    #[test]
    fn padding_contains_original(
        (a, _) in range_set_strategy(),
        frac in 0.0f64..1.0,
    ) {
        prop_assume!(!a.is_empty());
        let padded = a.pad(frac);
        prop_assert!(a.is_subset_of(&padded));
    }

    /// Identifier computation is a pure function of the range (no hidden
    /// state), and identical ranges always share all l identifiers.
    #[test]
    fn identifiers_are_pure((a, _) in range_set_strategy(), seed in any::<u64>()) {
        prop_assume!(!a.is_empty());
        let mut rng = DetRng::new(seed);
        let groups = HashGroups::generate(LshFamilyKind::ApproxMinWise, 4, 3, &mut rng);
        prop_assert_eq!(groups.identifiers(&a), groups.identifiers(&a.clone()));
    }

    /// An executed single-relation select leaf equals brute-force
    /// filtering, for arbitrary range bounds.
    #[test]
    fn select_leaf_execution_equals_brute_force(lo in 0u32..100, w in 0u32..60) {
        let hi = lo + w;
        let tuples: Vec<Vec<Value>> = (0..120u32)
            .map(|i| vec![Value::Int(i), Value::from(format!("p{i}")), Value::Int(i % 80)])
            .collect();
        let mut tables = BaseTables::new();
        tables.register(Relation::new(medical::patient(), tuples.clone()));

        let plan = LogicalPlan::Select {
            relation: "Patient".to_string(),
            predicates: vec![Predicate::range("age", lo, hi)],
        };
        let got = execute(&plan, &mut tables).unwrap();

        let expect = tuples
            .iter()
            .filter(|t| {
                let age = t[2].as_ordinal().unwrap();
                (lo..=hi).contains(&age)
            })
            .count();
        prop_assert_eq!(got.len(), expect);
    }

    /// Chord ownership is stable under observer: looking up the same key
    /// from every node of a ring gives one owner.
    #[test]
    fn lookup_owner_is_origin_independent(seed in any::<u64>(), key in any::<u32>()) {
        let ring = Ring::from_seed(24, seed);
        let owners: HashSet<u32> = ring
            .node_ids()
            .iter()
            .map(|&from| ring.lookup(from, Id(key)).0.0)
            .collect();
        prop_assert_eq!(owners.len(), 1);
    }

    /// The fast min-hash path (range-aware dominance-candidate kernel for
    /// the bit families, closed form for linear) is bit-for-bit equal to full
    /// enumeration for every paper family, over arbitrary multi-interval
    /// range sets.
    #[test]
    fn fast_min_hash_equals_enumeration(
        (q, _) in range_set_strategy(),
        wide_lo in 0u32..100_000,
        wide_w in 1_000u32..20_000,
        seed in any::<u64>(),
    ) {
        prop_assume!(!q.is_empty());
        // Mix in a wide interval so many bit positions take part.
        let wide = q.union(&RangeSet::interval(wide_lo, wide_lo + wide_w));
        let mut rng = DetRng::new(seed);
        for kind in LshFamilyKind::PAPER_FAMILIES {
            let f = LshFunction::random(kind, &mut rng);
            for set in [&q, &wide] {
                let oracle = f.min_hash_enumerate(set);
                prop_assert_eq!(f.min_hash(set), oracle, "{} on {}", kind, set);
            }
        }
    }

    /// Group identifiers through the fast paths equal the enumeration
    /// reference for every paper family.
    #[test]
    fn group_identifiers_equal_enumeration_reference(
        (q, _) in range_set_strategy(),
        seed in any::<u64>(),
    ) {
        prop_assume!(!q.is_empty());
        let mut rng = DetRng::new(seed);
        for kind in LshFamilyKind::PAPER_FAMILIES {
            let groups = HashGroups::generate(kind, 4, 3, &mut rng);
            prop_assert_eq!(groups.identifiers(&q), groups.identifiers_reference(&q));
        }
    }

    /// The fused single-pass group kernels — whole-group structure-of-
    /// arrays evaluation of the dominance-candidate kernel — equal the
    /// enumeration reference for every paper family,
    /// over arbitrary multi-interval range sets, through both the fused
    /// group objects and the zero-allocation `identifiers_into` buffer
    /// path.
    #[test]
    fn fused_group_identifiers_equal_reference(
        (q, _) in range_set_strategy(),
        wide_lo in 0u32..100_000,
        wide_w in 1_000u32..20_000,
        seed in 0u64..4,
    ) {
        prop_assume!(!q.is_empty());
        // A wide interval brings in the high bit positions.
        let wide = q.union(&RangeSet::interval(wide_lo, wide_lo + wide_w));
        for kind in LshFamilyKind::PAPER_FAMILIES {
            let mut rng = DetRng::new(seed);
            let groups = HashGroups::generate(kind, 6, 3, &mut rng);
            for set in [&q, &wide] {
                let reference = groups.identifiers_reference(set);
                let fused: Vec<u32> = groups
                    .fused_groups()
                    .iter()
                    .map(|g| g.identifier(set))
                    .collect();
                prop_assert_eq!(&fused, &reference, "fused {} seed {} on {}", kind, seed, set);
                let mut buf = vec![0u32; reference.len()];
                groups.identifiers_into(set, &mut buf);
                prop_assert_eq!(&buf, &reference, "into {} seed {} on {}", kind, seed, set);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-probe candidate sequences are prefix-closed: a smaller
    /// budget returns exactly the first entries of a larger budget's
    /// ranking, so raising the budget only ever *adds* candidates (the
    /// superset property recall monotonicity rests on).
    #[test]
    fn probe_candidates_are_prefix_closed(
        (q, _) in range_set_strategy(),
        seed in any::<u64>(),
        small in 0usize..24,
        extra in 1usize..40,
    ) {
        prop_assume!(!q.is_empty());
        let mut rng = DetRng::new(seed);
        let groups = HashGroups::generate(LshFamilyKind::ApproxMinWise, 8, 4, &mut rng);
        let big = groups.probe_candidates(&q, small + extra);
        let little = groups.probe_candidates(&q, small);
        prop_assert!(little.len() <= small);
        prop_assert_eq!(&big[..little.len()], &little[..]);
        // The base identifiers are never re-proposed as probes.
        let base = groups.identifiers(&q);
        for c in &big {
            prop_assert!(!base.contains(&c.identifier));
        }
    }

    /// The probe ladder stops inside the rung that settles its budget, and
    /// what it returns is still the head of the ladder run to its end (a
    /// budget past anything it can produce never stops it): every family,
    /// `k` on both sides of `FUSED_MAX_K`, widths whose δ-fractions round
    /// to nothing, ranges at either end of the domain.
    #[test]
    fn probe_ladder_stops_without_changing_the_ranking(
        kind in prop::sample::select(vec![
            LshFamilyKind::MinWise,
            LshFamilyKind::ApproxMinWise,
            LshFamilyKind::Linear,
            LshFamilyKind::LinearDomain,
        ]),
        k in prop::sample::select(vec![1usize, 8, 20, 70]),
        l in prop::sample::select(vec![1usize, 5]),
        seed in any::<u64>(),
        width in prop::sample::select(vec![1u32, 2, 3, 50, 1_000, 30_000]),
        edge in 0u32..3,
        start in any::<u32>(),
    ) {
        let lo = match edge {
            0 => 0,
            1 => u32::MAX - (width - 1),
            _ => start.min(u32::MAX - width),
        };
        let q = RangeSet::interval(lo, lo + (width - 1));
        let groups = HashGroups::generate(kind, k, l, &mut DetRng::new(seed));
        let full = groups.probe_candidates(&q, 10_000);
        for budget in [0usize, 1, 15, 16, 17, 64] {
            prop_assert_eq!(
                &groups.probe_candidates(&q, budget)[..],
                &full[..budget.min(full.len())],
                "{} k {} l {} budget {} on {}", kind, k, l, budget, q
            );
        }
    }

    /// Layered recall is monotone in the probe budget: against a fixed
    /// stored partition (no cache-on-miss, so query order is irrelevant),
    /// a bigger budget checks a superset of candidate buckets, so the
    /// best containment score can only rise.
    #[test]
    fn layered_recall_monotone_in_probes(
        lo in 0u32..2_000,
        w in 20u32..200,
        dl in 0u32..3,
        dh in 0u32..3,
        seed in 0u64..16,
    ) {
        let stored = RangeSet::interval(lo, lo + w);
        let query = RangeSet::interval(lo + dl, lo + w + dh);
        let mut last_recall = -1.0f64;
        let mut last_matched = false;
        for budget in [0usize, 4, 16, 64] {
            let config = SystemConfig::default()
                .with_seed(seed)
                .with_placement_mode(PlacementMode::Layered)
                .with_probes(budget)
                .with_matching(MatchMeasure::Containment);
            let mut net = RangeSelectNetwork::new(48, config);
            net.store_partition(&stored);
            let out = net.query(&query);
            prop_assert!(
                out.recall >= last_recall,
                "recall fell from {last_recall} to {} at probe budget {budget}",
                out.recall
            );
            prop_assert!(
                out.best_match.is_some() || !last_matched,
                "a match found at a smaller budget vanished at budget {budget}"
            );
            last_recall = out.recall;
            last_matched = out.best_match.is_some();
        }
    }

    /// The layered-placement knobs are inert under the default
    /// `PlacementMode::Independent`: cranking probes, layers, and the
    /// walk window moves no bit of any outcome or of the final stats.
    /// (The goldens in `tests/placement_goldens.rs` additionally pin the
    /// default path to its pre-layered behavior at seeds 0–3.)
    #[test]
    fn independent_mode_ignores_layered_knobs(seed in 0u64..8) {
        let trace: Vec<RangeSet> = (0..24u32)
            .map(|i| {
                let lo = (i * 211) % 900;
                RangeSet::interval(lo, lo + 30 + (i % 3) * 25)
            })
            .collect();
        let mut plain = RangeSelectNetwork::new(32, SystemConfig::default().with_seed(seed));
        let mut knobbed = RangeSelectNetwork::new(
            32,
            SystemConfig::default()
                .with_seed(seed)
                .with_probes(32)
                .with_layers(3)
                .with_walk_window(8),
        );
        for q in &trace {
            let a = plain.query(q);
            let b = knobbed.query(q);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        prop_assert_eq!(format!("{:?}", plain.stats()), format!("{:?}", knobbed.stats()));
    }
}

/// The lookup-budget headline (DESIGN.md §6d): on a skewed trace — two
/// popular ranges re-queried throughout, jittered neighbours, a cold scan
/// that never repeats — layered placement with 16 probes holds mean recall
/// within 1 % of the paper's independent placement at no more than half
/// the lookups and half the messages per query.
#[test]
fn layered_placement_halves_lookups_and_messages_within_one_percent_recall() {
    let seed = env_seed("ARS_FAULT_SEED");
    let mut trace = Vec::new();
    for i in 0..120u32 {
        let cold = (i * 97) % 3000;
        trace.push(RangeSet::interval(cold, cold + 40 + (i % 4) * 30));
        for (every, lo, hi) in [
            (2, 500, 700),
            (3, 1_500, 1_620),
            (4, 500 + i % 3, 700 + i % 2),
            (6, 1_500 + i % 2, 1_621),
        ] {
            if i % every == 0 {
                trace.push(RangeSet::interval(lo, hi));
            }
        }
    }
    // (mean recall, lookups per query, messages per query)
    let run = |config: SystemConfig| {
        let mut net = RangeSelectNetwork::new(64, config.with_seed(seed));
        let tel = Telemetry::recording();
        net.set_telemetry(tel.clone());
        let recall: f64 = trace.iter().map(|q| net.query(q).recall).sum();
        let n = trace.len() as f64;
        let lookups = net.stats().lookups as f64 / n;
        (recall / n, lookups, tel.snapshot().messages_per_query())
    };
    let (base_recall, base_lookups, base_messages) = run(SystemConfig::default());
    let (recall, lookups, messages) = run(SystemConfig::default()
        .with_placement_mode(PlacementMode::Layered)
        .with_probes(16));
    assert!(
        recall >= base_recall - 0.01,
        "layered recall {recall:.4} vs independent {base_recall:.4} (seed {seed})"
    );
    assert!(
        lookups <= 0.5 * base_lookups,
        "layered lookups/query {lookups:.3} vs independent {base_lookups:.3} (seed {seed})"
    );
    assert!(
        messages <= 0.5 * base_messages,
        "layered messages/query {messages:.3} vs independent {base_messages:.3} (seed {seed})"
    );
}

/// The seeds `tests/determinism.rs` pins: hash groups drawn from them must
/// produce identifiers unchanged by the range-aware evaluation (the oracle
/// enumerates every value, as the seed revision did).
#[test]
fn pinned_seed_identifiers_unchanged_by_fast_path() {
    for (seed, kinds) in [
        (3u64, LshFamilyKind::PAPER_FAMILIES.as_slice()),
        (4, LshFamilyKind::PAPER_FAMILIES.as_slice()),
    ] {
        for &kind in kinds {
            let mut rng = DetRng::new(seed);
            let groups = HashGroups::generate(kind, 20, 5, &mut rng);
            for q in [
                RangeSet::interval(30, 50),
                RangeSet::interval(0, 10_000),
                RangeSet::from_intervals([(5u32, 80u32), (1_000, 12_000)]),
            ] {
                assert_eq!(
                    groups.identifiers(&q),
                    groups.identifiers_reference(&q),
                    "seed {seed} kind {kind} range {q}"
                );
            }
        }
    }
}

/// The interval evaluator this repo used before the dominance-candidate
/// kernel, kept only as a second, independently derived oracle: decide the
/// output bits most-significant first, forcing each to 0 when some value
/// of the interval still matches the input-bit constraints so far.
/// `O(32²)` per interval.
mod greedy_descent_oracle {
    /// Smallest `x ≥ lo` with `x & mask == forced`, if any fits 32 bits.
    fn min_matching_ge(lo: u32, mask: u32, forced: u32) -> Option<u32> {
        let mut x = 0u32;
        for i in (0..32).rev() {
            let b = 1u32 << i;
            let lo_bit = lo & b;
            if mask & b == 0 {
                x |= lo_bit; // free bit: follow lo
                continue;
            }
            let f_bit = forced & b;
            if f_bit == lo_bit {
                x |= f_bit;
                continue;
            }
            if f_bit > lo_bit {
                return Some(x | f_bit | (forced & (b - 1)));
            }
            // Forced 0 over lo's 1: bump the lowest free 0-bit of lo above.
            for j in (i + 1)..32 {
                let bj = 1u32 << j;
                if mask & bj == 0 && lo & bj == 0 {
                    let above = !(((bj as u64) << 1).wrapping_sub(1) as u32);
                    return Some((lo & above) | bj | (forced & (bj - 1)));
                }
            }
            return None;
        }
        Some(x)
    }

    /// `min { π(x) : x ∈ [lo, hi] }` for the bit-position permutation `π`.
    pub fn min_interval(permute: impl Fn(u32) -> u32, lo: u32, hi: u32) -> u32 {
        let mut out_src = [0u32; 32]; // input bit feeding each output bit
        for i in 0..32 {
            out_src[permute(1 << i).trailing_zeros() as usize] = 1 << i;
        }
        let (mut mask, mut forced, mut out) = (0u32, 0u32, 0u32);
        for j in (0..32).rev() {
            let b = out_src[j];
            if !matches!(min_matching_ge(lo, mask | b, forced), Some(x) if x <= hi) {
                forced |= b;
                out |= 1 << j;
            }
            mask |= b;
        }
        out
    }
}

/// Kernel result for one function over one interval.
fn kernel_min(kernel: &RangeAwareBitPerm, lo: u32, hi: u32) -> u32 {
    let mut min = [u32::MAX];
    kernel.min_interval_into(lo, hi, &mut min);
    min[0]
}

/// Exhaustive: nine random bit permutations side by side (more than one
/// kernel block, the last one partly filled), restricted to 10 input bits — every `0 ≤ lo ≤ hi < 1024`
/// equals enumeration, for every function.
#[test]
fn kernel_equals_enumeration_exhaustively_on_ten_bits() {
    let mut rng = DetRng::new(12);
    let mut tables: Vec<Vec<u32>> = Vec::new();
    let mut singles = Vec::new();
    for f in 0..9 {
        if f % 2 == 0 {
            let p = MinWisePerm::random(&mut rng);
            tables.push((0..1024).map(|x| p.permute(x)).collect());
            singles.push(RangeAwareBitPerm::compile(|x| p.permute(x)));
        } else {
            let p = ApproxMinWisePerm::random(&mut rng);
            tables.push((0..1024).map(|x| p.permute(x)).collect());
            singles.push(RangeAwareBitPerm::compile(|x| p.permute(x)));
        }
    }
    let kernel = RangeAwareBitPerm::concat(&singles);
    for lo in 0..1024u32 {
        let mut brute = vec![u32::MAX; tables.len()];
        for hi in lo..1024 {
            for (b, t) in brute.iter_mut().zip(&tables) {
                *b = (*b).min(t[hi as usize]);
            }
            let mut mins = vec![u32::MAX; tables.len()];
            kernel.min_interval_into(lo, hi, &mut mins);
            assert_eq!(mins, brute, "[{lo},{hi}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over the full `u32` space the kernel equals the old greedy descent:
    /// arbitrary end points, the whole domain, single points, intervals
    /// reaching either end of the domain and intervals straddling 2^31.
    #[test]
    fn kernel_equals_greedy_descent_on_the_full_domain(
        a in any::<u32>(),
        b in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let mut rng = DetRng::new(seed);
        let full = MinWisePerm::random(&mut rng);
        let approx = ApproxMinWisePerm::random(&mut rng);
        let mid = 1u32 << 31;
        let cases = [
            (a.min(b), a.max(b)),
            (0, u32::MAX),
            (a, a),
            (0, a),
            (a, u32::MAX),
            (mid - 1 - (a >> 12), mid + (b >> 12)),
            (mid - 1, mid),
        ];
        let kernels = [
            RangeAwareBitPerm::compile(|x| full.permute(x)),
            RangeAwareBitPerm::compile(|x| approx.permute(x)),
        ];
        for (lo, hi) in cases {
            prop_assert_eq!(
                kernel_min(&kernels[0], lo, hi),
                greedy_descent_oracle::min_interval(|x| full.permute(x), lo, hi),
                "min-wise [{}, {}]", lo, hi
            );
            prop_assert_eq!(
                kernel_min(&kernels[1], lo, hi),
                greedy_descent_oracle::min_interval(|x| approx.permute(x), lo, hi),
                "approx [{}, {}]", lo, hi
            );
        }
    }
}

/// The loop the fused group kernels replaced: each group's XOR of its
/// functions' min-hashes, one function at a time.
fn per_function(groups: &HashGroups, q: &RangeSet) -> Vec<u32> {
    groups
        .groups()
        .iter()
        .map(|fns| fns.iter().fold(0, |acc, f| acc ^ f.min_hash(q)))
        .collect()
}

/// `HashGroups::identifiers` for seed 2003, k = 20, l = 5, frozen at the
/// commit before the dominance-candidate kernel replaced the segment walk
/// and the greedy descent (PR 12): identifiers are what peers store
/// buckets under, so no evaluator change may move one.
#[test]
fn identifiers_match_the_table_frozen_before_the_kernel_change() {
    let mid = 1u32 << 31;
    let sets = [
        RangeSet::interval(0, 0),
        RangeSet::interval(777, 777),
        RangeSet::interval(30, 50),
        RangeSet::interval(250, 260),
        RangeSet::interval(0, 1_000),
        RangeSet::interval(100, 5_000),
        RangeSet::interval(20_000, 50_000),
        RangeSet::interval(12_345, 112_344),
        RangeSet::interval(0, u32::MAX),
        RangeSet::interval(mid - 70_000, mid + 30_000),
        RangeSet::interval(u32::MAX - 10, u32::MAX),
        RangeSet::from_intervals([(10, 40), (1_000, 3_000), (50_000, 50_005)]),
        RangeSet::from_intervals([(0, 16_383), (20_000, 90_000)]),
    ];
    #[rustfmt::skip]
    let frozen: [(LshFamilyKind, [[u32; 5]; 13]); 2] = [
        (LshFamilyKind::ApproxMinWise, [
            [0, 0, 0, 0, 0],
            [54132801, 4784341, 3735561, 25493584, 19005657],
            [786448, 524317, 131098, 65541, 8],
            [13369395, 3276844, 4063338, 4325428, 4653126],
            [0, 0, 0, 0, 0],
            [40, 0, 262191, 46, 12],
            [25167164, 1311138, 49283108, 20972448, 55575910],
            [735, 270, 22152174, 6291835, 4196145],
            [0, 0, 0, 0, 0],
            [1968209596, 2097970876, 2029288970, 23593732, 2140698270],
            [196620, 327685, 720907, 983041, 983048],
            [34, 131093, 9, 28, 327726],
            [0, 0, 0, 0, 0],
        ]),
        (LshFamilyKind::MinWise, [
            [0, 0, 0, 0, 0],
            [1710322087, 1158326638, 1046059776, 3996348979, 524242080],
            [291262111, 169958894, 2067890184, 40505953, 407811687],
            [1210593535, 186455870, 875788931, 560047026, 1216712228],
            [0, 0, 0, 0, 0],
            [65852, 65952, 21150, 766, 429],
            [781440, 282997116, 17018367, 540214123, 2234922],
            [526461, 33532, 783, 35277, 540922],
            [0, 0, 0, 0, 0],
            [864229497, 2033243342, 299600699, 1890757211, 529006756],
            [1729391308, 3571888316, 1898601352, 3738230826, 3279632774],
            [349196, 68883, 24088, 51407, 263335],
            [0, 0, 0, 0, 0],
        ]),
    ];
    for (kind, table) in frozen {
        let mut rng = DetRng::new(2003);
        let groups = HashGroups::generate(kind, 20, 5, &mut rng);
        for (q, expect) in sets.iter().zip(table) {
            assert_eq!(groups.identifiers(q), expect, "{kind} on {q}");
            assert_eq!(per_function(&groups, q), expect, "{kind} on {q}");
        }
    }
}

/// Fused, per-function and enumerated identifiers agree for all four
/// families on the fused kernel's own query list (`ars-lsh`'s
/// `fused::tests::queries`, which tier-1 does not run).
#[test]
fn fused_per_function_and_reference_agree_for_all_families() {
    let queries = [
        RangeSet::interval(0, 0),
        RangeSet::interval(30, 50),
        RangeSet::interval(250, 260),
        RangeSet::interval(0, 255),
        RangeSet::interval(256, 511),
        RangeSet::interval(100, 5_000),
        RangeSet::interval(0, 100_000),
        RangeSet::from_intervals([(10, 40), (1_000, 3_000), (50_000, 50_005)]),
        RangeSet::from_intervals([(0, 16_383), (20_000, 90_000)]),
        RangeSet::interval(u32::MAX - 10, u32::MAX),
    ];
    for kind in [
        LshFamilyKind::MinWise,
        LshFamilyKind::ApproxMinWise,
        LshFamilyKind::Linear,
        LshFamilyKind::LinearDomain,
    ] {
        let mut rng = DetRng::new(11);
        let groups = HashGroups::generate(kind, 4, 2, &mut rng);
        for q in &queries {
            let reference = groups.identifiers_reference(q);
            assert_eq!(groups.identifiers(q), reference, "fused {kind} on {q}");
            assert_eq!(
                per_function(&groups, q),
                reference,
                "per-function {kind} on {q}"
            );
        }
    }
}

// ---- Storage representation: inline ranges, the flat bucket scan, the
// §5.3 read as one scan over every bucket. ----

// A bucket of single intervals is 24 B per stored range, as the `Vec`
// header alone was before.
const _: () = assert!(std::mem::size_of::<RangeSet>() <= 24);

fn hash_of(r: &RangeSet) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

/// `set` is in canonical form: its interval list is sorted, disjoint and
/// non-adjacent, and the value is indistinguishable — `==`, hash, order,
/// `intervals()` — from the same set built from its interval list again
/// and, when it is one interval, from `RangeSet::interval`.
fn assert_canonical(set: &RangeSet, route: &str) {
    let ivs = set.intervals();
    for &(lo, hi) in ivs {
        assert!(lo <= hi, "{route}: inverted interval in {set}");
    }
    for w in ivs.windows(2) {
        assert!(
            w[0].1 as u64 + 1 < w[1].0 as u64,
            "{route}: {set} not sorted, disjoint and non-adjacent"
        );
    }
    let mut twins = vec![RangeSet::from_intervals(ivs.iter().rev().copied())];
    if let [(lo, hi)] = *ivs {
        twins.push(RangeSet::interval(lo, hi));
        twins.push((lo..=hi).into());
    }
    if ivs.is_empty() {
        twins.push(RangeSet::empty());
    }
    for twin in &twins {
        assert_eq!(set, twin, "{route}");
        assert_eq!(hash_of(set), hash_of(twin), "{route}: hash of {set}");
        assert_eq!(set.cmp(twin), std::cmp::Ordering::Equal, "{route}");
        assert_eq!(set.intervals(), twin.intervals(), "{route}");
    }
}

/// Arbitrary interval lists: unsorted, overlapping, adjacent, some at the
/// top of the domain.
fn interval_list_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..300, 0u32..30, any::<bool>()), 0..6).prop_map(|raw| {
        raw.into_iter()
            .map(|(lo, w, top)| {
                let lo = if top { u32::MAX - 400 + lo } else { lo };
                (lo, lo + w)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every construction route to the same set yields the same value,
    /// whichever of the two representations holds it.
    #[test]
    fn range_set_is_canonical_by_every_route(
        a_list in interval_list_strategy(),
        b_list in interval_list_strategy(),
        frac in 0.0f64..0.6,
    ) {
        let a = RangeSet::from_intervals(a_list.iter().copied());
        let b = RangeSet::from_intervals(b_list.iter().copied());
        assert_canonical(&a, "from_intervals");

        // The same set, three more ways.
        let by_union = a_list
            .iter()
            .fold(RangeSet::empty(), |acc, &(lo, hi)| acc.union(&RangeSet::interval(lo, hi)));
        let by_values = RangeSet::from_values(a_list.iter().flat_map(|&(lo, hi)| lo..=hi));
        let by_intersection = a.intersection(&RangeSet::interval(0, u32::MAX));
        for (route, other) in [
            ("union", &by_union),
            ("from_values", &by_values),
            ("intersection", &by_intersection),
        ] {
            assert_canonical(other, route);
            prop_assert_eq!(&a, other, "{}", route);
            prop_assert_eq!(hash_of(&a), hash_of(other), "{}", route);
        }

        // Every operation's result is canonical too.
        assert_canonical(&a.union(&b), "union");
        assert_canonical(&a.intersection(&b), "intersection");
        assert_canonical(&a.pad(frac), "pad");
        assert_canonical(&a.shrink(frac), "shrink");

        // Order is the lexicographic order of the interval lists, as when
        // the list was the whole representation.
        prop_assert_eq!(a.cmp(&b), a.intervals().to_vec().cmp(&b.intervals().to_vec()));
        prop_assert_eq!(a == b, a.intervals() == b.intervals());
    }
}

/// Ranges for the bucket-scan property: endpoints drawn from a few anchors
/// (so equal scores and exact hits are common) or from the whole domain,
/// one interval or several.
fn scan_range_strategy() -> impl Strategy<Value = RangeSet> {
    const ANCHORS: [u32; 8] = [0, 10, 20, 30, 40, 1 << 31, u32::MAX - 10, u32::MAX];
    let endpoint =
        (any::<bool>(), 0usize..8, any::<u32>())
            .prop_map(|(anchored, i, free)| if anchored { ANCHORS[i] } else { free });
    prop::collection::vec((endpoint.clone(), endpoint), 1..4).prop_map(|pairs| {
        RangeSet::from_intervals(pairs.into_iter().map(|(a, b)| (a.min(b), a.max(b))))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat by-reference scan returns the very candidate — not merely
    /// an equally good one — and the very score bits of the plain
    /// `score` loop with a strict `>`: earliest stored wins ties.
    #[test]
    fn bucket_best_match_equals_the_score_oracle(
        stored in prop::collection::vec(scan_range_strategy(), 0..12),
        query in scan_range_strategy(),
    ) {
        use ars::core::bucket::{best_of, score, Bucket};
        let mut bucket = Bucket::new();
        for r in stored {
            bucket.insert(r);
        }
        let ranges: Vec<RangeSet> = bucket.ranges().collect();
        for measure in [MatchMeasure::Jaccard, MatchMeasure::Containment] {
            let mut oracle: Option<(usize, f64)> = None;
            for (i, r) in ranges.iter().enumerate() {
                let s = score(&query, r, measure);
                if oracle.is_none_or(|(_, best)| s > best) {
                    oracle = Some((i, s));
                }
            }
            let got = bucket.best_match(&query, measure);
            prop_assert_eq!(&got, &best_of(ranges.iter(), &query, measure));
            match (got, oracle) {
                (None, None) => {}
                (Some(m), Some((i, s))) => {
                    // Buckets hold a range once, so equal range = same slot.
                    prop_assert_eq!(&m.range, &ranges[i], "{:?} winner for {}", measure, query);
                    prop_assert_eq!(m.score.to_bits(), s.to_bits(), "{:?} score for {}", measure, query);
                }
                (got, oracle) => prop_assert!(false, "{:?} vs {:?}", got, oracle),
            }
        }
    }
}

/// Sets for the bucket model: empty, one interval or two, with endpoints
/// from a handful of anchors — both ends of the domain among them — so the
/// same set recurs, scores tie and removals find what was inserted.
fn model_range_strategy() -> impl Strategy<Value = RangeSet> {
    const ANCHORS: [u32; 8] = [0, 1, 9, 10, 20, 30, u32::MAX - 1, u32::MAX];
    let end = 0usize..8;
    (0u8..3, end.clone(), end.clone(), end.clone(), end).prop_map(|(shape, a, b, c, d)| {
        let span = |x: usize, y: usize| (ANCHORS[x.min(y)], ANCHORS[x.max(y)]);
        match shape {
            0 => RangeSet::empty(),
            1 => RangeSet::from_intervals([span(a, b)]),
            _ => RangeSet::from_intervals([span(a, b), span(c, d)]),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Bucket` against the plain `Vec<RangeSet>` it replaced: the same
    /// answers to insert / contains, the same length and
    /// insertion order, and the same `best_match` — winner and score bits,
    /// strict `>` in slot order — after every operation, for a
    /// one-interval and a multi-interval query under both measures.
    #[test]
    fn bucket_matches_a_vec_of_rangesets(
        ops in prop::collection::vec((0u8..2, model_range_strategy()), 0..41),
        one in model_range_strategy(),
        many in model_range_strategy(),
    ) {
        use ars::core::bucket::{score, Bucket};
        let mut bucket = Bucket::new();
        let mut model: Vec<RangeSet> = Vec::new();
        let queries: Vec<RangeSet> = [one, many].into_iter().filter(|q| !q.is_empty()).collect();
        for (op, range) in ops {
            let held = model.contains(&range);
            match op {
                0 => {
                    prop_assert_eq!(bucket.insert(range.clone()), !held, "insert {}", range);
                    if !held {
                        model.push(range);
                    }
                }
                _ => prop_assert_eq!(bucket.contains(&range), held, "contains {}", range),
            }
            prop_assert_eq!(bucket.len(), model.len());
            prop_assert_eq!(bucket.is_empty(), model.is_empty());
            prop_assert_eq!(bucket.ranges().collect::<Vec<_>>(), model.clone());
            for q in &queries {
                for measure in [MatchMeasure::Jaccard, MatchMeasure::Containment] {
                    let mut oracle: Option<(&RangeSet, f64)> = None;
                    for r in &model {
                        let s = score(q, r, measure);
                        if oracle.is_none_or(|(_, best)| s > best) {
                            oracle = Some((r, s));
                        }
                    }
                    let got = bucket.best_match(q, measure);
                    let got = got.as_ref().map(|m| (&m.range, m.score.to_bits()));
                    prop_assert_eq!(got, oracle.map(|(r, s)| (r, s.to_bits())), "{:?} for {}", measure, q);
                }
            }
        }
    }
}

/// A peer built for the §5.3 setting stores and counts as one built
/// without it, and answers one bucket's lookup the same; the lookup across
/// all its buckets is the plain `best_of` loop over everything it holds,
/// bucket by bucket in identifier order and each in store order — range
/// and score.
#[test]
fn peer_without_the_local_index_keeps_none_and_answers_the_same() {
    use ars::core::bucket::best_of;
    use ars::core::Peer;
    let mut rng = DetRng::new(53);
    let mut plain = Peer::new(Id(7), false);
    let mut indexed = Peer::new(Id(7), true);
    assert!(plain
        .best_across_buckets(&RangeSet::interval(0, 1), MatchMeasure::Jaccard)
        .is_none());
    let mut stored = 0;
    for _ in 0..1000 {
        let ident = rng.gen_inclusive_u32(0, 15);
        let lo = rng.gen_inclusive_u32(0, 5_000);
        let range = RangeSet::interval(lo, lo + rng.gen_inclusive_u32(0, 400));
        let fresh = plain.store(ident, range.clone());
        assert_eq!(fresh, indexed.store(ident, range));
        stored += usize::from(fresh);
    }
    for p in [&plain, &indexed] {
        assert_eq!(p.partition_count(), stored);
        assert_eq!(p.entries().count(), stored);
    }
    for _ in 0..200 {
        let ident = rng.gen_inclusive_u32(0, 16);
        let lo = rng.gen_inclusive_u32(0, 5_000);
        let q = RangeSet::interval(lo, lo + rng.gen_inclusive_u32(0, 400));
        for measure in [MatchMeasure::Jaccard, MatchMeasure::Containment] {
            assert_eq!(
                plain.best_in_bucket(ident, &q, measure),
                indexed.best_in_bucket(ident, &q, measure)
            );
            for p in [&plain, &indexed] {
                let mut held: Vec<(u32, RangeSet)> = p.entries().collect();
                held.sort_by_key(|&(ident, _)| ident);
                assert_eq!(
                    p.best_across_buckets(&q, measure),
                    best_of(held.iter().map(|(_, range)| range), &q, measure)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes through `deframe::<ProtoMsg>` — as they arrive, and
    /// as overwrites and a cut applied to a valid frame, which is what gets
    /// past the tag and length checks into the nested decoders — answer
    /// `Ok` or `Err`, never a panic.
    #[test]
    fn hostile_wire_bytes_never_panic(
        raw in prop::collection::vec(any::<u8>(), 0..64),
        base in 0usize..3,
        cut in 0usize..120,
    ) {
        use ars::core::proto::{Payload, ProtoMsg};
        use ars::simnet::codec::{deframe, frame};
        let _ = deframe::<ProtoMsg>(&raw);
        let range = RangeSet::from_intervals([(30, 50), (60, 70)]);
        let valid = [
            ProtoMsg::Route {
                key: 7,
                ident: 8,
                hops: 2,
                payload: Payload::FindMatch { request: 42, origin: 3, range: range.clone() },
            },
            ProtoMsg::MatchReply { request: 42, identifier: 5, hops: 2, best: Some((range, 0.75)) },
            ProtoMsg::StoreAck { request: 9, stored: true },
        ];
        let mut bytes = frame(&valid[base]);
        for pair in raw.chunks_exact(2) {
            let at = pair[0] as usize % bytes.len();
            bytes[at] = pair[1];
        }
        bytes.truncate(cut.max(bytes.len() / 2));
        let _ = deframe::<ProtoMsg>(&bytes);
    }
}

/// Where an interval on the wire starts: half the time at one of the
/// domain's two ends, so `lo = 0` and `hi = u32::MAX` both occur.
fn wire_start_strategy() -> impl Strategy<Value = u32> {
    (any::<u32>(), 0u32..4).prop_map(|(v, edge)| match edge {
        0 => 0,
        1 => u32::MAX,
        _ => v,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `frame_len`, the message path's wire meter, counts exactly the bytes
    /// `frame` writes, and the frame decodes back to the message: for every
    /// message and payload variant, ranges of zero to several intervals
    /// reaching both ends of the domain, 0–20 arc-read candidates, and a
    /// store of one copy or of any count.
    #[test]
    fn counted_wire_bytes_equal_the_frame(
        starts in prop::collection::vec((wire_start_strategy(), 0u32..1000), 0..6),
        candidates in prop::collection::vec(any::<u32>(), 0..21),
        (request, origin, walk) in (any::<u64>(), any::<u32>(), any::<u32>()),
        (key, ident, hops) in (any::<u32>(), any::<u32>(), any::<u32>()),
        (score, stored) in (0.0f64..1.0, any::<bool>()),
    ) {
        use ars::core::proto::{ArcRead, Payload, ProtoMsg};
        use ars::simnet::codec::{deframe, frame, frame_len};
        let intervals = starts.iter().map(|&(lo, width)| (lo, lo.saturating_add(width)));
        let range = RangeSet::from_intervals(intervals);
        let route = |payload| ProtoMsg::Route { key, ident, hops, payload };
        let read = Box::new(ArcRead { range: range.clone(), candidates });
        let msgs = [
            route(Payload::FindMatch { request, origin, range: range.clone() }),
            route(Payload::Store { request, origin, range: range.clone(), copies: 1 }),
            route(Payload::Store { request, origin, range: range.clone(), copies: walk }),
            route(Payload::FindAcross { request, origin, walk, read }),
            ProtoMsg::MatchReply { request, identifier: ident, hops, best: None },
            ProtoMsg::MatchReply { request, identifier: ident, hops, best: Some((range, score)) },
            ProtoMsg::StoreAck { request, stored },
        ];
        for m in msgs {
            let bytes = frame(&m);
            prop_assert_eq!(frame_len(&m), bytes.len() as u64);
            let (decoded, rest) = deframe::<ProtoMsg>(&bytes).unwrap();
            prop_assert!(rest.is_empty());
            prop_assert_eq!(decoded, m);
        }
    }
}

// The sharded-origin batch call (`query_trace_sharded`, which
// `query_batch_concurrent_with` runs): the plain `query` loop with each
// query's origin drawn from one of `shards` RNG streams. Seeds honour
// `ARS_FAULT_SEED`.

/// A short trace of non-empty ranges with planted repeats, so the
/// identifier cache and bucket matching both get exercised.
fn sharded_trace_strategy() -> impl Strategy<Value = Vec<RangeSet>> {
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

fn sharded_net(seed: u64) -> RangeSelectNetwork {
    RangeSelectNetwork::new(24, SystemConfig::default().with_seed(seed))
}

/// The conserved ledgers every run must balance: one cache lookup per
/// query, one routed lookup per distinct identifier, stats consistent
/// with the outcomes they summarize.
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

/// Strip the only origin-dependent field.
fn without_hops(mut o: QueryOutcome) -> QueryOutcome {
    o.hops.clear();
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Against the plain loop: every origin-independent field matches at
    /// any shard count (owners are origin-independent on a static ring),
    /// and the stats differ at most in `total_hops`.
    #[test]
    fn sharded_origins_change_only_hops(qs in sharded_trace_strategy(), salt in 0u64..64) {
        let seed = env_seed("ARS_FAULT_SEED").wrapping_mul(0x9E37_79B9).wrapping_add(salt);
        let mut plain = sharded_net(seed);
        let out_plain: Vec<QueryOutcome> = qs.iter().map(|q| plain.query(q)).collect();
        for shards in [2usize, 7] {
            let mut sharded = sharded_net(seed);
            let out_sharded = sharded.query_trace_sharded(&qs, shards);
            assert_ledgers(&sharded, &out_sharded, "sharded");
            let a: Vec<QueryOutcome> = out_plain.iter().cloned().map(without_hops).collect();
            let b: Vec<QueryOutcome> = out_sharded.into_iter().map(without_hops).collect();
            prop_assert_eq!(a, b, "origin-independent fields diverged at {} shards", shards);
            let (ps, ss) = (plain.stats(), sharded.stats());
            prop_assert_eq!(ps.queries, ss.queries);
            prop_assert_eq!(ps.matched, ss.matched);
            prop_assert_eq!(ps.exact, ss.exact);
            prop_assert_eq!(ps.stored, ss.stored);
            prop_assert_eq!(ps.lookups, ss.lookups);
            prop_assert_eq!(plain.total_partitions(), sharded.total_partitions());
        }
    }

    /// The ledgers balance and the identifier cache admits exactly the
    /// ranges seen twice, on the sharded-origin loop and on the staged
    /// batch alike.
    #[test]
    fn admission_ledger_is_exact_on_sharded_traces(qs in sharded_trace_strategy(), salt in 0u64..64) {
        let seed = env_seed("ARS_FAULT_SEED").wrapping_add(salt);
        let mut sharded = sharded_net(seed);
        let outs = sharded.query_trace_sharded(&qs, 4);
        assert_ledgers(&sharded, &outs, "sharded");
        assert_admission_ledger(&sharded, &qs, "sharded");
        let mut batch = sharded_net(seed);
        let outs = batch.query_batch(&qs);
        assert_ledgers(&batch, &outs, "batch");
        assert_admission_ledger(&batch, &qs, "batch");
    }
}

/// The identifier cache's exact ledger after `qs` ran once on `net`
/// (unpadded, so each query is hashed as itself): a range seen `c` times
/// misses on its first two sightings, is admitted on its second and hits
/// on the other `c − 2`.
fn assert_admission_ledger(net: &RangeSelectNetwork, qs: &[RangeSet], label: &str) {
    let mut sightings: HashMap<&RangeSet, u64> = HashMap::new();
    for q in qs {
        *sightings.entry(q).or_default() += 1;
    }
    let hits: u64 = sightings.values().map(|&c| c.saturating_sub(2)).sum();
    let admitted = sightings.values().filter(|&&c| c >= 2).count();
    let cache = net.identifier_cache();
    assert_eq!(
        (cache.hits(), cache.len(), cache.hits() + cache.misses()),
        (hits, admitted, qs.len() as u64),
        "{label}: (hits, entries, lookups)"
    );
}

/// Second-sighting admission, counted exactly on the §5.1 uniform trace
/// (few repeats) and on a Zipf trace (many), at seeds 0–3.
#[test]
fn admission_ledger_is_exact_on_uniform_and_zipf_traces() {
    for seed in 0u64..4 {
        let uniform = uniform_trace(3_000, 0, 200, seed);
        let zipf = zipf_trace(3_000, 0, 40_000, 64, 1.1, 300, seed);
        for (name, trace) in [("uniform", uniform), ("zipf", zipf)] {
            let qs = trace.queries();
            let mut net = sharded_net(seed);
            for q in qs {
                net.query(q);
            }
            let label = format!("{name} seed {seed}");
            assert!(net.identifier_cache().hits() > 0, "{label}: no repeats");
            assert_admission_ledger(&net, qs, &label);
        }
    }
}

/// The identifier cache a sharded-origin run leaves is the plain loop's,
/// counter for counter, at every shard count: only the origin draw is
/// sharded.
#[test]
fn cache_accounting_is_loop_exact_at_every_shard_count() {
    let seed = env_seed("ARS_FAULT_SEED");
    let mut rng = DetRng::new(seed.wrapping_add(800));
    let ranges: Vec<RangeSet> = (0..40)
        .map(|_| {
            let lo = rng.gen_index(900) as u32;
            RangeSet::interval(lo, lo + 5 + rng.gen_index(60) as u32)
        })
        .collect();
    let qs: Vec<RangeSet> = (0..800)
        .map(|_| ranges[rng.gen_index(ranges.len())].clone())
        .collect();
    let mut plain = sharded_net(seed);
    for q in &qs {
        plain.query(q);
    }
    assert_admission_ledger(&plain, &qs, "plain loop");
    let c = plain.identifier_cache();
    let want = (c.hits(), c.misses(), c.len());
    for shards in [1usize, 2, 4, 7] {
        let mut sharded = sharded_net(seed);
        sharded.query_trace_sharded(&qs, shards);
        let c = sharded.identifier_cache();
        assert_eq!(
            (c.hits(), c.misses(), c.len()),
            want,
            "{shards} shards: (hits, misses, len)"
        );
    }
}
