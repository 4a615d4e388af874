//! Golden-figure regression suite: a seed-pinned reproduction of the
//! paper's collision-probability curve (Fig. 2's amplification step with
//! k = 20, l = 5 — the step sits at similarity ≈ 0.9, precisely
//! `step_location(20, 5) ≈ 0.903`) for all three LSH families.
//!
//! Construction: a width-100 interval against the same interval shifted
//! by `d` has Jaccard similarity exactly `(100-d)/(100+d)`, so each
//! x-axis point is exact, not sampled. For each trial we draw fresh
//! hash groups and count a collision when any of the `l` positional
//! group identifiers agree — the event `1 − (1 − J^k)^l` predicts.
//!
//! A kernel or grouping regression (wrong min-hash, broken XOR fold,
//! mis-seeded permutation draw) shifts these rates far outside the bands
//! and fails CI here instead of silently skewing the figures. The
//! seed honors `ARS_GOLDEN_SEED` (default 0); CI sweeps seeds 0–3.

use ars::common::env_seed;
use ars::lsh::group::step_location;
use ars::lsh::{match_probability, HashGroups, LshFamilyKind, RangeSet};
use ars::prelude::DetRng;

const K: usize = 20;
const L: usize = 5;
const UNIVERSE: u32 = 100;
const TRIALS: u64 = 200;

/// Offset where the paired intervals start. Never 0: the bit-shuffle
/// permutations fix 0 (`permute(0) == 0`), so any pair of ranges that
/// both contain 0 would share min-hash 0 and collide trivially.
const BASE: u32 = 100;

/// A width-100 interval and the same interval shifted right by `d`:
/// `[BASE, BASE+99]` vs `[BASE+d, BASE+d+99]`. Their Jaccard similarity
/// is exactly `(100-d)/(100+d)`.
///
/// Shifting (rather than nesting) matters: the bit-shuffle permutation
/// families preserve the bit-subset partial order in the sense that a
/// value whose bits are a superset of another in-set value can never be
/// the argmin, so truncating the *top* of an interval never changes the
/// min-hash and nested pairs collide trivially. A shift perturbs the
/// *bottom* of the interval, where the bit-minimal candidates live.
fn shifted_pair(d: u32) -> (RangeSet, RangeSet, f64) {
    let w = UNIVERSE;
    let exact_j = (w - d) as f64 / (w + d) as f64;
    (
        RangeSet::interval(BASE, BASE + w - 1),
        RangeSet::interval(BASE + d, BASE + d + w - 1),
        exact_j,
    )
}

/// Empirical collision probability at each shift point, sharing one
/// hash-group draw per trial across all points (the paper's experiment
/// holds the hash functions fixed while varying the query).
fn collision_rates(family: LshFamilyKind, shifts: &[u32], seed: u64) -> Vec<f64> {
    let pairs: Vec<(RangeSet, RangeSet)> = shifts
        .iter()
        .map(|&d| {
            let (a, b, _) = shifted_pair(d);
            (a, b)
        })
        .collect();
    let mut collisions = vec![0u64; shifts.len()];
    let mut rng = DetRng::new(seed ^ 0x601d_f16e);
    for _ in 0..TRIALS {
        let groups = HashGroups::generate(family, K, L, &mut rng);
        for (i, (a, b)) in pairs.iter().enumerate() {
            let ia = groups.identifiers(a);
            let ib = groups.identifiers(b);
            if ia.iter().zip(&ib).any(|(x, y)| x == y) {
                collisions[i] += 1;
            }
        }
    }
    collisions
        .into_iter()
        .map(|c| c as f64 / TRIALS as f64)
        .collect()
}

/// The shift grid for the golden curve: J ≈ 0.50, 0.70, 0.80, 0.85,
/// 0.905, 0.942, 0.98, 1.0. The amplification step for k = 20, l = 5
/// sits at J ≈ 0.903, between grid points 4 and 5.
const SHIFTS: [u32; 8] = [33, 18, 11, 8, 5, 3, 1, 0];

/// Pure-theory golden figures: the paper's `1 − (1 − J^k)^l` curve for
/// k = 20, l = 5 at the Fig. 2 operating points, and the step location.
/// Deterministic, so the tolerances are purely numerical.
#[test]
fn amplification_theory_matches_paper_figures() {
    let expect = [
        (0.80, 0.0563),
        (0.85, 0.1793),
        (0.90, 0.4770),
        (0.95, 0.8913),
        (1.00, 1.0),
    ];
    for (j, want) in expect {
        let got = match_probability(j, K, L);
        assert!(
            (got - want).abs() < 5e-4,
            "match_probability({j}, {K}, {L}) = {got:.4}, expected {want:.4}"
        );
    }
    let step = step_location(K, L);
    assert!(
        (step - 0.9028).abs() < 5e-4,
        "step_location({K}, {L}) = {step:.4}, expected 0.9028"
    );
    // The step is where the curve is steepest: well below 0.5 a little
    // to its left, well above 0.5 a little to its right.
    assert!(match_probability(step - 0.05, K, L) < 0.25);
    assert!(match_probability(step + 0.05, K, L) > 0.75);
}

/// Seed-pinned empirical reproduction of the collision-probability step
/// for every LSH family the paper proposes.
///
/// The empirical curves sit below the i.i.d. theory (the bit-shuffle
/// permutations are only approximately min-wise independent, and a
/// shifted interval is a worst case for them — see
/// `minwise::tests::zero_is_a_fixed_point`), but the *shape* the P2P
/// system relies on survives: dissimilar ranges essentially never
/// collide, near-identical ranges usually do, and the rise happens just
/// right of the theoretical step at J ≈ 0.903. Bands were calibrated
/// over seeds 0–3 at 200 trials (observed extremes: ≤ 0.08 for
/// J ≤ 0.852; ≥ 0.29 at J = 0.942; ≥ 0.44 at J = 0.98) and include
/// ≈ 2× margin for sampling noise at other seeds.
#[test]
fn collision_curve_reproduces_amplification_step() {
    let seed = env_seed("ARS_GOLDEN_SEED");
    for family in LshFamilyKind::PAPER_FAMILIES {
        let rates = collision_rates(family, &SHIFTS, seed);
        let label = format!("{family} (seed {seed})");
        // Low flank: J ≤ 0.852 (shifts 33, 18, 11, 8).
        for i in 0..4 {
            let (_, _, j) = shifted_pair(SHIFTS[i]);
            assert!(
                rates[i] <= 0.15,
                "{label}: rate {:.3} at J={j:.3} above low-flank band 0.15",
                rates[i]
            );
        }
        // High flank: J = 0.942, 0.98 (shifts 3, 1).
        assert!(
            rates[5] >= 0.20,
            "{label}: rate {:.3} at J=0.942 below high-flank band 0.20",
            rates[5]
        );
        assert!(
            rates[6] >= 0.35,
            "{label}: rate {:.3} at J=0.980 below high-flank band 0.35",
            rates[6]
        );
        // Identical ranges always collide.
        assert_eq!(
            rates[7], 1.0,
            "{label}: identical ranges must collide every trial"
        );
        // The step itself: a sharp rise between J = 0.852 and J = 0.942.
        assert!(
            rates[5] - rates[3] >= 0.15,
            "{label}: step too shallow ({:.3} -> {:.3})",
            rates[3],
            rates[5]
        );
        // Approximate monotonicity: sampling noise may wiggle, but no
        // point may fall more than 0.10 below its left neighbour.
        for w in rates.windows(2) {
            assert!(
                w[1] >= w[0] - 0.10,
                "{label}: curve not monotone within noise: {rates:?}"
            );
        }
    }
}

/// Print the measured curve for band calibration (run with
/// `--ignored --nocapture`).
#[test]
#[ignore]
fn diagnostic_print_curves() {
    let shifts = SHIFTS;
    for seed in 0..4u64 {
        for family in LshFamilyKind::PAPER_FAMILIES {
            let rates = collision_rates(family, &shifts, seed);
            print!("seed {seed} {family:>14}: ");
            for (&d, r) in shifts.iter().zip(&rates) {
                let (_, _, j) = shifted_pair(d);
                print!("J={j:.3}:{r:.3} ");
            }
            println!();
        }
    }
    print!("theory:          ");
    for d in shifts {
        let (_, _, j) = shifted_pair(d);
        print!("J={j:.3}:{:.3} ", match_probability(j, K, L));
    }
    println!();
    println!("step location = {:.4}", step_location(K, L));
}
