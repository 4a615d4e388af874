//! Linear permutations `π(x) = a·x + b mod p` (the paper's §5.1, after
//! Broder et al.).
//!
//! The paper evaluates this family by enumerating every value of the range
//! set ([`LinearPerm::min_hash_enumerate`]); because an affine map is
//! monotone-with-wraparound over a contiguous interval, the minimum can
//! also be computed in `O(log p)` per interval without touching the values
//! ([`LinearPerm::min_hash`]) — an optimization we benchmark as an ablation
//! (DESIGN.md §6.2). Both must agree; a property test enforces it.

use crate::range::RangeSet;
use ars_common::DetRng;

/// The modulus: the largest prime below 2³², so identifiers stay in the
/// 32-bit identifier space. (2³² − 5 = 4294967291.)
pub const MODULUS: u64 = 4_294_967_291;

/// A small modulus just above the paper's §5.1 attribute domain
/// (`[0, 1000]`): permutations of the *domain* rather than of the 32-bit
/// space. Min-hashes then live in `[0, 1009)`, so group identifiers
/// (XORs of 20 of them) occupy only ~10 bits — dissimilar ranges collide
/// far more often, giving the "loose matching" behaviour the paper
/// describes for its linear permutations (poor Fig. 7 similarity but the
/// best Fig. 8 complete-answer rate).
pub const DOMAIN_MODULUS: u64 = 1009;

/// A linear (affine) permutation of `Z_p`, `p = MODULUS` (2³² − 5).
///
/// Values in `[p, 2³²)` (the top 5 values of the `u32` domain) alias values
/// in `[0, 5)`; the attribute domains used in the paper (e.g. ages,
/// dates-as-integers) are far below `p`, so this never matters in practice,
/// but callers mapping full 32-bit data through this family should be aware
/// the bijection holds on `[0, p)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearPerm {
    a: u64,
    b: u64,
    m: u64,
}

impl LinearPerm {
    /// Draw random coefficients over the 32-bit modulus:
    /// `a ∈ [1, p)`, `b ∈ [0, p)`.
    pub(crate) fn random(rng: &mut DetRng) -> LinearPerm {
        LinearPerm::random_with_modulus(rng, MODULUS)
    }

    /// Draw random coefficients over an arbitrary prime modulus (e.g.
    /// [`DOMAIN_MODULUS`] for permutations of the attribute domain).
    pub(crate) fn random_with_modulus(rng: &mut DetRng, m: u64) -> LinearPerm {
        assert!((2..=MODULUS).contains(&m), "modulus out of range");
        let a = 1 + rng.gen_range_u64(m - 1);
        let b = rng.gen_range_u64(m);
        LinearPerm { a, b, m }
    }

    /// Coefficients `(a, b)`.
    pub(crate) fn coefficients(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// The modulus `p`.
    pub(crate) fn modulus(&self) -> u64 {
        self.m
    }

    /// Apply the permutation to one value.
    #[inline]
    pub(crate) fn permute(&self, x: u32) -> u32 {
        ((self.a as u128 * x as u128 + self.b as u128) % self.m as u128) as u32
    }

    /// Min-hash by enumerating every value of the set — the evaluation the
    /// paper's Fig. 5 times. `O(|Q|)`.
    pub(crate) fn min_hash_enumerate(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "min-hash of an empty range set");
        q.iter().map(|v| self.permute(v)).min().unwrap()
    }

    /// Min-hash in closed form: `O(log p)` per interval of the set.
    pub(crate) fn min_hash(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "min-hash of an empty range set");
        q.intervals()
            .iter()
            .map(|&(lo, hi)| {
                // min over x in [lo, hi] of (a·x + b) mod p
                //   = min over i in [0, hi-lo] of (a·i + c) mod p,
                //     c = (a·lo + b) mod p.
                let c = ((self.a as u128 * lo as u128 + self.b as u128) % self.m as u128) as u64;
                min_affine_mod(self.a, c, self.m, (hi - lo) as u64) as u32
            })
            .min()
            .unwrap()
    }
}

/// Minimum of `(a·i + b) mod m` over `i ∈ [0, n]` (inclusive), in
/// `O(log m)` time.
///
/// Works by observing that between wraparounds the sequence is increasing,
/// so the minimum is the start of some "ramp"; ramp-start values themselves
/// form an affine-mod sequence with modulus `a`, giving a Euclid-style
/// recursion `(m, a) → (a, m mod a)`.
///
/// # Panics
/// Panics if `m == 0`.
pub(crate) fn min_affine_mod(a: u64, b: u64, m: u64, n: u64) -> u64 {
    assert!(m > 0, "modulus must be positive");
    let mut a = a % m;
    let mut b = b % m;
    let mut m = m;
    let mut n = n;
    let mut best = u64::MAX;
    loop {
        // The first ramp starts at i = 0 with value b.
        best = best.min(b);
        if n == 0 || a == 0 {
            return best;
        }
        // Number of wraparounds within i ∈ [0, n].
        let wraps = ((a as u128 * n as u128 + b as u128) / m as u128) as u64;
        if wraps == 0 {
            return best;
        }
        // Ramp j (j = 1..=wraps) starts at value v_j = (b − j·m) mod a,
        // i.e. an affine sequence in j with step c = (−m) mod a and first
        // element v_1 = (b mod a + c) mod a. Recurse over j − 1 ∈ [0, wraps−1].
        let c = (a - m % a) % a;
        let v1 = (b % a + c) % a;
        n = wraps - 1;
        b = v1;
        m = a;
        a = c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn modulus_is_prime() {
        // Trial division up to sqrt(2^32-5) ≈ 65536.
        let m = MODULUS;
        assert!(!m.is_multiple_of(2));
        let mut d = 3u64;
        while d * d <= m {
            assert!(!m.is_multiple_of(d), "MODULUS divisible by {d}");
            d += 2;
        }
    }

    #[test]
    fn permute_is_bijection_on_small_sample() {
        let mut rng = DetRng::new(1);
        let p = LinearPerm::random(&mut rng);
        let mut outs: Vec<u32> = (0u32..10_000).map(|x| p.permute(x)).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn identity_permutation() {
        let p = LinearPerm {
            a: 1,
            b: 0,
            m: MODULUS,
        };
        for x in [0u32, 1, 1000, 4_000_000_000] {
            assert_eq!(p.permute(x), x);
        }
        let q = RangeSet::interval(30, 50);
        assert_eq!(p.min_hash(&q), 30);
        assert_eq!(p.min_hash_enumerate(&q), 30);
    }

    #[test]
    fn min_affine_mod_worked_examples() {
        // a=3, b=1, m=10, i in 0..=4 → 1,4,7,0,3 → 0
        assert_eq!(min_affine_mod(3, 1, 10, 4), 0);
        // a=5, b=3, m=7, i in 0..=5 → 3,1,6,4,2,0 → 0
        assert_eq!(min_affine_mod(5, 3, 7, 5), 0);
        // a=2, b=0, m=7, i in 0..=3 → 0,2,4,6 → 0 (no wrap)
        assert_eq!(min_affine_mod(2, 0, 7, 3), 0);
        // a=4, b=5, m=9, i in 0..=2 → 5, 0, 4 → 0
        assert_eq!(min_affine_mod(4, 5, 9, 2), 0);
        // single point
        assert_eq!(min_affine_mod(123, 456, 1000, 0), 456);
    }

    #[test]
    fn min_affine_mod_matches_brute_force_grid() {
        for m in [2u64, 3, 7, 10, 16, 97] {
            for a in 0..m.min(20) {
                for b in 0..m.min(20) {
                    for n in 0..30u64 {
                        let brute = (0..=n).map(|i| (a * i + b) % m).min().unwrap();
                        assert_eq!(min_affine_mod(a, b, m, n), brute, "a={a} b={b} m={m} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_enumeration() {
        let mut rng = DetRng::new(5);
        for _ in 0..50 {
            let p = LinearPerm::random(&mut rng);
            let lo = rng.gen_inclusive_u32(0, 5000);
            let hi = lo + rng.gen_inclusive_u32(0, 2000);
            let q = RangeSet::interval(lo, hi);
            assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
        }
    }

    #[test]
    fn closed_form_matches_enumeration_multi_interval() {
        let mut rng = DetRng::new(6);
        for _ in 0..30 {
            let p = LinearPerm::random(&mut rng);
            let q = RangeSet::from_intervals([(10, 50), (100, 130), (1000, 1001)]);
            assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
            let _ = rng.next_u64();
        }
    }

    #[test]
    fn closed_form_handles_huge_ranges() {
        // Enumeration would take ~2³² steps; the closed form is instant.
        let mut rng = DetRng::new(7);
        let p = LinearPerm::random(&mut rng);
        let q = RangeSet::interval(0, MODULUS as u32 - 1);
        // A permutation of [0, p) over the whole domain attains 0.
        assert_eq!(p.min_hash(&q), 0);
    }

    #[test]
    fn domain_modulus_permutes_small_domain() {
        let mut rng = DetRng::new(12);
        let p = LinearPerm::random_with_modulus(&mut rng, DOMAIN_MODULUS);
        assert_eq!(p.modulus(), DOMAIN_MODULUS);
        // Bijection on [0, 1009).
        let mut outs: Vec<u32> = (0..DOMAIN_MODULUS as u32).map(|x| p.permute(x)).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), DOMAIN_MODULUS as usize);
        assert!(outs.iter().all(|&v| v < DOMAIN_MODULUS as u32));
        // Closed form matches enumeration on the small modulus too.
        for (lo, hi) in [(0u32, 50u32), (30, 50), (900, 1000)] {
            let q = RangeSet::interval(lo, hi);
            assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
        }
    }

    #[test]
    fn collision_probability_tracks_jaccard() {
        let q = RangeSet::interval(0, 99);
        let r = RangeSet::interval(50, 149); // J = 1/3
        let mut rng = DetRng::new(42);
        let trials = 4000;
        let hits = (0..trials)
            .filter(|_| {
                let p = LinearPerm::random(&mut rng);
                p.min_hash(&q) == p.min_hash(&r)
            })
            .count();
        let est = hits as f64 / trials as f64;
        // Linear permutations are known to be only approximately min-wise;
        // pairwise independence gives expectation close to Jaccard for
        // interval sets.
        assert!(
            (est - 1.0 / 3.0).abs() < 0.1,
            "estimated {est:.3} too far from 1/3"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn min_affine_mod_matches_brute_force(
            a in 0u64..10_000,
            b in 0u64..10_000,
            m in 1u64..10_000,
            n in 0u64..2_000,
        ) {
            let brute = (0..=n).map(|i| (a % m * i % m + b % m) % m).min().unwrap();
            prop_assert_eq!(min_affine_mod(a, b, m, n), brute);
        }

        #[test]
        fn closed_form_equals_enumeration(
            seed in any::<u64>(),
            lo in 0u32..100_000,
            w in 0u32..3_000,
        ) {
            let mut rng = DetRng::new(seed);
            let p = LinearPerm::random(&mut rng);
            let q = RangeSet::interval(lo, lo + w);
            prop_assert_eq!(p.min_hash(&q), p.min_hash_enumerate(&q));
        }

        #[test]
        fn permute_injective(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let p = LinearPerm::random(&mut rng);
            // Bijection holds on [0, MODULUS); clamp test inputs there.
            let a = a % MODULUS as u32;
            let b = b % MODULUS as u32;
            prop_assert_eq!(a == b, p.permute(a) == p.permute(b));
        }
    }
}
