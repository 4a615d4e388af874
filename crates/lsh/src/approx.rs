//! Approximate min-wise independent permutations: only the *first*
//! iteration of the permutation network (the paper's §5.1).
//!
//! A single balanced 32-bit key drives one GRP step over the whole word.
//! The family is representable with a single 32-bit integer and is
//! correspondingly cheaper to evaluate than the full 5-level network, at
//! some cost in min-wise independence quality — exactly the trade-off the
//! paper's Figs. 5–8 evaluate.

use crate::grp::{grp_one, random_balanced_key};
use crate::range::RangeSet;
use crate::rangeaware::RangeAwareBitPerm;
use ars_common::DetRng;

/// An approximate min-wise permutation: one GRP step with a balanced
/// 32-bit key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxMinWisePerm {
    key: u32,
}

impl ApproxMinWisePerm {
    /// Draw a random balanced key.
    pub fn random(rng: &mut DetRng) -> ApproxMinWisePerm {
        ApproxMinWisePerm {
            key: random_balanced_key(rng, 32),
        }
    }

    /// Apply the one-step permutation.
    #[inline]
    pub fn permute(&self, x: u32) -> u32 {
        grp_one(x, self.key, 32)
    }

    /// Min-hash of a range set through a [`RangeAwareBitPerm`] built on the
    /// fly (32 permutations to compile, then `O(log w)` per interval of
    /// width `w`). Values are identical to
    /// [`ApproxMinWisePerm::min_hash_enumerate`]; only the cost differs.
    pub(crate) fn min_hash(&self, q: &RangeSet) -> u32 {
        RangeAwareBitPerm::compile(|x| self.permute(x)).min_hash(q)
    }

    /// Min-hash by enumerating every value of the set — the paper's Fig. 5
    /// evaluation, kept as the oracle for the range-aware path.
    pub(crate) fn min_hash_enumerate(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "min-hash of an empty range set");
        q.iter().map(|v| self.permute(v)).min().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minwise::MinWisePerm;
    use proptest::prelude::*;

    #[test]
    fn key_is_balanced() {
        let mut rng = DetRng::new(1);
        for _ in 0..50 {
            let p = ApproxMinWisePerm::random(&mut rng);
            assert_eq!(p.key.count_ones(), 16);
        }
    }

    #[test]
    fn matches_first_level_of_full_network() {
        // The approximate family is by definition level 0 of the full
        // network: the same 32-bit key must produce the same output as a
        // MinWisePerm whose deeper levels are identity-like comparisons.
        let mut rng = DetRng::new(7);
        let approx = ApproxMinWisePerm::random(&mut rng);
        // Compare against grp_one directly (definitional).
        for x in [0u32, 1, 0xFFFF_FFFF, 0x1234_5678, 999] {
            assert_eq!(approx.permute(x), grp_one(x, approx.key, 32));
        }
    }

    #[test]
    fn cheaper_but_same_interface_as_full() {
        let mut rng = DetRng::new(3);
        let full = MinWisePerm::random(&mut rng);
        let approx = ApproxMinWisePerm::random(&mut rng);
        let q = RangeSet::interval(10, 60);
        // Both produce a 32-bit identifier for the same input.
        let _ = full.min_hash(&q);
        let _ = approx.min_hash(&q);
    }

    #[test]
    fn collision_probability_is_locality_sensitive() {
        // Like the full network, a single GRP step permutes bit positions
        // (0 → 0, popcount preserved), so exact Jaccard tracking does not
        // hold; assert the monotone separation the system depends on.
        let rate = |r: &RangeSet, seed: u64| {
            let q = RangeSet::interval(100, 199);
            let mut rng = DetRng::new(seed);
            let trials = 2000;
            (0..trials)
                .filter(|_| {
                    let p = ApproxMinWisePerm::random(&mut rng);
                    p.min_hash(&q) == p.min_hash(r)
                })
                .count() as f64
                / trials as f64
        };
        let c_hi = rate(&RangeSet::interval(100, 189), 42); // J = 0.9
        let c_mid = rate(&RangeSet::interval(150, 249), 43); // J = 1/3
        let c_lo = rate(&RangeSet::interval(500, 599), 44); // J = 0
        assert!(c_hi > 0.5, "high-similarity collision rate {c_hi:.3}");
        assert!(c_hi > c_mid, "hi {c_hi:.3} vs mid {c_mid:.3}");
        // Popcount bias makes medium-similarity collisions vanishingly rare;
        // see the matching comment in minwise.rs.
        assert!(c_mid >= c_lo, "mid {c_mid:.3} vs disjoint {c_lo:.3}");
        assert!(c_lo < 0.05, "disjoint collision rate {c_lo:.3}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn permute_injective(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let p = ApproxMinWisePerm::random(&mut rng);
            prop_assert_eq!(a == b, p.permute(a) == p.permute(b));
        }

        #[test]
        fn min_hash_subset_dominates(seed in any::<u64>(), lo in 0u32..500, w in 1u32..200, extra in 1u32..200) {
            let mut rng = DetRng::new(seed);
            let p = ApproxMinWisePerm::random(&mut rng);
            let small = RangeSet::interval(lo, lo + w);
            let big = RangeSet::interval(lo, lo + w + extra);
            prop_assert!(p.min_hash(&big) <= p.min_hash(&small));
        }
    }
}
