//! Full min-wise independent permutations (the paper's §3.3).
//!
//! A permutation of the 32-bit space is built from 5 levels of the GRP
//! bit-shuffle: one balanced 32-bit key, then a 16-bit sub-key applied to
//! both halves, an 8-bit sub-key to each quarter, and so on down to 2-bit
//! blocks. The hash of a range set is the minimum of the permuted values.
//! The paper notes the whole key material is representable as two 32-bit
//! integers (32 bits + 16+8+4+2 = 30 bits).

use crate::grp::{grp_blocks, random_balanced_key, replicate_key};
use crate::range::RangeSet;
use crate::rangeaware::RangeAwareBitPerm;
use ars_common::DetRng;

/// Block widths of the 5 permutation levels for a 32-bit domain.
pub const LEVEL_BITS: [u32; 5] = [32, 16, 8, 4, 2];

/// A full min-wise independent permutation of the 32-bit space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinWisePerm {
    /// Raw (unreplicated) sub-key per level; `sub_keys[i]` has
    /// `LEVEL_BITS[i] / 2` bits set.
    sub_keys: [u32; 5],
    /// Sub-keys replicated across the 32-bit word, ready for [`grp_blocks`].
    replicated: [u32; 5],
}

impl MinWisePerm {
    /// Draw a random permutation: each level gets an independent balanced
    /// key.
    pub fn random(rng: &mut DetRng) -> MinWisePerm {
        let mut sub_keys = [0u32; 5];
        for (i, &bits) in LEVEL_BITS.iter().enumerate() {
            sub_keys[i] = random_balanced_key(rng, bits);
        }
        MinWisePerm::from_sub_keys(sub_keys)
    }

    /// Build from explicit per-level sub-keys.
    ///
    /// # Panics
    /// Panics if a sub-key is not balanced (exactly half its bits set) or
    /// does not fit its level width.
    pub(crate) fn from_sub_keys(sub_keys: [u32; 5]) -> MinWisePerm {
        let mut replicated = [0u32; 5];
        for (i, &bits) in LEVEL_BITS.iter().enumerate() {
            let k = sub_keys[i];
            assert!(
                bits == 32 || k < (1 << bits),
                "level {i} key {k:#x} exceeds {bits} bits"
            );
            assert_eq!(
                k.count_ones(),
                bits / 2,
                "level {i} key {k:#x} is not balanced for {bits} bits"
            );
            replicated[i] = replicate_key(k, bits);
        }
        MinWisePerm {
            sub_keys,
            replicated,
        }
    }

    /// Apply the full 5-level permutation to one value.
    #[inline]
    pub fn permute(&self, x: u32) -> u32 {
        let mut v = x;
        for (i, &bits) in LEVEL_BITS.iter().enumerate() {
            v = grp_blocks(v, self.replicated[i], bits);
        }
        v
    }

    /// Min-hash of a range set through a [`RangeAwareBitPerm`] built on the
    /// fly (32 permutations to compile, then `O(log w)` per interval of
    /// width `w`). Values are identical to
    /// [`MinWisePerm::min_hash_enumerate`]; only the cost differs.
    pub(crate) fn min_hash(&self, q: &RangeSet) -> u32 {
        RangeAwareBitPerm::compile(|x| self.permute(x)).min_hash(q)
    }

    /// Min-hash by enumerating every value of the set — the evaluation
    /// strategy whose cost the paper's Fig. 5 measures. Kept as the oracle
    /// the range-aware path is property-tested against.
    pub(crate) fn min_hash_enumerate(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "min-hash of an empty range set");
        q.iter().map(|v| self.permute(v)).min().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn perm(seed: u64) -> MinWisePerm {
        let mut rng = DetRng::new(seed);
        MinWisePerm::random(&mut rng)
    }

    #[test]
    fn permute_is_deterministic() {
        let p = perm(1);
        assert_eq!(p.permute(12345), p.permute(12345));
    }

    #[test]
    fn distinct_permutations_differ() {
        let p1 = perm(1);
        let p2 = perm(2);
        let diffs = (0u32..100)
            .filter(|&x| p1.permute(x) != p2.permute(x))
            .count();
        assert!(diffs > 90, "only {diffs} of 100 values differed");
    }

    #[test]
    fn permute_injective_on_sample() {
        let p = perm(3);
        let mut outs: Vec<u32> = (0u32..10_000).map(|x| p.permute(x)).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "not balanced")]
    fn unbalanced_key_rejected() {
        MinWisePerm::from_sub_keys([u32::MAX, 0xFF00, 0xF0, 0xC, 0x2]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_key_rejected() {
        // level 4 key must fit in 2 bits
        MinWisePerm::from_sub_keys([0xFFFF_0000, 0xFF00, 0xF0, 0xC, 0x7]);
    }

    #[test]
    fn min_hash_of_singleton_is_permuted_value() {
        let p = perm(4);
        let q = RangeSet::interval(77, 77);
        assert_eq!(p.min_hash(&q), p.permute(77));
    }

    #[test]
    fn min_hash_subset_bound() {
        // min over a superset is ≤ min over the subset.
        let p = perm(5);
        let small = RangeSet::interval(100, 150);
        let big = RangeSet::interval(50, 200);
        assert!(p.min_hash(&big) <= p.min_hash(&small));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn min_hash_empty_panics() {
        perm(6).min_hash(&RangeSet::empty());
    }

    /// Collision rate of `h(q) == h(r)` over independently drawn
    /// permutations.
    fn collision_rate(q: &RangeSet, r: &RangeSet, trials: usize, seed: u64) -> f64 {
        let mut rng = DetRng::new(seed);
        let hits = (0..trials)
            .filter(|_| {
                let p = MinWisePerm::random(&mut rng);
                p.min_hash(q) == p.min_hash(r)
            })
            .count();
        hits as f64 / trials as f64
    }

    #[test]
    fn zero_is_a_fixed_point() {
        // A bit-shuffle network permutes bit *positions*, so 0 → 0 and
        // popcount is preserved. This is an inherent bias of the paper's
        // Fig. 3 construction: it is only approximately min-wise
        // independent. We pin the behaviour so it is documented, not
        // accidental.
        let p = perm(11);
        assert_eq!(p.permute(0), 0);
        assert_eq!(p.permute(u32::MAX), u32::MAX);
    }

    #[test]
    fn collision_probability_is_locality_sensitive() {
        // The property the P2P system needs: more-similar ranges collide
        // (much) more often. Exact Jaccard tracking does NOT hold for this
        // construction (see `zero_is_a_fixed_point`), so we assert strict
        // monotone separation between high/medium/low similarity pairs.
        let q = RangeSet::interval(100, 199);
        let hi = RangeSet::interval(100, 189); // J = 0.9
        let mid = RangeSet::interval(150, 249); // J = 1/3
        let lo = RangeSet::interval(500, 599); // J = 0
        let trials = 1500;
        let c_hi = collision_rate(&q, &hi, trials, 42);
        let c_mid = collision_rate(&q, &mid, trials, 43);
        let c_lo = collision_rate(&q, &lo, trials, 44);
        assert!(
            c_hi > 0.6,
            "high-similarity pair should usually collide, got {c_hi:.3}"
        );
        assert!(
            c_hi > c_mid + 0.1,
            "expected clear gap: hi {c_hi:.3} vs mid {c_mid:.3}"
        );
        // The construction's popcount bias makes medium-similarity collisions
        // extremely rare (even rarer than Jaccard would predict) — which is
        // why the paper layers k·l amplification on top. Only require that
        // mid does not fall below disjoint.
        assert!(
            c_mid >= c_lo,
            "expected mid {c_mid:.3} >= disjoint {c_lo:.3}"
        );
        assert!(
            c_lo < 0.05,
            "disjoint ranges almost never collide, got {c_lo:.3}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn permute_injective(a in any::<u32>(), b in any::<u32>(), seed in any::<u64>()) {
            let p = perm(seed);
            prop_assert_eq!(a == b, p.permute(a) == p.permute(b));
        }

        #[test]
        fn permute_preserves_popcount(x in any::<u32>(), seed in any::<u64>()) {
            // The permutation only moves bits around.
            let p = perm(seed);
            prop_assert_eq!(p.permute(x).count_ones(), x.count_ones());
        }

        #[test]
        fn min_hash_monotone_under_union(seed in any::<u64>(), lo in 0u32..1000, w1 in 0u32..100, w2 in 0u32..100) {
            let p = perm(seed);
            let a = RangeSet::interval(lo, lo + w1);
            let b = RangeSet::interval(lo + w1, lo + w1 + w2);
            let u = a.union(&b);
            let m = p.min_hash(&u);
            prop_assert!(m == p.min_hash(&a) || m == p.min_hash(&b));
            prop_assert!(m <= p.min_hash(&a) && m <= p.min_hash(&b));
        }
    }
}
