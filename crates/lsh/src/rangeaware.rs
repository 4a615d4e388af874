//! Range-aware min-hash evaluation for bit-position permutations: the one
//! interval kernel of this crate (DESIGN.md §6a, §6b).
//!
//! Every GRP network (one level or five) maps each input bit position to a
//! fixed output bit position, so `π(x)` is the OR of the images of `x`'s
//! set bits and `π` is monotone under bitwise inclusion:
//! `x ⊇ c ⇒ π(x) ≥ π(c)`. That makes the interval minimum
//! `min { π(x) : x ∈ [lo, hi] }` a minimum over a handful of *dominance
//! candidates* instead of over the interval:
//!
//! 1. Take `x ∈ (lo, hi]` and let `i` be the highest bit where `x` and `lo`
//!    differ. `x > lo`, so `x` has a 1 there and `lo` a 0, and `x` agrees
//!    with `lo` above `i`: `x ⊇ c_i = (lo with its low i bits cleared) | 2^i`.
//! 2. `lo < c_i ≤ x ≤ hi`, so `c_i` is itself in the interval and
//!    `π(x) ≥ π(c_i)`: the minimum is attained at `lo` or at some `c_i`.
//! 3. `i` is at most `t`, the highest bit where `lo` and `hi` differ (above
//!    `t` a 1 over `lo`'s 0 would exceed `hi`), and every 0-bit `i ≤ t` of
//!    `lo` gives a `c_i ≤ hi` (`c_t` is `hi`'s prefix with zeros below; a
//!    lower `c_i` still has `lo`'s 0 at `t` under `hi`'s 1).
//!
//! So `min π[lo, hi] = min(π(lo), min { π(c_i) : i ≤ t, lo bit i = 0 })`:
//! at most `⌊log₂(lo ⊕ hi)⌋ + 2` values, and *which* `i` qualify depends
//! only on `(lo, hi)`, never on the function. The kernel therefore walks
//! the bits `t → 0` once for a whole group of functions, keeping the
//! running image of `lo`'s prefix per function: a 1-bit of `lo` ORs the
//! bit's image in, a 0-bit offers `prefix | image` as a candidate. The
//! bit images are stored function-minor (`LANES` functions per row) and
//! the choice between the two updates is a mask, not a branch, so each bit
//! is one fixed-width lane loop the compiler vectorises. Exact for every
//! width — no enumeration threshold, no approximation.

use crate::range::RangeSet;

/// Functions per block row. One row is `LANES` consecutive `u32`s, so the
/// per-bit updates of the kernel are fixed-width loops.
const LANES: usize = 4;

/// `block[i][lane]` = image of input bit `i` under the block's function
/// `lane` (0 in unused lanes of the last block).
type Block = [[u32; LANES]; 32];

/// One or more bit-position permutations of 32-bit values compiled side by
/// side for range-aware min-hash evaluation: 128 bytes per function, and
/// every interval min-hash is `O(log(lo ⊕ hi))` row operations per block
/// of `LANES` functions, independent of interval width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeAwareBitPerm {
    /// Number of functions.
    k: usize,
    /// `⌈k / LANES⌉` blocks; function `f` is lane `f % LANES` of block
    /// `f / LANES`.
    blocks: Vec<Block>,
}

impl RangeAwareBitPerm {
    /// Compile a single function from a closure that must be a
    /// bit-position permutation: `f(x ^ y) == f(x) ^ f(y)` and unit bits
    /// map to unit bits (true for any GRP network); this is checked.
    ///
    /// # Panics
    /// Panics if `f` is not a bit-position permutation.
    pub fn compile(f: impl Fn(u32) -> u32) -> RangeAwareBitPerm {
        let mut bit_image = [0u32; 32];
        let mut seen: u32 = 0;
        for (i, image) in bit_image.iter_mut().enumerate() {
            let y = f(1u32 << i);
            assert_eq!(y.count_ones(), 1, "f does not permute bit positions");
            assert_eq!(seen & y, 0, "f maps two bits to the same position");
            seen |= y;
            *image = y;
        }
        let mut out = RangeAwareBitPerm {
            k: 0,
            blocks: Vec::new(),
        };
        out.push(|i| bit_image[i]);
        out
    }

    /// All functions of `parts`, in order, laid side by side — how a hash
    /// group fuses its `k` separately compiled functions.
    pub fn concat<'a>(parts: impl IntoIterator<Item = &'a RangeAwareBitPerm>) -> RangeAwareBitPerm {
        let mut out = RangeAwareBitPerm {
            k: 0,
            blocks: Vec::new(),
        };
        for part in parts {
            for f in 0..part.k {
                out.push(|i| part.blocks[f / LANES][i][f % LANES]);
            }
        }
        out
    }

    /// Append one function given the image of each input bit.
    fn push(&mut self, image: impl Fn(usize) -> u32) {
        let lane = self.k % LANES;
        if lane == 0 {
            self.blocks.push([[0; LANES]; 32]);
        }
        let block = self.blocks.last_mut().expect("a block was just ensured");
        for (i, row) in block.iter_mut().enumerate() {
            row[lane] = image(i);
        }
        self.k += 1;
    }

    /// Number of functions compiled side by side.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Advance `mins[f] = min(mins[f], min { π_f(x) : x ∈ [lo, hi] })` for
    /// every function `f` — exact, by the dominance-candidate argument of
    /// the module docs.
    ///
    /// # Panics
    /// Panics if `mins.len() != k`.
    pub fn min_interval_into(&self, lo: u32, hi: u32, mins: &mut [u32]) {
        debug_assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        assert_eq!(mins.len(), self.k, "one minimum per function");
        // Bits `0..top` are those at or below the highest bit where `lo`
        // and `hi` differ; `lo`'s bits from `top` up are shared by every
        // value of the interval.
        let top = 32 - (lo ^ hi).leading_zeros();
        let shared = ((lo as u64 >> top) << top) as u32;
        for (block, mins) in self.blocks.iter().zip(mins.chunks_mut(LANES)) {
            // Image of `lo`'s bits at and above the current position.
            let mut prefix = [0u32; LANES];
            let mut bits = shared;
            while bits != 0 {
                let row = &block[bits.trailing_zeros() as usize];
                for (p, r) in prefix.iter_mut().zip(row) {
                    *p |= r;
                }
                bits &= bits - 1;
            }
            let mut best = [u32::MAX; LANES];
            for i in (0..top as usize).rev() {
                let row = &block[i];
                // All ones where lo has bit i: the row joins the prefix and
                // the candidate is masked out; all zeros: the reverse.
                let set = 0u32.wrapping_sub((lo >> i) & 1);
                for ((b, p), r) in best.iter_mut().zip(prefix.iter_mut()).zip(row) {
                    *b = (*b).min(*p | r | set);
                    *p |= r & set;
                }
            }
            // `prefix` is now π(lo), the last candidate.
            for ((m, b), p) in mins.iter_mut().zip(&best).zip(&prefix) {
                *m = (*m).min(*b).min(*p);
            }
        }
    }

    /// Advance `mins[f]` by function `f`'s min-hash of `q`: the minimum
    /// over `q`'s intervals.
    ///
    /// # Panics
    /// Panics if `mins.len() != k`.
    pub fn min_hash_into(&self, q: &RangeSet, mins: &mut [u32]) {
        for &(lo, hi) in q.intervals() {
            self.min_interval_into(lo, hi, mins);
        }
    }

    /// Min-hash of a range set under a single compiled function.
    ///
    /// # Panics
    /// Panics if `q` is empty or this is not exactly one function.
    pub fn min_hash(&self, q: &RangeSet) -> u32 {
        assert!(!q.is_empty(), "min-hash of an empty range set");
        let mut min = [u32::MAX];
        self.min_hash_into(q, &mut min);
        min[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxMinWisePerm;
    use crate::minwise::MinWisePerm;
    use ars_common::DetRng;
    use proptest::prelude::*;

    fn full(seed: u64) -> (MinWisePerm, RangeAwareBitPerm) {
        let mut rng = DetRng::new(seed);
        let p = MinWisePerm::random(&mut rng);
        let k = RangeAwareBitPerm::compile(|x| p.permute(x));
        (p, k)
    }

    fn min_interval(k: &RangeAwareBitPerm, lo: u32, hi: u32) -> u32 {
        k.min_hash(&RangeSet::interval(lo, hi))
    }

    #[test]
    fn min_interval_matches_enumeration_small() {
        let (p, k) = full(1);
        for (lo, hi) in [(0u32, 0u32), (0, 255), (100, 612), (4090, 4100)] {
            let brute = (lo..=hi).map(|v| p.permute(v)).min().unwrap();
            assert_eq!(min_interval(&k, lo, hi), brute, "[{lo},{hi}]");
        }
    }

    #[test]
    fn min_interval_wide_intervals() {
        // Widths far beyond anything enumerable: the min over any interval
        // containing 0 is π(0) = 0, and over [2^31, MAX] it is π(2^31),
        // the only candidate every value contains.
        let (p, k) = full(2);
        assert_eq!(min_interval(&k, 0, u32::MAX), 0);
        assert_eq!(min_interval(&k, 0, 1 << 20), 0);
        assert_eq!(min_interval(&k, 1 << 31, u32::MAX), p.permute(1 << 31));
        // Single-point interval is just the permuted value.
        assert_eq!(min_interval(&k, 777, 777), p.permute(777));
        assert_eq!(min_interval(&k, u32::MAX, u32::MAX), u32::MAX);
    }

    #[test]
    fn approx_family_kernel_agrees() {
        let mut rng = DetRng::new(3);
        for _ in 0..10 {
            let a = ApproxMinWisePerm::random(&mut rng);
            let k = RangeAwareBitPerm::compile(|x| a.permute(x));
            for (lo, hi) in [(0u32, 1000u32), (30, 50), (65_000, 70_000)] {
                let brute = (lo..=hi).map(|v| a.permute(v)).min().unwrap();
                assert_eq!(min_interval(&k, lo, hi), brute);
            }
        }
    }

    #[test]
    fn multi_interval_range_sets() {
        let (p, k) = full(4);
        let q = RangeSet::from_intervals([(10u32, 40u32), (1000, 3000), (50_000, 50_005)]);
        let brute = q.iter().map(|v| p.permute(v)).min().unwrap();
        assert_eq!(k.min_hash(&q), brute);
    }

    #[test]
    fn concat_evaluates_every_function_in_order() {
        // More functions than one block holds, so lanes and blocks both
        // take part; each coordinate must equal its function alone.
        let singles: Vec<RangeAwareBitPerm> = (0..LANES as u64 + 3).map(|s| full(s).1).collect();
        let all = RangeAwareBitPerm::concat(&singles);
        assert_eq!(all.k(), singles.len());
        for (lo, hi) in [(5u32, 5u32), (100, 90_000), (u32::MAX - 9, u32::MAX)] {
            let mut mins = vec![u32::MAX; all.k()];
            all.min_interval_into(lo, hi, &mut mins);
            for (m, single) in mins.iter().zip(&singles) {
                assert_eq!(*m, min_interval(single, lo, hi), "[{lo},{hi}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_set_panics() {
        full(5).1.min_hash(&RangeSet::empty());
    }

    #[test]
    #[should_panic(expected = "permute bit positions")]
    fn non_bit_permutation_rejected() {
        RangeAwareBitPerm::compile(|x| x.wrapping_add(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn kernel_equals_enumeration(
            seed in any::<u64>(),
            lo in 0u32..100_000,
            w in 0u32..5_000,
        ) {
            let (p, k) = full(seed);
            let hi = lo + w;
            let brute = (lo..=hi).map(|v| p.permute(v)).min().unwrap();
            prop_assert_eq!(min_interval(&k, lo, hi), brute);
        }

        #[test]
        fn kernel_equals_enumeration_at_the_top_of_the_domain(
            seed in any::<u64>(),
            below in 0u32..100_000,
            w in 0u32..5_000,
        ) {
            let (p, k) = full(seed);
            let hi = u32::MAX - below;
            let lo = hi - w;
            let brute = (lo..=hi).map(|v| p.permute(v)).min().unwrap();
            prop_assert_eq!(min_interval(&k, lo, hi), brute);
        }
    }
}
