//! The bit-shuffle ("sheep-and-goats") permutation step of the paper's
//! min-wise permutation network (Fig. 3).
//!
//! One step takes a `b`-bit block and a `b`-bit key with exactly `b/2` bits
//! set. Bits of the block at positions where the key is 1 move — order
//! preserved — to the upper half of the block; the remaining bits move to
//! the lower half. This is the classic GRP (group) operation; with a
//! balanced key it is a bijection on `b`-bit values, and composing
//! `log₂(b)` levels of it (block sizes `b, b/2, …, 2`, the same sub-key
//! replicated across all blocks of a level) yields the paper's
//! approximately min-wise independent permutation family.

use ars_common::DetRng;

/// Apply one GRP step to a single `b`-bit block (`b ≤ 32`).
///
/// Bits where `key` is 1 gather into the upper part of the block in their
/// original order; bits where `key` is 0 gather into the lower part.
/// `x` and `key` must fit in `b` bits.
#[inline]
pub fn grp_one(x: u32, key: u32, b: u32) -> u32 {
    debug_assert!((1..=32).contains(&b));
    debug_assert!(b == 32 || x < (1 << b));
    debug_assert!(b == 32 || key < (1 << b));
    let mut hi: u32 = 0;
    let mut lo: u32 = 0;
    let mut n_lo: u32 = 0;
    // Scan from the most significant bit down so order is preserved.
    for i in (0..b).rev() {
        let bit = (x >> i) & 1;
        if (key >> i) & 1 == 1 {
            hi = (hi << 1) | bit;
        } else {
            lo = (lo << 1) | bit;
            n_lo += 1;
        }
    }
    if n_lo == 32 {
        // key == 0 (degenerate, only possible for unbalanced keys): identity.
        lo
    } else {
        (hi << n_lo) | lo
    }
}

/// Inverse of [`grp_one`]: scatter the gathered bits back to their original
/// positions. Used to verify bijectivity.
#[inline]
pub fn ungrp_one(y: u32, key: u32, b: u32) -> u32 {
    debug_assert!((1..=32).contains(&b));
    let ones = key.count_ones().min(b);
    let n_lo = b - ones;
    let mut x: u32 = 0;
    // Position just above the top of the low group, counting down as we
    // consume "hi" bits; low bits are consumed upward from bit 0.
    let mut hi_next = b; // next hi source bit is y >> (hi_next-1) after decrement
    let mut lo_next = n_lo; // next lo source bit is y >> (lo_next-1) after decrement
    for i in (0..b).rev() {
        let bit = if (key >> i) & 1 == 1 {
            hi_next -= 1;
            (y >> hi_next) & 1
        } else {
            lo_next -= 1;
            (y >> lo_next) & 1
        };
        x |= bit << i;
    }
    x
}

/// Apply the same `block_bits`-wide GRP sub-key to every block of a 32-bit
/// word. `key` must already be replicated across blocks (see
/// [`replicate_key`]).
#[inline]
pub fn grp_blocks(x: u32, key: u32, block_bits: u32) -> u32 {
    debug_assert!(block_bits.is_power_of_two() && (2..=32).contains(&block_bits));
    if block_bits == 32 {
        return grp_one(x, key, 32);
    }
    let mask: u32 = (1u32 << block_bits) - 1;
    let mut out: u32 = 0;
    let mut shift = 0;
    while shift < 32 {
        let xb = (x >> shift) & mask;
        let kb = (key >> shift) & mask;
        out |= grp_one(xb, kb, block_bits) << shift;
        shift += block_bits;
    }
    out
}

/// Replicate a `block_bits`-wide sub-key across a 32-bit word.
#[inline]
pub fn replicate_key(sub_key: u32, block_bits: u32) -> u32 {
    debug_assert!(block_bits.is_power_of_two() && (2..=32).contains(&block_bits));
    if block_bits == 32 {
        return sub_key;
    }
    debug_assert!(sub_key < (1 << block_bits));
    let mut out = 0u32;
    let mut shift = 0;
    while shift < 32 {
        out |= sub_key << shift;
        shift += block_bits;
    }
    out
}

/// Draw a balanced `b`-bit key: exactly `b/2` bits set, uniformly at random.
pub fn random_balanced_key(rng: &mut DetRng, b: u32) -> u32 {
    debug_assert!((2..=32).contains(&b) && b.is_multiple_of(2));
    let positions = rng.sample_indices(b as usize, (b / 2) as usize);
    positions.into_iter().fold(0u32, |k, p| k | (1 << p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_figure_3a_example() {
        // The structure of Fig. 3(a): an 8-bit key with 4 ones gathers the
        // selected bits high. key = 0b0110_1010 selects bits 6,5,3,1 (MSB
        // numbering as drawn); with x = 0b1010_0010:
        //   selected (key=1) bits of x, MSB→LSB order: bits 6,5,3,1 = 0,1,0,1
        //   unselected bits 7,4,2,0 = 1,0,0,0
        // result = 0101_1000
        let x = 0b1010_0010;
        let key = 0b0110_1010;
        assert_eq!(grp_one(x, key, 8), 0b0101_1000);
    }

    #[test]
    fn grp_identity_cases() {
        // Key selecting the top half leaves a value whose set bits are
        // already partitioned untouched.
        let key = 0b1111_0000u32;
        assert_eq!(grp_one(0b1011_0101, key, 8), 0b1011_0101);
        // Zero key: everything goes to "low" in order — identity.
        assert_eq!(grp_one(0xAB, 0, 8), 0xAB);
        // All-ones key: everything goes to "high" in order — identity.
        assert_eq!(grp_one(0xAB, 0xFF, 8), 0xAB);
    }

    #[test]
    fn grp_is_bijection_on_8_bits() {
        let mut rng = DetRng::new(1);
        for _ in 0..20 {
            let key = random_balanced_key(&mut rng, 8);
            let mut seen = [false; 256];
            for x in 0u32..256 {
                let y = grp_one(x, key, 8) as usize;
                assert!(!seen[y], "collision at key {key:#010b}");
                seen[y] = true;
            }
        }
    }

    #[test]
    fn ungrp_inverts_grp_exhaustive_8bit() {
        let mut rng = DetRng::new(2);
        for _ in 0..10 {
            let key = random_balanced_key(&mut rng, 8);
            for x in 0u32..256 {
                let y = grp_one(x, key, 8);
                assert_eq!(ungrp_one(y, key, 8), x);
            }
        }
    }

    #[test]
    fn grp_blocks_applies_per_block() {
        // Two independent 4-bit blocks with the same sub-key.
        let sub = 0b1010u32; // gathers bits 3,1 high
        let key = replicate_key(sub, 4);
        assert_eq!(key & 0xFF, 0b1010_1010);
        let x = 0x0000_00F0u32; // block1 = 0xF, block0 = 0x0
        let y = grp_blocks(x, key, 4);
        // 0xF stays 0xF under any permutation of its bits, 0x0 stays 0x0.
        assert_eq!(y, x);
        // A mixed block: x = 0b0110 with key 0b1010 → hi bits (3,1)=(0,1),
        // lo bits (2,0)=(1,0) → 01_10 = 0b0110.
        assert_eq!(grp_blocks(0b0110, key, 4), 0b0110);
        // x = 0b0010 → hi=(0,1) lo=(0,0) → 0b0100
        assert_eq!(grp_blocks(0b0010, key, 4), 0b0100);
    }

    #[test]
    fn replicate_key_patterns() {
        assert_eq!(replicate_key(0b10, 2), 0xAAAA_AAAA);
        assert_eq!(replicate_key(0b1100, 4), 0xCCCC_CCCC);
        assert_eq!(replicate_key(0x0F, 8), 0x0F0F_0F0F);
        assert_eq!(replicate_key(0xFF, 8), 0xFFFF_FFFF);
        assert_eq!(replicate_key(0xDEAD_BEEF, 32), 0xDEAD_BEEF);
    }

    #[test]
    fn random_balanced_key_has_half_ones() {
        let mut rng = DetRng::new(3);
        for b in [2u32, 4, 8, 16, 32] {
            for _ in 0..50 {
                let k = random_balanced_key(&mut rng, b);
                assert_eq!(k.count_ones(), b / 2, "b={b} key={k:#b}");
                if b < 32 {
                    assert!(k < (1 << b));
                }
            }
        }
    }

    #[test]
    fn random_balanced_keys_vary() {
        let mut rng = DetRng::new(4);
        let keys: std::collections::HashSet<u32> = (0..100)
            .map(|_| random_balanced_key(&mut rng, 32))
            .collect();
        assert!(keys.len() > 90, "keys barely vary: {}", keys.len());
    }

    proptest! {
        #[test]
        fn grp32_roundtrip(x in any::<u32>(), seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let key = random_balanced_key(&mut rng, 32);
            let y = grp_one(x, key, 32);
            prop_assert_eq!(ungrp_one(y, key, 32), x);
        }

        #[test]
        fn grp_preserves_popcount(x in any::<u32>(), seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let key = random_balanced_key(&mut rng, 32);
            prop_assert_eq!(grp_one(x, key, 32).count_ones(), x.count_ones());
        }

        #[test]
        fn grp_blocks_roundtrip_via_injectivity(
            a in any::<u32>(), b in any::<u32>(), seed in any::<u64>(), bits in prop::sample::select(vec![2u32,4,8,16])
        ) {
            let mut rng = DetRng::new(seed);
            let key = replicate_key(random_balanced_key(&mut rng, bits), bits);
            let ya = grp_blocks(a, key, bits);
            let yb = grp_blocks(b, key, bits);
            prop_assert_eq!(a == b, ya == yb);
        }
    }
}
