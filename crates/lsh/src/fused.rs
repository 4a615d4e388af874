//! Fused structure-of-arrays evaluation of one hash group (DESIGN.md §6b).
//!
//! [`crate::HashGroups::identifiers`] needs the XOR of `k` min-hashes per
//! group. Evaluated function-by-function, every function re-walks the
//! query's interval decomposition on its own. [`CompiledGroup`] turns the
//! loop inside out: the decomposition is walked **once**, and for each
//! interval all `k` functions are advanced together.
//!
//! For the bit-shuffle families that is the dominance-candidate kernel of
//! [`crate::rangeaware`] over the group's `k` functions laid side by side:
//! which candidates an interval has depends only on its end points, so one
//! walk over at most 32 bit positions serves the whole group, and the
//! per-bit update is a lane loop over a row of bit images (128 bytes per
//! function, 2.5 KB for the paper's `k = 20`). The per-function compiled
//! path runs the same kernel with one function, so fused identifiers are
//! bit-identical to it and to [`crate::HashGroups::identifiers_reference`]
//! (property-tested in `tests/property_invariants.rs`).
//!
//! The linear families already evaluate per interval in closed form; the
//! fused layout batches the `k` closed forms per interval and shares the
//! decomposition walk.

use crate::family::{LshFamilyKind, LshFunction};
use crate::linear::{min_affine_mod, LinearPerm, DOMAIN_MODULUS};
use crate::range::RangeSet;
use crate::rangeaware::RangeAwareBitPerm;
use ars_common::DetRng;

/// Groups up to this many functions evaluate with a stack-allocated
/// scratch buffer — the steady-state query path performs zero heap
/// allocations (the paper's `k = 20` is well inside). Larger groups still
/// work; they spill the scratch to the heap.
pub const FUSED_MAX_K: usize = 64;

/// The `k` functions of one group, fused (see module docs).
#[derive(Debug, Clone)]
enum FusedFns {
    /// Bit-shuffle families: the `k` functions side by side in one kernel.
    Bit(RangeAwareBitPerm),
    /// Linear families: batched closed forms over shared decomposition.
    Linear(Vec<LinearPerm>),
}

/// One hash group compiled structure-of-arrays for single-pass
/// evaluation. Built by `CompiledGroup::draw` from one family's
/// functions; [`CompiledGroup::identifier`] is bit-identical to XORing
/// the functions' individual min-hashes.
#[derive(Debug, Clone)]
pub struct CompiledGroup {
    fns: FusedFns,
}

impl CompiledGroup {
    /// Draw a group of `k` functions from `kind`, in the order and with
    /// the draws of [`LshFunction::random`], and fuse it. Returns the
    /// functions (what the reference evaluation walks) beside their fused
    /// evaluator.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub(crate) fn draw(
        kind: LshFamilyKind,
        k: usize,
        rng: &mut DetRng,
    ) -> (Vec<LshFunction>, CompiledGroup) {
        assert!(k > 0, "cannot fuse an empty group");
        let linear = |perms: Vec<LinearPerm>, wrap: fn(LinearPerm) -> LshFunction| {
            (
                perms.iter().copied().map(wrap).collect(),
                FusedFns::Linear(perms),
            )
        };
        let (fns, fused) = match kind {
            LshFamilyKind::MinWise | LshFamilyKind::ApproxMinWise => {
                let fns: Vec<LshFunction> =
                    (0..k).map(|_| LshFunction::random(kind, rng)).collect();
                let kernels: Vec<RangeAwareBitPerm> = fns
                    .iter()
                    .map(|f| RangeAwareBitPerm::compile(|x| f.permute(x)))
                    .collect();
                (fns, FusedFns::Bit(RangeAwareBitPerm::concat(&kernels)))
            }
            LshFamilyKind::Linear => linear(
                (0..k).map(|_| LinearPerm::random(rng)).collect(),
                LshFunction::Linear,
            ),
            LshFamilyKind::LinearDomain => linear(
                (0..k)
                    .map(|_| LinearPerm::random_with_modulus(rng, DOMAIN_MODULUS))
                    .collect(),
                LshFunction::LinearDomain,
            ),
        };
        (fns, CompiledGroup { fns: fused })
    }

    /// Number of functions in the group (`k`).
    pub(crate) fn k(&self) -> usize {
        match &self.fns {
            FusedFns::Bit(fns) => fns.k(),
            FusedFns::Linear(v) => v.len(),
        }
    }

    /// The group identifier of `q`: XOR of the `k` min-hashes, computed
    /// in a single pass over `q`'s interval decomposition. Bit-identical
    /// to the per-function evaluation.
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub fn identifier(&self, q: &RangeSet) -> u32 {
        let k = self.k();
        if k <= FUSED_MAX_K {
            let mut mins = [0u32; FUSED_MAX_K];
            self.mins_into(q, &mut mins[..k]);
            mins[..k].iter().fold(0u32, |acc, &m| acc ^ m)
        } else {
            self.mins(q).iter().fold(0u32, |acc, &m| acc ^ m)
        }
    }

    /// The per-function min-hash vector of `q` — the `k` coordinates whose
    /// XOR is [`CompiledGroup::identifier`]. Multi-probe candidate
    /// generation ([`crate::probe`]) compares these vectors across
    /// perturbed evaluations of the same range to find the least-stable
    /// coordinates. Allocating convenience over [`CompiledGroup::mins_into`].
    ///
    /// # Panics
    /// Panics if `q` is empty.
    pub(crate) fn mins(&self, q: &RangeSet) -> Vec<u32> {
        let mut mins = vec![0u32; self.k()];
        self.mins_into(q, &mut mins);
        mins
    }

    /// Write the per-function min-hash vector of `q` into a caller buffer
    /// of length `k`, walking the decomposition once and allocating
    /// nothing.
    ///
    /// # Panics
    /// Panics if `q` is empty or `mins.len() != k`.
    pub(crate) fn mins_into(&self, q: &RangeSet, mins: &mut [u32]) {
        assert!(!q.is_empty(), "min-hashes of an empty range set");
        assert_eq!(mins.len(), self.k(), "output buffer must have length k");
        mins.fill(u32::MAX);
        match &self.fns {
            FusedFns::Bit(fns) => fns.min_hash_into(q, mins),
            FusedFns::Linear(fns) => {
                for &(lo, hi) in q.intervals() {
                    let n = (hi - lo) as u64;
                    for (p, m) in fns.iter().zip(mins.iter_mut()) {
                        let (a, b) = p.coefficients();
                        let md = p.modulus();
                        let c = ((a as u128 * lo as u128 + b as u128) % md as u128) as u64;
                        *m = (*m).min(min_affine_mod(a, c, md, n) as u32);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(kind: LshFamilyKind, k: usize, seed: u64) -> (Vec<LshFunction>, CompiledGroup) {
        CompiledGroup::draw(kind, k, &mut DetRng::new(seed))
    }

    fn reference(group: &[LshFunction], q: &RangeSet) -> u32 {
        group.iter().fold(0u32, |acc, f| acc ^ f.min_hash(q))
    }

    fn queries() -> Vec<RangeSet> {
        vec![
            RangeSet::interval(0, 0),
            RangeSet::interval(30, 50),
            RangeSet::interval(250, 260),   // crosses a byte edge
            RangeSet::interval(0, 255),     // low byte, every candidate
            RangeSet::interval(256, 511),   // aligned: lo has no low bits
            RangeSet::interval(100, 5_000), // 13 bit positions
            RangeSet::interval(0, 100_000), // wide
            RangeSet::from_intervals([(10, 40), (1_000, 3_000), (50_000, 50_005)]),
            RangeSet::from_intervals([(0, 16_383), (20_000, 90_000)]),
            RangeSet::interval(u32::MAX - 10, u32::MAX),
        ]
    }

    const KINDS: [LshFamilyKind; 4] = [
        LshFamilyKind::MinWise,
        LshFamilyKind::ApproxMinWise,
        LshFamilyKind::Linear,
        LshFamilyKind::LinearDomain,
    ];

    #[test]
    fn draw_takes_the_draws_of_random() {
        for kind in KINDS {
            let mut rng = DetRng::new(11);
            let random: Vec<LshFunction> = (0..8)
                .map(|_| LshFunction::random(kind, &mut rng))
                .collect();
            assert_eq!(group(kind, 8, 11).0, random, "kind {kind}");
        }
    }

    #[test]
    fn fused_matches_per_function_all_families() {
        for kind in KINDS {
            let (fns, fused) = group(kind, 8, 11);
            assert_eq!(fused.k(), 8);
            for q in queries() {
                assert_eq!(
                    fused.identifier(&q),
                    reference(&fns, &q),
                    "kind {kind} query {q}"
                );
            }
        }
    }

    #[test]
    fn oversized_group_spills_but_stays_exact() {
        let (fns, fused) = group(LshFamilyKind::ApproxMinWise, FUSED_MAX_K + 7, 3);
        for q in queries() {
            assert_eq!(fused.identifier(&q), reference(&fns, &q));
        }
    }

    #[test]
    fn mins_into_overwrites_the_buffer() {
        let (fns, fused) = group(LshFamilyKind::ApproxMinWise, 5, 2);
        let q = RangeSet::interval(100, 5_000);
        let mut buf = [7u32; 5]; // stale content below any real minimum
        fused.mins_into(&q, &mut buf);
        assert_eq!(buf.to_vec(), fused.mins(&q));
        let singles: Vec<u32> = fns.iter().map(|f| f.min_hash(&q)).collect();
        assert_eq!(buf.to_vec(), singles);
    }

    #[test]
    #[should_panic(expected = "length k")]
    fn mins_into_rejects_wrong_length() {
        let (_, fused) = group(LshFamilyKind::Linear, 3, 2);
        fused.mins_into(&RangeSet::interval(0, 9), &mut [0u32; 2]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_rejected() {
        group(LshFamilyKind::MinWise, 0, 1);
    }

    #[test]
    #[should_panic(expected = "empty range set")]
    fn empty_query_rejected() {
        let (_, fused) = group(LshFamilyKind::Linear, 2, 1);
        fused.identifier(&RangeSet::empty());
    }
}
