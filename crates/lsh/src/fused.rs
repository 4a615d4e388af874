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

use crate::family::CompiledLshFunction;
use crate::linear::{min_affine_mod, LinearPerm};
use crate::range::RangeSet;
use crate::rangeaware::RangeAwareBitPerm;

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
    /// Mixed-family groups (never produced by
    /// [`crate::HashGroups::generate`]): per-function evaluation.
    Mixed(Vec<CompiledLshFunction>),
}

/// One hash group compiled structure-of-arrays for single-pass
/// evaluation. Built by [`CompiledGroup::new`] from the group's compiled
/// functions; [`CompiledGroup::identifier`] is bit-identical to XORing
/// the functions' individual min-hashes.
#[derive(Debug, Clone)]
pub struct CompiledGroup {
    fns: FusedFns,
}

impl CompiledGroup {
    /// Fuse a group of compiled functions. Homogeneous groups (all
    /// bit-shuffle or all linear — the only kind
    /// [`crate::HashGroups::generate`] produces) get the fused fast
    /// paths; a mixed group falls back to per-function evaluation.
    ///
    /// # Panics
    /// Panics if the group is empty.
    pub fn new(group: &[CompiledLshFunction]) -> CompiledGroup {
        assert!(!group.is_empty(), "cannot fuse an empty group");
        let all_bit = group
            .iter()
            .all(|f| matches!(f, CompiledLshFunction::Bit(_)));
        let all_linear = group
            .iter()
            .all(|f| matches!(f, CompiledLshFunction::Linear(_)));
        let fns = if all_bit {
            FusedFns::Bit(RangeAwareBitPerm::concat(group.iter().map(|f| match f {
                CompiledLshFunction::Bit(kernel) => kernel,
                CompiledLshFunction::Linear(_) => unreachable!(),
            })))
        } else if all_linear {
            FusedFns::Linear(
                group
                    .iter()
                    .map(|f| match f {
                        CompiledLshFunction::Linear(p) => *p,
                        CompiledLshFunction::Bit(_) => unreachable!(),
                    })
                    .collect(),
            )
        } else {
            FusedFns::Mixed(group.to_vec())
        };
        CompiledGroup { fns }
    }

    /// Number of functions in the group (`k`).
    pub fn k(&self) -> usize {
        match &self.fns {
            FusedFns::Bit(fns) => fns.k(),
            FusedFns::Linear(v) => v.len(),
            FusedFns::Mixed(v) => v.len(),
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
    pub fn mins(&self, q: &RangeSet) -> Vec<u32> {
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
    pub fn mins_into(&self, q: &RangeSet, mins: &mut [u32]) {
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
            FusedFns::Mixed(fns) => {
                for (f, m) in fns.iter().zip(mins.iter_mut()) {
                    *m = (*m).min(f.min_hash(q));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{LshFamilyKind, LshFunction};
    use ars_common::DetRng;

    fn compiled_group(kind: LshFamilyKind, k: usize, seed: u64) -> Vec<CompiledLshFunction> {
        let mut rng = DetRng::new(seed);
        (0..k)
            .map(|_| LshFunction::random(kind, &mut rng).compile())
            .collect()
    }

    fn reference(group: &[CompiledLshFunction], q: &RangeSet) -> u32 {
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

    #[test]
    fn fused_matches_per_function_all_families() {
        for kind in [
            LshFamilyKind::MinWise,
            LshFamilyKind::ApproxMinWise,
            LshFamilyKind::Linear,
            LshFamilyKind::LinearDomain,
        ] {
            let group = compiled_group(kind, 8, 11);
            let fused = CompiledGroup::new(&group);
            assert_eq!(fused.k(), 8);
            for q in queries() {
                assert_eq!(
                    fused.identifier(&q),
                    reference(&group, &q),
                    "kind {kind} query {q}"
                );
            }
        }
    }

    #[test]
    fn oversized_group_spills_but_stays_exact() {
        let group = compiled_group(LshFamilyKind::ApproxMinWise, FUSED_MAX_K + 7, 3);
        let fused = CompiledGroup::new(&group);
        for q in queries() {
            assert_eq!(fused.identifier(&q), reference(&group, &q));
        }
    }

    #[test]
    fn mixed_group_falls_back_per_function() {
        let mut group = compiled_group(LshFamilyKind::MinWise, 3, 5);
        group.extend(compiled_group(LshFamilyKind::Linear, 3, 6));
        let fused = CompiledGroup::new(&group);
        for q in queries() {
            assert_eq!(fused.identifier(&q), reference(&group, &q));
        }
    }

    #[test]
    fn mins_into_overwrites_the_buffer() {
        let group = compiled_group(LshFamilyKind::ApproxMinWise, 5, 2);
        let fused = CompiledGroup::new(&group);
        let q = RangeSet::interval(100, 5_000);
        let mut buf = [7u32; 5]; // stale content below any real minimum
        fused.mins_into(&q, &mut buf);
        assert_eq!(buf.to_vec(), fused.mins(&q));
        let singles: Vec<u32> = group.iter().map(|f| f.min_hash(&q)).collect();
        assert_eq!(buf.to_vec(), singles);
    }

    #[test]
    #[should_panic(expected = "length k")]
    fn mins_into_rejects_wrong_length() {
        let group = compiled_group(LshFamilyKind::Linear, 3, 2);
        CompiledGroup::new(&group).mins_into(&RangeSet::interval(0, 9), &mut [0u32; 2]);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn empty_group_rejected() {
        CompiledGroup::new(&[]);
    }

    #[test]
    #[should_panic(expected = "empty range set")]
    fn empty_query_rejected() {
        let group = compiled_group(LshFamilyKind::Linear, 2, 1);
        CompiledGroup::new(&group).identifier(&RangeSet::empty());
    }
}
