//! Unified interface over the three LSH families evaluated in the paper.
//!
//! Hot loops hash thousands of ranges through `k·l = 100` functions, so the
//! dispatch is a plain enum rather than trait objects — the compiler keeps
//! everything inlined and there is one allocation-free call per function.

use crate::approx::ApproxMinWisePerm;
use crate::linear::LinearPerm;
use crate::minwise::MinWisePerm;
use crate::range::RangeSet;
use ars_common::DetRng;

/// Which hash family to use (the paper's three candidates, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LshFamilyKind {
    /// Full min-wise independent permutations (5-level GRP network).
    MinWise,
    /// First iteration only (single 32-bit key).
    ApproxMinWise,
    /// `π(x) = a·x + b mod p`; `min_hash` is the closed-form `O(log p)`
    /// interval minimum (our extension, DESIGN.md §6.2), value-identical
    /// to the enumeration the paper times.
    Linear,
    /// `π(x) = a·x + b mod p` with `p = 1009`, a permutation of the §5.1
    /// *attribute domain* rather than the 32-bit space. Identifiers then
    /// occupy ~10 bits, so dissimilar ranges frequently share buckets —
    /// the "loose matching" behaviour the paper reports for its linear
    /// permutations (see EXPERIMENTS.md).
    LinearDomain,
}

impl LshFamilyKind {
    /// The paper's three families.
    pub const PAPER_FAMILIES: [LshFamilyKind; 3] = [
        LshFamilyKind::MinWise,
        LshFamilyKind::ApproxMinWise,
        LshFamilyKind::Linear,
    ];

    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            LshFamilyKind::MinWise => "min-wise independent",
            LshFamilyKind::ApproxMinWise => "approx. min-wise independent",
            LshFamilyKind::Linear => "linear",
            LshFamilyKind::LinearDomain => "linear (domain modulus)",
        }
    }
}

impl std::fmt::Display for LshFamilyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One hash function drawn from a family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LshFunction {
    /// Full min-wise permutation.
    MinWise(MinWisePerm),
    /// Approximate (one-iteration) permutation.
    Approx(ApproxMinWisePerm),
    /// Linear permutation of the 32-bit space.
    Linear(LinearPerm),
    /// Linear permutation of the small attribute domain.
    LinearDomain(LinearPerm),
}

impl LshFunction {
    /// Draw a random function from `kind`'s family.
    pub fn random(kind: LshFamilyKind, rng: &mut DetRng) -> LshFunction {
        match kind {
            LshFamilyKind::MinWise => LshFunction::MinWise(MinWisePerm::random(rng)),
            LshFamilyKind::ApproxMinWise => LshFunction::Approx(ApproxMinWisePerm::random(rng)),
            LshFamilyKind::Linear => LshFunction::Linear(LinearPerm::random(rng)),
            LshFamilyKind::LinearDomain => LshFunction::LinearDomain(
                LinearPerm::random_with_modulus(rng, crate::linear::DOMAIN_MODULUS),
            ),
        }
    }

    /// Min-hash of a range set, via each family's value-identical interval
    /// evaluator: the dominance-candidate kernel ([`crate::RangeAwareBitPerm`])
    /// for the GRP families and the closed-form interval minimum for the
    /// linear families.
    /// Bit-for-bit equal to [`LshFunction::min_hash_enumerate`]
    /// (property-tested in `tests/property_invariants.rs`).
    #[inline]
    pub fn min_hash(&self, q: &RangeSet) -> u32 {
        match self {
            LshFunction::MinWise(p) => p.min_hash(q),
            LshFunction::Approx(p) => p.min_hash(q),
            LshFunction::Linear(p) | LshFunction::LinearDomain(p) => p.min_hash(q),
        }
    }

    /// Min-hash by enumerating every value of the set — the evaluation the
    /// paper's Fig. 5 times, kept as the oracle for [`LshFunction::min_hash`].
    #[inline]
    pub fn min_hash_enumerate(&self, q: &RangeSet) -> u32 {
        match self {
            LshFunction::MinWise(p) => p.min_hash_enumerate(q),
            LshFunction::Approx(p) => p.min_hash_enumerate(q),
            LshFunction::Linear(p) | LshFunction::LinearDomain(p) => p.min_hash_enumerate(q),
        }
    }

    /// Apply the underlying permutation to a single value.
    pub(crate) fn permute(&self, x: u32) -> u32 {
        match self {
            LshFunction::MinWise(p) => p.permute(x),
            LshFunction::Approx(p) => p.permute(x),
            LshFunction::Linear(p) | LshFunction::LinearDomain(p) => p.permute(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_function_matches_kind() {
        let mut rng = DetRng::new(1);
        for kind in [
            LshFamilyKind::MinWise,
            LshFamilyKind::ApproxMinWise,
            LshFamilyKind::Linear,
            LshFamilyKind::LinearDomain,
        ] {
            let f = LshFunction::random(kind, &mut rng);
            assert!(matches!(
                (kind, f),
                (LshFamilyKind::MinWise, LshFunction::MinWise(_))
                    | (LshFamilyKind::ApproxMinWise, LshFunction::Approx(_))
                    | (LshFamilyKind::Linear, LshFunction::Linear(_))
                    | (LshFamilyKind::LinearDomain, LshFunction::LinearDomain(_))
            ));
        }
    }

    #[test]
    fn min_hash_is_min_of_permuted_values() {
        let mut rng = DetRng::new(5);
        let q = RangeSet::interval(100, 120);
        for kind in LshFamilyKind::PAPER_FAMILIES {
            let f = LshFunction::random(kind, &mut rng);
            let expect = q.iter().map(|v| f.permute(v)).min().unwrap();
            assert_eq!(f.min_hash(&q), expect, "kind {kind}");
        }
    }

    #[test]
    fn names_are_distinct() {
        use std::collections::HashSet;
        let names: HashSet<&str> = [
            LshFamilyKind::MinWise,
            LshFamilyKind::ApproxMinWise,
            LshFamilyKind::Linear,
            LshFamilyKind::LinearDomain,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn domain_family_hashes_stay_small() {
        let mut rng = DetRng::new(4);
        let f = LshFunction::random(LshFamilyKind::LinearDomain, &mut rng);
        let q = RangeSet::interval(30, 50);
        assert!(f.min_hash(&q) < crate::linear::DOMAIN_MODULUS as u32);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", LshFamilyKind::Linear), "linear");
    }
}
