//! Range sets: the set-of-integer-values view of a selection range.
//!
//! The paper treats a selection `30 ≤ age ≤ 50` as the set
//! `{30, 31, …, 50}` (§4). A [`RangeSet`] represents such a set as sorted,
//! disjoint, non-adjacent inclusive intervals, so similarity measures over
//! *huge* ranges are computed in closed form from interval overlaps instead
//! of materializing the values. Padded queries (§5.2) and multi-interval
//! sets (e.g. the union of two cached partitions) are supported uniformly.

use std::fmt;

/// A set of `u32` values stored as sorted, disjoint, non-adjacent inclusive
/// intervals.
///
/// Invariants (maintained by all constructors):
/// * intervals are sorted by start;
/// * for consecutive intervals `(a₀, a₁)`, `(b₀, b₁)`: `a₁ + 1 < b₀`
///   (disjoint and non-adjacent, so the representation is canonical);
/// * each interval satisfies `lo ≤ hi`.
///
/// A single interval — every range the paper's workloads produce — is held
/// inline, so cloning one is a copy and a `Vec<RangeSet>` of them is
/// contiguous memory.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RangeSet(Repr);

/// Exactly one interval is always `One` and never a one-element `Many`
/// ([`RangeSet::canonical`] is the only place a `Many` is built), so the
/// derived `Eq`/`Hash` see each set in exactly one shape.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    One((u32, u32)),
    /// Zero, or two and more, intervals.
    Many(Vec<(u32, u32)>),
}

const _: () = assert!(std::mem::size_of::<RangeSet>() <= 24);

/// Lexicographic over the interval lists.
impl Ord for RangeSet {
    fn cmp(&self, other: &RangeSet) -> std::cmp::Ordering {
        self.intervals().cmp(other.intervals())
    }
}

impl PartialOrd for RangeSet {
    fn partial_cmp(&self, other: &RangeSet) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RangeSet{{")?;
        for (i, (lo, hi)) in self.intervals().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{lo},{hi}]")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for RangeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl RangeSet {
    /// Wrap an interval list that already satisfies the invariants.
    fn canonical(intervals: Vec<(u32, u32)>) -> RangeSet {
        RangeSet(match intervals[..] {
            [one] => Repr::One(one),
            _ => Repr::Many(intervals),
        })
    }

    /// The empty set.
    pub fn empty() -> RangeSet {
        RangeSet::canonical(Vec::new())
    }

    /// A single contiguous inclusive interval `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn interval(lo: u32, hi: u32) -> RangeSet {
        assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        RangeSet(Repr::One((lo, hi)))
    }

    /// Build from arbitrary (possibly overlapping, unsorted) intervals,
    /// normalizing to the canonical representation.
    pub fn from_intervals<I: IntoIterator<Item = (u32, u32)>>(intervals: I) -> RangeSet {
        let mut v: Vec<(u32, u32)> = intervals
            .into_iter()
            .inspect(|&(lo, hi)| assert!(lo <= hi, "invalid interval [{lo}, {hi}]"))
            .collect();
        v.sort_unstable();
        let mut out: Vec<(u32, u32)> = Vec::with_capacity(v.len());
        for (lo, hi) in v {
            match out.last_mut() {
                // Merge overlapping or adjacent intervals.
                Some(last) if lo <= last.1.saturating_add(1) => {
                    last.1 = last.1.max(hi);
                }
                _ => out.push((lo, hi)),
            }
        }
        RangeSet::canonical(out)
    }

    /// Build from individual values.
    pub fn from_values<I: IntoIterator<Item = u32>>(values: I) -> RangeSet {
        RangeSet::from_intervals(values.into_iter().map(|v| (v, v)))
    }

    /// The canonical interval list.
    pub fn intervals(&self) -> &[(u32, u32)] {
        match &self.0 {
            Repr::One(one) => std::slice::from_ref(one),
            Repr::Many(many) => many,
        }
    }

    /// Number of values in the set (cardinality).
    pub fn len(&self) -> u64 {
        self.intervals()
            .iter()
            .map(|&(lo, hi)| (hi - lo) as u64 + 1)
            .sum()
    }

    /// True if the set contains no values.
    pub fn is_empty(&self) -> bool {
        self.intervals().is_empty()
    }

    /// Smallest value, if non-empty.
    pub fn min_value(&self) -> Option<u32> {
        self.intervals().first().map(|&(lo, _)| lo)
    }

    /// Largest value, if non-empty.
    pub fn max_value(&self) -> Option<u32> {
        self.intervals().last().map(|&(_, hi)| hi)
    }

    /// Membership test (binary search over intervals).
    pub fn contains(&self, v: u32) -> bool {
        self.intervals()
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Iterate all values in ascending order.
    ///
    /// Beware: this materializes each value — use the closed-form similarity
    /// methods for large sets.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.intervals().iter().flat_map(|&(lo, hi)| lo..=hi)
    }

    /// Cardinality of the intersection with `other`, in closed form.
    pub fn intersection_len(&self, other: &RangeSet) -> u64 {
        // Merge-scan over two sorted interval lists.
        let (a, b) = (self.intervals(), other.intervals());
        let (mut i, mut j) = (0, 0);
        let mut total = 0u64;
        while i < a.len() && j < b.len() {
            let (a0, a1) = a[i];
            let (b0, b1) = b[j];
            let lo = a0.max(b0);
            let hi = a1.min(b1);
            if lo <= hi {
                total += (hi - lo) as u64 + 1;
            }
            if a1 < b1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }

    /// Cardinality of the union with `other`.
    pub fn union_len(&self, other: &RangeSet) -> u64 {
        self.len() + other.len() - self.intersection_len(other)
    }

    /// The intersection as a new `RangeSet`.
    pub fn intersection(&self, other: &RangeSet) -> RangeSet {
        let (a, b) = (self.intervals(), other.intervals());
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < a.len() && j < b.len() {
            let (a0, a1) = a[i];
            let (b0, b1) = b[j];
            let lo = a0.max(b0);
            let hi = a1.min(b1);
            if lo <= hi {
                out.push((lo, hi));
            }
            if a1 < b1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Intersection of canonical sets is already canonical.
        RangeSet::canonical(out)
    }

    /// The union as a new `RangeSet`.
    pub fn union(&self, other: &RangeSet) -> RangeSet {
        RangeSet::from_intervals(
            self.intervals()
                .iter()
                .chain(other.intervals().iter())
                .copied(),
        )
    }

    /// Jaccard set similarity `|A∩B| / |A∪B|` (the measure the paper's LSH
    /// families are locality-sensitive for). Two empty sets have similarity 1.
    pub fn jaccard(&self, other: &RangeSet) -> f64 {
        let union = self.union_len(other);
        if union == 0 {
            return 1.0;
        }
        self.intersection_len(other) as f64 / union as f64
    }

    /// Containment similarity `|Q∩R| / |Q|` where `Q = self` is the query.
    ///
    /// This is the paper's §3.2 containment measure: it has no LSH family
    /// (its distance violates the triangle inequality) but is the better
    /// *matching* criterion once a bucket has been located (§5.2, Fig. 9).
    /// An empty query is fully contained by definition.
    pub fn containment_in(&self, r: &RangeSet) -> f64 {
        let q_len = self.len();
        if q_len == 0 {
            return 1.0;
        }
        self.intersection_len(r) as f64 / q_len as f64
    }

    /// Expand every interval by `frac` of its width on each edge (the
    /// paper's §5.2 *query padding*; the paper evaluates `frac = 0.2`).
    ///
    /// The expansion is clamped to the `u32` domain and computed per
    /// interval; overlapping expansions are re-normalized. A single
    /// interval stays inline: no list is built, sorted or merged for it.
    pub fn pad(&self, frac: f64) -> RangeSet {
        assert!(frac >= 0.0, "padding fraction must be non-negative");
        let pad = |&(lo, hi): &(u32, u32)| {
            let width = (hi - lo) as u64 + 1;
            let pad = (width as f64 * frac).round() as u64;
            let new_lo = (lo as u64).saturating_sub(pad) as u32;
            let new_hi = ((hi as u64 + pad).min(u32::MAX as u64)) as u32;
            (new_lo, new_hi)
        };
        match &self.0 {
            _ if frac == 0.0 => self.clone(),
            Repr::One(one) => RangeSet(Repr::One(pad(one))),
            Repr::Many(many) => RangeSet::from_intervals(many.iter().map(pad)),
        }
    }

    /// Contract every interval by `frac` of its width on each edge — the
    /// inward counterpart of [`RangeSet::pad`], used by multi-probe
    /// candidate generation to re-evaluate the min-hashes on slightly
    /// perturbed boundaries. Intervals that would vanish are dropped; the
    /// result may be empty. A single interval stays inline, as in `pad`.
    pub fn shrink(&self, frac: f64) -> RangeSet {
        assert!(frac >= 0.0, "shrink fraction must be non-negative");
        let cut = |&(lo, hi): &(u32, u32)| {
            let width = (hi - lo) as u64 + 1;
            let cut = (width as f64 * frac).round() as u64;
            let new_lo = (lo as u64).saturating_add(cut);
            let new_hi = (hi as u64).saturating_sub(cut);
            (new_lo <= new_hi && new_hi <= u32::MAX as u64)
                .then_some((new_lo as u32, new_hi as u32))
        };
        match &self.0 {
            _ if frac == 0.0 => self.clone(),
            Repr::One(one) => cut(one).map_or_else(RangeSet::empty, |one| RangeSet(Repr::One(one))),
            Repr::Many(many) => RangeSet::from_intervals(many.iter().filter_map(cut)),
        }
    }

    /// True if every value of `self` is contained in `other`.
    pub fn is_subset_of(&self, other: &RangeSet) -> bool {
        self.intersection_len(other) == self.len()
    }
}

impl From<std::ops::RangeInclusive<u32>> for RangeSet {
    fn from(r: std::ops::RangeInclusive<u32>) -> RangeSet {
        RangeSet::interval(*r.start(), *r.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `pad` and `shrink` of one interval — computed inline — equal the
        /// general arm (collect, sort, merge, re-wrap) run on the same
        /// interval as a list: same rounding, same clamping at both ends of
        /// the domain, same "vanished ⇒ empty".
        #[test]
        fn single_interval_pad_and_shrink_equal_the_general_arm(
            a in any::<u32>(),
            b in any::<u32>(),
            end in 0u32..6,
            frac in prop::sample::select(vec![0.0, 0.015625, 0.0625, 0.2, 0.25, 0.5, 0.9, 1.0, 3.7]),
            narrow in any::<bool>(),
        ) {
            let (mut lo, mut hi) = (a.min(b), a.max(b));
            if narrow {
                hi = lo.saturating_add(b % 40);
            }
            match end {
                0 => lo = 0,
                1 => hi = u32::MAX,
                2 => (lo, hi) = (0, hi - lo),
                3 => (lo, hi) = (lo + (u32::MAX - hi), u32::MAX),
                _ => {}
            }
            let width = (hi - lo) as u64 + 1;
            let by = (width as f64 * frac).round() as u64;
            let padded = (
                (lo as u64).saturating_sub(by) as u32,
                (hi as u64 + by).min(u32::MAX as u64) as u32,
            );
            let one = RangeSet::interval(lo, hi);
            prop_assert_eq!(one.pad(frac), RangeSet::from_intervals([padded]));
            let (cut_lo, cut_hi) = (lo as u64 + by, (hi as u64).saturating_sub(by));
            let cut = (cut_lo <= cut_hi).then_some((cut_lo as u32, cut_hi as u32));
            prop_assert_eq!(one.shrink(frac), RangeSet::from_intervals(cut));
        }
    }

    #[test]
    fn interval_basics() {
        let r = RangeSet::interval(30, 50);
        assert_eq!(r.len(), 21);
        assert!(!r.is_empty());
        assert!(r.contains(30));
        assert!(r.contains(50));
        assert!(!r.contains(29));
        assert!(!r.contains(51));
        assert_eq!(r.min_value(), Some(30));
        assert_eq!(r.max_value(), Some(50));
    }

    #[test]
    fn empty_set() {
        let e = RangeSet::empty();
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        assert!(!e.contains(0));
        assert_eq!(e.min_value(), None);
        assert_eq!(e.jaccard(&e), 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn reversed_interval_panics() {
        RangeSet::interval(5, 4);
    }

    #[test]
    fn from_intervals_normalizes() {
        let r = RangeSet::from_intervals([(10, 20), (15, 25), (26, 30), (40, 41)]);
        // 10-20 and 15-25 overlap; 26 is adjacent to 25 so merges too.
        assert_eq!(r.intervals(), &[(10, 30), (40, 41)]);
        assert_eq!(r.len(), 23);
    }

    #[test]
    fn from_values_collapses_runs() {
        let r = RangeSet::from_values([5, 3, 4, 9, 7]);
        assert_eq!(r.intervals(), &[(3, 5), (7, 7), (9, 9)]);
    }

    #[test]
    fn iter_yields_sorted_values() {
        let r = RangeSet::from_intervals([(1, 3), (7, 8)]);
        let vals: Vec<u32> = r.iter().collect();
        assert_eq!(vals, vec![1, 2, 3, 7, 8]);
    }

    #[test]
    fn paper_example_overlap() {
        // Query [30,49] vs cached [30,50]: answer fully contained.
        let q = RangeSet::interval(30, 49);
        let r = RangeSet::interval(30, 50);
        assert_eq!(q.intersection_len(&r), 20);
        assert_eq!(q.union_len(&r), 21);
        assert!((q.jaccard(&r) - 20.0 / 21.0).abs() < 1e-12);
        assert_eq!(q.containment_in(&r), 1.0);
        assert!(q.is_subset_of(&r));
        assert!(!r.is_subset_of(&q));
    }

    #[test]
    fn disjoint_similarity_zero() {
        let a = RangeSet::interval(0, 10);
        let b = RangeSet::interval(20, 30);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.containment_in(&b), 0.0);
        assert_eq!(a.intersection_len(&b), 0);
        assert!(a.intersection(&b).is_empty());
    }

    #[test]
    fn identical_similarity_one() {
        let a = RangeSet::interval(5, 99);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.containment_in(&a), 1.0);
    }

    #[test]
    fn multi_interval_intersection() {
        let a = RangeSet::from_intervals([(0, 10), (20, 30), (40, 50)]);
        let b = RangeSet::from_intervals([(5, 25), (45, 60)]);
        // overlaps: [5,10] (6), [20,25] (6), [45,50] (6)
        assert_eq!(a.intersection_len(&b), 18);
        assert_eq!(
            a.intersection(&b).intervals(),
            &[(5, 10), (20, 25), (45, 50)]
        );
        assert_eq!(b.intersection_len(&a), 18, "intersection is symmetric");
    }

    #[test]
    fn union_merges() {
        let a = RangeSet::interval(0, 5);
        let b = RangeSet::interval(6, 10);
        assert_eq!(a.union(&b).intervals(), &[(0, 10)]);
        assert_eq!(a.union_len(&b), 11);
    }

    #[test]
    fn pad_expands_by_fraction() {
        // [100, 199]: width 100, 20% pad = 20 on each side.
        let q = RangeSet::interval(100, 199);
        let padded = q.pad(0.2);
        assert_eq!(padded.intervals(), &[(80, 219)]);
    }

    #[test]
    fn pad_clamps_at_domain_edges() {
        let q = RangeSet::interval(0, 9);
        let padded = q.pad(0.5);
        assert_eq!(padded.intervals(), &[(0, 14)]);
        let q_hi = RangeSet::interval(u32::MAX - 9, u32::MAX);
        let padded_hi = q_hi.pad(0.5);
        assert_eq!(padded_hi.intervals(), &[(u32::MAX - 14, u32::MAX)]);
    }

    #[test]
    fn pad_zero_is_identity() {
        let q = RangeSet::interval(10, 20);
        assert_eq!(q.pad(0.0), q);
    }

    #[test]
    fn pad_merges_expanded_intervals() {
        let q = RangeSet::from_intervals([(0, 9), (15, 24)]);
        // width 10 each, 50% pad = 5: [0,14] and [10,29] overlap → [0,29]
        assert_eq!(q.pad(0.5).intervals(), &[(0, 29)]);
    }

    #[test]
    fn display_format() {
        let r = RangeSet::from_intervals([(1, 2), (5, 5)]);
        assert_eq!(format!("{r}"), "RangeSet{[1,2], [5,5]}");
    }

    #[test]
    fn from_range_inclusive() {
        let r: RangeSet = (3..=7).into();
        assert_eq!(r.intervals(), &[(3, 7)]);
    }

    #[test]
    fn containment_not_symmetric() {
        let q = RangeSet::interval(0, 9); // 10 values
        let r = RangeSet::interval(0, 99); // 100 values
        assert_eq!(q.containment_in(&r), 1.0);
        assert!((r.containment_in(&q) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn boundary_u32_max() {
        let r = RangeSet::interval(u32::MAX - 1, u32::MAX);
        assert_eq!(r.len(), 2);
        assert!(r.contains(u32::MAX));
        let m = RangeSet::from_intervals([(u32::MAX, u32::MAX), (0, 0)]);
        assert_eq!(m.len(), 2);
    }
}
