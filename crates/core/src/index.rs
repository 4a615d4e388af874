//! A peer-local interval index — making the §5.3 extension real.
//!
//! §5.3 suggests that a contacted peer "build up an index over all the
//! partitions that get stored in various buckets" so a lookup can consider
//! every partition the peer holds, not just the one bucket the identifier
//! names. [`Peer::best_across_buckets`](crate::peer::Peer) realizes the
//! recall effect with a scan; this module provides the *index* — a static
//! interval structure over `(range.start, range.end)` pairs, rebuilt
//! incrementally, that answers "best containment match for Q" by touching
//! only candidates overlapping Q instead of every stored range.
//!
//! The structure is a sorted-by-start list with a prefix-maximum of ends
//! (a flattened interval tree): overlap candidates for `[qlo, qhi]` are a
//! contiguous prefix of the entries with `start ≤ qhi`, pruned by the
//! prefix maximum to skip runs that end before `qlo`.
//!
//! A frozen paper artefact: it exists for §5.3 (Figure 10's recall
//! effect, read only under `SystemConfig::with_local_index`), is off the
//! default query hot path, and grows no features (DESIGN §5 verdict table).

use crate::bucket::{best_of, Match};
use crate::config::MatchMeasure;
use ars_lsh::RangeSet;

/// One indexed entry: a stored partition's bounding interval plus its
/// full range.
#[derive(Debug, Clone)]
struct Entry {
    start: u32,
    /// Largest `end` among entries `0..=i` (prefix maximum) — the pruning
    /// key of the flattened interval tree.
    prefix_max_end: u32,
    range: RangeSet,
}

/// A static-plus-staging interval index over stored partition ranges.
///
/// Inserts go to a small staging vector; the sorted base is rebuilt when
/// staging outgrows a fraction of the base (amortized `O(log n)` per
/// insert). Queries search base (with interval pruning) plus staging
/// (scan).
#[derive(Debug, Clone, Default)]
pub struct IntervalIndex {
    base: Vec<Entry>,
    staging: Vec<RangeSet>,
}

impl IntervalIndex {
    /// An empty index.
    pub(crate) fn new() -> IntervalIndex {
        IntervalIndex::default()
    }

    /// Number of indexed ranges.
    pub(crate) fn len(&self) -> usize {
        self.base.len() + self.staging.len()
    }

    /// True if nothing is indexed.
    pub(crate) fn is_empty(&self) -> bool {
        self.base.is_empty() && self.staging.is_empty()
    }

    /// Insert a range (duplicates are the caller's concern; buckets
    /// already deduplicate).
    pub(crate) fn insert(&mut self, range: RangeSet) {
        debug_assert!(!range.is_empty());
        self.staging.push(range);
        if self.staging.len() * 8 > self.base.len().max(32) {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        // The base is already sorted from the previous rebuild, so only
        // the (small) staging batch needs sorting; the two sorted runs are
        // then merged — `O(n + s·log s)` instead of re-sorting all
        // `n + s` entries — with the prefix maximum of ends recomputed in
        // the same pass. Ties keep base entries first, matching what a
        // stable sort of base-then-staging would produce.
        fn key(r: &RangeSet) -> (u32, u32) {
            (r.min_value().unwrap_or(0), r.max_value().unwrap_or(0))
        }
        let mut staged: Vec<RangeSet> = self.staging.drain(..).collect();
        staged.sort_by_key(key);
        let base = std::mem::take(&mut self.base);
        let mut merged: Vec<Entry> = Vec::with_capacity(base.len() + staged.len());
        let mut prefix_max = 0u32;
        let mut push = |range: RangeSet, merged: &mut Vec<Entry>| {
            let (start, end) = key(&range);
            prefix_max = prefix_max.max(end);
            merged.push(Entry {
                start,
                prefix_max_end: prefix_max,
                range,
            });
        };
        let mut base_it = base.into_iter().peekable();
        let mut staged_it = staged.into_iter().peekable();
        loop {
            match (base_it.peek(), staged_it.peek()) {
                (Some(b), Some(s)) => {
                    if key(&b.range) <= key(s) {
                        push(base_it.next().unwrap().range, &mut merged);
                    } else {
                        push(staged_it.next().unwrap(), &mut merged);
                    }
                }
                (Some(_), None) => push(base_it.next().unwrap().range, &mut merged),
                (None, Some(_)) => push(staged_it.next().unwrap(), &mut merged),
                (None, None) => break,
            }
        }
        self.base = merged;
    }

    /// Best match for `query` under `measure` among all indexed ranges
    /// whose bounding interval overlaps the query's.
    ///
    /// Contract: the returned *score* equals a full scan's best score
    /// (only overlapping ranges can score above zero under either
    /// measure). *Which* of several equal-scoring ranges is returned may
    /// differ from the scan: candidates are visited in descending start
    /// order, then staging, not in store order, and when nothing overlaps
    /// the zero-score answer is the smallest-start entry, not the first
    /// stored.
    pub(crate) fn best_match(&self, query: &RangeSet, measure: MatchMeasure) -> Option<Match> {
        if self.is_empty() {
            return None;
        }
        let qlo = query.min_value()?;
        let qhi = query.max_value()?;
        // Base: entries with start ≤ qhi form a prefix (sorted by start).
        let hi_idx = self.base.partition_point(|e| e.start <= qhi);
        // Walk backwards; stop when the prefix maximum of ends drops below
        // qlo — nothing earlier can overlap. An entry itself may still not
        // overlap (prefix max can come from an earlier entry): cheap bound
        // check before scoring.
        let base = self.base[..hi_idx]
            .iter()
            .rev()
            .take_while(|e| e.prefix_max_end >= qlo)
            .map(|e| &e.range)
            .filter(|r| r.max_value().unwrap_or(0) >= qlo);
        // Staging: plain scan.
        let staged = self.staging.iter().filter(|r| {
            r.max_value().unwrap_or(0) >= qlo && r.min_value().unwrap_or(u32::MAX) <= qhi
        });
        best_of(base.chain(staged), query, measure).or_else(|| {
            // Degenerate fallback: nothing overlapped — report a zero-score
            // candidate, as the linear scan always returns *some* match
            // from a non-empty store.
            let first = self
                .base
                .first()
                .map(|e| &e.range)
                .or(self.staging.first())?;
            Some(Match {
                range: first.clone(),
                score: 0.0,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_common::DetRng;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    #[test]
    fn empty_index_returns_none() {
        let idx = IntervalIndex::new();
        assert!(idx.best_match(&r(0, 10), MatchMeasure::Jaccard).is_none());
        assert!(idx.is_empty());
    }

    #[test]
    fn finds_best_overlapping_candidate() {
        let mut idx = IntervalIndex::new();
        idx.insert(r(0, 100));
        idx.insert(r(35, 65));
        idx.insert(r(200, 300));
        let m = idx.best_match(&r(40, 60), MatchMeasure::Jaccard).unwrap();
        assert_eq!(m.range, r(35, 65));
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn no_overlap_reports_zero_score() {
        let mut idx = IntervalIndex::new();
        idx.insert(r(0, 10));
        let m = idx.best_match(&r(500, 600), MatchMeasure::Jaccard).unwrap();
        assert_eq!(m.score, 0.0);
    }

    #[test]
    fn matches_linear_scan_on_random_data() {
        // The index must agree with the brute-force best for the measures
        // where overlap determines the score (both of ours).
        let mut rng = DetRng::new(7);
        for measure in [MatchMeasure::Jaccard, MatchMeasure::Containment] {
            let mut idx = IntervalIndex::new();
            let mut all: Vec<RangeSet> = Vec::new();
            for _ in 0..400 {
                let lo = rng.gen_inclusive_u32(0, 950);
                let hi = lo + rng.gen_inclusive_u32(0, 50);
                let range = r(lo, hi);
                idx.insert(range.clone());
                all.push(range);
            }
            for _ in 0..200 {
                let lo = rng.gen_inclusive_u32(0, 950);
                let q = r(lo, lo + rng.gen_inclusive_u32(0, 50));
                let via_index = idx.best_match(&q, measure).unwrap();
                let via_scan = best_of(all.iter(), &q, measure).unwrap();
                assert_eq!(
                    via_index.score, via_scan.score,
                    "index and scan disagree for {q} under {measure:?}"
                );
            }
        }
    }

    /// The structural invariants every rebuild must restore: base sorted
    /// by (start, end) and `prefix_max_end` a running maximum of ends.
    fn assert_base_invariants(idx: &IntervalIndex) {
        let mut prev_key = (0u32, 0u32);
        let mut prefix_max = 0u32;
        for e in &idx.base {
            let k = (
                e.range.min_value().unwrap_or(0),
                e.range.max_value().unwrap_or(0),
            );
            assert!(k >= prev_key, "base not sorted: {k:?} after {prev_key:?}");
            assert_eq!(e.start, k.0);
            prefix_max = prefix_max.max(k.1);
            assert_eq!(e.prefix_max_end, prefix_max, "prefix max broken at {k:?}");
            prev_key = k;
        }
    }

    #[test]
    fn staging_then_rebuild_consistent() {
        let mut idx = IntervalIndex::new();
        // Force multiple rebuild cycles and query between inserts. Widths
        // vary (including duplicates and nested intervals) so the merge
        // path exercises ties on `start` resolved by `end`.
        let mut rng = DetRng::new(3);
        let mut all = Vec::new();
        for i in 0..300 {
            let lo = rng.gen_inclusive_u32(0, 900);
            let range = r(lo, lo + 10 + (i % 4) * 20);
            idx.insert(range.clone());
            all.push(range);
            if i % 37 == 0 {
                let q = r(450, 520);
                let via_index = idx.best_match(&q, MatchMeasure::Containment).unwrap();
                let via_scan = best_of(all.iter(), &q, MatchMeasure::Containment).unwrap();
                assert_eq!(via_index.score, via_scan.score);
                assert_base_invariants(&idx);
            }
        }
        assert_base_invariants(&idx);
        assert_eq!(idx.len(), 300);
        // Every stored range answers itself exactly under containment.
        for q in all.iter().take(40) {
            let m = idx.best_match(q, MatchMeasure::Containment).unwrap();
            assert_eq!(m.score, 1.0, "self-query for {q} not fully contained");
        }
    }

    #[test]
    fn merge_rebuild_matches_full_resort() {
        // Drive one index through incremental merge rebuilds and compare
        // against an index built in a single batch (one big rebuild):
        // identical base order, keys, and prefix maxima.
        let mut rng = DetRng::new(11);
        let ranges: Vec<RangeSet> = (0..500)
            .map(|i| {
                let lo = rng.gen_inclusive_u32(0, 900);
                r(lo, lo + (i % 5) * 17)
            })
            .collect();
        let mut incremental = IntervalIndex::new();
        for range in &ranges {
            incremental.insert(range.clone());
        }
        let mut batch = IntervalIndex::new();
        batch.staging = ranges.clone();
        batch.rebuild();
        incremental.rebuild(); // flush any trailing staging
        assert_eq!(incremental.base.len(), batch.base.len());
        for (a, b) in incremental.base.iter().zip(&batch.base) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.prefix_max_end, b.prefix_max_end);
            assert_eq!(a.range, b.range);
        }
        assert_base_invariants(&incremental);
    }
}
