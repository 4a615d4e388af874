//! Per-peer storage state: identifier buckets and the §5.3 local index.

use crate::bucket::{winner, Bucket, Match};
use crate::config::MatchMeasure;
use crate::index::IntervalIndex;
use ars_chord::Id;
use ars_common::FxHashMap;
use ars_lsh::RangeSet;

/// One peer's cached-partition store.
///
/// A peer owns every identifier between its ring predecessor (exclusive)
/// and itself (inclusive); each owned identifier that has been stored to
/// has a [`Bucket`]. The optional *local index* (§5.3) additionally lets a
/// lookup consider partitions in **all** of the peer's buckets, trading
/// per-lookup work for recall.
#[derive(Debug, Clone, Default)]
pub struct Peer {
    /// Ring position.
    pub id: Id,
    buckets: FxHashMap<u32, Bucket>,
    /// Total ranges over all of `buckets`, kept by store/evict/drain.
    partitions: usize,
    /// §5.3 local index over everything in `buckets`, maintained on store
    /// — only on a peer built for a config that queries it
    /// ([`SystemConfig::use_local_index`](crate::config::SystemConfig)).
    index: Option<IntervalIndex>,
}

impl Peer {
    /// A peer at ring position `id` with no cached partitions, keeping the
    /// §5.3 local index iff `local_index`.
    pub fn new(id: Id, local_index: bool) -> Peer {
        Peer {
            id,
            index: local_index.then(IntervalIndex::new),
            ..Peer::default()
        }
    }

    /// Store a partition range under `identifier`. Returns true if newly
    /// stored.
    pub fn store(&mut self, identifier: u32, range: RangeSet) -> bool {
        let bucket = self.buckets.entry(identifier).or_default();
        let inserted = match &mut self.index {
            None => bucket.insert(range),
            Some(index) => {
                let inserted = bucket.insert(range.clone());
                if inserted {
                    index.insert(range);
                }
                inserted
            }
        };
        self.partitions += inserted as usize;
        inserted
    }

    /// The bucket for `identifier`, if any partition was ever stored there.
    pub fn bucket(&self, identifier: u32) -> Option<&Bucket> {
        self.buckets.get(&identifier)
    }

    /// Best match for `query` looking only at `identifier`'s bucket
    /// (the paper's base procedure).
    pub fn best_in_bucket(
        &self,
        identifier: u32,
        query: &RangeSet,
        measure: MatchMeasure,
    ) -> Option<Match> {
        self.buckets
            .get(&identifier)
            .and_then(|b| b.best_match(query, measure))
    }

    /// What a query reads at this peer: the best match across the buckets
    /// of `identifiers` (the earliest-listed bucket wins ties) and the
    /// number of stored ranges that stood as candidates. A peer that keeps
    /// the §5.3 local index answers through it, across everything it
    /// holds. Every transport reads through this.
    pub(crate) fn best_in_buckets(
        &self,
        identifiers: &[u32],
        query: &RangeSet,
        measure: MatchMeasure,
    ) -> (Option<Match>, usize) {
        if let Some(index) = &self.index {
            return (index.best_match(query, measure), self.partitions);
        }
        // One flat scan per bucket, the running best carried across them.
        let (mut best, mut scan_len) = (None, 0);
        for bucket in identifiers.iter().filter_map(|i| self.buckets.get(i)) {
            scan_len += bucket.len();
            best = bucket.scan(best, query, measure);
        }
        (winner(best), scan_len)
    }

    /// Best match across **all** buckets this peer holds — the §5.3 local
    /// index, answered through a flattened interval tree
    /// (`IntervalIndex`): only candidates overlapping the query are
    /// scored. A peer built without the index answers through
    /// [`Self::best_across_buckets_scan`].
    pub fn best_across_buckets(&self, query: &RangeSet, measure: MatchMeasure) -> Option<Match> {
        match &self.index {
            Some(index) => index.best_match(query, measure),
            None => self.best_across_buckets_scan(query, measure),
        }
    }

    /// Reference implementation of [`Self::best_across_buckets`] as a full
    /// scan — the ablation baseline and test oracle for the index.
    pub fn best_across_buckets_scan(
        &self,
        query: &RangeSet,
        measure: MatchMeasure,
    ) -> Option<Match> {
        winner((self.buckets.values()).fold(None, |best, b| b.scan(best, query, measure)))
    }

    /// Total partitions stored at this peer (the load metric of Fig. 11).
    pub fn partition_count(&self) -> usize {
        self.partitions
    }

    /// Ranges held by the §5.3 local index — `partition_count()` on a peer
    /// that keeps one, zero on a peer that does not.
    pub fn indexed_count(&self) -> usize {
        self.index.as_ref().map_or(0, IntervalIndex::len)
    }

    /// Number of distinct identifiers with a non-empty bucket.
    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// True if any bucket stores exactly this range.
    #[cfg(test)]
    pub(crate) fn contains_range(&self, range: &RangeSet) -> bool {
        self.buckets.values().any(|b| b.contains(range))
    }

    /// Remove one stored range from `identifier`'s bucket. Returns true if
    /// it was present; an emptied bucket is dropped (so [`Self::bucket`]
    /// goes back to `None`, matching a never-stored identifier). The §5.3
    /// local index has no removal operation, so a peer that keeps one
    /// rebuilds it from the surviving entries.
    pub fn evict(&mut self, identifier: u32, range: &RangeSet) -> bool {
        let Some(bucket) = self.buckets.get_mut(&identifier) else {
            return false;
        };
        if !bucket.remove(range) {
            return false;
        }
        if bucket.is_empty() {
            self.buckets.remove(&identifier);
        }
        self.partitions -= 1;
        if let Some(index) = &mut self.index {
            *index = IntervalIndex::new();
            for r in self.buckets.values().flat_map(Bucket::ranges) {
                index.insert(r);
            }
        }
        true
    }

    /// Iterate over all stored (identifier, range) pairs without consuming
    /// them — the re-replication sweep reads every peer's inventory to
    /// restore the successor-replication invariant after churn.
    pub fn entries(&self) -> impl Iterator<Item = (u32, RangeSet)> + '_ {
        self.buckets()
            .flat_map(|(ident, bucket)| bucket.ranges().map(move |r| (ident, r)))
    }

    /// The non-empty buckets with their identifiers, in the order
    /// [`Self::entries`] walks them — for a sweep that decides per
    /// identifier, not per stored range.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u32, &Bucket)> + '_ {
        self.buckets.iter().map(|(&ident, bucket)| (ident, bucket))
    }

    /// Drain all stored (identifier, range) pairs — used when a peer leaves
    /// gracefully and hands its keys to its successor.
    pub(crate) fn drain(&mut self) -> Vec<(u32, RangeSet)> {
        let mut out = Vec::new();
        for (ident, bucket) in self.buckets.drain() {
            out.extend(bucket.ranges().map(|r| (ident, r)));
        }
        self.partitions = 0;
        if let Some(index) = &mut self.index {
            *index = IntervalIndex::new();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    /// The running `partition_count()` against what it replaces: the sum
    /// of the bucket lengths (and the index size, where one is kept).
    fn assert_count_exact(p: &Peer) {
        let summed: usize = p.buckets.values().map(Bucket::len).sum();
        assert_eq!(p.partition_count(), summed);
        assert_eq!(p.entries().count(), summed);
        if p.index.is_some() {
            assert_eq!(p.indexed_count(), summed);
        }
    }

    #[test]
    fn store_and_count() {
        let mut p = Peer::new(Id(42), false);
        assert!(p.buckets.is_empty());
        assert!(p.store(7, r(0, 10)));
        assert!(p.store(7, r(20, 30)));
        assert!(!p.store(7, r(0, 10))); // dedup within bucket
        assert!(p.store(9, r(0, 10))); // same range, different bucket: kept
        assert_eq!(p.partition_count(), 3);
        assert_eq!(p.bucket_count(), 2);
        assert_count_exact(&p);
        assert_eq!(p.indexed_count(), 0, "built without the index");
    }

    #[test]
    fn best_in_bucket_scoped_to_identifier() {
        let mut p = Peer::new(Id(1), false);
        p.store(7, r(0, 10));
        p.store(9, r(100, 110));
        let q = r(100, 110);
        // Identifier 7's bucket does not see the exact match under id 9.
        let m7 = p.best_in_bucket(7, &q, MatchMeasure::Jaccard).unwrap();
        assert_eq!(m7.score, 0.0);
        let m9 = p.best_in_bucket(9, &q, MatchMeasure::Jaccard).unwrap();
        assert_eq!(m9.score, 1.0);
        assert!(p.best_in_bucket(999, &q, MatchMeasure::Jaccard).is_none());
    }

    #[test]
    fn index_agrees_with_scan() {
        let mut p = Peer::new(Id(2), true);
        for i in 0..50u32 {
            p.store(i % 7, r(i * 13 % 800, i * 13 % 800 + 40));
        }
        for lo in [0u32, 100, 400, 700] {
            let q = r(lo, lo + 60);
            for m in [MatchMeasure::Jaccard, MatchMeasure::Containment] {
                let a = p.best_across_buckets(&q, m).unwrap();
                let b = p.best_across_buckets_scan(&q, m).unwrap();
                assert_eq!(a.score, b.score, "query {q} measure {m:?}");
            }
        }
        assert_count_exact(&p);
    }

    #[test]
    fn local_index_sees_all_buckets() {
        let mut p = Peer::new(Id(1), true);
        p.store(7, r(0, 10));
        p.store(9, r(100, 110));
        let q = r(100, 110);
        let m = p.best_across_buckets(&q, MatchMeasure::Jaccard).unwrap();
        assert_eq!(m.score, 1.0);
        assert_eq!(m.range, r(100, 110));
    }

    #[test]
    fn local_index_empty_peer() {
        let p = Peer::new(Id(0), true);
        assert!(p
            .best_across_buckets(&r(0, 1), MatchMeasure::Jaccard)
            .is_none());
    }

    #[test]
    fn entries_iterates_without_consuming() {
        let mut p = Peer::new(Id(1), false);
        p.store(7, r(0, 10));
        p.store(7, r(20, 30));
        p.store(9, r(100, 110));
        let mut seen: Vec<(u32, RangeSet)> = p.entries().collect();
        seen.sort_by(|a, b| (a.0, a.1.intervals()).cmp(&(b.0, b.1.intervals())));
        assert_eq!(seen, vec![(7, r(0, 10)), (7, r(20, 30)), (9, r(100, 110))]);
        assert_eq!(p.partition_count(), 3, "entries must not drain");
    }

    #[test]
    fn evict_removes_exactly_one_entry_and_repairs_the_index() {
        let mut p = Peer::new(Id(1), true);
        p.store(7, r(0, 10));
        p.store(7, r(20, 30));
        p.store(9, r(100, 110));
        assert!(!p.evict(7, &r(50, 60)), "absent range");
        assert!(!p.evict(999, &r(0, 10)), "absent bucket");
        assert!(p.evict(7, &r(0, 10)));
        assert!(!p.evict(7, &r(0, 10)), "second evict is a no-op");
        assert_eq!(p.partition_count(), 2);
        assert_count_exact(&p);
        // The evicted range is gone from the local index too.
        let m = p.best_across_buckets(&r(0, 10), MatchMeasure::Jaccard);
        assert!(
            m.map(|m| m.score < 1.0).unwrap_or(true),
            "evicted range must not be matchable"
        );
        // Emptying a bucket drops it entirely.
        assert!(p.evict(9, &r(100, 110)));
        assert!(p.bucket(9).is_none());
        assert_count_exact(&p);
    }

    #[test]
    fn drain_hands_over_everything() {
        let mut p = Peer::new(Id(1), true);
        p.store(7, r(0, 10));
        p.store(9, r(100, 110));
        let mut handed = p.drain();
        handed.sort_by_key(|(i, _)| *i);
        assert_eq!(handed.len(), 2);
        assert_eq!(handed[0], (7, r(0, 10)));
        assert_eq!(handed[1], (9, r(100, 110)));
        assert!(p.buckets.is_empty());
        assert_eq!(p.partition_count(), 0);
        assert_count_exact(&p);
    }
}
