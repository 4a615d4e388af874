//! Per-peer storage state: identifier buckets, read one bucket at a time
//! or, under the §5.3 setting, all of them at once.

use crate::bucket::{winner, Bucket, Match};
use crate::config::MatchMeasure;
use ars_chord::Id;
use ars_common::FxHashMap;
use ars_lsh::RangeSet;

/// One peer's cached-partition store.
///
/// A peer owns every identifier between its ring predecessor (exclusive)
/// and itself (inclusive); each owned identifier that has been stored to
/// has a [`Bucket`]. A peer built for the §5.3 setting
/// ([`SystemConfig::use_local_index`](crate::config::SystemConfig))
/// answers a lookup from partitions in **all** of its buckets, trading
/// per-lookup work for recall.
#[derive(Debug, Clone, Default)]
pub struct Peer {
    /// Ring position.
    pub id: Id,
    buckets: FxHashMap<u32, Bucket>,
    /// Total ranges over all of `buckets`, kept by store and drain.
    partitions: usize,
    /// Every read scans all of `buckets` (§5.3), not only the named ones.
    reads_all: bool,
}

impl Peer {
    /// A peer at ring position `id` with no cached partitions, whose reads
    /// consider every bucket it holds iff `local_index` (§5.3).
    pub fn new(id: Id, local_index: bool) -> Peer {
        Peer {
            id,
            reads_all: local_index,
            ..Peer::default()
        }
    }

    /// Store a partition range under `identifier`. Returns true if newly
    /// stored.
    pub fn store(&mut self, identifier: u32, range: RangeSet) -> bool {
        let inserted = self.buckets.entry(identifier).or_default().insert(range);
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
    /// number of stored ranges that stood as candidates. A peer built for
    /// §5.3 reads [`Self::best_across_buckets`] instead. Every transport
    /// reads through this.
    pub(crate) fn best_in_buckets(
        &self,
        identifiers: &[u32],
        query: &RangeSet,
        measure: MatchMeasure,
    ) -> (Option<Match>, usize) {
        if self.reads_all {
            return (self.best_across_buckets(query, measure), self.partitions);
        }
        // One flat scan per bucket, the running best carried across them.
        let (mut best, mut scan_len) = (None, 0);
        for bucket in identifiers.iter().filter_map(|i| self.buckets.get(i)) {
            scan_len += bucket.len();
            best = bucket.scan(best, query, measure);
        }
        (winner(best), scan_len)
    }

    /// Best match across **all** buckets this peer holds (§5.3): each
    /// bucket's scan, the best score winning and a tie going to the
    /// smallest identifier's bucket, then to its earliest-stored range. So
    /// the answer does not depend on the order the buckets were created
    /// in, which on the message path is the order stores arrived.
    pub fn best_across_buckets(&self, query: &RangeSet, measure: MatchMeasure) -> Option<Match> {
        let best = (self.buckets.iter())
            .filter_map(|(&ident, bucket)| Some((ident, bucket.scan(None, query, measure)?)))
            .max_by(|(i, (.., s)), (j, (.., t))| s.total_cmp(t).then(j.cmp(i)));
        winner(best.map(|(_, running)| running))
    }

    /// Total partitions stored at this peer (the load metric of Fig. 11).
    pub fn partition_count(&self) -> usize {
        self.partitions
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
    /// of the bucket lengths.
    fn assert_count_exact(p: &Peer) {
        let summed: usize = p.buckets.values().map(Bucket::len).sum();
        assert_eq!(p.partition_count(), summed);
        assert_eq!(p.entries().count(), summed);
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
    fn local_index_sees_all_buckets() {
        let mut p = Peer::new(Id(1), true);
        p.store(7, r(0, 10));
        p.store(9, r(100, 110));
        let q = r(100, 110);
        let m = p.best_across_buckets(&q, MatchMeasure::Jaccard).unwrap();
        assert_eq!(m.score, 1.0);
        assert_eq!(m.range, r(100, 110));
        // A read naming bucket 7 alone still sees bucket 9, and every
        // stored range stood as a candidate.
        let (read, scanned) = p.best_in_buckets(&[7], &q, MatchMeasure::Jaccard);
        assert_eq!(read, Some(m));
        assert_eq!(scanned, 2);
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
