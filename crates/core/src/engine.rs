//! The batch call: a trace run on the calling thread, each query's origin
//! drawn from one of `shards` deterministic RNG streams split off the
//! network's generator ([`DetRng::split_streams`]; query `seq` draws from
//! stream `seq % shards`, and stream 0 is the network's generator
//! afterwards). Everything else is [`RangeSelectNetwork::query`]'s own
//! loop — the identifier cache, the placement memo, `plan_query` and
//! `commit_plan` on the network's peers and stats — so outcomes differ
//! from that loop only in `hops` (the origin), and with one shard not at
//! all. The concurrent runtime this module once held was slower than that
//! loop (DESIGN §6c); its three names stay because the ledger links them.
//!
//! [`DetRng::split_streams`]: ars_common::DetRng::split_streams

use crate::network::{QueryOutcome, RangeSelectNetwork};
use crate::plan::identifiers_of;
use ars_lsh::RangeSet;

/// Options of one [`RangeSelectNetwork::query_batch_concurrent_with`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Origin RNG streams (≥ 1): query `seq` draws its origin from stream
    /// `seq % shards`, so outcomes are comparable only at equal counts.
    pub shards: usize,
    /// Unread: the batch runs on the calling thread. Kept, with `queue`,
    /// because the ledger's `engine_w2` writes this literal; ROADMAP
    /// 1(a)(i) retires both with that workload.
    pub workers: usize,
    /// Unread, like `workers`.
    pub queue: usize,
}

impl RangeSelectNetwork {
    /// Run `queries` in order on this network, query `seq` routed from an
    /// origin drawn off stream `seq % shards` of the network's generator.
    /// Cache accounting, stats and peers are exactly the [`Self::query`]
    /// loop's; with `shards == 1` so are the outcomes, bit for bit. Emits
    /// no per-query `core.query` span.
    ///
    /// # Panics
    /// Panics if `shards` is zero or a query is empty.
    pub fn query_trace_sharded(
        &mut self,
        queries: &[RangeSet],
        shards: usize,
    ) -> Vec<QueryOutcome> {
        assert!(shards >= 1, "engine needs at least 1 shard");
        let mut streams = self.rng.split_streams(shards);
        let mut outcomes = Vec::with_capacity(queries.len());
        for (seq, q) in queries.iter().enumerate() {
            let origin = streams[seq % shards].gen_index(self.ring.len());
            let hashed_range = self.hash_stage(q);
            let plan = self.plan_from(origin, &hashed_range, self.hash.resolved());
            let identifiers = identifiers_of(self.hash.placed());
            outcomes.push(self.commit_stage(q, hashed_range, identifiers, plan, false));
        }
        self.rng = streams.swap_remove(0);
        outcomes
    }

    /// [`Self::query_trace_sharded`] at `opts.shards`, inside one
    /// `engine.batch` telemetry span.
    ///
    /// # Panics
    /// Panics if `opts.shards` is zero or a query is empty.
    pub fn query_batch_concurrent_with(
        &mut self,
        queries: &[RangeSet],
        opts: EngineOptions,
    ) -> Vec<QueryOutcome> {
        let telemetry = self.telemetry.clone();
        let span = telemetry.span(
            "engine.batch",
            &[
                ("queries", queries.len().into()),
                ("shards", opts.shards.into()),
            ],
        );
        let outcomes = self.query_trace_sharded(queries, opts.shards);
        telemetry.span_end(span, &[("queries", outcomes.len().into())]);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlacementMode, SystemConfig};

    fn r(lo: u32, hi: u32) -> RangeSet {
        RangeSet::interval(lo, hi)
    }

    fn trace() -> Vec<RangeSet> {
        let mut qs = Vec::new();
        for i in 0..60u32 {
            let lo = (i * 41) % 900;
            qs.push(r(lo, lo + 12 + (i % 5) * 25));
            if i % 4 == 0 {
                qs.push(r(100, 160)); // popular repeat
            }
        }
        qs
    }

    fn opts(shards: usize) -> EngineOptions {
        EngineOptions {
            shards,
            workers: 2,
            queue: 16,
        }
    }

    #[test]
    fn single_shard_engine_reproduces_sequential_accounting() {
        // One shard == the plain loop, exactly — outcomes (including
        // hops), stats, and every cache counter.
        let config = SystemConfig::default().with_seed(77).with_padding(0.1);
        let mut seq = RangeSelectNetwork::new(40, config.clone());
        let mut eng = RangeSelectNetwork::new(40, config);
        let qs = trace();
        let out_seq: Vec<QueryOutcome> = qs.iter().map(|q| seq.query(q)).collect();
        let out_eng = eng.query_trace_sharded(&qs, 1);
        assert_eq!(out_seq, out_eng);
        assert_eq!(seq.stats(), eng.stats());
        let (sc, ec) = (seq.identifier_cache(), eng.identifier_cache());
        assert_eq!(sc.hits(), ec.hits());
        assert_eq!(sc.misses(), ec.misses());
        assert_eq!(sc.len(), ec.len());
        // And the engine-run network continues the same RNG stream.
        assert_eq!(seq.query(&r(5, 50)), eng.query(&r(5, 50)));
    }

    #[test]
    fn layered_engine_matches_layered_sequential() {
        // One shard: the engine must reproduce the layered sequential
        // path bit for bit, same as the independent-mode guarantee.
        let layered = SystemConfig::default()
            .with_seed(61)
            .with_placement_mode(PlacementMode::Layered)
            .with_probes(8);
        let mut seq = RangeSelectNetwork::new(40, layered.clone());
        let mut eng = RangeSelectNetwork::new(40, layered.clone());
        let qs = trace();
        let out_seq: Vec<QueryOutcome> = qs.iter().map(|q| seq.query(q)).collect();
        let out_eng = eng.query_trace_sharded(&qs, 1);
        assert_eq!(out_seq, out_eng);
        assert_eq!(seq.stats(), eng.stats());
        assert!(
            seq.stats().walk_steps > 0,
            "layered queries walk successors"
        );

        // Four shards: the batch call is the sharded loop, and the origin
        // moves nothing but the hops.
        let reference = {
            let mut net = RangeSelectNetwork::new(40, layered.clone());
            net.query_trace_sharded(&qs, 4)
        };
        let mut net = RangeSelectNetwork::new(40, layered);
        let out = net.query_batch_concurrent_with(&qs, opts(4));
        assert_eq!(reference, out);
        for (a, b) in out_seq.into_iter().zip(out) {
            assert_eq!(
                (a.hops.len(), a.exact, a.best_match),
                (b.hops.len(), b.exact, b.best_match)
            );
        }
    }

    #[test]
    fn concurrent_conserves_cache_ledger() {
        let qs = trace();
        let mut net = RangeSelectNetwork::new(40, SystemConfig::default().with_seed(9));
        let out = net.query_batch_concurrent_with(&qs, opts(4));
        assert_eq!(out.len(), qs.len());
        let cache = net.identifier_cache();
        assert_eq!(
            cache.hits() + cache.misses(),
            qs.len() as u64,
            "each query does exactly one cache lookup"
        );
        assert_eq!(net.stats().queries, qs.len() as u64);
        assert_eq!(
            net.stats().lookups,
            out.iter().map(|o| o.attempts as u64).sum::<u64>()
        );
    }

    #[test]
    fn empty_batch_is_identity() {
        let config = SystemConfig::default().with_seed(13);
        let mut a = RangeSelectNetwork::new(25, config.clone());
        let mut b = RangeSelectNetwork::new(25, config);
        let out = a.query_batch_concurrent_with(&[], opts(8));
        assert!(out.is_empty());
        assert_eq!(a.stats().queries, 0);
        // Stream 0 is the generator itself: identical subsequent behaviour.
        assert_eq!(a.query(&r(1, 40)), b.query(&r(1, 40)));
    }

    #[test]
    fn network_usable_after_concurrent_batch() {
        // A plain query after a batch must see the partitions it cached.
        let mut net = RangeSelectNetwork::new(30, SystemConfig::default().with_seed(71));
        net.query_batch_concurrent_with(&[r(200, 260), r(200, 260)], opts(4));
        let out = net.query(&r(200, 260));
        assert!(out.exact, "partition cached by the engine must be found");
    }

    #[test]
    fn engine_emits_batch_span_not_query_spans() {
        let mut net = RangeSelectNetwork::new(20, SystemConfig::default().with_seed(5));
        let tel = ars_telemetry::Telemetry::recording();
        net.set_telemetry(tel.clone());
        net.query_batch_concurrent_with(&trace(), opts(2));
        let starts: Vec<_> = tel
            .events()
            .into_iter()
            .filter(|e| e.kind == ars_telemetry::EventKind::SpanStart)
            .collect();
        assert_eq!(starts.len(), 1, "one engine.batch span, no per-query spans");
        assert_eq!(starts[0].name, "engine.batch");
        assert_eq!(tel.snapshot().counter("core.queries"), trace().len() as u64);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn engine_rejects_empty_range() {
        let mut net = RangeSelectNetwork::new(5, SystemConfig::default());
        net.query_batch_concurrent_with(&[r(1, 9), RangeSet::empty()], opts(2));
    }
}
