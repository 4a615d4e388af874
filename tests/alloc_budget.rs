//! A per-query allocation budget on the paper's §5.1 workload.
//!
//! A counting global allocator tallies the heap allocations the test's own
//! thread makes (a thread-local count, so the harness's threads never mix
//! in), and the one test asserts how many a query costs, once warm, on the
//! direct path (`RangeSelectNetwork`: one query at a time, split into
//! identifier-cache hits and misses, and through the batch call), under
//! layered placement, on the churn path
//! (`ChurnNetwork::query_timed`) and on the message path (`ProtoNetwork`),
//! and how many one maintenance round of the churn path's ring costs.
//! A message delivery must not allocate: the message path's budget is the
//! direct path's plus a few allocations a query, not a few a message.

use ars::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// count is a plain thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PEERS: usize = 1000;
const WARMUP: usize = 6_000;

/// Mean allocations a query over the trace after its first `WARMUP`,
/// handed to `run` in slices of `batch` queries.
fn per_query(trace: &Trace, batch: usize, mut run: impl FnMut(&[RangeSet])) -> f64 {
    let queries = trace.queries();
    queries[..WARMUP].chunks(batch).for_each(&mut run);
    let before = ALLOCATIONS.with(Cell::get);
    queries[WARMUP..].chunks(batch).for_each(&mut run);
    let counted = ALLOCATIONS.with(Cell::get) - before;
    counted as f64 / (queries.len() - WARMUP) as f64
}

/// One test, so the counts are taken one after the other on one thread.
#[test]
fn a_warm_query_allocates_within_budget_on_both_paths() {
    let trace = uniform_trace(30_000, 0, 1000, 0);
    let config = SystemConfig::default().with_seed(2003);

    let mut direct = RangeSelectNetwork::new(PEERS, config.clone());
    // Each timed query's count, tallied as `(queries, allocations)` by
    // whether its identifiers came from the identifier cache.
    let (mut seen, mut hit, mut miss) = (0, (0u64, 0u64), (0u64, 0u64));
    let direct_allocs = per_query(&trace, 1, |qs| {
        let hits = direct.identifier_cache().hits();
        let before = ALLOCATIONS.with(Cell::get);
        direct.query(&qs[0]);
        let allocs = ALLOCATIONS.with(Cell::get) - before;
        seen += 1;
        if seen > WARMUP {
            let row = if direct.identifier_cache().hits() > hits {
                &mut hit
            } else {
                &mut miss
            };
            *row = (row.0 + 1, row.1 + allocs);
        }
    });
    let hit_allocs = hit.1 as f64 / hit.0 as f64;
    let miss_allocs = miss.1 as f64 / miss.0 as f64;
    // The ledger's engine options, in its batch size.
    let engine = EngineOptions {
        shards: 16,
        workers: 2,
        queue: 1024,
    };
    let mut batched = RangeSelectNetwork::new(PEERS, config.clone());
    let batch_allocs = per_query(&trace, 3_000, |qs| {
        batched.query_batch_concurrent_with(qs, engine);
    });
    let layered_config = config
        .clone()
        .with_placement_mode(PlacementMode::Layered)
        .with_probes(16)
        .with_layers(1)
        .with_walk_window(4);
    let mut layered = RangeSelectNetwork::new(PEERS, layered_config);
    let layered_allocs = per_query(&trace, 1, |qs| {
        layered.query(&qs[0]);
    });
    let churn_config = config.clone().with_replication(2).with_route_cache(4096);
    let mut churn = ChurnNetwork::new(200, churn_config).expect("the ring converges");
    let churn_allocs = per_query(&trace, 1, |qs| {
        churn.query_timed(&qs[0]);
    });
    // One maintenance round on that ring (`churn_durable`'s 200 peers;
    // durability never touches the ring): every node's stabilize step and
    // its 32 fix-finger lookups. With node state in fixed-width
    // slot-indexed tables it reads 0; the hash-map layout with per-node
    // `Vec`s read 1 801 a round.
    const ROUNDS: u64 = 8;
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..ROUNDS {
        churn.settle(1);
    }
    let settle_allocs = (ALLOCATIONS.with(Cell::get) - before) as f64 / ROUNDS as f64;
    let mut proto = ProtoNetwork::new(PEERS, config);
    let proto_allocs = per_query(&trace, 1, |qs| {
        proto.query(&qs[0]);
    });
    eprintln!(
        "allocations a query: direct {direct_allocs:.2} (hit {hit_allocs:.2} x {}, \
         miss {miss_allocs:.2} x {}), batch {batch_allocs:.2}, \
         layered {layered_allocs:.2}, churn {churn_allocs:.2}, message path {proto_allocs:.2}; \
         one settle(1) round {settle_allocs:.2}",
        hit.0, miss.0
    );

    assert!(
        direct_allocs <= 11.0,
        "direct path: {direct_allocs:.2} a query"
    );
    assert!(
        hit_allocs <= 8.5,
        "direct path, identifier-cache hit: {hit_allocs:.2} a query"
    );
    assert!(
        miss_allocs <= 11.0,
        "direct path, identifier-cache miss: {miss_allocs:.2} a query"
    );
    assert!(
        batch_allocs <= 11.0,
        "batch call: {batch_allocs:.2} a query (direct {direct_allocs:.2})"
    );
    assert!(
        layered_allocs <= 18.0,
        "layered placement: {layered_allocs:.2} a query"
    );
    assert!(
        churn_allocs <= 18.5,
        "churn path: {churn_allocs:.2} a query"
    );
    assert!(
        settle_allocs <= 2.0,
        "maintenance: {settle_allocs:.2} a settle(1) round"
    );
    assert!(
        proto_allocs <= 14.0,
        "message path: {proto_allocs:.2} a query (direct {direct_allocs:.2})"
    );
}
