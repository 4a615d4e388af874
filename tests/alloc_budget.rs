//! A per-query allocation budget on the paper's §5.1 workload.
//!
//! A counting global allocator tallies the heap allocations the test's own
//! thread makes (a thread-local count, so the harness's threads never mix
//! in), and the one test asserts how many a query costs, once warm, on the
//! direct path (`RangeSelectNetwork`: one query at a time, split into
//! identifier-cache hits and misses, and through the batch call), under
//! layered placement, on the churn path
//! (`ChurnNetwork::query_timed`, on the §5.1 trace and on the ledger's
//! Zipf trace, where its identifier cache hits) and on the message path
//! (`ProtoNetwork`),
//! with and without a fault plan that delays and duplicates, and how many
//! one maintenance round of the churn path's ring and one churn step of
//! `churn_durable` (fail, stabilize, join, stabilize) cost. Neither a
//! message delivery nor a send through the fault injector may allocate:
//! the message path's budget is the direct path's plus a few allocations
//! a query, not a few a message, faults or none.

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
    let mut churn = ChurnNetwork::new(200, churn_config.clone()).expect("the ring converges");
    let churn_allocs = per_query(&trace, 1, |qs| {
        churn.query_timed(&qs[0]);
    });
    // The ledger's `churn_durable` trace and config, without the disk (a
    // log append is priced by `ars-store`) and without its churn steps:
    // 90 % of its ranges repeat, so identifier-cache hits carry it.
    let zipf = zipf_trace(20_000, 0, 40_000, 32, 1.1, 64, 0);
    let mut zipf_churn = ChurnNetwork::new(200, churn_config).expect("the ring converges");
    let zipf_churn_allocs = per_query(&zipf, 1, |qs| {
        zipf_churn.query_timed(&qs[0]);
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
    // One `churn_durable` churn step on the warm Zipf ring, split by call:
    // the failure and its arc repair, the join and its arc repair, and the
    // two `stabilize(64)` calls around the join.
    let (mut fail, mut join, mut stabilize) = (0, 0, 0);
    let counted = |tally: &mut u64, step: &mut dyn FnMut()| {
        let before = ALLOCATIONS.with(Cell::get);
        step();
        *tally += ALLOCATIONS.with(Cell::get) - before;
    };
    for _ in 0..ROUNDS {
        counted(&mut fail, &mut || zipf_churn.fail_random(1));
        counted(&mut stabilize, &mut || {
            zipf_churn.stabilize(64).expect("the ring converges");
        });
        counted(&mut join, &mut || {
            zipf_churn.join_random().expect("a peer joins");
        });
        counted(&mut stabilize, &mut || {
            zipf_churn.stabilize(64).expect("the ring converges");
        });
    }
    let [fail_allocs, join_allocs, stabilize_allocs] =
        [fail, join, stabilize].map(|n| n as f64 / ROUNDS as f64);
    let mut proto = ProtoNetwork::new(PEERS, config.clone());
    let proto_allocs = per_query(&trace, 1, |qs| {
        proto.query(&qs[0]);
    });
    // Every send passes the injector; a fifth are delayed up to 40 µs
    // (under one hop's 50), a tenth duplicated.
    let jitter = FaultPlan::none().with_delay(0.2, 0, 40).with_duplicate(0.1);
    let mut faulty = ProtoNetwork::new_faulty(PEERS, config, jitter, 2003);
    let faulty_allocs = per_query(&trace, 1, |qs| {
        faulty.query(&qs[0]);
    });
    eprintln!(
        "allocations a query: direct {direct_allocs:.2} (hit {hit_allocs:.2} x {}, \
         miss {miss_allocs:.2} x {}), batch {batch_allocs:.2}, \
         layered {layered_allocs:.2}, churn {churn_allocs:.2} (Zipf {zipf_churn_allocs:.2}), \
         message path {proto_allocs:.2} \
         (delayed and duplicated {faulty_allocs:.2}); one settle(1) round {settle_allocs:.2}; \
         one churn step: fail {fail_allocs:.2}, join {join_allocs:.2}, \
         stabilization {stabilize_allocs:.2}",
        hit.0, miss.0
    );

    assert!(
        direct_allocs <= 11.0,
        "direct path: {direct_allocs:.2} a query"
    );
    assert!(
        hit_allocs <= 7.5,
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
        layered_allocs <= 12.65,
        "layered placement: {layered_allocs:.2} a query"
    );
    assert!(
        churn_allocs <= 18.5,
        "churn path: {churn_allocs:.2} a query"
    );
    assert!(
        zipf_churn_allocs <= 10.5,
        "churn path, churn_durable's Zipf trace: {zipf_churn_allocs:.2} a query"
    );
    assert!(
        settle_allocs <= 2.0,
        "maintenance: {settle_allocs:.2} a settle(1) round"
    );
    // Repair's inventory carries the failure and the join: each copy it
    // reads is decoded into a range, and the de-duplicating map grows.
    // The per-pair island list and owner list read 359.25 and 279.625.
    assert!(
        fail_allocs <= 76.75,
        "churn step: {fail_allocs:.2} a failure"
    );
    assert!(join_allocs <= 63.0, "churn step: {join_allocs:.2} a join");
    assert_eq!(
        stabilize_allocs, 0.0,
        "churn step: {stabilize_allocs:.2} in stabilization"
    );
    assert!(
        proto_allocs <= 14.0,
        "message path: {proto_allocs:.2} a query (direct {direct_allocs:.2})"
    );
    assert!(
        faulty_allocs <= 14.0,
        "message path, delayed and duplicated: {faulty_allocs:.2} a query \
         (benign {proto_allocs:.2})"
    );
}
