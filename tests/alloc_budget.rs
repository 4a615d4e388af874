//! A per-query allocation budget on the paper's §5.1 workload.
//!
//! A counting global allocator tallies the heap allocations the test's own
//! thread makes (a thread-local count, so the harness's threads never mix
//! in), and the one test asserts how many a query costs, once warm, on the
//! direct path (`RangeSelectNetwork`) and on the message path
//! (`ProtoNetwork`). A message delivery must not allocate: the message
//! path's budget is the direct path's plus a few allocations a query, not a
//! few a message.

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

/// Mean allocations a query over the trace after its first `WARMUP`.
fn per_query(trace: &Trace, mut query: impl FnMut(&RangeSet)) -> f64 {
    let queries = trace.queries();
    queries[..WARMUP].iter().for_each(&mut query);
    let before = ALLOCATIONS.with(Cell::get);
    queries[WARMUP..].iter().for_each(&mut query);
    let counted = ALLOCATIONS.with(Cell::get) - before;
    counted as f64 / (queries.len() - WARMUP) as f64
}

/// One test, so the two counts are taken one after the other on one thread.
#[test]
fn a_warm_query_allocates_within_budget_on_both_paths() {
    let trace = uniform_trace(30_000, 0, 1000, 0);
    let config = SystemConfig::default().with_seed(2003);

    let mut direct = RangeSelectNetwork::new(PEERS, config.clone());
    let direct_allocs = per_query(&trace, |q| {
        direct.query(q);
    });
    let mut proto = ProtoNetwork::new(PEERS, config);
    let proto_allocs = per_query(&trace, |q| {
        proto.query(q);
    });
    eprintln!("allocations a query: direct {direct_allocs:.2}, message path {proto_allocs:.2}");

    assert!(
        direct_allocs <= 11.0,
        "direct path: {direct_allocs:.2} a query"
    );
    assert!(
        proto_allocs <= 14.0,
        "message path: {proto_allocs:.2} a query (direct {direct_allocs:.2})"
    );
}
