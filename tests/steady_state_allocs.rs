//! Steady-state allocation budget of the serial ACC loop.
//!
//! A warm bound session must serve a query with a fixed number of heap
//! allocations — the result's metadata, the report and its activation
//! log, the per-run plan — and **none per iteration**: worklists, bins,
//! frontiers and the simulator's kernel-charge accumulator all live in
//! the reused arena. The test counts the allocator calls the querying
//! thread makes (a thread-local counter, so libtest's own threads do
//! not disturb it) and checks both the budget and the slope: a BFS
//! from the end of a road strip runs twice the iterations of a BFS
//! from its middle and may allocate only the activation log's extra
//! doublings on top.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simdx::algos::Bfs;
use simdx::core::prelude::*;
use simdx::graph::gen::Road;
use simdx::graph::Graph;

thread_local! {
    /// `alloc` + `realloc` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates (const-initialised
// `Cell`, no destructor) nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `alloc` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller's contract guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `realloc` contract is passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn warm_serial_queries_allocate_per_query_not_per_iteration() {
    // Vertex `y * width + x`: 0 is a corner, `mid` the centre.
    let (width, height) = (64, 16);
    let g = Graph::undirected_from_edges(Road::strip(width, height).generate(5));
    let mid = (height / 2) * width + width / 2;
    let cfg = EngineConfig::default()
        .with_exec(ExecMode::Serial)
        .with_frontier(FrontierRepr::List);
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    // Warm the arena on both queries (the central source fans out in
    // two directions and fills more bins), twice, so every buffer has
    // reached its final capacity.
    for src in [0, mid, 0, mid] {
        bound.run(Bfs::new(src)).execute().expect("warm-up");
    }

    let (far, far_allocs) = allocations_during(|| bound.run(Bfs::new(0)).execute().expect("far"));
    let (near, near_allocs) =
        allocations_during(|| bound.run(Bfs::new(mid)).execute().expect("near"));
    let (again, again_allocs) =
        allocations_during(|| bound.run(Bfs::new(0)).execute().expect("again"));

    let (far_iters, near_iters) = (far.report.iterations, near.report.iterations);
    assert!(
        near_iters >= 20 && far_iters >= near_iters + 20,
        "the two queries must differ by many iterations ({far_iters} vs {near_iters})"
    );
    // The budget: what one query hands back (metadata, report, log
    // growth) plus the per-run plan and snapshots.
    assert!(
        far_allocs <= 32,
        "{far_allocs} allocations in a {far_iters}-iteration warm query"
    );
    // The slope: tens of extra iterations may cost only the activation
    // log's extra capacity doublings.
    assert!(
        far_allocs.abs_diff(near_allocs) <= 2,
        "{far_iters} iterations took {far_allocs} allocations, {near_iters} took {near_allocs}"
    );
    // And the count is a property of the query, not of its position.
    assert_eq!(again_allocs, far_allocs);
    assert_eq!(again.meta, far.meta);
}
