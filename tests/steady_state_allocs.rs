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
//! doublings on top. The road strip only ever pushes through the
//! online filter; a second case holds PageRank and BFS on a small
//! R-MAT — vote pull, aggregation pull with its candidate bitmap, the
//! ballot scan and both publish strategies — to the same budget. A
//! third case arms boundary checkpointing on the road strip: capturing
//! every iteration, and resuming from a capture, may cost a fixed
//! number of allocations on top of the unarmed query — the slot's
//! buffers and their doublings — and again none per iteration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simdx::algos::{Bfs, PageRank};
use simdx::core::prelude::*;
use simdx::core::FilterKind;
use simdx::graph::csr::Direction;
use simdx::graph::gen::{Rmat, Road};
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

/// The road strip and its centre vertex. Vertex `y * width + x`: 0 is a
/// corner, a BFS from it runs about twice the iterations of one from
/// the centre.
fn road_strip() -> (Graph, u32) {
    let (width, height) = (64, 16);
    let g = Graph::undirected_from_edges(Road::strip(width, height).generate(5));
    (g, (height / 2) * width + width / 2)
}

#[test]
fn warm_serial_queries_allocate_per_query_not_per_iteration() {
    let (g, mid) = road_strip();
    let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
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

#[test]
fn armed_capture_and_resume_allocate_per_run_not_per_iteration() {
    let (g, mid) = road_strip();
    let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
    let bound = runtime.bind(&g);
    for src in [0, mid, 0, mid] {
        bound.run(Bfs::new(src)).execute().expect("warm-up");
    }
    let armed = |src| {
        bound
            .run(Bfs::new(src))
            .checkpoint_on_abort()
            .execute()
            .expect("armed")
    };

    let (plain, plain_allocs) =
        allocations_during(|| bound.run(Bfs::new(0)).execute().expect("plain"));
    let (far, far_allocs) = allocations_during(|| armed(0));
    let (near, near_allocs) = allocations_during(|| armed(mid));
    assert!(far.report.iterations >= near.report.iterations + 20);
    assert_eq!(far.meta, plain.meta);
    // The capture budget: the slot's metadata, frontier and log buffers
    // and the doublings of the latter two — per run, whatever its
    // length.
    assert!(
        far_allocs <= plain_allocs + 16,
        "armed: {far_allocs} allocations, unarmed: {plain_allocs}"
    );
    assert!(
        far_allocs.abs_diff(near_allocs) <= 4,
        "{} armed iterations took {far_allocs} allocations, {} took {near_allocs}",
        far.report.iterations,
        near.report.iterations
    );

    // Cut the far query at half its cycles and finish it from the
    // checkpoint: restoring copies the boundary once, and the rest is
    // an armed run like any other.
    let cp = bound
        .run(Bfs::new(0))
        .cycle_budget(plain.report.stats.total_cycles / 2)
        .checkpoint_on_abort()
        .execute()
        .expect_err("starved")
        .checkpoint
        .expect("boundary reached");
    let left = far.report.iterations - cp.iteration();
    assert!(left >= 20, "the resume must run many iterations ({left})");
    let (resumed, resumed_allocs) =
        allocations_during(|| bound.resume(Bfs::new(0), cp).execute().expect("resumed"));
    assert_eq!(resumed.meta, plain.meta);
    assert!(
        resumed_allocs <= far_allocs,
        "a {left}-iteration resume took {resumed_allocs} allocations, \
         a fresh armed run {far_allocs}"
    );
}

#[test]
fn warm_rmat_queries_allocate_nothing_per_pull_or_ballot_iteration() {
    let g = Graph::directed_from_edges(Rmat::gtgraph(11, 8).generate(5));
    // A 4-entry bin threshold overflows into the ballot filter on a
    // graph this small (as in `golden_reports`).
    let cfg = EngineConfig::default().with_overflow_threshold(4);
    let runtime = Runtime::new(cfg).expect("runtime");
    let bound = runtime.bind(&g);
    // The same program at two tolerances: the fine one runs several
    // times the iterations of the coarse one over the same arena.
    let coarse = PageRank::with_params(&g, 0.85, 1e-3);
    let fine = PageRank::with_params(&g, 0.85, 1e-7);
    for _ in 0..2 {
        bound.run(Bfs::new(0)).execute().expect("warm-up");
        bound.run(&coarse).execute().expect("warm-up");
        bound.run(&fine).execute().expect("warm-up");
    }

    let (bfs, bfs_allocs) = allocations_during(|| bound.run(Bfs::new(0)).execute().expect("bfs"));
    let (short, short_allocs) = allocations_during(|| bound.run(&coarse).execute().expect("pr"));
    let (long, long_allocs) = allocations_during(|| bound.run(&fine).execute().expect("pr"));
    let (_, again_allocs) = allocations_during(|| bound.run(Bfs::new(0)).execute().expect("bfs"));

    let count = |r: &RunReport, dir, filter| {
        let records = r.log.records.iter();
        records
            .filter(|x| x.direction == dir && x.filter == filter)
            .count()
    };
    // The paths under test did run: vote pull and aggregation pull,
    // each under both filters.
    assert!(count(&bfs.report, Direction::Pull, FilterKind::Ballot) >= 2);
    assert!(count(&bfs.report, Direction::Pull, FilterKind::Online) >= 2);
    assert!(count(&long.report, Direction::Pull, FilterKind::Ballot) >= 10);
    assert!(count(&long.report, Direction::Pull, FilterKind::Online) >= 10);
    let (long_iters, short_iters) = (long.report.iterations, short.report.iterations);
    assert!(
        long_iters >= short_iters + 30,
        "the two PageRank runs must differ by many iterations ({long_iters} vs {short_iters})"
    );
    assert!(bfs_allocs <= 32, "{bfs_allocs} allocations in a warm BFS");
    assert_eq!(again_allocs, bfs_allocs);
    assert!(
        long_allocs <= 32,
        "{long_allocs} allocations in a {long_iters}-iteration warm PageRank"
    );
    // Thirty-odd extra pull iterations may cost only the activation
    // log's extra capacity doublings.
    assert!(
        long_allocs.abs_diff(short_allocs) <= 5,
        "{long_iters} iterations took {long_allocs} allocations, {short_iters} took {short_allocs}"
    );
}
