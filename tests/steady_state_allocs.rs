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
//!
//! The same allocator meters bytes: the thread's live bytes and their
//! peak, a moving `realloc` holding both blocks at once. Each graph
//! build must peak above its input at no more than the bytes of the
//! graph it returns, a directed graph's first pull at exactly the
//! transpose it builds, and each session phase — bind, the first query
//! of each metadata type, a warm query, an armed one, the first query on
//! a second graph of the runtime — within a budget of `|V|`-sized
//! vectors. A parallel bind, like a serial one, allocates nothing and
//! leaves a directed graph's transpose unbuilt. Unlike a process's
//! resident peak, this fails the moment a phase holds an array twice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use simdx::algos::{Bfs, PageRank};
use simdx::core::persist;
use simdx::core::prelude::*;
use simdx::core::FilterKind;
use simdx::graph::csr::Direction;
use simdx::graph::gen::{Rmat, Road};
use simdx::graph::weights::assign_default_weights;
use simdx::graph::{Csr, EdgeList, Graph};

thread_local! {
    /// `alloc` + `realloc` calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`peak_above_entry`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Moves this thread's live bytes by `delta`, raising the peak with them.
fn add_live(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are
// thread-local counter updates that neither allocate (const-initialised
// `Cell`s, no destructor) nor touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        // SAFETY: the caller's `alloc` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller's contract guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `realloc` contract is passed through as is.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        let (old, grown) = (layout.size() as i64, new_size as i64);
        if new == ptr {
            add_live(grown - old);
        } else if !new.is_null() {
            // A moving realloc holds both blocks while it copies.
            add_live(grown);
            add_live(-old);
        }
        new
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

/// The most bytes this thread held above its entry level while `f` ran,
/// `f`'s output included.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let entry = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(entry));
    let out = f();
    (out, (PEAK.with(Cell::get) - entry) as u64)
}

/// Runs `f` with this thread's panics unreported: under
/// `RUST_BACKTRACE` the default hook's backtrace alone allocates
/// megabytes. Other threads' panics still reach the previous hook.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let this = std::thread::current().id();
    let previous: Arc<PanicHook> = Arc::from(std::panic::take_hook());
    let others = Arc::clone(&previous);
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().id() != this {
            others(info);
        }
    }));
    let out = f();
    std::panic::set_hook(Box::new(move |info| previous(info)));
    out
}

type PanicHook = dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync;

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

/// The durable codec's allocation budget: `encode` allocates its blob
/// once, at exactly its final size, and `decode` allocates only what it
/// returns — the algorithm string and the metadata, frontier and log
/// vectors — however many log records the blob carries. Diagnostic
/// strings are formatted on the error path only.
#[test]
fn checkpoint_codec_allocates_only_what_it_returns() {
    let (g, _) = road_strip();
    let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
    let bound = runtime.bind(&g);
    let cut_at = |last: u32| {
        let token = CancelToken::new();
        let hook_token = token.clone();
        let checkpoint = bound
            .run(Bfs::new(0))
            .cancel_token(token)
            .checkpoint_on_abort()
            .observe(move |rec| {
                if rec.iteration >= last {
                    hook_token.cancel();
                }
            })
            .execute()
            .expect_err("cancelled")
            .checkpoint
            .expect("a boundary was reached");
        persist::DurableCheckpoint {
            ticket: 1,
            seed: 0,
            checkpoint,
        }
    };
    for (last, records) in [(5, 6), (29, 30)] {
        let frame = cut_at(last);
        let (blob, encode_allocs) = allocations_during(|| persist::encode(&frame));
        assert_eq!(encode_allocs, 1, "encode of a {records}-record checkpoint");
        assert_eq!(blob.capacity(), blob.len(), "the blob is sized exactly");
        let (back, decode_allocs) =
            allocations_during(|| persist::decode::<u32>(&blob).expect("decode"));
        assert_eq!(back.checkpoint.iteration(), records);
        assert_eq!(
            decode_allocs, 4,
            "decode of a {records}-record checkpoint: algorithm, metadata, frontier, log"
        );
    }
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

/// The build meter's fixtures as fresh edge lists: an R-MAT and a road
/// strip, each weighted and unweighted.
fn build_inputs() -> Vec<(&'static str, EdgeList)> {
    let rmat = Rmat::gtgraph(12, 8).generate(5);
    let road = Road::strip(64, 16).generate(5);
    vec![
        ("weighted R-MAT", assign_default_weights(&rmat, 9)),
        ("R-MAT", rmat),
        ("weighted road", assign_default_weights(&road, 9)),
        ("road", road),
    ]
}

/// Builds every fixture with `build`, which scatters each input pair
/// `copies` times, and holds the build's peak above entry — the input
/// list live there and freed inside — to the bytes the output holds:
/// its footprint plus the capacity `dedup_rows` keeps for the loops and
/// duplicates it drops.
fn assert_builds_peak_at_their_output_bytes(build: fn(EdgeList) -> Graph, copies: u64) {
    for (name, el) in build_inputs() {
        let per_edge = if el.is_weighted() { 8 } else { 4 };
        // A plain CSR keeps every pair of the list, loops and duplicates.
        let pairs = copies * Csr::from_edge_list(&el).num_edges();
        let (g, peak) = peak_above_entry(|| build(el));
        let budget = g.footprint_bytes() + (pairs - g.num_edges()) * per_edge;
        assert!(
            peak <= budget,
            "{name}: the build peaked {peak} B above its input, budget {budget} B"
        );
    }
}

#[test]
fn undirected_builds_peak_at_their_output_bytes() {
    // Measured, in `build_inputs` order: 544 072, 288 424, 37 912 and
    // 23 056 B, each its budget to the byte — the scatter's output, with
    // the list still live and nothing else beside it.
    assert_builds_peak_at_their_output_bytes(Graph::undirected_from_edges, 2);
}

#[test]
fn directed_builds_peak_at_their_output_bytes() {
    // Measured: 160 600, 160 600, 15 628 and 15 628 B — the out-CSR's
    // offsets and targets with the list still live: each unweighted
    // build's budget to the byte, and the weighted builds the same, as
    // they adopt the list's weights (127 824 and 7 428 B under budget).
    // The transpose waits for the first pull (priced in
    // `session_phases_peak_within_their_vertex_vector_budgets`).
    assert_builds_peak_at_their_output_bytes(Graph::directed_from_edges, 1);
}

#[test]
fn presorted_builds_allocate_only_their_output_arrays() {
    // Generator lists arrive strictly sorted and loop-free. The count
    // pass proves it, so each build makes only its output arrays. A
    // directed build makes exactly offsets and targets, weighted or
    // not: the count copies the targets and the list's own weights
    // vector becomes the graph's. An undirected build makes offsets,
    // targets and weights if any, and merges each row's run of the
    // list with its mirrored run in place, with no buffer.
    for (name, el) in build_inputs() {
        let outputs = if el.is_weighted() { 3 } else { 2 };
        let copy = el.clone();
        let (_, directed) = allocations_during(|| Graph::directed_from_edges(copy));
        assert_eq!(directed, 2, "{name}: directed build");
        let (_, undirected) = allocations_during(|| Graph::undirected_from_edges(el));
        assert_eq!(undirected, outputs, "{name}: undirected build");
    }
}

#[test]
fn a_saturated_vertex_count_fails_before_the_build_allocates() {
    // An endpoint of `u32::MAX` saturates the list's vertex count and
    // lies outside it. Validation reads the list before `offsets` (of
    // `(2^32 - 1) + 1` entries) is allocated, so each build fails with
    // the legacy panic, naming the first pair out of range, having
    // allocated next to nothing: after a presorted prefix, which a
    // directed count would copy, and after an unsorted one.
    let max = u32::MAX;
    let cases = [
        (vec![(0, 1), (1, max)], "edge (1, 4294967295)"),
        (
            vec![(0, 1), (0, 2), (1, max), (2, max)],
            "edge (1, 4294967295)",
        ),
        (
            vec![(2, 0), (0, 1), (max, 1), (1, max)],
            "edge (4294967295, 1)",
        ),
    ];
    let directed: fn(EdgeList) -> Graph = Graph::directed_from_edges;
    for (pairs, first) in cases {
        for (name, build) in [
            ("directed", directed),
            ("undirected", Graph::undirected_from_edges),
        ] {
            let el = EdgeList::from_pairs(pairs.clone());
            assert_eq!(el.num_vertices(), max);
            let (panic, peak) = quietly(|| {
                peak_above_entry(|| {
                    std::panic::catch_unwind(|| build(el)).expect_err("out of range")
                })
            });
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert_eq!(
                message,
                &format!("{first} outside a graph with 4294967295 vertices"),
                "{name} {pairs:?}"
            );
            assert!(peak < 64 << 10, "{name} {pairs:?}: {peak} B above entry");
        }
    }
}

#[test]
fn parallel_bind_allocates_nothing_and_builds_no_transpose() {
    // Push runs the serial kernel in both exec modes, so a parallel
    // bind has nothing to precompute: no shard fences, no
    // destination-bucketed edge copy, and no transpose to balance
    // fences by.
    let g = Graph::directed_from_edges(Rmat::gtgraph(12, 8).generate(5));
    let out_bytes = g.footprint_bytes();
    let runtime = Runtime::new(EngineConfig::default().parallel(2)).expect("runtime");
    let (bound, bind) = peak_above_entry(|| runtime.bind(&g));
    assert_eq!(bind, 0, "a Parallel(2) bind allocated {bind} B");
    assert_eq!(
        g.footprint_bytes(),
        out_bytes,
        "a Parallel(2) bind built the transpose"
    );
    assert!(bound.grid().is_none());
}

#[test]
fn session_phases_peak_within_their_vertex_vector_budgets() {
    // Budgets in `|V|`-sized vectors of 4 B, measured peaks beside them:
    //            bind     first u32    first f32    warm BFS    armed BFS   2nd graph
    // R-MAT-12   ¼ (0)    7½ (6.91)    3¼ (3.02)    4 (2.53)    5¼ (4.81)   4 (3.51)
    // road       ¼ (0)    6¼ (5.71)    4¾ (4.57)    4 (3.55)    6 (5.58)    4 (3.55)
    // Before bind, a directed graph's first pull builds its transpose,
    // held here to exactly the bytes it adds (R-MAT 9.80 vectors, road
    // none: undirected). A serial bind allocates nothing; the first
    // query parks the runtime's arena, which every later query reuses,
    // whatever its metadata type or graph — a second graph of the same
    // `|V|` bound to the runtime included, whose first query is a warm
    // one; a warm query hands back its answer and activation log.
    let fixtures = [
        (
            "R-MAT",
            Graph::directed_from_edges(Rmat::gtgraph(12, 8).generate(5)),
            [0.25, 7.5, 3.25, 4.0, 5.25, 4.0],
        ),
        ("road", road_strip().0, [0.25, 6.25, 4.75, 4.0, 6.0, 4.0]),
    ];
    for (name, g, budgets) in &fixtures {
        let out_bytes = g.footprint_bytes();
        let (_, transpose) = peak_above_entry(|| g.csr(Direction::Pull).num_edges());
        assert_eq!(
            transpose,
            g.footprint_bytes() - out_bytes,
            "{name}: the first pull peaks at the transpose's bytes"
        );
        let runtime = Runtime::new(EngineConfig::default()).expect("runtime");
        let pr = PageRank::with_params(g, 0.85, 1e-3);
        let bfs = |bound: &BoundGraph| bound.run(Bfs::new(0)).execute().expect("bfs");
        let (bound, bind) = peak_above_entry(|| runtime.bind(g));
        let (_, first_u32) = peak_above_entry(|| bfs(&bound));
        let (_, first_f32) = peak_above_entry(|| bound.run(&pr).execute().expect("pagerank"));
        let (_, warm) = peak_above_entry(|| bfs(&bound));
        let (_, armed) = peak_above_entry(|| {
            let armed = bound.run(Bfs::new(0)).checkpoint_on_abort();
            armed.execute().expect("armed bfs")
        });
        let twin = g.clone();
        let second = runtime.bind(&twin);
        let (_, second_graph) = peak_above_entry(|| bfs(&second));
        let phases = [
            "bind",
            "first u32",
            "first f32",
            "warm",
            "armed",
            "2nd graph",
        ];
        let peaks = [bind, first_u32, first_f32, warm, armed, second_graph];
        for ((phase, peak), budget) in phases.into_iter().zip(peaks).zip(budgets) {
            let vectors = peak as f64 / (4.0 * g.num_vertices() as f64);
            assert!(
                vectors <= *budget,
                "{name}, {phase}: {peak} B above entry is {vectors:.2} |V|-vectors, \
                 budget {budget}"
            );
        }
    }
}
