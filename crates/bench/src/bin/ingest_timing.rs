//! In-process timings of the graph builds behind the benchmark's
//! set-up: R-MAT-17 (edge factor 8) built directed, weighted directed
//! and undirected, a directed graph's first pull (its transpose), and
//! the 512×64 road strip's undirected build with and without weights.
//! One more row builds the R-MAT-17 list shuffled, directed: the
//! general path, for a list the count pass finds unsorted at once.
//! Each build runs `builds` times (default 15; the road strip's, some
//! 40× shorter, ten times as often) on a fresh copy of its edge list,
//! and one `<build> <median ms>` line per build is printed.
//! Only `simdx_graph`'s public API is used, so the file also builds in
//! older trees; `scripts/bench_pairs.sh --ingest` pairs two trees with
//! it.
//!
//! ```text
//! cargo run --release -p simdx_bench --bin ingest_timing [-- <builds>]
//! ```

use std::hint::black_box;
use std::time::Instant;

use simdx_graph::gen::{Rmat, Road};
use simdx_graph::weights::assign_default_weights;
use simdx_graph::{EdgeList, Graph, VertexId};

/// Median wall time in ms of `builds` runs of `run`, each handed a
/// fresh `setup()`; making the input and dropping the output are
/// untimed.
fn median_ms<I, O>(builds: usize, setup: impl Fn() -> I, run: impl Fn(I) -> O) -> f64 {
    let mut ms: Vec<f64> = (0..builds)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let out = black_box(run(black_box(input)));
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            drop(out);
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// The pairs of `g`'s out-CSR in a seeded Fisher–Yates order (xorshift),
/// as an unweighted list over the same vertices.
fn shuffled_pairs(g: &Graph, seed: u64) -> EdgeList {
    let out = g.out();
    let mut pairs: Vec<(VertexId, VertexId)> = (0..out.num_vertices())
        .flat_map(|v| out.neighbors(v).iter().map(move |&t| (v, t)))
        .collect();
    let mut state = seed | 1;
    for i in (1..pairs.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        pairs.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut el = EdgeList::new(out.num_vertices());
    pairs.into_iter().for_each(|(s, d)| el.push(s, d));
    el
}

/// Median ms of building `el`, cloned per run.
fn build_ms(builds: usize, el: &EdgeList, build: fn(EdgeList) -> Graph) -> f64 {
    median_ms(builds, || el.clone(), build)
}

fn main() {
    let builds: usize = std::env::args()
        .nth(1)
        .map_or(15, |s| s.parse().expect("builds: a positive integer"));
    assert!(builds > 0, "builds: a positive integer");
    let rmat = Rmat::gtgraph(17, 8).generate(7);
    let weighted_rmat = assign_default_weights(&rmat, 9);
    let shuffled_rmat = shuffled_pairs(&Graph::directed_from_edges(rmat.clone()), 7);
    let road = Road::strip(512, 64).generate(7);
    let weighted_road = assign_default_weights(&road, 9);

    let rows = [
        (
            "rmat17_directed",
            build_ms(builds, &rmat, Graph::directed_from_edges),
        ),
        (
            "rmat17_weighted_directed",
            build_ms(builds, &weighted_rmat, Graph::directed_from_edges),
        ),
        (
            "rmat17_shuffled_directed",
            build_ms(builds, &shuffled_rmat, Graph::directed_from_edges),
        ),
        (
            "rmat17_undirected",
            build_ms(builds, &rmat, Graph::undirected_from_edges),
        ),
        (
            "rmat17_transpose",
            median_ms(
                builds,
                || Graph::directed_from_edges(rmat.clone()),
                |g| {
                    g.in_();
                    g
                },
            ),
        ),
        (
            "road_undirected",
            build_ms(10 * builds, &road, Graph::undirected_from_edges),
        ),
        (
            "road_weighted_undirected",
            build_ms(10 * builds, &weighted_road, Graph::undirected_from_edges),
        ),
    ];
    for (name, ms) in rows {
        println!("{name} {ms:.4}");
    }
}
