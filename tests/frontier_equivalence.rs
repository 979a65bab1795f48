//! The changed-set half of the determinism contract
//! (`crates/core/README.md`): the engine keeps one changed set (bitmap
//! plus list) and picks its publish and ballot-scan strategy per
//! iteration from the changed count, so every algorithm must come out
//! **bit-equal** — final metadata (float bit patterns included),
//! per-iteration activation logs and executor statistics — whichever
//! strategies its iterations happen to select, in every exec mode.
//!
//! Each test runs one graph under `FilterPolicy::BallotOnly` in
//! {Serial, Parallel 2, Parallel 5}. `BallotOnly` makes the ballot
//! filter run on *every* iteration — sparse wavefronts through the
//! occupancy-skipping scan, dense middles through the chunked one,
//! word-aligned partitions in the parallel cells — where the default
//! `Jit` policy (whose exec-mode matrix is
//! `tests/parallel_equivalence.rs`) reaches it only on a bin overflow;
//! the final metadata must not depend on the policy at all. The graph
//! classes stress different paths: RMAT (skewed degrees → CTA
//! worklists, dense iterations), road strips (tiny frontiers over many
//! iterations; warp-misaligned vertex counts, so the chunk sweeps'
//! tails always run) and Erdős–Rényi (push/pull direction flips). The
//! five algorithms cover both Combine kinds, the aggregation-pull
//! candidate bitmap, the non-idempotent decrement path (k-Core) and
//! float accumulation order (PageRank). `tests/changed_set.rs` pins
//! the threshold itself.

use simdx::algos::{bfs, kcore, pagerank, sssp, wcc};
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::gen::{Erdos, Rmat, Road};
use simdx::graph::{weights, EdgeList, Graph};
use simdx_gpu::executor::ExecutorStats;

/// Everything that must match bit for bit across exec modes.
#[derive(Debug, PartialEq)]
struct Fingerprint<M: PartialEq + std::fmt::Debug> {
    meta: Vec<M>,
    iterations: u32,
    stats: ExecutorStats,
    log: ActivationLog,
}

fn fingerprint<M: PartialEq + std::fmt::Debug>(r: RunResult<M>) -> Fingerprint<M> {
    Fingerprint {
        meta: r.meta,
        iterations: r.report.iterations,
        stats: r.report.stats,
        log: r.report.log,
    }
}

/// Runs one algorithm with the ballot filter on every iteration, in
/// every exec mode, against its own serial run and the `Jit` result.
fn assert_matrix<M, F>(what: &str, run: F)
where
    M: PartialEq + std::fmt::Debug,
    F: Fn(EngineConfig) -> RunResult<M>,
{
    let jit = run(EngineConfig::default());
    let cfg = EngineConfig::default().with_filter(FilterPolicy::BallotOnly);
    let serial = fingerprint(run(cfg.clone()));
    assert!(serial.iterations > 0, "{what}: trivial run proves nothing");
    assert_eq!(
        serial.meta, jit.meta,
        "{what}: the policy changed the result"
    );
    for threads in [2, 5] {
        let par = fingerprint(run(cfg.clone().parallel(threads)));
        assert_eq!(par, serial, "{what}: {threads} threads diverged");
    }
}

fn rmat_graph() -> Graph {
    Graph::directed_from_edges(Rmat::gtgraph(12, 8).generate(5))
}

fn road_graph() -> Graph {
    Graph::undirected_from_edges(Road::strip(256, 16).generate(5))
}

fn er_graph() -> Graph {
    Graph::directed_from_edges(Erdos::new(4096, 8).generate(5))
}

fn weighted(el: EdgeList) -> Graph {
    Graph::directed_from_edges(weights::assign_default_weights(&el, 9))
}

#[test]
fn bfs_matrix_on_rmat() {
    let g = rmat_graph();
    assert_matrix("bfs/rmat", |cfg| bfs::run(&g, 0, cfg).expect("bfs"));
}

#[test]
fn bfs_matrix_on_road() {
    let g = road_graph();
    assert_matrix("bfs/road", |cfg| bfs::run(&g, 0, cfg).expect("bfs"));
}

#[test]
fn bfs_matrix_on_er() {
    let g = er_graph();
    assert_matrix("bfs/er", |cfg| bfs::run(&g, 0, cfg).expect("bfs"));
}

#[test]
fn sssp_matrix_on_rmat() {
    let g = weighted(Rmat::gtgraph(12, 8).generate(5));
    assert_matrix("sssp/rmat", |cfg| sssp::run(&g, 0, cfg).expect("sssp"));
}

#[test]
fn sssp_matrix_on_road() {
    let g = weighted(Road::strip(128, 16).generate(5));
    assert_matrix("sssp/road", |cfg| sssp::run(&g, 0, cfg).expect("sssp"));
}

#[test]
fn pagerank_matrix_on_rmat() {
    // Float accumulation order is the sharpest bit-equality probe: a
    // reshuffle of PageRank's f32 sums would show here.
    let g = rmat_graph();
    assert_matrix("pagerank/rmat", |cfg| pagerank::run(&g, cfg).expect("pr"));
}

#[test]
fn pagerank_matrix_on_er() {
    let g = er_graph();
    assert_matrix("pagerank/er", |cfg| pagerank::run(&g, cfg).expect("pr"));
}

#[test]
fn kcore_matrix_on_rmat() {
    // k-Core's decrements are non-idempotent: a first-change bit test
    // that disagreed with `curr != prev` would corrupt metadata here.
    let g = Graph::undirected_from_edges(Rmat::gtgraph(12, 8).generate(5));
    assert_matrix("kcore/rmat", |cfg| kcore::run(&g, 4, cfg).expect("kcore"));
}

#[test]
fn kcore_matrix_on_road() {
    // k = 3 fully peels the strip over ~60 iterations — the long
    // low-frontier cascade where publish walks the list every time.
    let g = road_graph();
    assert_matrix("kcore/road", |cfg| kcore::run(&g, 3, cfg).expect("kcore"));
}

#[test]
fn wcc_matrix_on_rmat() {
    let g = Graph::undirected_from_edges(Rmat::gtgraph(12, 8).generate(5));
    assert_matrix("wcc/rmat", |cfg| wcc::run(&g, cfg).expect("wcc"));
}

#[test]
fn wcc_matrix_on_er() {
    let g = Graph::undirected_from_edges(Erdos::new(4096, 8).generate(5));
    assert_matrix("wcc/er", |cfg| wcc::run(&g, cfg).expect("wcc"));
}
