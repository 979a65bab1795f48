//! The representation half of the determinism contract
//! (`crates/core/README.md`): for every algorithm, graph class, exec
//! mode and thread count, `FrontierRepr::Bitmap` must be **bit-equal**
//! to `FrontierRepr::List` — identical final metadata (float bit
//! patterns included), identical per-iteration activation logs
//! (directions, filters, frontier sizes, per-iteration cycles) and
//! identical executor statistics.
//!
//! The harness is differential: every cell of the
//! {BFS, SSSP, PageRank, k-Core, WCC} × {Serial, Parallel} ×
//! {List, Bitmap} matrix runs against the same graph and is compared
//! to the List + Serial baseline, so a divergence pinpoints the
//! representation and exec mode that broke. The graph classes stress
//! different engine paths: RMAT (skewed degrees → CTA worklists, ballot
//! switches, hub overflow), road strips (tiny frontiers over many
//! online-filter iterations; their vertex counts are warp-misaligned,
//! so the chunk-shaped sweeps' tail handling is always exercised) and
//! Erdős–Rényi (push/pull direction flips). Together the five
//! algorithms cover both Combine kinds, the aggregation-pull candidate
//! sweep, the non-idempotent decrement path (k-Core) and float
//! accumulation order (PageRank).

use simdx::algos::{bfs, kcore, pagerank, sssp, wcc};
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::gen::{Erdos, Rmat, Road};
use simdx::graph::{weights, EdgeList, Graph};
use simdx_gpu::executor::ExecutorStats;

/// Everything that must match bit for bit across the matrix.
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

/// The exec-mode sweep each representation runs under.
fn exec_modes() -> [ExecMode; 3] {
    [
        ExecMode::Serial,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 5 },
    ]
}

/// Runs one algorithm over the {exec mode} × {repr} matrix and asserts
/// every cell is bit-equal to the List + Serial baseline.
fn assert_matrix<M, F>(what: &str, run: F)
where
    M: PartialEq + std::fmt::Debug,
    F: Fn(EngineConfig) -> RunResult<M>,
{
    let base_cfg = EngineConfig::default()
        .with_exec(ExecMode::Serial)
        .with_frontier(FrontierRepr::List);
    let baseline = fingerprint(run(base_cfg));
    assert!(
        baseline.iterations > 0,
        "{what}: trivial run proves nothing"
    );
    for exec in exec_modes() {
        for repr in [FrontierRepr::List, FrontierRepr::Bitmap] {
            let cell = fingerprint(run(EngineConfig::default()
                .with_exec(exec)
                .with_frontier(repr)));
            assert_eq!(
                cell,
                baseline,
                "{what}: {}/{} diverged from serial/list",
                exec.label(),
                repr.label(),
            );
        }
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
    // bitmap-ordered reshuffle of PageRank's f32 sums would show here.
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
    // k-Core's decrements are non-idempotent: a first-change dedup
    // mismatch between the metadata compare and the bit test would
    // corrupt metadata here.
    let g = Graph::undirected_from_edges(Rmat::gtgraph(12, 8).generate(5));
    assert_matrix("kcore/rmat", |cfg| kcore::run(&g, 4, cfg).expect("kcore"));
}

#[test]
fn kcore_matrix_on_road() {
    // k = 3 fully peels the strip over ~60 iterations — the long
    // low-frontier cascade regime where the bitmap's O(V/64) publish
    // sweep runs most often.
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

#[test]
fn filter_policies_stay_equivalent_in_bitmap_mode() {
    // Ballot-only forces the sparse scan every iteration; JIT mixes
    // online and ballot. Both must stay bit-equal across the reprs.
    let g = er_graph();
    for policy in [FilterPolicy::Jit, FilterPolicy::BallotOnly] {
        let cfg = EngineConfig::default().with_filter(policy);
        let base = fingerprint(
            bfs::run(&g, 0, cfg.clone().with_frontier(FrontierRepr::List)).expect("bfs"),
        );
        for exec in exec_modes() {
            let bm =
                fingerprint(bfs::run(&g, 0, cfg.clone().with_exec(exec).bitmap()).expect("bfs"));
            assert_eq!(bm, base, "{policy:?}/{} diverged", exec.label());
        }
    }
}

#[test]
fn unscaled_device_stays_equivalent_in_bitmap_mode() {
    // Slot counts change bin shapes and task-to-slot assignment;
    // representation equality must be scale-independent.
    let g = er_graph();
    let cfg = EngineConfig::unscaled();
    let base =
        fingerprint(bfs::run(&g, 0, cfg.clone().with_frontier(FrontierRepr::List)).expect("bfs"));
    for exec in exec_modes() {
        let bm = fingerprint(bfs::run(&g, 0, cfg.clone().with_exec(exec).bitmap()).expect("bfs"));
        assert_eq!(bm, base, "unscaled/{} diverged", exec.label());
    }
}
