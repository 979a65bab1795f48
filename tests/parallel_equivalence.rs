//! The determinism contract of the parallel host backend
//! (`crates/core/README.md`): for every algorithm, graph class and
//! thread count, `ExecMode::Parallel` must be **bit-equal** to
//! `ExecMode::Serial` — identical final metadata, identical per-iteration
//! activation logs (directions, filters, frontier sizes, per-iteration
//! cycles) and identical total simulated cycle counts.
//!
//! The graphs cover the structural classes that stress different engine
//! paths: RMAT (skewed degrees → CTA worklists, ballot switches, pull
//! phases), road strips (tiny frontiers over many iterations → online
//! filter steady state), and Erdős–Rényi (uniform mid-size frontiers →
//! push/pull direction flips). PageRank additionally locks the
//! aggregation float path (f32 accumulation order), and k-Core the
//! non-idempotent decrement path.

use simdx::algos::{bfs, kcore, pagerank, sssp};
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::gen::{Erdos, Rmat, Road};
use simdx::graph::{weights, EdgeList, Graph};
use simdx_gpu::executor::ExecutorStats;

const THREAD_COUNTS: [usize; 3] = [2, 3, 6];

/// Everything that must match bit for bit between the two exec modes.
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

/// Runs `run` under serial and parallel modes and asserts equality.
/// The ballot scan is partitioned on 64-vertex word boundaries and the
/// pull sweeps on contiguous task chunks, and that partitioning must be
/// thread-count-independent.
fn assert_equivalent<M, F>(what: &str, run: F)
where
    M: PartialEq + std::fmt::Debug,
    F: Fn(EngineConfig) -> RunResult<M>,
{
    let serial = fingerprint(run(EngineConfig::default()));
    assert!(serial.iterations > 0, "{what}: trivial run proves nothing");
    for threads in THREAD_COUNTS {
        let par = fingerprint(run(EngineConfig::default().parallel(threads)));
        assert_eq!(
            par, serial,
            "{what} with {threads} threads diverged from serial"
        );
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
fn bfs_parallel_equals_serial_on_rmat() {
    let g = rmat_graph();
    assert_equivalent("bfs/rmat", |cfg| bfs::run(&g, 0, cfg).expect("bfs"));
}

#[test]
fn bfs_parallel_equals_serial_on_road() {
    let g = road_graph();
    assert_equivalent("bfs/road", |cfg| bfs::run(&g, 0, cfg).expect("bfs"));
}

#[test]
fn bfs_parallel_equals_serial_on_er() {
    let g = er_graph();
    assert_equivalent("bfs/er", |cfg| bfs::run(&g, 0, cfg).expect("bfs"));
}

#[test]
fn sssp_parallel_equals_serial_on_rmat() {
    let g = weighted(Rmat::gtgraph(12, 8).generate(5));
    assert_equivalent("sssp/rmat", |cfg| sssp::run(&g, 0, cfg).expect("sssp"));
}

#[test]
fn sssp_parallel_equals_serial_on_road() {
    let g = weighted(Road::strip(128, 16).generate(5));
    assert_equivalent("sssp/road", |cfg| sssp::run(&g, 0, cfg).expect("sssp"));
}

#[test]
fn sssp_parallel_equals_serial_on_er() {
    let g = weighted(Erdos::new(4096, 8).generate(5));
    assert_equivalent("sssp/er", |cfg| sssp::run(&g, 0, cfg).expect("sssp"));
}

#[test]
fn pagerank_parallel_equals_serial_on_rmat() {
    // Float accumulation order is the sharpest bit-equality probe: any
    // reordering of PageRank's f32 sums shows up here.
    let g = rmat_graph();
    assert_equivalent("pagerank/rmat", |cfg| pagerank::run(&g, cfg).expect("pr"));
}

#[test]
fn pagerank_parallel_equals_serial_on_er() {
    let g = er_graph();
    assert_equivalent("pagerank/er", |cfg| pagerank::run(&g, cfg).expect("pr"));
}

#[test]
fn pagerank_parallel_equals_serial_on_road() {
    let g = road_graph();
    assert_equivalent("pagerank/road", |cfg| pagerank::run(&g, cfg).expect("pr"));
}

#[test]
fn kcore_parallel_equals_serial_on_rmat() {
    // k-Core's decrements are non-idempotent: duplicate or re-ordered
    // applies would corrupt metadata and show up here.
    let g = Graph::undirected_from_edges(Rmat::gtgraph(12, 8).generate(5));
    assert_equivalent("kcore/rmat", |cfg| kcore::run(&g, 4, cfg).expect("kcore"));
}

#[test]
fn kcore_parallel_equals_serial_on_er() {
    // k = 12 partially peels this ER graph (some vertices survive),
    // covering the cascade *and* the fixed-point iterations.
    let g = Graph::undirected_from_edges(Erdos::new(4096, 8).generate(5));
    assert_equivalent("kcore/er", |cfg| kcore::run(&g, 12, cfg).expect("kcore"));
}

#[test]
fn kcore_parallel_equals_serial_on_road() {
    // k = 3 fully peels the strip over ~60 iterations — the long
    // low-frontier cascade regime.
    let g = road_graph();
    assert_equivalent("kcore/road", |cfg| kcore::run(&g, 3, cfg).expect("kcore"));
}

#[test]
fn grid_push_is_work_optimal() {
    // The work-optimality regression guard: a push iteration's edge
    // work is the frontier's out-degree sum (what the serial engine
    // examines and what every `IterationRecord` logs). A parallel run
    // pushes through the same serial kernel and must examine exactly
    // that too — one traversal of each frontier edge per iteration,
    // regardless of the worker count. (The name is that of the deleted
    // destination-sharded grid push this once guarded; it stays under
    // the test floor.)
    let g = rmat_graph();
    let cfg = EngineConfig::default().with_direction(DirectionPolicy::FixedPush);
    let serial = bfs::run(&g, 0, cfg.clone().with_exec(ExecMode::Serial)).expect("bfs");
    let frontier_edges: u64 = serial.report.log.records.iter().map(|r| r.degree_sum).sum();
    assert!(frontier_edges > 0, "trivial run proves nothing");
    assert_eq!(serial.report.edges_examined, frontier_edges);
    for threads in THREAD_COUNTS {
        let par = bfs::run(&g, 0, cfg.clone().parallel(threads)).expect("bfs");
        assert_eq!(
            par.report.edges_examined, frontier_edges,
            "{threads} threads: push must examine each frontier edge exactly once"
        );
    }
}

#[test]
fn grid_examined_matches_serial_under_direction_switches() {
    // With adaptive direction the run mixes push scatters and pull
    // gathers, both the serial kernels in either exec mode, with ballot
    // scans on the pool, which examine no edges: the parallel backend's
    // total host edge work must equal the serial engine's across the
    // switches, not just in pure push. (The name is the deleted grid
    // push's; it stays under the test floor.)
    let g = er_graph();
    let check = |run: &dyn Fn(EngineConfig) -> RunReport| {
        let serial = run(EngineConfig::default().with_exec(ExecMode::Serial));
        assert!(serial.log.records.len() > 1, "trivial run proves nothing");
        for threads in THREAD_COUNTS {
            let par = run(EngineConfig::default().parallel(threads));
            assert_eq!(
                par.edges_examined, serial.edges_examined,
                "{threads} threads: parallel backend examined different edge work"
            );
        }
    };
    check(&|cfg| bfs::run(&g, 0, cfg).expect("bfs").report);
    check(&|cfg| pagerank::run(&g, cfg).expect("pr").report);
}

#[test]
fn filter_policies_stay_equivalent_in_parallel() {
    // The ballot-only and online-only paths skip/force bin recording;
    // both must stay bit-equal under the parallel backend too.
    let g = er_graph();
    for policy in [FilterPolicy::Jit, FilterPolicy::BallotOnly] {
        let serial =
            fingerprint(bfs::run(&g, 0, EngineConfig::default().with_filter(policy)).expect("bfs"));
        for threads in THREAD_COUNTS {
            let par = fingerprint(
                bfs::run(
                    &g,
                    0,
                    EngineConfig::default()
                        .with_filter(policy)
                        .parallel(threads),
                )
                .expect("bfs"),
            );
            assert_eq!(par, serial, "{policy:?} with {threads} threads diverged");
        }
    }
}

#[test]
fn unscaled_device_stays_equivalent_in_parallel() {
    // The unscaled device changes slot counts and therefore bin shapes
    // and task-to-slot assignment; equality must be scale-independent.
    let g = er_graph();
    let serial = fingerprint(bfs::run(&g, 0, EngineConfig::unscaled()).expect("bfs"));
    for threads in THREAD_COUNTS {
        let par =
            fingerprint(bfs::run(&g, 0, EngineConfig::unscaled().parallel(threads)).expect("bfs"));
        assert_eq!(par, serial, "unscaled with {threads} threads diverged");
    }
}
