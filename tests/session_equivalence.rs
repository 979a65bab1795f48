//! Session-reuse half of the determinism contract
//! (`crates/core/README.md`): a reused [`BoundGraph`] must produce
//! reports **bit-identical** to a fresh engine — identical final
//! metadata (float bit patterns included), identical per-iteration
//! activation logs and identical executor statistics — in both exec
//! modes, and [`BoundGraph::run_batch`] must match the per-query loop
//! entry for entry.
//!
//! The baseline for every cell is a fresh runtime, bind and scratch per
//! query, so any state leaking across reused-session queries
//! (undrained bitmaps, surviving thread bins) shows up as
//! a divergence pinned to the exact knob combination and query position
//! that leaked. Query seeds deliberately repeat
//! (`0, 7, 0`) so a leak from an identical earlier query cannot hide.

use std::sync::atomic::{AtomicU64, Ordering};

use simdx::algos::{Bfs, PageRank, Sssp};
use simdx::core::acc::CombineKind;
use simdx::core::jit::ActivationLog;
use simdx::core::prelude::*;
use simdx::graph::csr::Direction;
use simdx::graph::gen::{Rmat, Road};
use simdx::graph::{weights, EdgeList, Graph, VertexId, Weight};
use simdx_gpu::executor::ExecutorStats;

/// Everything that must match bit for bit.
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

/// The knob matrix each session-reuse scenario runs under. In the
/// parallel cells a reused `BoundGraph` hands every query a pool and a
/// scratch arena with per-worker partitions that earlier queries wrote,
/// exactly the cached state this suite exists to distrust.
fn config_matrix() -> Vec<(String, EngineConfig)> {
    [ExecMode::Serial, ExecMode::Parallel { threads: 3 }]
        .map(|exec| (exec.label(), EngineConfig::default().with_exec(exec)))
        .into()
}

/// The baseline: a fresh runtime, bind and scratch per query.
fn fresh<P: AccProgram>(program: P, g: &Graph, cfg: EngineConfig) -> Fingerprint<P::Meta> {
    let runtime = Runtime::new(cfg).expect("runtime");
    fingerprint(runtime.bind(g).run(program).execute().expect("fresh run"))
}

/// Asserts that a reused `BoundGraph` serving `seeds` in order matches
/// a fresh engine per seed, and that `run_batch` matches both.
fn assert_session_matrix<P, F>(what: &str, g: &Graph, seeds: &[u32], make: F)
where
    P: SourcedProgram,
    P::Meta: PartialEq + std::fmt::Debug,
    F: Fn(u32) -> P,
{
    for (label, cfg) in config_matrix() {
        let runtime = Runtime::new(cfg.clone()).expect("runtime");
        let bound = runtime.bind(g);
        // Reused session, one builder run per seed.
        for (i, &seed) in seeds.iter().enumerate() {
            let reused = fingerprint(bound.run(make(seed)).execute().expect("reused session run"));
            let baseline = fresh(make(seed), g, cfg.clone());
            assert_eq!(
                reused, baseline,
                "{what}: {label}, query #{i} (seed {seed}) diverged from fresh engine"
            );
        }
        // One batch over the same seeds: entry-for-entry identical.
        let batch = bound.run_batch(make(0), seeds).expect("batch");
        assert_eq!(batch.len(), seeds.len());
        for (i, (r, &seed)) in batch.into_iter().zip(seeds).enumerate() {
            let baseline = fresh(make(seed), g, cfg.clone());
            assert_eq!(
                fingerprint(r),
                baseline,
                "{what}: {label}, batch entry #{i} (seed {seed}) diverged"
            );
        }
    }
}

fn rmat_graph() -> Graph {
    Graph::directed_from_edges(Rmat::gtgraph(12, 8).generate(5))
}

#[test]
fn bfs_session_matrix_on_rmat() {
    let g = rmat_graph();
    assert_session_matrix("bfs/rmat", &g, &[0, 7, 0], Bfs::new);
}

#[test]
fn bfs_session_matrix_on_road() {
    // Warp-misaligned vertex count, hundreds of tiny online-filter
    // iterations: the regime where stale dirty stamps or next-frontier
    // leftovers would surface.
    let g = Graph::undirected_from_edges(Road::strip(256, 16).generate(5));
    assert_session_matrix("bfs/road", &g, &[0, 31, 0], Bfs::new);
}

#[test]
fn sssp_session_matrix_on_rmat() {
    // Aggregation combine drives the dirty-stamp / candidate-bitmap
    // path — the state most at risk across reused runs.
    let g = Graph::directed_from_edges(weights::assign_default_weights(
        &Rmat::gtgraph(12, 8).generate(5),
        9,
    ));
    assert_session_matrix("sssp/rmat", &g, &[0, 5, 0], Sssp::new);
}

/// A directed graph builds its transpose on the first pull, so runs
/// that only push — a `FixedPush` BFS, SSSP on a weighted R-MAT (an
/// aggregation program, which pulls only past `|E|` of frontier
/// volume) — leave the graph at its out-CSR's bytes.
#[test]
fn push_only_runs_leave_a_directed_graph_at_its_out_csr_bytes() {
    let weighted = Graph::directed_from_edges(weights::assign_default_weights(
        &Rmat::gtgraph(12, 8).generate(5),
        9,
    ));
    let push = EngineConfig::default().with_direction(DirectionPolicy::FixedPush);
    let cases = [
        ("fixed-push bfs", rmat_graph(), push, false),
        ("sssp", weighted, EngineConfig::default(), true),
    ];
    for (label, g, cfg, sssp) in cases {
        let out_bytes = g.footprint_bytes();
        let runtime = Runtime::new(cfg).expect("runtime");
        let bound = runtime.bind(&g);
        for seed in [0, 7] {
            let report = if sssp {
                bound.run(Sssp::new(seed)).execute().expect("sssp").report
            } else {
                bound.run(Bfs::new(seed)).execute().expect("bfs").report
            };
            assert!(report.iterations > 2, "{label}: seed {seed} ran");
            let pulls = report.log.records.iter();
            let pulls = pulls.filter(|r| r.direction == Direction::Pull).count();
            assert_eq!(pulls, 0, "{label}: seed {seed} pulled");
        }
        assert_eq!(g.footprint_bytes(), out_bytes, "{label}");
        // The first pull builds it: the same rows in reverse, weights
        // carried over, so as many bytes again.
        let _ = g.in_();
        assert_eq!(g.footprint_bytes(), 2 * out_bytes, "{label}");
    }
}

/// `==` and `Clone` see a graph's orientation and out-CSR, never
/// whether its transpose was built yet.
#[test]
fn graph_equality_and_clone_ignore_whether_the_transpose_is_built() {
    let (cold, warm) = (rmat_graph(), rmat_graph());
    let pulled = warm.in_().clone();
    assert_eq!(cold, warm);
    let (cold_copy, warm_copy) = (cold.clone(), warm.clone());
    assert_eq!(cold_copy, warm);
    assert_eq!(warm_copy, cold);
    // Each copy holds what its original held, and builds the same
    // transpose when it lacks one.
    assert_eq!(cold_copy.footprint_bytes(), cold.footprint_bytes());
    assert_eq!(warm_copy.footprint_bytes(), warm.footprint_bytes());
    assert!(cold.footprint_bytes() < warm.footprint_bytes());
    assert_eq!(cold_copy.in_(), &pulled);
    assert_eq!(warm_copy.in_(), &pulled);
    assert_eq!(cold_copy.footprint_bytes(), warm.footprint_bytes());
    // The orientation is part of equality: a symmetric directed graph
    // and the undirected graph of the same rows differ.
    let both_ways = Graph::directed_from_edges(EdgeList::from_pairs(vec![(0, 1), (1, 0)]));
    let undirected = Graph::undirected_from_edges(EdgeList::from_pairs(vec![(0, 1)]));
    assert_eq!(both_ways.out(), undirected.out());
    assert_ne!(both_ways, undirected);
}

#[test]
fn pagerank_interleaved_with_bfs_stays_bit_equal() {
    // Interleaving programs with different metadata types (u32 levels,
    // f32 ranks) over one BoundGraph must keep each stream bit-equal
    // to fresh engines — the one arena both share may carry nothing
    // from one program to the next. PageRank's float accumulation is the
    // sharpest probe.
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let runtime = Runtime::new(cfg.clone()).expect("runtime");
        let bound = runtime.bind(&g);
        let pr_baseline = fresh(PageRank::new(&g), &g, cfg.clone());
        let bfs_baseline = fresh(Bfs::new(0), &g, cfg.clone());
        for round in 0..2 {
            let pr = fingerprint(bound.run(PageRank::new(&g)).execute().expect("pr"));
            assert_eq!(pr, pr_baseline, "{label}: pagerank round {round}");
            let bfs = fingerprint(bound.run(Bfs::new(0)).execute().expect("bfs"));
            assert_eq!(bfs, bfs_baseline, "{label}: bfs round {round}");
        }
    }
}

#[test]
fn failed_run_does_not_poison_the_session() {
    // An IterationLimit abort mid-query leaves the engine at an
    // arbitrary iteration; the next query over the same session must
    // still be bit-equal to a fresh engine in every knob combination.
    let g = Graph::undirected_from_edges(Road::strip(256, 16).generate(5));
    for (label, cfg) in config_matrix() {
        let runtime = Runtime::new(cfg.clone()).expect("runtime");
        let bound = runtime.bind(&g);
        let err = bound
            .run(Bfs::new(0))
            .max_iterations(5)
            .execute()
            .expect_err("capped run");
        assert_eq!(
            err,
            SimdxError::IterationLimit { max_iterations: 5 },
            "{label}"
        );
        let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("rerun"));
        let baseline = fresh(Bfs::new(0), &g, cfg.clone());
        assert_eq!(after, baseline, "{label}: run after abort diverged");
    }
}

/// BFS that trips a cancellation token on its `trip_at`-th `compute`
/// call — the only way to cancel *inside* a compute sweep at a chosen
/// point without racing a second thread.
struct CancelDuringCompute {
    bfs: Bfs,
    calls: AtomicU64,
    trip_at: u64,
    token: CancelToken,
}

impl AccProgram for CancelDuringCompute {
    type Meta = u32;
    type Update = u32;

    fn name(&self) -> &'static str {
        self.bfs.name()
    }

    fn combine_kind(&self) -> CombineKind {
        self.bfs.combine_kind()
    }

    fn init(&self, g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
        self.bfs.init(g)
    }

    fn compute(&self, s: VertexId, d: VertexId, w: Weight, ms: &u32, md: &u32) -> Option<u32> {
        // ORDERING: Relaxed — a call counter; the token publishes the trip.
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.trip_at {
            self.token.cancel();
        }
        self.bfs.compute(s, d, w, ms, md)
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        self.bfs.combine(a, b)
    }

    fn apply(&self, v: VertexId, current: &u32, update: u32) -> Option<u32> {
        self.bfs.apply(v, current, update)
    }

    fn pull_candidate(&self, v: VertexId, meta: &u32) -> bool {
        self.bfs.pull_candidate(v, meta)
    }
}

#[test]
fn run_cancelled_mid_sweep_does_not_poison_the_session() {
    // The token trips a few edges into the widest push sweep, so the
    // sweep's in-list poll breaks out with most of its announced tasks
    // uncharged: the kernel-charge accumulators (the submitter's and,
    // in the parallel cells, every worker's) are left open and partly
    // fed. The next query over the same session and arena must still
    // be bit-equal to a fresh engine.
    let g = rmat_graph();
    for (label, cfg) in config_matrix() {
        let cfg = cfg.with_direction(DirectionPolicy::FixedPush);
        let baseline = fresh(Bfs::new(0), &g, cfg.clone());
        // Push iterations traverse exactly their degree sum, so the
        // log gives the edge meter at every iteration boundary.
        let records = &baseline.log.records;
        let widest = (0..records.len())
            .max_by_key(|&i| records[i].frontier_len)
            .expect("non-trivial run");
        assert!(
            records[widest].frontier_len > 600,
            "{label}: sweep too short to break inside"
        );
        let before: u64 = records[..widest].iter().map(|r| r.degree_sum).sum();

        let runtime = Runtime::new(cfg.clone()).expect("runtime");
        let bound = runtime.bind(&g);
        let token = CancelToken::new();
        let err = bound
            .run(CancelDuringCompute {
                bfs: Bfs::new(0),
                calls: AtomicU64::new(0),
                trip_at: before + 10,
                token: token.clone(),
            })
            .cancel_token(token)
            .execute()
            .expect_err("cancelled run");
        match err {
            SimdxError::Cancelled { progress } => {
                assert_eq!(progress.iterations, widest as u32, "{label}");
                assert!(
                    before < progress.edges_examined
                        && progress.edges_examined < before + records[widest].degree_sum,
                    "{label}: {} edges is not inside iteration {widest}'s sweep",
                    progress.edges_examined
                );
            }
            other => panic!("{label}: expected Cancelled, got {other:?}"),
        }
        let after = fingerprint(bound.run(Bfs::new(0)).execute().expect("rerun"));
        assert_eq!(
            after, baseline,
            "{label}: run after mid-sweep cancel diverged"
        );
    }
}

#[test]
fn algo_level_batch_helpers_match_loops() {
    let g = Graph::directed_from_edges(weights::assign_default_weights(
        &Rmat::gtgraph(11, 8).generate(5),
        9,
    ));
    let seeds = [0u32, 3, 17, 3];
    let batch = simdx::algos::sssp::run_batch(&g, &seeds, EngineConfig::default()).expect("batch");
    for (&seed, got) in seeds.iter().zip(&batch) {
        let single = simdx::algos::sssp::run(&g, seed, EngineConfig::default()).expect("single");
        assert_eq!(got.meta, single.meta, "seed {seed}");
        assert_eq!(got.report.log, single.report.log, "seed {seed}");
        assert_eq!(got.report.stats, single.report.stats, "seed {seed}");
    }
    let batch = simdx::algos::bfs::run_batch(&g, &seeds, EngineConfig::default()).expect("batch");
    for (&seed, got) in seeds.iter().zip(&batch) {
        let single = simdx::algos::bfs::run(&g, seed, EngineConfig::default()).expect("single");
        assert_eq!(got.meta, single.meta, "seed {seed}");
        assert_eq!(got.report.stats, single.report.stats, "seed {seed}");
    }
}
