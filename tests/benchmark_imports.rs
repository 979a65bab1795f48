//! The repository benchmark (`crates/bench/benchmark`) is a package of
//! its own: it builds against the library crates but sits outside the
//! workspace, so no workspace build compiles it. This test names,
//! through the umbrella crate, every item the package imports from the
//! library crates, and every function, method and field it reaches
//! through them, so a cut to a crate's public surface that would break
//! the benchmark fails here first.
//!
//! The list follows the package's `use` lines and call sites (it
//! imports nothing from `simdx_baselines`). A change to the package
//! updates this list in the same commit.

use std::time::Duration;

use simdx::algos::{kcore, reference, Bfs, KCore, PageRank, Sssp, Wcc};
use simdx::core::jit::IterationRecord;
use simdx::core::par::WorkerPool;
use simdx::core::persist::{self, DurableCheckpoint};
use simdx::core::{
    AccProgram, BoundGraph, CheckpointStore, DirStore, DurabilityPolicy, EngineConfig, ExecMode,
    FilterKind, QueryPool, QueryRequest, RecoveryReport, RetryPolicy, RunReport, RunResult,
    Runtime, ServeReport, ServiceConfig, SimdxError,
};
use simdx::gpu::cost::Cost;
use simdx::gpu::executor::GpuExecutor;
use simdx::gpu::kernel::{KernelDesc, SchedUnit};
use simdx::gpu::{DeviceSpec, KernelReport};
use simdx::graph::csr::Direction;
use simdx::graph::gen::{Rmat, Road};
use simdx::graph::weights::assign_default_weights;
use simdx::graph::{Csr, EdgeList, Graph, VertexId};

#[test]
fn every_name_the_benchmark_package_imports_is_public() {
    // `simdx_graph`: generators, weights, graph construction and reads.
    let _: fn(u32, u32) -> Rmat = Rmat::gtgraph;
    let _: fn(&Rmat, u64) -> EdgeList = Rmat::generate;
    let _: fn(u32, u32) -> Road = Road::strip;
    let _: fn(&Road, u64) -> EdgeList = Road::generate;
    let _: fn(&EdgeList, u64) -> EdgeList = assign_default_weights;
    let _: fn(EdgeList) -> Graph = Graph::directed_from_edges;
    let _: fn(EdgeList) -> Graph = Graph::undirected_from_edges;
    let _: fn(&Graph) -> VertexId = Graph::num_vertices;
    let _: fn(&Graph) -> u64 = Graph::num_edges;
    let _: fn(&Graph) -> &Csr = Graph::out;
    let _: fn(&Graph) -> u64 = Graph::footprint_bytes;
    graph_bounds::<Graph>();
    let _: fn(&Csr, VertexId) -> u32 = Csr::degree;
    let _ = [Direction::Push, Direction::Pull];

    // `simdx_gpu`: the `gpu_sim.charge_ns` probe.
    let _: fn(DeviceSpec) -> GpuExecutor = GpuExecutor::new;
    let _: fn(&mut GpuExecutor, &KernelDesc, SchedUnit, &[Cost], bool) -> KernelReport =
        GpuExecutor::run_kernel;
    let _: fn(&'static str, u32) -> KernelDesc = |name, regs| KernelDesc::new(name, regs);
    let _ = Cost {
        compute_ops: 0,
        coalesced_reads: 0,
        random_reads: 0,
        writes: 0,
        atomics: 0,
        atomic_conflicts: 0,
        ..Cost::default()
    };
    let _ = SchedUnit::Thread;

    // `simdx_algos`: the programs and the reference oracles.
    let _: fn(VertexId) -> Bfs = Bfs::new;
    let _: fn(VertexId) -> Sssp = Sssp::new;
    let _: fn(&Graph) -> PageRank = PageRank::new;
    let _: fn(u32) -> KCore = KCore::new;
    let _ = Wcc;
    let _: fn(&Csr, VertexId) -> Vec<u32> = reference::bfs;
    let _: fn(&Csr, VertexId) -> Vec<u32> = reference::sssp;
    let _: fn(&Graph, f32, f32, u32) -> Vec<f32> = reference::pagerank;
    let _: fn(&Graph, u32) -> Vec<bool> = reference::kcore;
    let _: fn(&Csr) -> Vec<u32> = reference::wcc;
    let _: fn(&[u32]) -> Vec<bool> = kcore::survivors;

    // `simdx_core`: configuration and the session API.
    let _: fn(EngineConfig, ExecMode) -> EngineConfig = EngineConfig::with_exec;
    let _: fn(&EngineConfig) -> &DeviceSpec = |c| &c.device;
    let _ = ExecMode::Parallel { threads: 2 };
    let _ = ExecMode::Serial;
    let _: fn(EngineConfig) -> Result<Runtime, SimdxError> = Runtime::new;
    let _ = |runtime: &Runtime, graph: &Graph| {
        let bound: BoundGraph<'_, '_> = runtime.bind(graph);
        let _ = bound.graph().out();
        let _ = bound.grid().map_or(0, |g| g.footprint_bytes());
        let _: usize = bound.idle_scratch_arenas();
        let mut hook = |r: &IterationRecord| {
            let _ = (r.iteration, r.direction == Direction::Push);
            let _ = (
                r.filter == FilterKind::Ballot,
                r.filter == FilterKind::Online,
            );
            let _ = (r.frontier_len, r.degree_sum, r.overflowed, r.cycles);
        };
        let result: Result<RunResult<u32>, SimdxError> =
            bound.run(Bfs::new(0)).observe(&mut hook).execute();
        let aborted = bound
            .run(Bfs::new(0))
            .cycle_budget(1)
            .checkpoint_on_abort()
            .execute();
        if let Err(aborted) = aborted {
            if let Some(checkpoint) = aborted.into_parts().1 {
                let _ = bound.resume(Bfs::new(0), checkpoint).execute();
            }
        }
        result.map(|r| run_report(&r.report))
    };
    program_bound(Wcc);

    // `simdx_core`: the empty-epoch probe and the persist side channel.
    let _: fn(usize) -> WorkerPool = WorkerPool::new;
    let _: fn(&WorkerPool, &(dyn Fn(usize) + Sync)) = WorkerPool::run;
    let _: fn(&DurableCheckpoint<u32>) -> Vec<u8> = persist::encode::<u32>;
    let _: fn(&[u8]) -> Result<DurableCheckpoint<u32>, SimdxError> = persist::decode::<u32>;
    let _ = |frame: DurableCheckpoint<u32>| (frame.ticket, frame.seed, frame.checkpoint);
    let _ = |checkpoint| DurableCheckpoint::<u32> {
        ticket: 0,
        seed: 0,
        checkpoint,
    };
    let _ = |dir: &std::path::Path| -> Result<Vec<u64>, SimdxError> {
        let store = DirStore::open(dir)?;
        store.put(0, &[])?;
        let _ = store.get(0)?;
        store.tickets()
    };

    // `simdx_core`: the serving tier.
    let _ = ServiceConfig::default()
        .workers(1)
        .queue_depth(1)
        .checkpoint_aborts(true)
        .retry(
            RetryPolicy::default()
                .max_attempts(2)
                .backoff(Duration::ZERO),
        );
    let _: fn(ServiceConfig, DurabilityPolicy) -> ServiceConfig = ServiceConfig::durability;
    let _: fn(DirStore) -> DurabilityPolicy = DurabilityPolicy::spill_to;
    let _: fn(VertexId) -> QueryRequest = QueryRequest::new;
    let _: fn(QueryRequest, u64) -> QueryRequest = QueryRequest::cycle_budget;
    let _ = |bound: &BoundGraph<'_, '_>, store: &DirStore| -> Result<(), SimdxError> {
        let report: ServeReport<u32> =
            QueryPool::serve(bound, Bfs::new(0), ServiceConfig::default(), |client| {
                client.submit(QueryRequest::new(0))?;
                let _ = client.queued();
                Ok(())
            })?;
        let _ = (report.batches, &report.spilled, &report.spill_failures);
        for outcome in &report.outcomes {
            let _ = (outcome.seed, outcome.latency, outcome.attempts);
            let _ = outcome.result.as_ref().map(|r| r.report.elapsed);
        }
        let recovery: RecoveryReport<u32> = QueryPool::recover(bound, Bfs::new(0), store)?;
        for recovered in &recovery.recovered {
            let _ = (recovered.ticket, recovered.seed, &recovered.result);
        }
        let _ = &recovery.skipped;
        Ok(())
    };
}

/// The report fields the package reads.
fn run_report(report: &RunReport) -> u64 {
    let _ = (&report.log.records, report.edges_examined, report.elapsed);
    let _ = (report.elapsed_ms, report.iterations);
    report.stats.total_cycles + report.stats.kernel_launches + report.stats.barrier_passes
}

/// The package's input test compares two builds with `assert_eq!`.
fn graph_bounds<G: PartialEq + std::fmt::Debug>() {}

/// The package's generic query runner bounds its program by `AccProgram`.
fn program_bound<P: AccProgram>(_: P) {}
