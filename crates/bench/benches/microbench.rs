//! Criterion micro-benchmarks for the load-bearing primitives:
//! frontier filters (online vs ballot vs strided), warp primitives,
//! occupancy math, graph generation and one end-to-end engine run.
//!
//! These benchmark *host* execution speed of the simulator itself (not
//! simulated GPU time — the table/figure binaries report that).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simdx_algos::bfs::Bfs;
use simdx_algos::pagerank::PageRank;
use simdx_bench::run_one;
use simdx_core::acc::{AccProgram, CombineKind};
use simdx_core::filters::ballot;
use simdx_core::filters::{online, strided};
use simdx_core::frontier::ThreadBins;
use simdx_core::{EngineConfig, ExecMode, Runtime};
use simdx_gpu::occupancy::occupancy;
use simdx_gpu::warp;
use simdx_gpu::{DeviceSpec, GpuExecutor, KernelDesc};
use simdx_graph::gen::{ChungLu, Road};
use simdx_graph::{datasets, Graph, VertexId, Weight};

/// Minimal program for the filter benches.
struct Diff;

impl AccProgram for Diff {
    type Meta = u32;
    type Update = u32;

    fn name(&self) -> &'static str {
        "diff"
    }

    fn combine_kind(&self) -> CombineKind {
        CombineKind::Vote
    }

    fn init(&self, _g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
        unreachable!()
    }

    fn compute(&self, _s: VertexId, _d: VertexId, _w: Weight, _a: &u32, _b: &u32) -> Option<u32> {
        None
    }

    fn combine(&self, a: u32, _b: u32) -> u32 {
        a
    }

    fn apply(&self, _v: VertexId, _c: &u32, _u: u32) -> Option<u32> {
        None
    }
}

fn bench_filters(c: &mut Criterion) {
    let n = 1 << 16;
    let prev = vec![0u32; n];
    let mut curr = prev.clone();
    for i in (0..n).step_by(97) {
        curr[i] = 1;
    }
    let kernel = KernelDesc::new("taskmgmt", 24);

    let mut group = c.benchmark_group("filters");
    group.sample_size(20);
    group.bench_function("ballot_scan_64k", |b| {
        b.iter(|| {
            let mut ex = GpuExecutor::new(DeviceSpec::k40());
            ballot::scan(&Diff, &curr, &prev, &mut ex, &kernel, false)
        })
    });
    group.bench_function("strided_scan_64k", |b| {
        b.iter(|| {
            let mut ex = GpuExecutor::new(DeviceSpec::k40());
            strided::scan(&Diff, &curr, &prev, &mut ex, &kernel, false)
        })
    });
    group.bench_function("online_concat_4k_records", |b| {
        let mut bins = ThreadBins::new(480, usize::MAX);
        for i in 0..4096u32 {
            bins.record(i as usize % 480, i % 999);
        }
        b.iter(|| {
            let mut ex = GpuExecutor::new(DeviceSpec::k40());
            online::concatenate(&bins, &mut ex, &kernel, false)
        })
    });
    group.finish();
}

fn bench_warp_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp");
    let preds = [true; 32];
    group.bench_function("ballot", |b| {
        b.iter(|| warp::ballot(std::hint::black_box(&preds)))
    });
    let vals: Vec<u32> = (0..32).collect();
    group.bench_function("reduce_min", |b| {
        b.iter(|| warp::reduce(std::hint::black_box(&vals), u32::min))
    });
    group.bench_function("inclusive_scan", |b| {
        b.iter(|| warp::inclusive_scan(std::hint::black_box(&vals), |a, x| a + x))
    });
    group.finish();
}

fn bench_occupancy(c: &mut Criterion) {
    let k40 = DeviceSpec::k40();
    c.bench_function("occupancy_eq1", |b| {
        b.iter(|| occupancy(&k40, &KernelDesc::new("k", std::hint::black_box(110))))
    });
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.bench_function("chung_lu_16k", |b| {
        b.iter(|| ChungLu::social(16_384, 8, 2.0).generate(7))
    });
    group.bench_function("road_16k", |b| b.iter(|| Road::strip(512, 32).generate(7)));
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let g = datasets::dataset("PK").expect("PK").build_scaled(3, 3);
    let src = datasets::default_source(g.out());
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("bfs", "PK/8"), &g, |b, g| {
        b.iter(|| run_one(g, EngineConfig::default(), Bfs::new(src)).expect("bfs"))
    });
    group.finish();
}

fn bench_exec_modes(c: &mut Criterion) {
    // A/B of the host execution backends on one skewed graph; the
    // results are bit-equal by contract, so this measures pure host
    // throughput. See also `snapshot` for the persisted JSON form.
    let g = datasets::dataset("PK").expect("PK").build_scaled(3, 2);
    let src = datasets::default_source(g.out());
    let modes = [
        ExecMode::Serial,
        ExecMode::Parallel { threads: 2 },
        ExecMode::Parallel { threads: 0 },
    ];
    let mut group = c.benchmark_group("exec_mode");
    group.sample_size(10);
    for mode in modes {
        group.bench_with_input(BenchmarkId::new("bfs", mode.label()), &g, |b, g| {
            b.iter(|| {
                run_one(g, EngineConfig::default().with_exec(mode), Bfs::new(src)).expect("bfs")
            })
        });
        group.bench_with_input(BenchmarkId::new("pagerank", mode.label()), &g, |b, g| {
            b.iter(|| {
                run_one(g, EngineConfig::default().with_exec(mode), PageRank::new(g))
                    .expect("pagerank")
            })
        });
    }
    group.finish();
}

fn bench_session_reuse(c: &mut Criterion) {
    // The api_redesign A/B: a 16-source BFS batch on RMAT scale-14,
    // fresh runtime (pool + scratch + fences) per query vs one reused
    // `BoundGraph` serving the whole batch. Bit-equal by contract, so
    // the delta is pure per-query setup amortization.
    let (g, sources): (Graph, Vec<VertexId>) = simdx_bench::session_reuse_workload();
    let mut group = c.benchmark_group("session_reuse");
    group.sample_size(10);
    for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
        group.bench_function(format!("fresh_engine/{}", mode.label()), |b| {
            b.iter(|| {
                for &src in &sources {
                    run_one(&g, EngineConfig::default().with_exec(mode), Bfs::new(src))
                        .expect("fresh bfs");
                }
            })
        });
        group.bench_function(format!("bound_graph/{}", mode.label()), |b| {
            b.iter(|| {
                let runtime =
                    Runtime::new(EngineConfig::default().with_exec(mode)).expect("runtime");
                runtime
                    .bind(&g)
                    .run_batch(Bfs::new(0), &sources)
                    .expect("bound bfs batch")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_filters,
    bench_warp_primitives,
    bench_occupancy,
    bench_generators,
    bench_engine,
    bench_exec_modes,
    bench_session_reuse
);
criterion_main!(benches);
