//! The traced run: per-layer metrics measured from outside, by timing
//! calls into each module's public functions and by timestamping the
//! `RunBuilder::observe` hook. Layer = module name. A metric a
//! workload does not exercise is left unset and reads zero.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use simdx_algos::{reference, Bfs};
use simdx_core::jit::IterationRecord;
use simdx_core::par::WorkerPool;
use simdx_core::persist::{self, DurableCheckpoint};
use simdx_core::{BoundGraph, CheckpointStore, DirStore, FilterKind, ServeReport, ServiceConfig};
use simdx_gpu::cost::Cost;
use simdx_gpu::executor::GpuExecutor;
use simdx_gpu::kernel::{KernelDesc, SchedUnit};
use simdx_graph::csr::Direction;
use simdx_graph::{Graph, VertexId};

use crate::batch::{reference_pass, timed_pass, BatchInputs};
use crate::harness::{
    repeat, serving_threads, share_of, time_first_answer, timed, Answer, Checks, Graphs, Metrics,
    Mode, Query, Session, MIN_REPS, MIN_REPS_SHORT,
};
use crate::inputs::{build_twins, copy_edges, draw_queries, EdgeInputs, Twin};
use crate::serve::{
    drain, latencies_ms, measure_drain, measure_faulted, open_loop_phase, open_loop_size,
    solo_answers, starvation_budget, timed_faulted_round, FaultedSet, OpenLoop, ScratchDir,
    ServeInputs, Serving, PHASE_DRAIN, PHASE_R_HI, PHASE_R_LO,
};
use crate::stats::{median, percentile, Summary};
use crate::trace::{Recorder, SpanId, NO_QUERY};
use crate::Run;

/// BFS queries the serving workloads trace through the engine (the
/// first few pool sources).
const SERVE_TRACED_QUERIES: usize = 8;

/// `lat.p95_ms`, the tail of the per-query latency `lat_p50_ms` is the
/// median of: reported by the traced run only (a tail swings ~3× as far
/// as the median with the host's speed, too far for a bound of a
/// quarter), and only with ten samples beyond its rank.
fn set_latency_tail(metrics: &mut Metrics, latencies_ms: &[f64]) {
    if let Some(p95) = percentile(latencies_ms, 95.0) {
        metrics.set(
            "lat.p95_ms",
            Summary {
                n: latencies_ms.len(),
                ..Summary::single(p95)
            },
        );
    }
}

/// A traced run's sinks: the metric and check tallies, and the span
/// recorder with its root `workload` span.
struct Tracer<'a> {
    metrics: &'a mut Metrics,
    checks: &'a mut Checks,
    run: &'a Run,
    rec: Recorder,
    root: SpanId,
}

impl<'a> Tracer<'a> {
    fn new(run: &'a Run, metrics: &'a mut Metrics, checks: &'a mut Checks) -> Self {
        let mut rec = Recorder::new();
        let root = rec.open("workload", None, NO_QUERY);
        Self {
            metrics,
            checks,
            run,
            rec,
            root,
        }
    }

    /// Closes the root span and writes the spans out as JSON lines.
    fn finish(mut self) {
        self.rec.close(self.root);
        if let Err(err) = self.rec.write_jsonl(&self.run.trace_out) {
            // The spans are a reading aid; the metrics do not depend on
            // the file.
            eprintln!(
                "benchmark: cannot write trace {}: {err}",
                self.run.trace_out.display()
            );
        }
    }
}

/// What the layers shared by all four traced runs are measured on.
struct Subject<'a> {
    edges: &'a EdgeInputs,
    /// The twins `setup_s` builds; `twins[0]` is the primary graph.
    twins: &'a [&'a Twin],
    graphs: &'a Graphs,
    /// Timed as a pass and per query.
    suite: &'a [Query],
    /// Timed per query only.
    layer_only: &'a [Query],
}

/// The `graph` layer, and the traced `setup` span tree.
fn graph_layer(t: &mut Tracer<'_>, subject: &Subject<'_>, budget: Duration) {
    let (metrics, rec, root) = (&mut *t.metrics, &mut t.rec, t.root);
    let Subject {
        edges,
        twins,
        graphs,
        ..
    } = *subject;
    metrics.set_value("graph.gen_s", edges.gen_s);
    metrics.set_value("graph.csr_bytes", graphs.footprint_bytes() as f64);
    metrics.set_value("graph.edges", graphs.primary.num_edges() as f64);
    let samples = repeat(budget, MIN_REPS, || {
        let copies = copy_edges(twins);
        let (built, secs) = timed(|| build_twins(twins, copies));
        drop(built);
        secs
    });
    metrics.set_samples("graph.csr_build_s", &samples);

    // One traced set-up: workload ⊃ setup ⊃ {graph.csr_build,
    // session.runtime_new, session.bind}.
    let copies = copy_edges(twins);
    let setup = rec.open("setup", Some(root), NO_QUERY);
    let built = rec.scope("graph.csr_build", Some(setup), NO_QUERY, || {
        build_twins(twins, copies)
    });
    let runtime = rec.scope("session.runtime_new", Some(setup), NO_QUERY, || {
        Mode::Serial.runtime()
    });
    let bound: Vec<_> = rec.scope("session.bind", Some(setup), NO_QUERY, || {
        built.iter().map(|g| runtime.bind(g)).collect()
    });
    rec.close(setup);
    drop(bound);
}

/// The `session` layer (with `grid`, `pool`, `scratch` behind it):
/// what `Runtime::new` and `bind` cost in each mode, what the grid
/// weighs, and what the first query on a fresh session pays over a
/// warm one.
fn session_layer(metrics: &mut Metrics, graph: &Graph, source: VertexId, budget: Duration) {
    for mode in Mode::BOTH {
        let samples = repeat(budget / 8, MIN_REPS_SHORT, || {
            let (runtime, secs) = timed(|| mode.runtime());
            drop(runtime);
            secs * 1e6
        });
        metrics.set_samples(
            &format!("session.runtime_new_{}_us", mode.label()),
            &samples,
        );

        let runtime = mode.runtime();
        let samples = repeat(budget / 8, MIN_REPS_SHORT, || {
            let (bound, secs) = timed(|| runtime.bind(graph));
            drop(bound);
            secs
        });
        match mode {
            Mode::Serial => {
                let us: Vec<f64> = samples.iter().map(|s| s * 1e6).collect();
                metrics.set_samples("session.bind_serial_us", &us);
            }
            Mode::Par2 => {
                let ms: Vec<f64> = samples.iter().map(|s| s * 1e3).collect();
                metrics.set_samples("session.bind_par2_ms", &ms);
                let bound = runtime.bind(graph);
                metrics.set_value(
                    "session.grid_bytes",
                    bound.grid().map_or(0, |g| g.footprint_bytes()) as f64,
                );
            }
        }

        // First query on a fresh runtime + bind, minus the median of
        // the next few on the same session.
        let penalties = repeat(budget / 4, 5, || {
            let runtime = mode.runtime();
            let bound = runtime.bind(graph);
            let query = || {
                let start = Instant::now();
                let result = bound.run(Bfs::new(source)).execute();
                let secs = start.elapsed().as_secs_f64();
                std::hint::black_box(result).expect("benchmark queries run to convergence");
                secs
            };
            let first = query();
            let warm: Vec<f64> = (0..5).map(|_| query()).collect();
            (first - median(&warm).expect("five warm queries")) * 1e3
        });
        metrics.set_samples(
            &format!("session.cold_penalty_{}_ms", mode.label()),
            &penalties,
        );
    }
}

/// The `algos` layer: warm per-query medians of every query kind the
/// workload has, in both modes.
fn algos_layer(
    metrics: &mut Metrics,
    sessions: [&Session<'_, '_>; 2],
    queries: &[Query],
    budget: Duration,
) {
    let mut by_kind: BTreeMap<&'static str, Vec<Query>> = BTreeMap::new();
    for &q in queries {
        by_kind.entry(q.kind()).or_default().push(q);
    }
    let slices = (by_kind.len() * 2) as u32;
    for (kind, set) in &by_kind {
        for (mode, session) in Mode::BOTH.into_iter().zip(sessions) {
            let mut next = 0usize;
            let samples = repeat(budget / slices, MIN_REPS_SHORT, || {
                let query = set[next % set.len()];
                next += 1;
                let (answer, secs) = timed(|| session.run(query, None));
                std::hint::black_box(answer);
                secs * 1e3
            });
            metrics.set_samples(&format!("algos.{kind}.{}_ms", mode.label()), &samples);
        }
    }
}

/// One traced query: the `query` span and its `engine.*` children,
/// cut at the instants the `observe` hook fired. From outside, the
/// engine's `init` cannot be told from its first iteration, so
/// `engine.pre_loop` runs from `execute()` entry to the *first* record
/// (init + iteration 0, a single-vertex push for BFS) and the
/// `engine.iter` spans are iterations 1 and up.
fn traced_query(
    session: &Session<'_, '_>,
    query: Query,
    rec: &mut Recorder,
    parent: SpanId,
    id: u32,
) -> Answer {
    // Pre-sized: a growing `Vec` would charge its reallocations to the
    // iterations they land in (the road BFS has ~520 of ~3 µs each).
    let mut marks: Vec<(Instant, IterationRecord)> = Vec::with_capacity(1024);
    let mut hook = |r: &IterationRecord| marks.push((Instant::now(), *r));
    let entry = Instant::now();
    let answer = session.run(query, Some(&mut hook));
    let exit = Instant::now();

    let span = rec.record("query", rec.at_ns(entry), rec.at_ns(exit), Some(parent), id);
    let mut from = entry;
    for (i, (at, r)) in marks.iter().enumerate() {
        let name = if i == 0 {
            "engine.pre_loop"
        } else {
            "engine.iter"
        };
        rec.record_tagged(
            name,
            rec.at_ns(from),
            rec.at_ns(*at),
            Some(span),
            id,
            vec![
                ("iteration", f64::from(r.iteration)),
                ("push", f64::from(u8::from(r.direction == Direction::Push))),
                (
                    "ballot",
                    f64::from(u8::from(r.filter == FilterKind::Ballot)),
                ),
                ("frontier_len", r.frontier_len as f64),
                ("degree_sum", r.degree_sum as f64),
                ("overflowed", f64::from(u8::from(r.overflowed))),
                ("cycles", r.cycles as f64),
            ],
        );
        from = *at;
    }
    rec.record(
        "engine.post_loop",
        rec.at_ns(from),
        rec.at_ns(exit),
        Some(span),
        id,
    );
    answer
}

/// What the engine layer hands the `par` layer.
struct PassTimes {
    serial_s: f64,
    par2_s: f64,
    iterations: f64,
}

/// The `engine` and `gpu_sim` layers, `par.tax_us_per_iter`,
/// `par.speedup` and the `trace.*` pair, over one suite on both warm
/// sessions.
fn engine_layer(
    t: &mut Tracer<'_>,
    sessions: [&Session<'_, '_>; 2],
    suite: &[Query],
    budget: Duration,
) -> PassTimes {
    let (metrics, checks, rec, root) = (&mut *t.metrics, &mut *t.checks, &mut t.rec, t.root);
    let [serial, par2] = sessions;
    let expected = reference_pass(serial, suite, checks);

    // Counts that repeat exactly, from one pass's reports.
    let records = || expected.iter().flat_map(|a| a.report.log.records.iter());
    let count = |pred: &dyn Fn(&IterationRecord) -> bool| records().filter(|r| pred(r)).count();
    let iterations = records().count() as f64;
    let edges: u64 = expected.iter().map(|a| a.report.edges_examined).sum();
    metrics.set_value("engine.iterations", iterations);
    metrics.set_value("engine.edges_examined", edges as f64);
    metrics.set_value(
        "engine.push_iters",
        count(&|r| r.direction == Direction::Push) as f64,
    );
    metrics.set_value(
        "engine.pull_iters",
        count(&|r| r.direction == Direction::Pull) as f64,
    );
    metrics.set_value(
        "engine.online_iters",
        count(&|r| r.filter == FilterKind::Online) as f64,
    );
    metrics.set_value(
        "engine.ballot_iters",
        count(&|r| r.filter == FilterKind::Ballot) as f64,
    );
    metrics.set_value("engine.overflow_iters", count(&|r| r.overflowed) as f64);
    let stat = |f: &dyn Fn(&Answer) -> f64| expected.iter().map(f).sum::<f64>();
    metrics.set_value(
        "gpu_sim.total_cycles",
        stat(&|a| a.report.stats.total_cycles as f64),
    );
    metrics.set_value(
        "gpu_sim.kernel_launches",
        stat(&|a| a.report.stats.kernel_launches as f64),
    );
    metrics.set_value(
        "gpu_sim.barrier_passes",
        stat(&|a| a.report.stats.barrier_passes as f64),
    );
    metrics.set_value("gpu_sim.sim_ms", stat(&|a| a.report.elapsed_ms));

    // Untraced and traced serial passes alternate, so drift lands on
    // both sides of `trace.overhead_pct`.
    let (mut untraced, mut traced, mut accounted) = (Vec::new(), Vec::new(), Vec::new());
    let mut next_id = 0u32;
    let mut ok = true;
    repeat(budget / 2, MIN_REPS, || {
        let (secs, answers) = timed_pass(serial, suite);
        ok &= answers.iter().zip(&expected).all(|(a, e)| a.bit_equal(e));
        untraced.push(secs);

        let first_span = rec.spans().len();
        let start = Instant::now();
        let answers: Vec<Answer> = suite
            .iter()
            .map(|&q| {
                next_id += 1;
                traced_query(serial, q, rec, root, next_id)
            })
            .collect();
        traced.push(start.elapsed().as_secs_f64());
        ok &= answers.iter().zip(&expected).all(|(a, e)| a.bit_equal(e));
        let engine_ns: u64 = rec.spans()[first_span..]
            .iter()
            .filter(|s| s.name.starts_with("engine."))
            .map(|s| s.duration_ns())
            .sum();
        accounted.push(engine_ns as f64 * 1e-9);
        0.0
    });
    // The warm-up repetition's pass times are not samples.
    for v in [&mut untraced, &mut traced, &mut accounted] {
        v.remove(0);
    }
    checks.check(ok, || "a traced or untraced pass was not bit-equal".into());

    let mut ok = true;
    let par2_passes = repeat(budget / 2, MIN_REPS, || {
        let (secs, answers) = timed_pass(par2, suite);
        // The simulated numbers (`gpu_sim.*`) must be bit-identical
        // between the modes; `bit_equal` compares the executor stats.
        ok &= answers.iter().zip(&expected).all(|(a, e)| a.bit_equal(e));
        secs
    });
    checks.check(ok, || "a par2 pass was not bit-equal to serial".into());

    let serial_s = median(&untraced).expect("at least ten untraced passes");
    let par2_s = median(&par2_passes).expect("at least ten par2 passes");
    for (mode, secs) in [(Mode::Serial, serial_s), (Mode::Par2, par2_s)] {
        metrics.set_value(
            &format!("engine.ns_per_edge.{}", mode.label()),
            secs * 1e9 / edges.max(1) as f64,
        );
        metrics.set_value(
            &format!("engine.us_per_iter.{}", mode.label()),
            secs * 1e6 / iterations.max(1.0),
        );
    }
    let traced_s = median(&traced).expect("at least ten traced passes");
    metrics.set_value(
        "trace.overhead_pct",
        (traced_s - serial_s) / serial_s * 100.0,
    );
    metrics.set_value(
        "trace.account_pct",
        median(&accounted).expect("at least ten traced passes") / serial_s * 100.0,
    );

    // Host time of an iteration of each kind, from the traced spans.
    let tag = |s: &crate::trace::Span, key: &str| {
        s.tags
            .iter()
            .find(|(k, _)| *k == key)
            .is_some_and(|&(_, v)| v != 0.0)
    };
    let iter_us = |pred: &dyn Fn(&crate::trace::Span) -> bool| -> Vec<f64> {
        rec.spans()
            .iter()
            .filter(|s| s.name == "engine.iter" && pred(s))
            .map(|s| s.duration_ns() as f64 * 1e-3)
            .collect()
    };
    let named_us = |name: &str| -> Vec<f64> {
        rec.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-3)
            .collect()
    };
    for (name, samples) in [
        ("engine.push_iter_us", iter_us(&|s| tag(s, "push"))),
        ("engine.pull_iter_us", iter_us(&|s| !tag(s, "push"))),
        ("engine.ballot_iter_us", iter_us(&|s| tag(s, "ballot"))),
        ("engine.pre_loop_us", named_us("engine.pre_loop")),
        ("engine.post_loop_us", named_us("engine.post_loop")),
    ] {
        // No iteration of the kind (no pull on the road graph): zero.
        if samples.is_empty() {
            metrics.set_value(name, 0.0);
        } else {
            metrics.set_samples(name, &samples);
        }
    }

    PassTimes {
        serial_s,
        par2_s,
        iterations,
    }
}

/// The `par` layer: the empty-epoch round trip of a 2-thread pool, and
/// what `par2` costs or saves per iteration on this workload's suite.
fn par_layer(metrics: &mut Metrics, run: &Run, passes: &PassTimes) {
    let pool = WorkerPool::new(2);
    let reps = run.sizing.epoch_reps.max(10);
    let batch = reps / 10;
    let samples: Vec<f64> = (0..10)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                pool.run(&|w| {
                    std::hint::black_box(w);
                });
            }
            start.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    metrics.set_samples("par.epoch_roundtrip_us", &samples);
    metrics.set_value(
        "par.tax_us_per_iter",
        (passes.par2_s - passes.serial_s) * 1e6 / passes.iterations.max(1.0),
    );
    // Base: the serial pass.
    metrics.set_value("par.speedup", passes.serial_s / passes.par2_s);
}

/// `gpu_sim.charge_ns`: host time of one `run_kernel` charge over a
/// fixed 1024-task list on the default device.
fn gpu_charge(metrics: &mut Metrics) {
    let mut executor = GpuExecutor::new(Mode::Serial.config().device);
    let kernel = KernelDesc::new("benchmark_probe", 32);
    let tasks: Vec<Cost> = (0..1024u64)
        .map(|i| Cost {
            compute_ops: 4 + i % 7,
            coalesced_reads: i % 5,
            random_reads: 1 + i % 3,
            writes: i % 2,
            ..Cost::default()
        })
        .collect();
    let samples = repeat(Duration::from_millis(20), MIN_REPS_SHORT, || {
        let start = Instant::now();
        for _ in 0..64 {
            std::hint::black_box(executor.run_kernel(&kernel, SchedUnit::Thread, &tasks, false));
        }
        start.elapsed().as_secs_f64() * 1e9 / 64.0
    });
    metrics.set_samples("gpu_sim.charge_ns", &samples);
}

/// The `baselines` layer: the plain single-threaded reference on the
/// same graph, and the engine + simulator's price over it.
fn baselines_layer(
    metrics: &mut Metrics,
    graphs: &Graphs,
    source: VertexId,
    with_sssp: bool,
    budget: Duration,
) {
    let samples = repeat(budget / 2, MIN_REPS, || {
        let (levels, secs) = timed(|| reference::bfs(graphs.primary.out(), source));
        std::hint::black_box(levels);
        secs * 1e3
    });
    metrics.set_samples("baselines.ref_bfs_ms", &samples);
    if let (Some(weighted), true) = (&graphs.weighted, with_sssp) {
        let samples = repeat(budget / 2, MIN_REPS, || {
            let (dist, secs) = timed(|| reference::sssp(weighted.out(), source));
            std::hint::black_box(dist);
            secs * 1e3
        });
        metrics.set_samples("baselines.ref_sssp_ms", &samples);
    }
    if let (Some(engine), Some(plain)) = (
        metrics.get("algos.bfs.serial_ms"),
        metrics.get("baselines.ref_bfs_ms"),
    ) {
        // Base: the reference BFS.
        metrics.set_value("baselines.engine_vs_ref_bfs", engine.median / plain.median);
    }
}

/// Everything the four traced runs share, in `share` of the run's
/// seconds.
fn common_layers(t: &mut Tracer<'_>, subject: &Subject<'_>, share: f64) -> PassTimes {
    let seconds = t.run.seconds * share;
    let Subject {
        twins,
        graphs,
        suite,
        layer_only,
        ..
    } = *subject;
    let Query::Bfs(source) = suite[0] else {
        unreachable!("every suite opens with a BFS");
    };
    graph_layer(t, subject, share_of(seconds, 0.10));
    session_layer(t.metrics, &graphs.primary, source, share_of(seconds, 0.12));

    let serial_rt = Mode::Serial.runtime();
    let par2_rt = Mode::Par2.runtime();
    let serial = Session::bind(&serial_rt, graphs);
    let par2 = Session::bind(&par2_rt, graphs);
    let sessions = [&serial, &par2];

    let passes = engine_layer(t, sessions, suite, share_of(seconds, 0.45));
    reference_pass(&serial, layer_only, t.checks);
    let all: Vec<Query> = suite.iter().chain(layer_only).copied().collect();
    algos_layer(t.metrics, sessions, &all, share_of(seconds, 0.25));
    let arenas = |s: &Session<'_, '_>| {
        s.primary.idle_scratch_arenas()
            + s.weighted.as_ref().map_or(0, |b| b.idle_scratch_arenas())
            + s.undirected.as_ref().map_or(0, |b| b.idle_scratch_arenas())
    };
    t.metrics
        .set_value("session.idle_arenas", arenas(&serial) as f64);
    par_layer(t.metrics, t.run, &passes);
    // The par2 twin of `first_answer_serial_s`. Bimodal on the road
    // graph (same-CPU vs cross-CPU worker wake-ups), which is why the
    // par2 times are layer metrics and not bounded end-to-end ones.
    let expected = serial.run(suite[0], None);
    let mut ok = true;
    let samples = repeat(share_of(seconds, 0.05), MIN_REPS, || {
        let (secs, answer) = time_first_answer(twins[0], Mode::Par2, source);
        ok &= answer.bit_equal(&expected);
        secs
    });
    t.checks
        .check(ok, || "a par2 first answer differs from serial".into());
    t.metrics.set_samples("par.first_answer_par2_s", &samples);
    gpu_charge(t.metrics);
    let with_sssp = all.iter().any(|q| matches!(q, Query::Sssp(_)));
    baselines_layer(
        t.metrics,
        graphs,
        source,
        with_sssp,
        share_of(seconds, 0.08),
    );
    passes
}

pub fn trace_batch(inputs: &BatchInputs, run: &Run, metrics: &mut Metrics, checks: &mut Checks) {
    let mut t = Tracer::new(run, metrics, checks);
    let passes = common_layers(
        &mut t,
        &Subject {
            edges: &inputs.edges,
            twins: &inputs.setup_twins(),
            graphs: &inputs.graphs,
            suite: &inputs.suite,
            layer_only: &inputs.layer_only,
        },
        1.0,
    );
    t.metrics.set_value("par.solve_par2_s", passes.par2_s);

    // The tail of the per-query latency `lat_p50_ms` is the median of.
    let runtime = Mode::Serial.runtime();
    let session = Session::bind(&runtime, &inputs.graphs);
    let mut next = 0usize;
    let latencies = repeat(Duration::ZERO, run.sizing.open_min_queries, || {
        inputs.next_latency_ms(&session, &mut next)
    });
    set_latency_tail(t.metrics, &latencies);
    t.finish();
}

/// The serving workloads' graphs and engine-level suite: the primary
/// graph only, BFS from the first few pool sources.
fn serve_suite(inputs: &ServeInputs) -> (Graphs, Vec<Query>) {
    let graphs = Graphs {
        primary: inputs.graph.clone(),
        weighted: None,
        undirected: None,
    };
    let suite = inputs
        .pool
        .iter()
        .take(SERVE_TRACED_QUERIES)
        .map(|&s| Query::Bfs(s))
        .collect();
    (graphs, suite)
}

/// Reconstructs the served-query spans of an open-loop phase from its
/// outcomes: `query` (due → completion) ⊃ `service.queue_wait`,
/// `engine.run`.
fn record_served_spans(
    rec: &mut Recorder,
    root: SpanId,
    result: &OpenLoop,
    due: &[Duration],
    first_id: u32,
) {
    for (i, outcome) in result.report.outcomes.iter().enumerate() {
        let Ok(run) = &outcome.result else { continue };
        let id = first_id + i as u32;
        let due_ns = rec.at_ns(result.start + due[i]);
        let end_ns = rec.at_ns(result.sent[i] + outcome.latency);
        let run_ns = u64::try_from(run.report.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let run_start = end_ns.saturating_sub(run_ns).max(due_ns);
        let span = rec.record("query", due_ns, end_ns, Some(root), id);
        rec.record("service.queue_wait", due_ns, run_start, Some(span), id);
        rec.record("engine.run", run_start, end_ns, Some(span), id);
    }
}

/// Latency and queue-wait percentiles of one open-loop phase under the
/// `service.*.<suffix>` names. Returns the phase's p95 latency in ms.
fn open_loop_metrics(
    metrics: &mut Metrics,
    result: &OpenLoop,
    due: &[Duration],
    suffix: &str,
) -> Option<f64> {
    let latency = result.latencies_ms(due);
    // Time not spent in the engine: `latency − report.elapsed`, over
    // single-attempt queries.
    let wait: Vec<f64> = result
        .report
        .outcomes
        .iter()
        .zip(&latency)
        .filter(|(o, _)| o.attempts == 1)
        .filter_map(|(o, &lat)| {
            let run = o.result.as_ref().ok()?;
            Some((lat - run.report.elapsed.as_secs_f64() * 1e3).max(0.0))
        })
        .collect();
    let n = latency.len();
    let mut set = |name: String, samples: &[f64], p: f64| {
        if let Some(value) = percentile(samples, p) {
            metrics.set(
                &name,
                Summary {
                    n,
                    ..Summary::single(value)
                },
            );
        }
    };
    set(format!("service.lat_p50_ms.{suffix}"), &latency, 50.0);
    set(format!("service.lat_p95_ms.{suffix}"), &latency, 95.0);
    set(format!("service.queue_wait_p50_ms.{suffix}"), &wait, 50.0);
    set(format!("service.queue_wait_p95_ms.{suffix}"), &wait, 95.0);
    percentile(&latency, 95.0)
}

/// Medians of two timed loops run alternately (A then B each
/// repetition, after one untimed pair), so the host's drift lands on
/// both sides of the ratio taken from them.
fn alternate(
    budget: Duration,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut a_s, mut b_s) = (Vec::new(), Vec::new());
    let mut warm = true;
    repeat(budget, MIN_REPS, || {
        let (x, y) = (a(), b());
        if !std::mem::take(&mut warm) {
            a_s.push(x);
            b_s.push(y);
        }
        0.0
    });
    (
        median(&a_s).expect("at least ten pairs"),
        median(&b_s).expect("at least ten pairs"),
    )
}

/// The service tier's counters from one serve's report.
fn service_counts(metrics: &mut Metrics, report: &ServeReport<u32>) {
    let outcomes = &report.outcomes;
    let attempts: u32 = outcomes.iter().map(|o| o.attempts).sum();
    metrics.set_value("service.attempts", f64::from(attempts));
    metrics.set_value(
        "service.retried",
        outcomes.iter().filter(|o| o.attempts > 1).count() as f64,
    );
    metrics.set_value("service.spilled", report.spilled.len() as f64);
    metrics.set_value("service.batches", report.batches as f64);
    metrics.set_value(
        "service.batch_factor",
        outcomes.len() as f64 / report.batches.max(1) as f64,
    );
}

pub fn trace_serve_open(
    inputs: &ServeInputs,
    run: &Run,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let mut t = Tracer::new(run, metrics, checks);
    let (graphs, suite) = serve_suite(inputs);
    common_layers(
        &mut t,
        &Subject {
            edges: &inputs.edges,
            twins: &[&inputs.edges.primary],
            graphs: &graphs,
            suite: &suite,
            layer_only: &[],
        },
        0.22,
    );
    let (metrics, checks) = (&mut *t.metrics, &mut *t.checks);

    let serial_rt = Mode::Serial.runtime();
    let serial = serial_rt.bind(&inputs.graph);
    let solo = solo_answers(&serial, &inputs.pool, checks);
    let ctx = Serving {
        inputs,
        run,
        solo: &solo,
    };

    // The open loop at both fixed rates.
    let bfs_ms = metrics
        .get("algos.bfs.serial_ms")
        .expect("the algos layer ran")
        .median;
    let mut slo_rate = 0.0;
    let mut next_id = 1_000_000u32;
    for (phase, rate, suffix, share) in [
        (PHASE_R_LO, run.sizing.r_lo_qps, "r_lo", 0.30),
        (PHASE_R_HI, run.sizing.r_hi_qps, "r_hi", 0.20),
    ] {
        let n = open_loop_size(rate, run.seconds * share).max(run.sizing.open_min_queries);
        let (result, due) = open_loop_phase(&serial, ctx, phase, rate, n, checks);
        record_served_spans(&mut t.rec, t.root, &result, &due, next_id);
        next_id += result.report.outcomes.len() as u32;
        let p95 = open_loop_metrics(metrics, &result, &due, suffix);
        // The highest rung whose p95 stays within five warm BFS times
        // with no backlog left growing behind the schedule.
        let backlog_ok = result.backlog_end <= serving_threads(Mode::Serial, 1) * 8;
        if p95.is_some_and(|p| p <= 5.0 * bfs_ms) && backlog_ok {
            slo_rate = rate;
        }
        if suffix == "r_hi" {
            let outcomes = &result.report.outcomes;
            let run_ms: Vec<f64> = outcomes
                .iter()
                .filter_map(|o| o.result.as_ref().ok())
                .map(|r| r.report.elapsed.as_secs_f64() * 1e3)
                .collect();
            if let Some(p50) = median(&run_ms) {
                metrics.set_value("service.run_p50_ms", p50);
            }
            let late: Vec<f64> = (0..outcomes.len())
                .map(|i| result.late_s(&due, i) * 1e3)
                .collect();
            if let Some(p95) = percentile(&late, 95.0) {
                metrics.set_value("service.gen_late_p95_ms", p95);
            }
            metrics.set_value("service.backlog_end", result.backlog_end as f64);
            service_counts(metrics, &result.report);
        }
    }
    metrics.set_value("service.slo_rate_qps", slo_rate);

    // Closed-loop capacity, and the service tier's tax over the same
    // seeds through `run_batch` on one thread.
    let queries = draw_queries(
        &inputs.pool,
        run.seed,
        PHASE_DRAIN,
        run.sizing.drain_queries,
    );
    let workers = serving_threads(Mode::Serial, 0);
    let drains = repeat(share_of(run.seconds, 0.10), MIN_REPS, || {
        drain(
            &serial,
            &queries,
            workers,
            queries.len(),
            ServiceConfig::default(),
        )
        .0
    });
    metrics.set_value(
        "service.capacity_qps",
        queries.len() as f64 / median(&drains).expect("at least ten drains"),
    );
    let few = &queries[..queries.len().min(16)];
    let (served, batched) = alternate(
        share_of(run.seconds, 0.12),
        || drain(&serial, few, 1, 1, ServiceConfig::default()).0,
        || {
            let (results, secs) = timed(|| serial.run_batch(Bfs::new(0), few));
            std::hint::black_box(results).expect("benchmark queries run to convergence");
            secs
        },
    );
    // Base: the `run_batch` time.
    metrics.set_value("service.tax_pct", (served - batched) / batched * 100.0);

    // The closed loop of the untraced run, for its latency tail.
    let mut closed = Vec::new();
    repeat(Duration::ZERO, MIN_REPS, || {
        let report = drain(&serial, &queries, 1, 1, ServiceConfig::default()).1;
        closed.extend(latencies_ms(&report));
        0.0
    });
    set_latency_tail(metrics, &closed[queries.len()..]);

    // The par2 twin of `solve_serial_s`: the same drain with half the
    // serving threads, each query on two.
    {
        let par2_rt = Mode::Par2.runtime();
        let par2 = par2_rt.bind(&inputs.graph);
        let samples = measure_drain(&par2, &queries, Mode::Par2, &solo, checks);
        metrics.set_samples("par.solve_par2_s", &samples);
    }

    t.finish();
}

/// Times `f` as a child span of `parent` and pushes its milliseconds.
fn span_ms<R>(
    rec: &mut Recorder,
    name: &'static str,
    parent: SpanId,
    samples: &mut Vec<f64>,
    f: impl FnOnce() -> R,
) -> R {
    let start = rec.now_ns();
    let out = f();
    let end = rec.now_ns();
    rec.record(name, start, end, Some(parent), NO_QUERY);
    samples.push((end - start) as f64 * 1e-6);
    out
}

/// The `checkpoint` / `persist` side channel over one checkpoint
/// captured with `checkpoint_on_abort()`: encode, put (real disk,
/// `fsync`), get, decode, resume.
fn persist_side_channel(
    t: &mut Tracer<'_>,
    bound: &BoundGraph<'_, '_>,
    (source, solo): (VertexId, &Answer),
    dir: &std::path::Path,
) {
    let (metrics, checks, rec, root) = (&mut *t.metrics, &mut *t.checks, &mut t.rec, t.root);
    // Starve the run two iterations in, so the frontier is not trivial.
    let budget: u64 = solo
        .report
        .log
        .records
        .iter()
        .take(2)
        .map(|r| r.cycles)
        .sum();
    let aborted = bound
        .run(Bfs::new(source))
        .cycle_budget(budget.max(1))
        .checkpoint_on_abort()
        .execute();
    let Err(aborted) = aborted else {
        checks.check(false, || "the starved side-channel run converged".into());
        return;
    };
    let Some(checkpoint) = aborted.into_parts().1 else {
        checks.check(false, || "the starved run captured no checkpoint".into());
        return;
    };
    let frame = DurableCheckpoint {
        ticket: 0,
        seed: source,
        checkpoint,
    };
    let store = match DirStore::open(dir) {
        Ok(store) => store,
        Err(err) => {
            checks.check(false, || format!("open side-channel store: {err}"));
            return;
        }
    };

    let blob = persist::encode(&frame);
    metrics.set_value("persist.blob_bytes", blob.len() as f64);
    let (mut encode, mut put, mut get, mut decode, mut resume) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ok = true;
    repeat(Duration::ZERO, MIN_REPS_SHORT, || {
        let side = rec.open("persist", Some(root), NO_QUERY);
        let blob = span_ms(rec, "persist.encode", side, &mut encode, || {
            persist::encode(&frame)
        });
        ok &= span_ms(rec, "persist.put", side, &mut put, || store.put(0, &blob)).is_ok();
        let read = span_ms(rec, "persist.get", side, &mut get, || store.get(0));
        let decoded = span_ms(rec, "persist.decode", side, &mut decode, || {
            read.and_then(|bytes| persist::decode::<u32>(&bytes))
        });
        match decoded {
            Ok(decoded) => {
                let resumed = span_ms(rec, "session.resume", side, &mut resume, || {
                    bound.resume(Bfs::new(source), decoded.checkpoint).execute()
                });
                ok &= resumed.is_ok_and(|r| Answer::of_u32(r).bit_equal(solo));
            }
            Err(_) => ok = false,
        }
        rec.close(side);
        0.0
    });
    ok &= store.remove(0).is_ok();
    checks.check(ok, || {
        "persist side channel: a round trip failed or resumed to a different answer".into()
    });
    // Drop each loop's warm-up reading.
    for (name, samples) in [
        ("persist.encode_ms", &encode),
        ("persist.put_ms", &put),
        ("persist.get_ms", &get),
        ("persist.decode_ms", &decode),
        ("checkpoint.resume_ms", &resume),
    ] {
        if samples.len() > 1 {
            metrics.set_samples(name, &samples[1..]);
        }
    }
    if let Some(encode_ms) = metrics.get("persist.encode_ms") {
        metrics.set_value(
            "persist.encode_mib_per_s",
            blob.len() as f64 / (1024.0 * 1024.0) / (encode_ms.median * 1e-3),
        );
    }
}

pub fn trace_serve_faulted(
    inputs: &ServeInputs,
    run: &Run,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let mut t = Tracer::new(run, metrics, checks);
    let (graphs, suite) = serve_suite(inputs);
    common_layers(
        &mut t,
        &Subject {
            edges: &inputs.edges,
            twins: &[&inputs.edges.primary],
            graphs: &graphs,
            suite: &suite,
            layer_only: &[],
        },
        0.30,
    );
    let (metrics, checks) = (&mut *t.metrics, &mut *t.checks);

    let serial_rt = Mode::Serial.runtime();
    let serial = serial_rt.bind(&inputs.graph);
    let solo = solo_answers(&serial, &inputs.pool, checks);
    let set = FaultedSet::new(inputs, run, |src| starvation_budget(&solo[&src]));
    let scratch = ScratchDir::create("faulted-trace");
    let spill_dir = scratch.path().join("spill");
    let ctx = Serving {
        inputs,
        run,
        solo: &solo,
    };

    // Faulted rounds, one serving thread as in the untraced run: the
    // recover half on its own, the latency tail, and the counts.
    let (mut recover, mut wrong, mut spilled) = (Vec::new(), 0usize, 0usize);
    let mut latencies = Vec::new();
    repeat(share_of(run.seconds, 0.30), MIN_REPS, || {
        timed_faulted_round(&serial, ctx, &set, 1, &spill_dir, &mut wrong, |round| {
            recover.push(round.recover_s);
            latencies.extend(latencies_ms(&round.report));
            spilled = round.report.spilled.len();
            service_counts(metrics, &round.report);
        })
    });
    checks.check(wrong == 0, || {
        format!("faulted rounds: {wrong} query/queries without a correct final answer")
    });
    // The first round is the warm-up's.
    if recover.len() > 1 {
        let recover = &recover[1..];
        set_latency_tail(metrics, &latencies[set.requests.len()..]);
        metrics.set_samples("persist.recover_s", recover);
        metrics.set_value(
            "persist.recover_ms_per_ticket",
            median(recover).expect("at least ten rounds") * 1e3 / spilled.max(1) as f64,
        );
    }

    // What arming boundary capture costs a fault-free closed loop.
    let queries = draw_queries(
        &inputs.pool,
        run.seed,
        PHASE_DRAIN,
        run.sizing.drain_queries,
    );
    let (off, armed) = alternate(
        share_of(run.seconds, 0.25),
        || drain(&serial, &queries, 1, 1, ServiceConfig::default()).0,
        || {
            let config = ServiceConfig::default().checkpoint_aborts(true);
            drain(&serial, &queries, 1, 1, config).0
        },
    );
    // Base: the closed loop with capture off.
    metrics.set_value("checkpoint.capture_tax_pct", (armed - off) / off * 100.0);

    // The par2 twin of `solve_serial_s`.
    {
        let par2_rt = Mode::Par2.runtime();
        let par2 = par2_rt.bind(&inputs.graph);
        let samples = measure_faulted(&par2, ctx, &set, Mode::Par2, &spill_dir, checks);
        metrics.set_samples("par.solve_par2_s", &samples);
    }

    persist_side_channel(
        &mut t,
        &serial,
        (inputs.pool[0], &solo[&inputs.pool[0]]),
        &scratch.path().join("side"),
    );
    t.finish();
}
