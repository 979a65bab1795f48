//! The two serving workloads over the R-MAT-17 directed graph:
//! `serve_open` (fault-free reads through the service tier: a closed
//! loop for the bounded metrics, the open loop at two fixed arrival
//! rates and the `nproc`-thread capacity in the traced run) and
//! `serve_faulted` (the service and engine used for writes: starved
//! queries, retry from checkpoint, durable spill, reopen, recover).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use simdx_algos::{reference, Bfs};
use simdx_core::{
    BoundGraph, CheckpointStore, DirStore, DurabilityPolicy, QueryPool, QueryRequest,
    RecoveryReport, RetryPolicy, ServeReport, ServiceConfig, SimdxError,
};
use simdx_graph::{Graph, VertexId};

use crate::harness::{
    cold_phases, interleave, repeat, serving_threads, set_end_to_end, Answer, Checks, Metrics,
    Mode, Phase, MIN_REPS,
};
use crate::inputs::{arrival_offsets, draw_queries, pick_sources, rmat_inputs, EdgeInputs};
use crate::spec::{FAULTED_QUERIES, RETRY_ATTEMPTS, RETRY_BACKOFF_MS};
use crate::{layers, probe, Run};

/// Phase numbers: each phase draws its queries and schedule from its
/// own seeded stream.
pub const PHASE_DRAIN: u64 = 1;
pub const PHASE_R_LO: u64 = 2;
pub const PHASE_R_HI: u64 = 3;
pub const PHASE_FAULTED: u64 = 4;

/// What both serving workloads start from: the graph, the source pool
/// and each pool source's solo answer (checked against the reference).
pub struct ServeInputs {
    pub edges: EdgeInputs,
    pub graph: Graph,
    pub pool: Vec<VertexId>,
}

impl ServeInputs {
    pub fn generate(run: &Run) -> Self {
        let edges = rmat_inputs(run.seed, &run.sizing, false);
        let graph = edges.primary.build();
        let pool = pick_sources(
            &graph,
            run.seed,
            run.sizing.source_pool,
            run.sizing.min_source_degree,
        );
        Self { edges, graph, pool }
    }
}

/// Solo answers of every pool source on `bound`, each checked against
/// `simdx_algos::reference`. Every served outcome must equal its
/// source's entry.
pub fn solo_answers(
    bound: &BoundGraph<'_, '_>,
    pool: &[VertexId],
    checks: &mut Checks,
) -> BTreeMap<VertexId, Answer> {
    pool.iter()
        .map(|&src| {
            let result = bound
                .run(Bfs::new(src))
                .execute()
                .expect("benchmark queries run to convergence");
            checks.check(
                result.meta == reference::bfs(bound.graph().out(), src),
                || format!("solo BFS from {src} differs from simdx_algos::reference"),
            );
            (src, Answer::of_u32(result))
        })
        .collect()
}

/// Submission-to-outcome latency of every query of a serve, in ms.
pub fn latencies_ms(report: &ServeReport<u32>) -> impl Iterator<Item = f64> + '_ {
    report
        .outcomes
        .iter()
        .map(|o| o.latency.as_secs_f64() * 1e3)
}

/// Checks that every outcome of a fault-free serve is its source's solo
/// answer. Returns how many were not.
fn count_wrong(report: &ServeReport<u32>, solo: &BTreeMap<VertexId, Answer>) -> usize {
    report
        .outcomes
        .iter()
        .filter(|o| !matches!(&o.result, Ok(result) if solo[&o.seed].matches(result)))
        .count()
}

/// Closed loop at saturation: `workers` serving threads drain
/// `queries` through a submission queue `depth` deep. With `depth` =
/// the query count the queue is pre-filled and the producer returns at
/// once; with a shallow queue the blocked producer acts as `depth`
/// waiting callers. Returns the wall time from the call to the last
/// outcome.
pub fn drain(
    bound: &BoundGraph<'_, '_>,
    queries: &[VertexId],
    workers: usize,
    depth: usize,
    config: ServiceConfig,
) -> (f64, ServeReport<u32>) {
    let start = Instant::now();
    let report = QueryPool::serve(
        bound,
        Bfs::new(0),
        config.workers(workers).queue_depth(depth.max(1)),
        |client| {
            for &src in queries {
                client.submit(QueryRequest::new(src))?;
            }
            Ok(())
        },
    )
    .expect("a fault-free serve call succeeds");
    (start.elapsed().as_secs_f64(), report)
}

/// `par.solve_par2_s` on `serve_open`: timed drains of the same query
/// set with each query running in `mode`, each outcome checked against
/// its solo answer.
pub fn measure_drain(
    bound: &BoundGraph<'_, '_>,
    queries: &[VertexId],
    mode: Mode,
    solo: &BTreeMap<VertexId, Answer>,
    checks: &mut Checks,
) -> Vec<f64> {
    let workers = serving_threads(mode, 0);
    let mut wrong = 0usize;
    let samples = repeat(Duration::ZERO, MIN_REPS, || {
        let (secs, report) = drain(bound, queries, workers, workers, ServiceConfig::default());
        wrong += count_wrong(&report, solo);
        wrong += queries.len().abs_diff(report.outcomes.len());
        secs
    });
    checks.check(wrong == 0, || {
        format!(
            "drain ({}): {wrong} outcome(s) differ from solo",
            mode.label()
        )
    });
    samples
}

/// One open-loop phase's raw observations, per query in send order.
pub struct OpenLoop {
    pub report: ServeReport<u32>,
    /// When the phase's clock started; `due[i]` is an offset from it.
    pub start: Instant,
    /// When each query was handed to `submit` (≥ its due time).
    pub sent: Vec<Instant>,
    /// Requests still queued when the schedule ended.
    pub backlog_end: usize,
}

impl OpenLoop {
    /// Generator lateness of query `i` in seconds: how long after its
    /// due time it was sent.
    pub fn late_s(&self, due: &[Duration], i: usize) -> f64 {
        self.sent[i]
            .saturating_duration_since(self.start + due[i])
            .as_secs_f64()
    }

    /// Due-time-to-completion latency in ms: `outcome.latency` plus the
    /// generator's lateness, so a stall charges the queries behind it.
    pub fn latencies_ms(&self, due: &[Duration]) -> Vec<f64> {
        self.report
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (o.latency.as_secs_f64() + self.late_s(due, i)) * 1e3)
            .collect()
    }
}

/// Sends `queries[i]` at `due[i]` whatever the service is doing (the
/// queue is deep enough never to block the generator), with `workers`
/// serving threads beside this sleeping generator thread.
pub fn open_loop(
    bound: &BoundGraph<'_, '_>,
    queries: &[VertexId],
    due: &[Duration],
    workers: usize,
) -> OpenLoop {
    let mut sent = Vec::with_capacity(queries.len());
    let mut backlog_end = 0;
    let mut start = Instant::now();
    let report = QueryPool::serve(
        bound,
        Bfs::new(0),
        ServiceConfig::default()
            .workers(workers)
            .queue_depth(queries.len().max(1)),
        |client| {
            start = Instant::now();
            for (&src, &offset) in queries.iter().zip(due) {
                let wait = (start + offset).saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                sent.push(Instant::now());
                client.submit(QueryRequest::new(src))?;
            }
            backlog_end = client.queued();
            Ok(())
        },
    )
    .expect("a fault-free serve call succeeds");
    OpenLoop {
        report,
        start,
        sent,
        backlog_end,
    }
}

/// Queries an open-loop phase `seconds` long sends at `rate_qps`.
pub fn open_loop_size(rate_qps: f64, seconds: f64) -> usize {
    ((rate_qps * seconds).ceil() as usize).max(1)
}

/// What a serving phase needs beside its bound graph.
#[derive(Clone, Copy)]
pub struct Serving<'a> {
    pub inputs: &'a ServeInputs,
    pub run: &'a Run,
    pub solo: &'a BTreeMap<VertexId, Answer>,
}

/// Runs one open-loop phase of `n` queries at `rate_qps` and checks its
/// outcomes.
pub fn open_loop_phase(
    bound: &BoundGraph<'_, '_>,
    ctx: Serving<'_>,
    phase: u64,
    rate_qps: f64,
    n: usize,
    checks: &mut Checks,
) -> (OpenLoop, Vec<Duration>) {
    let run = ctx.run;
    let queries = draw_queries(&ctx.inputs.pool, run.seed, phase, n);
    let due = arrival_offsets(run.seed, phase, rate_qps, n);
    let result = open_loop(bound, &queries, &due, serving_threads(Mode::Serial, 1));
    let wrong = count_wrong(&result.report, ctx.solo) + n.abs_diff(result.report.outcomes.len());
    checks.check(wrong == 0, || {
        format!("open loop at {rate_qps} q/s: {wrong} outcome(s) differ from solo")
    });
    (result, due)
}

/// `serve_open`, untraced: every end-to-end metric, interleaved over
/// the whole run.
///
/// The bounded metrics come from a *closed* loop (two callers, one
/// serving thread): on the shared 2-vCPU host an intermittently loaded
/// serving thread runs the same BFS 10–25 % slower from one process to
/// the next, so the open loop's latencies did not repeat within a
/// tenth and are layer metrics of the traced run (`service.lat_*`),
/// as the issue's demotion rule asks.
fn run_open_end_to_end(run: &Run, metrics: &mut Metrics, checks: &mut Checks) {
    let inputs = ServeInputs::generate(run);
    let runtime = Mode::Serial.runtime();
    let bound = runtime.bind(&inputs.graph);
    let queries = draw_queries(
        &inputs.pool,
        run.seed,
        PHASE_DRAIN,
        run.sizing.drain_queries,
    );
    let solo = solo_answers(&bound, &inputs.pool, checks);
    let (first_source, first_answer) = (inputs.pool[0], &solo[&inputs.pool[0]]);

    let (first_ok, wrong) = (Cell::new(true), Cell::new(0usize));
    let latencies = RefCell::new(Vec::new());
    let mut passes = 0u64;
    let twins = [&inputs.edges.primary];
    let [setup, first] = cold_phases(&twins, first_source, first_answer, &first_ok, 1);
    let mut phases = [
        setup,
        first,
        // One fixed query set through one serving thread, the producer
        // blocked on a one-deep queue: a closed loop of two callers, so
        // a query's latency is its own service plus the one ahead of
        // it, not its place in a pre-filled queue. One serving thread,
        // not `nproc`: two busy threads slow each other by up to 2× for
        // seconds at a time on this host, so the `nproc`-thread
        // capacity is a layer metric (`service.capacity_qps`).
        Phase::new(1, || {
            passes += 1;
            let (secs, report) = drain(&bound, &queries, 1, 1, ServiceConfig::default());
            let missing = queries.len().abs_diff(report.outcomes.len());
            wrong.set(wrong.get() + count_wrong(&report, &solo) + missing);
            // The first pass is the warm-up round's.
            if passes > 1 {
                latencies.borrow_mut().extend(latencies_ms(&report));
            }
            secs
        }),
    ];
    interleave(run.seconds, &mut phases);
    let [setup, first, solve] = phases.map(|p| p.samples);
    checks.check(wrong.get() == 0, || {
        format!("closed loop: {} outcome(s) differ from solo", wrong.get())
    });
    set_end_to_end(
        metrics,
        checks,
        first_ok.get(),
        [&setup, &first, &solve],
        &latencies.into_inner(),
        probe::peak_rss_mib(run),
    );
}

/// Runs `serve_open`: untraced for the end-to-end metrics, traced for
/// the per-layer ones.
pub fn run_open(run: &Run, metrics: &mut Metrics, checks: &mut Checks) {
    if run.trace {
        layers::trace_serve_open(&ServeInputs::generate(run), run, metrics, checks);
    } else {
        run_open_end_to_end(run, metrics, checks);
    }
}

/// The cycle budget that starves `source`'s query: its first
/// iteration's simulated cost (deterministic — budgets are simulated
/// cycles). Each of the two attempts then completes one iteration and
/// aborts at the next boundary. `None` when the run is so short that
/// two such attempts would finish it.
pub fn starvation_budget(solo: &Answer) -> Option<u64> {
    let records = &solo.report.log.records;
    let n = records.len();
    if n < 3 {
        return None;
    }
    let first = records[0].cycles;
    let through_second_last: u64 = records[..n - 1].iter().map(|r| r.cycles).sum();
    (through_second_last >= 2 * first).then_some(first)
}

/// A directory of the run's own inside the checkout, removed when
/// dropped. The benchmark reads and writes nowhere else.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> Self {
        let dir = PathBuf::from(".bench_scratch").join(format!("{tag}-{}", std::process::id()));
        // A stale directory of a killed run with the same pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create scratch directory {}: {e}", dir.display()));
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes `.bench_scratch` itself once the last run has left.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One faulted round's observations.
pub struct FaultedRound {
    pub serve_s: f64,
    pub recover_s: f64,
    pub report: ServeReport<u32>,
    pub recovery: RecoveryReport<u32>,
}

/// The faulted workload's fixed query set: sources with, for every
/// other one, its starvation budget.
pub struct FaultedSet {
    pub requests: Vec<(VertexId, Option<u64>)>,
}

impl FaultedSet {
    /// `budget_of` gives a source's [`starvation_budget`].
    pub fn new(
        inputs: &ServeInputs,
        run: &Run,
        budget_of: impl Fn(VertexId) -> Option<u64>,
    ) -> Self {
        let sources = draw_queries(&inputs.pool, run.seed, PHASE_FAULTED, FAULTED_QUERIES);
        Self {
            requests: sources
                .into_iter()
                .enumerate()
                .map(|(i, src)| {
                    let budget = (i % 2 == 0).then(|| budget_of(src)).flatten();
                    (src, budget)
                })
                .collect(),
        }
    }

    pub fn starved(&self) -> usize {
        self.requests.iter().filter(|(_, b)| b.is_some()).count()
    }
}

/// The service configuration of a faulted round. The submission queue
/// is as deep as there are serving threads, so the blocked producer
/// acts as a closed loop and a query's latency is its own service, not
/// its place in a pre-filled queue.
pub fn faulted_config(workers: usize) -> ServiceConfig {
    ServiceConfig::default()
        .workers(workers)
        .queue_depth(workers)
        .retry(
            RetryPolicy::default()
                .max_attempts(RETRY_ATTEMPTS)
                .backoff(Duration::from_millis(RETRY_BACKOFF_MS)),
        )
}

/// Serves the set with durability armed, drops the pool, reopens the
/// spill directory as a restarted process would, and recovers every
/// spilled ticket.
pub fn faulted_round(
    bound: &BoundGraph<'_, '_>,
    set: &FaultedSet,
    config: ServiceConfig,
    spill_dir: &Path,
) -> Result<FaultedRound, SimdxError> {
    let start = Instant::now();
    let store = DirStore::open(spill_dir)?;
    let report = QueryPool::serve(
        bound,
        Bfs::new(0),
        config.durability(DurabilityPolicy::spill_to(store)),
        |client| {
            for &(src, budget) in &set.requests {
                let mut request = QueryRequest::new(src);
                if let Some(budget) = budget {
                    request = request.cycle_budget(budget);
                }
                client.submit(request)?;
            }
            Ok(())
        },
    )?;
    let serve_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let store = DirStore::open(spill_dir)?;
    let recovery = QueryPool::recover(bound, Bfs::new(0), &store)?;
    let recover_s = start.elapsed().as_secs_f64();
    Ok(FaultedRound {
        serve_s,
        recover_s,
        report,
        recovery,
    })
}

/// Output checks of one faulted round: every admitted query has its
/// answer — served ones equal to solo, starved ones spilled and then
/// recovered equal to the uninterrupted run — and the store is drained.
/// Returns the number of queries without a correct final answer.
pub fn check_faulted_round(
    round: &FaultedRound,
    set: &FaultedSet,
    solo: &BTreeMap<VertexId, Answer>,
    spill_dir: &Path,
) -> usize {
    let mut answered = vec![false; set.requests.len()];
    for (ticket, outcome) in round.report.outcomes.iter().enumerate() {
        if let Ok(result) = &outcome.result {
            answered[ticket] = solo[&outcome.seed].matches(result);
        }
    }
    for recovered in &round.recovery.recovered {
        let ticket = recovered.ticket as usize;
        if let (Ok(result), Some(slot)) = (&recovered.result, answered.get_mut(ticket)) {
            // A ticket answered twice (served and spilled) is wrong too.
            *slot = !*slot && solo[&recovered.seed].matches(result);
        }
    }
    let mut wrong = answered.iter().filter(|&&ok| !ok).count();
    wrong += set.requests.len().abs_diff(round.report.outcomes.len());
    wrong += round.report.spill_failures.len() + round.recovery.skipped.len();
    // Every starved query must take the spill path, or the round did
    // not measure what it says.
    wrong += set.starved().abs_diff(round.report.spilled.len());
    let leftover = DirStore::open(spill_dir)
        .and_then(|store| store.tickets())
        .map_or(1, |t| t.len());
    wrong + leftover
}

/// One checked round: its seconds (serve + recover), with every query
/// left without a correct final answer added to `wrong`. `keep` sees
/// the round before it is dropped.
pub fn timed_faulted_round(
    bound: &BoundGraph<'_, '_>,
    ctx: Serving<'_>,
    set: &FaultedSet,
    workers: usize,
    spill_dir: &Path,
    wrong: &mut usize,
    keep: impl FnOnce(&FaultedRound),
) -> f64 {
    match faulted_round(bound, set, faulted_config(workers), spill_dir) {
        Ok(round) => {
            *wrong += check_faulted_round(&round, set, ctx.solo, spill_dir);
            keep(&round);
            round.serve_s + round.recover_s
        }
        Err(err) => {
            eprintln!("benchmark: faulted round failed: {err}");
            *wrong += set.requests.len();
            f64::MAX
        }
    }
}

/// `par.solve_par2_s` on `serve_faulted`: timed rounds with each query
/// running in `mode`, each round checked.
pub fn measure_faulted(
    bound: &BoundGraph<'_, '_>,
    ctx: Serving<'_>,
    set: &FaultedSet,
    mode: Mode,
    spill_dir: &Path,
    checks: &mut Checks,
) -> Vec<f64> {
    let workers = serving_threads(mode, 0);
    let mut wrong = 0usize;
    let samples = repeat(Duration::ZERO, MIN_REPS, || {
        timed_faulted_round(bound, ctx, set, workers, spill_dir, &mut wrong, |_| {})
    });
    checks.check(wrong == 0, || {
        format!(
            "faulted rounds ({}): {wrong} query/queries without a correct final answer",
            mode.label()
        )
    });
    samples
}

/// `serve_faulted`, untraced: every end-to-end metric, interleaved
/// over the whole run.
fn run_faulted_end_to_end(run: &Run, metrics: &mut Metrics, checks: &mut Checks) {
    let inputs = ServeInputs::generate(run);
    let runtime = Mode::Serial.runtime();
    let bound = runtime.bind(&inputs.graph);
    let solo = solo_answers(&bound, &inputs.pool, checks);
    let ctx = Serving {
        inputs: &inputs,
        run,
        solo: &solo,
    };
    let set = FaultedSet::new(&inputs, run, |src| starvation_budget(&solo[&src]));
    let scratch = ScratchDir::create("faulted");
    let spill_dir = scratch.path().join("spill");
    let (first_source, first_answer) = (inputs.pool[0], &solo[&inputs.pool[0]]);

    let first_ok = Cell::new(true);
    let mut wrong = 0usize;
    let mut latencies = Vec::new();
    let mut rounds = 0u64;
    let twins = [&inputs.edges.primary];
    let [setup, first] = cold_phases(&twins, first_source, first_answer, &first_ok, 1);
    let mut phases = [
        setup,
        first,
        // Faulted serve + reopen + recover, until every admitted query
        // has its answer; one serving thread (see `serve_open`).
        Phase::new(1, || {
            rounds += 1;
            timed_faulted_round(&bound, ctx, &set, 1, &spill_dir, &mut wrong, |round| {
                // Submission-to-outcome latency: the answer, or the
                // typed failure with its checkpoint durably spilled.
                // The first round is the warm-up's.
                if rounds > 1 {
                    latencies.extend(latencies_ms(&round.report));
                }
            })
        }),
    ];
    interleave(run.seconds, &mut phases);
    let [setup, first, solve] = phases.map(|p| p.samples);
    checks.check(wrong == 0, || {
        format!("faulted rounds: {wrong} query/queries without a correct final answer")
    });
    set_end_to_end(
        metrics,
        checks,
        first_ok.get(),
        [&setup, &first, &solve],
        &latencies,
        probe::peak_rss_mib(run),
    );
}

/// Runs `serve_faulted`: untraced for the end-to-end metrics, traced
/// for the per-layer ones.
pub fn run_faulted(run: &Run, metrics: &mut Metrics, checks: &mut Checks) {
    if run.trace {
        layers::trace_serve_faulted(&ServeInputs::generate(run), run, metrics, checks);
    } else {
        run_faulted_end_to_end(run, metrics, checks);
    }
}
