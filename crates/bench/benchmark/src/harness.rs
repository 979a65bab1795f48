//! What every workload shares: the two exec modes, timed loops with a
//! warm-up (interleaved round-robin for the bounded metrics, one block
//! at a time for the layer metrics), the metric sink, output checks,
//! and the set-up / first-answer protocols.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use simdx_algos::{kcore, reference, Bfs, KCore, PageRank, Sssp, Wcc};
use simdx_core::jit::IterationRecord;
use simdx_core::{AccProgram, BoundGraph, EngineConfig, ExecMode, RunReport, RunResult, Runtime};
use simdx_graph::{Graph, VertexId};

use crate::inputs::{build_twins, copy_edges, EdgeInputs, Twin};
use crate::spec::MetricSpec;
use crate::stats::{percentile, Summary};

/// The exec modes are a metric dimension, not a workload dimension:
/// each workload reports its serial numbers as bounded end-to-end
/// metrics and their par2 twins as `par.*` layer metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Serial,
    Par2,
}

impl Mode {
    pub const BOTH: [Mode; 2] = [Mode::Serial, Mode::Par2];

    pub fn label(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::Par2 => "par2",
        }
    }

    /// Host threads one query occupies in this mode.
    pub fn threads(self) -> usize {
        match self {
            Mode::Serial => 1,
            Mode::Par2 => 2,
        }
    }

    /// `EngineConfig::default()` with only the exec mode chosen: the
    /// benchmark measures the defaults, never a `SIMDX_*` knob or a
    /// matrix axis ROADMAP item 3 may delete.
    pub fn config(self) -> EngineConfig {
        EngineConfig::default().with_exec(match self {
            Mode::Serial => ExecMode::Serial,
            Mode::Par2 => ExecMode::Parallel { threads: 2 },
        })
    }

    pub fn runtime(self) -> Runtime {
        Runtime::new(self.config()).expect("the default engine configuration validates")
    }
}

/// Serving threads that keep total runnable threads within `nproc`
/// when each query runs in `mode` and `reserved` threads are busy
/// elsewhere (the open-loop generator).
pub fn serving_threads(mode: Mode, reserved: usize) -> usize {
    (nproc().saturating_sub(reserved) / mode.threads()).max(1)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `share` of a run's measuring `seconds`, as one phase's budget.
pub fn share_of(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// Repetitions a timed loop never goes below, whatever its budget.
pub const MIN_REPS: usize = 10;
/// The same for loops whose repetition takes under ~50 ms.
pub const MIN_REPS_SHORT: usize = 15;
/// Upper limit, so a microsecond repetition cannot fill memory.
const MAX_REPS: usize = 100_000;

/// One untimed warm-up, then timed repetitions until both `min_reps`
/// and `budget` are spent. `rep` returns the seconds it measured, so
/// load generation and output checks inside it stay outside the timed
/// region.
pub fn repeat(budget: Duration, min_reps: usize, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    rep();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_REPS && (samples.len() < min_reps || start.elapsed() < budget) {
        samples.push(rep());
    }
    samples
}

/// One stream of samples in an interleaved run.
pub struct Phase<'a> {
    /// Repetitions per round (cheap phases take several, so their
    /// sample count keeps up).
    per_round: usize,
    run: Box<dyn FnMut() -> f64 + 'a>,
    pub samples: Vec<f64>,
}

impl<'a> Phase<'a> {
    pub fn new(per_round: usize, run: impl FnMut() -> f64 + 'a) -> Self {
        Self {
            per_round,
            run: Box::new(run),
            samples: Vec::new(),
        }
    }
}

/// Rounds an interleaved run never goes below, whatever its budget.
pub const MIN_ROUNDS: usize = 10;

/// Runs the phases round-robin — one untimed warm-up round, then timed
/// rounds until `seconds` and [`MIN_ROUNDS`] are both spent — so every
/// metric's samples span the whole run. The host's speed drifts by
/// ~10 % over seconds (a shared 2-vCPU VM); a metric measured in one
/// contiguous block inherits its block's luck, while a median over
/// samples spread across the run does not.
pub fn interleave(seconds: f64, phases: &mut [Phase<'_>]) {
    for phase in phases.iter_mut() {
        (phase.run)();
    }
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        for phase in phases.iter_mut() {
            for _ in 0..phase.per_round {
                let sample = (phase.run)();
                if phase.samples.len() < MAX_REPS {
                    phase.samples.push(sample);
                }
            }
        }
        rounds += 1;
    }
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Measured values by metric name. Setting a name the run's metric
/// list does not hold is a harness bug and panics at once, so
/// `BENCHMARK.json` and the code cannot drift apart silently.
pub struct Metrics {
    known: BTreeMap<String, MetricSpec>,
    values: BTreeMap<String, Summary>,
}

impl Metrics {
    pub fn new(specs: &[MetricSpec]) -> Self {
        Self {
            known: specs.iter().map(|m| (m.name.clone(), m.clone())).collect(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &str, summary: Summary) {
        assert!(
            self.known.contains_key(name),
            "metric `{name}` is not in BENCHMARK.json for this trace mode"
        );
        assert!(
            summary.median.is_finite(),
            "metric `{name}` is not finite: {summary:?}"
        );
        self.values.insert(name.to_string(), summary);
    }

    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        self.set(name, Summary::of(samples));
    }

    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.values.get(name).copied()
    }
}

/// Output checks: each is an operation attempted, a mismatch is an
/// operation failed and makes the run exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the first few messages; a systematic mismatch would
            // otherwise print one line per query.
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// A finished query in a form that compares across algorithms: the
/// metadata as raw 32-bit words (`f32::to_bits` for PageRank) and the
/// run report.
#[derive(Clone, Debug)]
pub struct Answer {
    pub meta: Vec<u32>,
    pub report: RunReport,
}

impl Answer {
    pub fn of_u32(result: RunResult<u32>) -> Self {
        Self {
            meta: result.meta,
            report: result.report,
        }
    }

    fn of_f32(result: RunResult<f32>) -> Self {
        Self {
            meta: result.meta.iter().map(|x| x.to_bits()).collect(),
            report: result.report,
        }
    }

    /// The bit-equality contract: metadata, activation log and the
    /// simulated executor statistics (cycles, launches, barriers,
    /// traffic) identical. Host-side fields (`elapsed`,
    /// `edges_examined`) are outside it.
    pub fn bit_equal(&self, other: &Answer) -> bool {
        self.same_run(&other.meta, &other.report)
    }

    /// [`Self::bit_equal`] against a served or recovered BFS result.
    pub fn matches(&self, result: &RunResult<u32>) -> bool {
        self.same_run(&result.meta, &result.report)
    }

    fn same_run(&self, meta: &[u32], report: &RunReport) -> bool {
        self.meta == meta
            && self.report.log == report.log
            && self.report.stats == report.stats
            && self.report.iterations == report.iterations
    }
}

/// One query of a workload's suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    Bfs(VertexId),
    Sssp(VertexId),
    PageRank,
    KCore(u32),
    Wcc,
}

impl Query {
    /// The `algos.<kind>.*` metric infix.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Bfs(_) => "bfs",
            Query::Sssp(_) => "sssp",
            Query::PageRank => "pagerank",
            Query::KCore(_) => "kcore",
            Query::Wcc => "wcc",
        }
    }
}

/// A workload's graphs, built once per session.
pub struct Graphs {
    pub primary: Graph,
    pub weighted: Option<Graph>,
    pub undirected: Option<Graph>,
}

impl Graphs {
    /// Builds every twin the inputs hold (load generation's edge-list
    /// copies included — call outside timed regions).
    pub fn build(inputs: &EdgeInputs) -> Self {
        Self {
            primary: inputs.primary.build(),
            weighted: inputs.weighted.as_ref().map(Twin::build),
            undirected: inputs.undirected.as_ref().map(Twin::build),
        }
    }

    /// The graph k-Core and WCC run on: the undirected twin, or the
    /// primary when that is undirected already.
    pub fn symmetric(&self) -> &Graph {
        self.undirected.as_ref().unwrap_or(&self.primary)
    }

    pub fn footprint_bytes(&self) -> u64 {
        [&self.weighted, &self.undirected]
            .into_iter()
            .flatten()
            .map(Graph::footprint_bytes)
            .sum::<u64>()
            + self.primary.footprint_bytes()
    }
}

/// One warm bound session over a workload's graphs.
pub struct Session<'rt, 'g> {
    pub graphs: &'g Graphs,
    pub primary: BoundGraph<'rt, 'g>,
    pub weighted: Option<BoundGraph<'rt, 'g>>,
    pub undirected: Option<BoundGraph<'rt, 'g>>,
}

impl<'rt, 'g> Session<'rt, 'g> {
    pub fn bind(runtime: &'rt Runtime, graphs: &'g Graphs) -> Self {
        Self {
            graphs,
            primary: runtime.bind(&graphs.primary),
            weighted: graphs.weighted.as_ref().map(|g| runtime.bind(g)),
            undirected: graphs.undirected.as_ref().map(|g| runtime.bind(g)),
        }
    }

    fn symmetric(&self) -> &BoundGraph<'rt, 'g> {
        self.undirected.as_ref().unwrap_or(&self.primary)
    }

    /// Runs one query, with an optional per-iteration hook (the traced
    /// run's span source).
    pub fn run(&self, query: Query, hook: Option<&mut dyn FnMut(&IterationRecord)>) -> Answer {
        fn go<P: AccProgram>(
            bound: &BoundGraph<'_, '_>,
            program: P,
            hook: Option<&mut dyn FnMut(&IterationRecord)>,
        ) -> RunResult<P::Meta> {
            let builder = bound.run(program);
            let result = match hook {
                Some(hook) => builder.observe(hook).execute(),
                None => builder.execute(),
            };
            result.expect("benchmark queries run to convergence")
        }
        match query {
            Query::Bfs(src) => Answer::of_u32(go(&self.primary, Bfs::new(src), hook)),
            Query::Sssp(src) => {
                let bound = self.weighted.as_ref().expect("suite has a weighted twin");
                Answer::of_u32(go(bound, Sssp::new(src), hook))
            }
            Query::PageRank => {
                Answer::of_f32(go(&self.primary, PageRank::new(&self.graphs.primary), hook))
            }
            Query::KCore(k) => Answer::of_u32(go(self.symmetric(), KCore::new(k), hook)),
            Query::Wcc => Answer::of_u32(go(self.symmetric(), Wcc, hook)),
        }
    }
}

/// PageRank's tolerance against the sequential reference, as the
/// repository's own tests use it.
const PAGERANK_TOLERANCE: f32 = 1e-4;

/// Checks one answer against `simdx_algos::reference`.
pub fn matches_reference(graphs: &Graphs, query: Query, answer: &Answer) -> bool {
    match query {
        Query::Bfs(src) => answer.meta == reference::bfs(graphs.primary.out(), src),
        Query::Sssp(src) => {
            let g = graphs.weighted.as_ref().expect("suite has a weighted twin");
            answer.meta == reference::sssp(g.out(), src)
        }
        Query::PageRank => {
            let expected = reference::pagerank(&graphs.primary, 0.85, 1e-6, 500);
            answer.meta.len() == expected.len()
                && answer
                    .meta
                    .iter()
                    .zip(&expected)
                    .all(|(&got, &want)| (f32::from_bits(got) - want).abs() <= PAGERANK_TOLERANCE)
        }
        Query::KCore(k) => {
            kcore::survivors(&answer.meta) == reference::kcore(graphs.symmetric(), k)
        }
        Query::Wcc => answer.meta == reference::wcc(graphs.symmetric().out()),
    }
}

/// `setup_s`: edge lists in hand → every twin built, a serial runtime
/// made, every twin bound. The edge-list copies the builders consume
/// are made before the clock starts and the graphs are dropped after
/// it stops.
pub fn time_setup(twins: &[&Twin]) -> f64 {
    let copies = copy_edges(twins);
    let start = Instant::now();
    let graphs = build_twins(twins, copies);
    let runtime = Mode::Serial.runtime();
    let bound: Vec<_> = graphs.iter().map(|g| runtime.bind(g)).collect();
    let elapsed = start.elapsed().as_secs_f64();
    drop(bound);
    elapsed
}

/// `first_answer_*_s`: a fresh process's path to its first BFS answer —
/// build the primary graph, make a runtime in `mode`, bind, run one
/// BFS. Catches work moved between `bind` and the first query.
pub fn time_first_answer(primary: &Twin, mode: Mode, source: VertexId) -> (f64, Answer) {
    let edges = primary.edges.clone();
    let start = Instant::now();
    let graph = Twin::build_from(edges, primary.directed);
    let runtime = mode.runtime();
    let bound = runtime.bind(&graph);
    let result = bound
        .run(Bfs::new(source))
        .execute()
        .expect("benchmark queries run to convergence");
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed, Answer::of_u32(result))
}

/// The `setup_s` and `first_answer_serial_s` phases every workload's
/// untraced run interleaves with its own: `twins[0]` is the primary
/// graph, and each first answer is held to `expected` through `ok`.
pub fn cold_phases<'a>(
    twins: &'a [&'a Twin],
    source: VertexId,
    expected: &'a Answer,
    ok: &'a Cell<bool>,
    per_round: usize,
) -> [Phase<'a>; 2] {
    [
        Phase::new(per_round, move || time_setup(twins)),
        Phase::new(per_round, move || {
            let (secs, answer) = time_first_answer(twins[0], Mode::Serial, source);
            ok.set(ok.get() && answer.bit_equal(expected));
            secs
        }),
    ]
}

/// Sets the five end-to-end metrics from an untraced run's samples
/// (`[setup_s, first_answer_serial_s, solve_serial_s]`, then the
/// per-query latencies in ms) and its memory probe's reading.
pub fn set_end_to_end(
    metrics: &mut Metrics,
    checks: &mut Checks,
    first_ok: bool,
    [setup, first, solve]: [&[f64]; 3],
    latencies_ms: &[f64],
    peak_rss_mib: f64,
) {
    checks.check(first_ok, || {
        "a first answer differs from the warm session's".into()
    });
    metrics.set_samples("setup_s", setup);
    metrics.set_samples("first_answer_serial_s", first);
    metrics.set_samples("solve_serial_s", solve);
    // Nearest rank; ten rounds of a latency loop leave far more than
    // the ten samples beyond rank a median needs.
    let p50 = percentile(latencies_ms, 50.0).expect("a latency loop ran ten rounds");
    metrics.set(
        "lat_p50_ms",
        Summary {
            n: latencies_ms.len(),
            ..Summary::single(p50)
        },
    );
    metrics.set_value("peak_rss_mib", peak_rss_mib);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_warms_up_once_and_honours_both_floors() {
        let mut calls = 0;
        let samples = repeat(Duration::ZERO, 5, || {
            calls += 1;
            calls as f64
        });
        // The warm-up's value (1.0) is not a sample.
        assert_eq!(samples, [2.0, 3.0, 4.0, 5.0, 6.0]);

        // A budget buys repetitions beyond the floor. A hundred times
        // the sleep, so a loaded host's overshoot cannot eat it.
        let samples = repeat(Duration::from_millis(100), 1, || {
            std::thread::sleep(Duration::from_millis(1));
            0.0
        });
        assert!(samples.len() > 1, "budget buys reps: {}", samples.len());
    }

    #[test]
    fn interleave_warms_up_then_runs_every_phase_each_round() {
        let (mut a_calls, mut b_calls) = (0, 0);
        let mut phases = [
            Phase::new(1, || {
                a_calls += 1;
                f64::from(a_calls)
            }),
            Phase::new(3, || {
                b_calls += 1;
                0.0
            }),
        ];
        interleave(0.0, &mut phases);
        let [a, b] = phases;
        // The warm-up call's value (1.0) is not a sample.
        assert_eq!(a.samples.len(), MIN_ROUNDS);
        assert_eq!(a.samples[0], 2.0);
        assert_eq!(b.samples.len(), 3 * MIN_ROUNDS);
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn setting_an_unknown_metric_panics() {
        Metrics::new(&[]).set_value("no.such.metric", 1.0);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        checks.check(false, || "mismatch".to_string());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert_eq!(checks.failures, ["mismatch"]);
    }

    #[test]
    fn serving_threads_stay_within_nproc() {
        for mode in Mode::BOTH {
            for reserved in 0..3 {
                let n = serving_threads(mode, reserved);
                assert!(n >= 1);
                assert!(n == 1 || n * mode.threads() + reserved <= nproc());
            }
        }
    }
}
