//! The two batch workloads: `rmat17_analytics` (edge work dominates)
//! and `road_traversal` (per-iteration overhead dominates). Both run a
//! fixed suite of queries back to back on one warm bound session, the
//! way a closed-loop analytics caller does.

use std::cell::Cell;
use std::time::Instant;

use simdx_core::Runtime;

use crate::harness::{
    cold_phases, interleave, matches_reference, set_end_to_end, timed, Answer, Checks, Graphs,
    Metrics, Mode, Phase, Query, Session,
};
use crate::inputs::{pick_sources, rmat_inputs, road_inputs, EdgeInputs, Twin};
use crate::spec::{Sizing, ANALYTICS_BFS, KCORE_K, ROAD_BFS};
use crate::{layers, probe, Run};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Batch {
    Analytics,
    Road,
}

/// A batch workload's generated inputs and its suite.
pub struct BatchInputs {
    pub edges: EdgeInputs,
    pub graphs: Graphs,
    /// The queries `solve_*_s` runs in one pass.
    pub suite: Vec<Query>,
    /// Queries timed as `algos.*` layer metrics only (road SSSP: it sits
    /// between the two regimes and would swamp BFS in the suite's sum).
    pub layer_only: Vec<Query>,
    /// BFS queries the per-query latency loop cycles through: the
    /// suite's sources first, then the rest of a larger pool, so the
    /// percentiles do not hang on which four sources a seed drew.
    pub latency_set: Vec<Query>,
}

impl BatchInputs {
    pub fn generate(kind: Batch, seed: u64, sizing: &Sizing) -> Self {
        match kind {
            Batch::Analytics => {
                let edges = rmat_inputs(seed, sizing, true);
                let graphs = Graphs::build(&edges);
                let sources = pick_sources(
                    &graphs.primary,
                    seed,
                    sizing.source_pool,
                    sizing.min_source_degree,
                );
                let latency_set: Vec<Query> = sources.iter().map(|&s| Query::Bfs(s)).collect();
                let mut suite = latency_set[..ANALYTICS_BFS].to_vec();
                suite.extend([
                    Query::Sssp(sources[0]),
                    Query::PageRank,
                    Query::KCore(KCORE_K),
                    Query::Wcc,
                ]);
                Self {
                    edges,
                    graphs,
                    suite,
                    layer_only: Vec::new(),
                    latency_set,
                }
            }
            Batch::Road => {
                let edges = road_inputs(seed, sizing);
                let graphs = Graphs::build(&edges);
                let sources = pick_sources(&graphs.primary, seed, sizing.source_pool, 1);
                let latency_set: Vec<Query> = sources.iter().map(|&s| Query::Bfs(s)).collect();
                Self {
                    edges,
                    graphs,
                    suite: latency_set[..ROAD_BFS].to_vec(),
                    layer_only: vec![Query::Sssp(sources[0])],
                    latency_set,
                }
            }
        }
    }

    /// Milliseconds of the next BFS of the latency set (round-robin
    /// through `next`) on `session`.
    pub fn next_latency_ms(&self, session: &Session<'_, '_>, next: &mut usize) -> f64 {
        let query = self.latency_set[*next % self.latency_set.len()];
        *next += 1;
        let (answer, secs) = timed(|| session.run(query, None));
        std::hint::black_box(answer);
        secs * 1e3
    }

    /// The twins `setup_s` builds: the ones the suite runs on.
    pub fn setup_twins(&self) -> Vec<&Twin> {
        let mut twins = vec![&self.edges.primary];
        if self.suite.iter().any(|q| matches!(q, Query::Sssp(_))) {
            twins.extend(&self.edges.weighted);
        }
        twins.extend(&self.edges.undirected);
        twins
    }
}

/// One timed pass over `suite`; the answers come back for checking.
pub fn timed_pass(session: &Session<'_, '_>, suite: &[Query]) -> (f64, Vec<Answer>) {
    let start = Instant::now();
    let answers: Vec<Answer> = suite.iter().map(|&q| session.run(q, None)).collect();
    (start.elapsed().as_secs_f64(), answers)
}

/// Runs `suite` once untimed and checks every answer against
/// `simdx_algos::reference`.
pub fn reference_pass(
    session: &Session<'_, '_>,
    suite: &[Query],
    checks: &mut Checks,
) -> Vec<Answer> {
    let answers = timed_pass(session, suite).1;
    for (&query, answer) in suite.iter().zip(&answers) {
        checks.check(matches_reference(session.graphs, query, answer), || {
            format!("{query:?} differs from simdx_algos::reference")
        });
    }
    answers
}

/// The untraced run: every end-to-end metric, all measured on the
/// serial default configuration and interleaved over the whole run.
fn run_end_to_end(kind: Batch, run: &Run, metrics: &mut Metrics, checks: &mut Checks) {
    let inputs = BatchInputs::generate(kind, run.seed, &run.sizing);
    let suite = &inputs.suite;
    let runtime: Runtime = Mode::Serial.runtime();
    let session = Session::bind(&runtime, &inputs.graphs);
    let expected = reference_pass(&session, suite, checks);
    let Query::Bfs(first_source) = suite[0] else {
        unreachable!("every suite opens with a BFS");
    };

    let twins = inputs.setup_twins();
    let (first_ok, solve_ok) = (Cell::new(true), Cell::new(true));
    let mut next = 0usize;
    // Repetitions per round: the road suite's pass takes ~12 ms and its
    // set-up ~4 ms, so they repeat within a round.
    let (cold, solve) = match kind {
        Batch::Analytics => (1, 1),
        Batch::Road => (2, 2),
    };
    let [setup, first] = cold_phases(&twins, first_source, &expected[0], &first_ok, cold);
    let mut phases = [
        setup,
        first,
        Phase::new(solve, || {
            let (secs, answers) = timed_pass(&session, suite);
            let same = answers.iter().zip(&expected).all(|(a, e)| a.bit_equal(e));
            solve_ok.set(solve_ok.get() && same);
            secs
        }),
        // Per-query latency as this workload's caller sees it: one BFS
        // at a time on the warm session.
        Phase::new(20, || inputs.next_latency_ms(&session, &mut next)),
    ];
    interleave(run.seconds, &mut phases);
    let [setup, first, solve, lat] = phases.map(|p| p.samples);
    checks.check(solve_ok.get(), || {
        "a suite pass was not bit-equal to the first".into()
    });
    set_end_to_end(
        metrics,
        checks,
        first_ok.get(),
        [&setup, &first, &solve],
        &lat,
        probe::peak_rss_mib(run),
    );
}

/// Runs one batch workload: untraced for the end-to-end metrics,
/// traced for every per-layer metric it has (the rest read zero).
pub fn run(kind: Batch, run: &Run, metrics: &mut Metrics, checks: &mut Checks) {
    if run.trace {
        let inputs = BatchInputs::generate(kind, run.seed, &run.sizing);
        layers::trace_batch(&inputs, run, metrics, checks);
    } else {
        run_end_to_end(kind, run, metrics, checks);
    }
}
