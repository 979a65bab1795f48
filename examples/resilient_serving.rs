//! Resilient serving: checkpointed retries under transient faults.
//!
//! Stands up a `QueryPool` with a `RetryPolicy`, serves a program whose
//! workers panic mid-stream while a small fault budget lasts, and gives
//! every query a deadline — then shows that every ticket still
//! completes, because a tripped attempt hands its iteration-boundary
//! checkpoint back to the scheduler and the retry resumes from it
//! instead of starting over. Per-ticket attempt counts make the
//! recovery visible.
//!
//! ```text
//! cargo run --release --example resilient_serving
//! ```

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use simdx::algos::Bfs;
use simdx::core::{
    AccProgram, CombineKind, EngineConfig, ExecMode, QueryPool, QueryRequest, RetryPolicy, Runtime,
    ServiceConfig, SimdxError, SourcedProgram,
};
use simdx::graph::gen::Rmat;
use simdx::graph::{Graph, VertexId, Weight};

/// BFS whose Compute panics on an edge out of a level-2 vertex while a
/// fault budget, shared by every ticket's copy of the program, lasts: a
/// transient worker fault, raised where faults in a real deployment
/// come from — the program's own code.
#[derive(Clone)]
struct Flaky {
    bfs: Bfs,
    faults_left: Arc<AtomicU32>,
}

impl AccProgram for Flaky {
    type Meta = u32;
    type Update = u32;

    fn name(&self) -> &'static str {
        self.bfs.name()
    }

    fn combine_kind(&self) -> CombineKind {
        self.bfs.combine_kind()
    }

    fn init(&self, graph: &Graph) -> (Vec<u32>, Vec<VertexId>) {
        self.bfs.init(graph)
    }

    fn compute(&self, src: VertexId, dst: VertexId, w: Weight, ms: &u32, md: &u32) -> Option<u32> {
        let spend = |n: u32| n.checked_sub(1);
        // ORDERING: the budget only needs atomicity, so each fault is
        // spent exactly once; nothing else is published under it.
        let faults = &self.faults_left;
        if *ms == 2
            && faults
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, spend)
                .is_ok()
        {
            panic!("transient fault on an edge out of vertex {src}");
        }
        self.bfs.compute(src, dst, w, ms, md)
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

impl SourcedProgram for Flaky {
    fn with_source(mut self, src: VertexId) -> Self {
        self.bfs = self.bfs.with_source(src);
        self
    }
}

fn main() -> Result<(), SimdxError> {
    let graph = Graph::directed_from_edges(Rmat::gtgraph(12, 8).generate(5));
    println!(
        "graph: {} vertices, {} directed edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let runtime =
        Runtime::new(EngineConfig::default().with_exec(ExecMode::Parallel { threads: 2 }))?;
    let bound = runtime.bind(&graph);

    // Two transient worker panics: the first two edges computed out of
    // a level-2 vertex. Each kills an in-flight attempt; the retry
    // resumes from the checkpoint captured at the last iteration
    // boundary.
    let program = Flaky {
        bfs: Bfs::new(0),
        faults_left: Arc::new(AtomicU32::new(2)),
    };
    // The pool contains worker panics; keep the demo output to one line
    // per fault instead of a full backtrace.
    std::panic::set_hook(Box::new(|info| {
        let payload = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("<non-string payload>");
        eprintln!("[worker panic contained] {payload}");
    }));
    println!("fault budget: the first 2 edges out of a level-2 vertex panic\n");

    // Up to three attempts per ticket with a short backoff between
    // them. A retry policy past one attempt arms checkpoint capture,
    // so a panicked or deadline-tripped attempt resumes instead of
    // recomputing from the seed.
    let seeds: Vec<u32> = (0..12).map(|i| (i * 97) % graph.num_vertices()).collect();
    let report = QueryPool::serve(
        &bound,
        program,
        ServiceConfig::default().workers(2).retry(
            RetryPolicy::default()
                .max_attempts(3)
                .backoff(Duration::from_millis(2)),
        ),
        |client| {
            for &seed in &seeds {
                // Tight-ish deadline measured from submission; a
                // deadline trip is transient and retried just like a
                // panic, with a fresh allowance.
                client.submit(QueryRequest::new(seed).deadline(Duration::from_secs(5)))?;
            }
            Ok(())
        },
    )?;

    println!("per-ticket outcomes:");
    for (ticket, outcome) in report.outcomes.iter().enumerate() {
        let status = match &outcome.result {
            Ok(r) => format!("ok, {} iterations", r.report.iterations),
            Err(e) => format!("failed: {e}"),
        };
        println!(
            "  ticket {ticket:>2}  seed {:>4}  attempts {}  {}",
            outcome.seed, outcome.attempts, status
        );
    }

    let retried = report.outcomes.iter().filter(|o| o.attempts > 1).count();
    println!(
        "\n{} of {} queries completed ({} recovered via checkpointed retry) in {:.1} ms",
        report.completed(),
        report.outcomes.len(),
        retried,
        report.elapsed.as_secs_f64() * 1e3,
    );
    assert_eq!(
        report.completed(),
        report.outcomes.len(),
        "every query must complete despite the faults"
    );
    assert!(retried >= 1, "a fault must have forced a retry");

    Ok(())
}
