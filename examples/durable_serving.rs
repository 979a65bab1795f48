//! Durable serving: spill final failures, restart, recover.
//!
//! Stands up a `QueryPool` with a `DurabilityPolicy` spilling into a
//! directory-backed `CheckpointStore`, drives a batch where every other
//! query starves on a cycle budget past its retry allowance, and then
//! plays the crash: throws the pool away, reopens the store from the
//! directory alone (as a restarted process would), and
//! `QueryPool::recover`s every spilled ticket to completion from its
//! durable iteration-boundary checkpoint.
//!
//! ```text
//! cargo run --release --example durable_serving
//! ```
//!
//! Every admitted query completes: some inside the original pool, the
//! rest via cross-"process" recovery — and the store is drained at the
//! end.

use std::path::PathBuf;

use simdx::algos::Bfs;
use simdx::core::{
    CheckpointStore, DirStore, DurabilityPolicy, EngineConfig, ExecMode, QueryPool, QueryRequest,
    RetryPolicy, Runtime, ServiceConfig, SimdxError,
};
use simdx::graph::gen::Rmat;
use simdx::graph::Graph;

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

    // The spill directory IS the durable state: everything below could
    // run in two different processes. Drain leftovers from a previous
    // demo run so the recovery count below is honest.
    let spill_dir = PathBuf::from("target").join("durable-serving-demo");
    let store = DirStore::open(&spill_dir)?;
    for stale in store.tickets()? {
        store.remove(stale)?;
    }

    let seeds: Vec<u32> = (0..10).map(|i| (i * 131) % graph.num_vertices()).collect();

    // Starve every other query: a cycle budget equal to the first
    // iteration's cost passes at least one checkpoint boundary per
    // attempt, and the filter keeps only seeds whose runs are long
    // enough that two budgeted attempts still exhaust before
    // convergence — a deterministic final failure that spills.
    println!("starving every other query via cycle budgets\n");
    let budget_for = |idx: usize, seed: u32| -> Option<u64> {
        if idx % 2 == 1 {
            return None;
        }
        let solo = bound.run(Bfs::new(seed)).execute().ok()?;
        let records = &solo.report.log.records;
        let n = records.len();
        if n < 3 {
            return None;
        }
        // Two attempts spend at most 2x the first iteration's cost
        // before their budgets run dry; keep the seed only if the run
        // is still unconverged at that point.
        let first = records[0].cycles;
        let through_second_last: u64 = records[..n - 1].iter().map(|r| r.cycles).sum();
        (through_second_last >= 2 * first).then_some(first)
    };

    let report = QueryPool::serve(
        &bound,
        Bfs::new(0),
        ServiceConfig::default()
            .workers(2)
            .retry(RetryPolicy::default().max_attempts(2))
            .durability(DurabilityPolicy::spill_to(DirStore::open(&spill_dir)?)),
        |client| {
            for (idx, &seed) in seeds.iter().enumerate() {
                let mut request = QueryRequest::new(seed);
                if let Some(budget) = budget_for(idx, seed) {
                    request = request.cycle_budget(budget);
                }
                client.submit(request)?;
            }
            Ok(())
        },
    )?;

    println!("serve: per-ticket outcomes:");
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
    println!(
        "serve: {} of {} completed, {} checkpoints spilled to {}",
        report.completed(),
        report.outcomes.len(),
        report.spilled.len(),
        spill_dir.display()
    );
    assert!(report.spill_failures.is_empty());
    assert!(
        !report.spilled.is_empty(),
        "demo expects at least one final failure to spill"
    );

    // ---- the "restart": the pool and its durability policy are gone;
    // all that survives is the directory. Reopen and recover.
    let store = DirStore::open(&spill_dir)?;
    let found = store.tickets()?;
    println!("\nrecovery: found {} durable checkpoint(s)", found.len());
    let recovery = QueryPool::recover(&bound, Bfs::new(0), &store)?;
    for recovered in &recovery.recovered {
        let status = match &recovered.result {
            Ok(r) => format!("ok, {} iterations", r.report.iterations),
            Err(e) => format!("failed: {e}"),
        };
        println!(
            "  ticket {:>2}  seed {:>4}  resumed from iteration {}  {}",
            recovered.ticket, recovered.seed, recovered.resumed_from, status
        );
    }
    assert!(recovery.skipped.is_empty(), "no corrupt blobs expected");
    assert_eq!(
        recovery.completed(),
        report.spilled.len(),
        "every spilled ticket must complete on recovery"
    );
    assert_eq!(
        report.completed() + recovery.completed(),
        seeds.len(),
        "every admitted query completes: in the pool or via recovery"
    );
    assert!(store.tickets()?.is_empty(), "recovery drains the store");

    println!(
        "\n{} completed in the pool + {} recovered from durable checkpoints = {} / {} queries",
        report.completed(),
        recovery.completed(),
        report.completed() + recovery.completed(),
        seeds.len()
    );

    Ok(())
}
