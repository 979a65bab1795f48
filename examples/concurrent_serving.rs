//! Concurrent serving: one shared `BoundGraph`, many clients.
//!
//! Stands up a `QueryPool` over a generated R-MAT graph and drives it
//! with a burst of BFS queries — bounded queue, one ticket per
//! serving-thread turn, per-query deadlines — then prints the throughput and latency
//! figures a service operator would watch. Also shows load shedding:
//! the same burst against a tiny queue under `AdmissionPolicy::Reject`
//! turns the overflow into typed `Overloaded` errors instead of
//! backpressure.
//!
//! ```text
//! cargo run --release --example concurrent_serving
//! ```

use std::time::Duration;

use simdx::algos::Bfs;
use simdx::core::{
    AdmissionPolicy, EngineConfig, ExecMode, QueryPool, QueryRequest, Runtime, ServiceConfig,
    SimdxError,
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

    // One runtime per service, one bind per graph — the serving
    // threads all share this bound core.
    let runtime =
        Runtime::new(EngineConfig::default().with_exec(ExecMode::Parallel { threads: 2 }))?;
    let bound = runtime.bind(&graph);

    // A burst of single-source queries. Each carries a generous
    // deadline measured from submission: queue time counts.
    let seeds: Vec<u32> = (0..64).map(|i| (i * 37) % graph.num_vertices()).collect();
    for workers in [1usize, 4] {
        let report = QueryPool::serve(
            &bound,
            Bfs::new(0),
            ServiceConfig::default().workers(workers),
            |client| {
                for &seed in &seeds {
                    client.submit(QueryRequest::new(seed).deadline(Duration::from_secs(60)))?;
                }
                Ok(())
            },
        )?;
        println!(
            "\n{workers} serving thread(s): {} queries in {:.1} ms over {} turns",
            report.outcomes.len(),
            report.elapsed.as_secs_f64() * 1e3,
            report.batches,
        );
        println!(
            "  {:.0} queries/sec, p50 {:.2} ms, p99 {:.2} ms",
            report.queries_per_sec(),
            report.latency_percentile(50.0).as_secs_f64() * 1e3,
            report.latency_percentile(99.0).as_secs_f64() * 1e3,
        );
    }

    // Load shedding: a 4-deep queue that rejects instead of blocking.
    // Some of the burst is shed with a typed error; everything that
    // was admitted still completes (and stays bit-equal to a solo
    // run — that contract is what `tests/concurrent_serving.rs` pins).
    let mut shed = 0usize;
    let report = QueryPool::serve(
        &bound,
        Bfs::new(0),
        ServiceConfig::default()
            .workers(2)
            .queue_depth(4)
            .admission(AdmissionPolicy::Reject),
        |client| {
            for &seed in &seeds {
                match client.submit(QueryRequest::new(seed)) {
                    Ok(_) => {}
                    Err(SimdxError::Overloaded { .. }) => shed += 1,
                    Err(other) => return Err(other),
                }
            }
            Ok(())
        },
    )?;
    println!(
        "\nload shedding: admitted {} of {} submissions ({} shed), all admitted completed: {}",
        report.outcomes.len(),
        seeds.len(),
        shed,
        report.completed() == report.outcomes.len(),
    );

    Ok(())
}
