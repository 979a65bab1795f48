//! Quickstart: build a runtime, bind a graph, and serve queries — BFS,
//! then a multi-source SSSP batch with every allocation amortized
//! across the queries.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use simdx::algos::{Bfs, Sssp};
use simdx::core::{EngineConfig, Runtime, SimdxError};
use simdx::graph::{weights, EdgeList, Graph};

fn main() -> Result<(), SimdxError> {
    // A small weighted directed graph: the SSSP example of the paper's
    // Fig. 1 has nine vertices a..i; we label them 0..9.
    let edges = vec![
        (0, 1), // a-b
        (0, 3), // a-d
        (1, 2), // b-c
        (3, 4), // d-e
        (4, 1), // e-b
        (4, 2), // e-c
        (4, 5), // e-f
        (5, 6), // f-g
        (6, 7), // g-h
        (7, 8), // h-i
    ];
    let el = EdgeList::from_pairs(edges);
    let el = weights::assign_default_weights(&el, 42);
    let graph = Graph::undirected_from_edges(el);

    println!(
        "graph: {} vertices, {} directed edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // One runtime per service, one bind per graph. `unscaled()` runs
    // the device at full size — right for toy graphs (the default
    // config assumes 1/64-scale dataset twins).
    let runtime = Runtime::new(EngineConfig::unscaled())?;
    let bound = runtime.bind(&graph);

    // BFS from vertex 0 through the run builder.
    let r = bound.run(Bfs::new(0)).execute()?;
    println!("\nBFS levels:     {:?}", r.meta);
    println!(
        "  {} iterations, {:.4} simulated ms on {}",
        r.report.iterations, r.report.elapsed_ms, r.report.device
    );

    // Multi-source SSSP as one batch: one distance array per source,
    // with the worker pool and scratch arenas reused across all
    // queries — the amortization a fresh runtime per query could never
    // give you.
    let sources = [0, 4, 8];
    let batch = bound.run_batch(Sssp::new(0), &sources)?;
    println!("\nSSSP batch over sources {sources:?}:");
    for (src, r) in sources.iter().zip(&batch) {
        println!(
            "  from {src}: distances {:?} ({} iterations, {} launches)",
            r.meta,
            r.report.iterations,
            r.report.kernel_launches()
        );
    }
    println!(
        "  filter pattern of last query: {}",
        batch.last().expect("non-empty").report.log.pattern_rle()
    );
    Ok(())
}
