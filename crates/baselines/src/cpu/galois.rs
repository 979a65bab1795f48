//! Galois-style CPU baseline: asynchronous, priority-ordered worklist
//! execution.
//!
//! Galois schedules fine-grained tasks from an ordered worklist
//! (`OBIM`-style priority bins): SSSP relaxations are processed in
//! distance order, which makes the algorithm nearly work-efficient
//! (every vertex settles close to its final distance), at the price of
//! per-task scheduling overhead and one global coordination round per
//! priority level. High-diameter graphs therefore devolve toward a
//! sequential chain of tiny rounds — the behaviour behind Galois'
//! enormous SSSP time on ER in Table 4.
//!
//! The functional execution is a deterministic bucket queue (the result
//! equals Dijkstra); simulated time charges every relaxation plus the
//! worklist operations and per-round coordination.

use crate::cpu::{host_executor, host_kernel};
use crate::BaselineError;
use simdx_core::metrics::{RunReport, RunResult};
use simdx_core::ActivationLog;
use simdx_gpu::{Cost, GpuExecutor, SchedUnit};
use simdx_graph::{Graph, VertexId};

/// Configuration for the Galois-style runners.
#[derive(Clone, Copy, Debug)]
pub struct GaloisConfig {
    /// Device scale divisor (match the dataset twin scale).
    pub(crate) parallelism_scale: u32,
    /// Cap on priority rounds.
    pub(crate) max_rounds: u32,
}

impl Default for GaloisConfig {
    fn default() -> Self {
        Self {
            parallelism_scale: 64,
            max_rounds: 10_000_000,
        }
    }
}

/// Shared bucket-queue relaxation core (BFS when `use_weights` is
/// false; weighted SSSP otherwise).
fn relax_run(
    graph: &Graph,
    src: VertexId,
    use_weights: bool,
    name: &'static str,
    cfg: GaloisConfig,
) -> Result<RunResult<u32>, BaselineError> {
    let n = graph.num_vertices() as usize;
    let out = graph.out();
    let mut executor = host_executor(cfg.parallelism_scale);
    let kernel = host_kernel("galois-obim");

    let mut dist = vec![u32::MAX; n];
    dist[src as usize] = 0;
    // Bucket queue indexed by distance.
    let mut buckets: Vec<Vec<VertexId>> = vec![vec![src]];
    let mut rounds = 0u32;
    let mut level = 0usize;

    while level < buckets.len() {
        if buckets[level].is_empty() {
            level += 1;
            continue;
        }
        if rounds >= cfg.max_rounds {
            return Err(BaselineError::IterationLimit {
                max_iterations: cfg.max_rounds,
            });
        }
        let bucket = std::mem::take(&mut buckets[level]);
        let mut tasks = Vec::with_capacity(bucket.len());
        for v in bucket {
            // A stale entry: the vertex settled at a smaller distance.
            if dist[v as usize] != level as u32 {
                tasks.push(Cost {
                    compute_ops: 2,
                    random_reads: 1,
                    ..Cost::default()
                });
                continue;
            }
            let (lo, hi) = out.range(v);
            let mut relaxed = 0u64;
            for i in lo..hi {
                let u = out.targets()[i] as usize;
                let w = if use_weights {
                    out.weights().map_or(1, |ws| ws[i])
                } else {
                    1
                };
                let nd = (level as u32).saturating_add(w);
                if nd < dist[u] {
                    dist[u] = nd;
                    relaxed += 1;
                    let slot = nd as usize;
                    if slot >= buckets.len() {
                        buckets.resize(slot + 1, Vec::new());
                    }
                    buckets[slot].push(u as VertexId);
                }
            }
            let d = (hi - lo) as u64;
            tasks.push(Cost {
                compute_ops: 2 * d + 4,
                coalesced_reads: 1 + d,
                random_reads: d,
                // Worklist pushes are shared-structure atomics.
                atomics: relaxed + 1,
                ..Cost::default()
            });
        }
        // One parallel round per priority level: spawn + join.
        executor.run_kernel(&kernel, SchedUnit::Thread, &tasks, true);
        executor.charge_barrier();
        rounds += 1;
    }

    finish(name, executor, rounds, dist)
}

/// Galois BFS (levels, ordered by level).
pub fn bfs(
    graph: &Graph,
    src: VertexId,
    cfg: GaloisConfig,
) -> Result<RunResult<u32>, BaselineError> {
    relax_run(graph, src, false, "galois-bfs", cfg)
}

/// Galois SSSP (bucketed delta-stepping with Δ = 1).
pub fn sssp(
    graph: &Graph,
    src: VertexId,
    cfg: GaloisConfig,
) -> Result<RunResult<u32>, BaselineError> {
    relax_run(graph, src, true, "galois-sssp", cfg)
}

/// Galois PageRank: synchronous rounds over all vertices (Galois' PR
/// benchmark is topology-driven, without frontier shrinking).
pub fn pagerank(
    graph: &Graph,
    damping: f32,
    eps: f32,
    cfg: GaloisConfig,
) -> Result<RunResult<f32>, BaselineError> {
    let n = graph.num_vertices() as usize;
    let out = graph.out();
    let in_ = graph.in_();
    let mut executor = host_executor(cfg.parallelism_scale);
    let kernel = host_kernel("galois-pr");
    let base = (1.0 - damping) / n.max(1) as f32;
    let inv_deg: Vec<f32> = (0..n as VertexId)
        .map(|v| {
            let d = out.degree(v);
            if d == 0 {
                0.0
            } else {
                1.0 / d as f32
            }
        })
        .collect();
    let mut rank = vec![1.0f32 / n.max(1) as f32; n];
    let mut rounds = 0u32;
    loop {
        if rounds >= cfg.max_rounds {
            return Err(BaselineError::IterationLimit {
                max_iterations: cfg.max_rounds,
            });
        }
        let mut moved = false;
        let mut next = vec![0.0f32; n];
        let mut tasks = Vec::with_capacity(n);
        for v in 0..n {
            let mut sum = 0.0f32;
            for &u in in_.neighbors(v as VertexId) {
                sum += rank[u as usize] * inv_deg[u as usize];
            }
            let r = base + damping * sum;
            if (r - rank[v]).abs() > eps {
                moved = true;
                next[v] = r;
            } else {
                next[v] = rank[v];
            }
            let d = in_.degree(v as VertexId) as u64;
            tasks.push(Cost {
                compute_ops: 2 * d + 4,
                coalesced_reads: 1 + d,
                random_reads: d,
                writes: 1,
                // Task scheduling through the runtime's worklist.
                atomics: 1,
                ..Cost::default()
            });
        }
        executor.run_kernel(&kernel, SchedUnit::Thread, &tasks, true);
        executor.charge_barrier();
        rank = next;
        rounds += 1;
        if !moved {
            break;
        }
    }
    finish("galois-pagerank", executor, rounds, rank)
}

fn finish<M>(
    name: &str,
    executor: GpuExecutor,
    iterations: u32,
    meta: Vec<M>,
) -> Result<RunResult<M>, BaselineError> {
    let elapsed_ms = executor.elapsed_ms();
    Ok(RunResult {
        meta,
        report: RunReport {
            algorithm: name.to_string(),
            device: executor.device().name,
            iterations,
            elapsed_ms,
            stats: executor.stats().clone(),
            // Baseline simulators do not meter host edge traversals.
            edges_examined: 0,
            log: ActivationLog::default(),
            // Baselines run unsupervised.
            elapsed: std::time::Duration::ZERO,
            supervision_checks: 0,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_algos::reference;
    use simdx_graph::datasets;

    fn cfg() -> GaloisConfig {
        GaloisConfig {
            parallelism_scale: 1,
            ..GaloisConfig::default()
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let g = datasets::dataset("PK").unwrap().build_scaled(3, 5);
        let src = datasets::default_source(g.out());
        let r = bfs(&g, src, cfg()).expect("galois bfs");
        assert_eq!(r.meta, reference::bfs(g.out(), src));
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = datasets::dataset("RC").unwrap().build_scaled(5, 4);
        let src = datasets::default_source(g.out());
        let r = sssp(&g, src, cfg()).expect("galois sssp");
        assert_eq!(r.meta, reference::sssp(g.out(), src));
    }

    #[test]
    fn sssp_is_nearly_work_efficient() {
        // Priority ordering settles almost every vertex once: the total
        // relaxation count stays within a small factor of |E|.
        let g = datasets::dataset("PK").unwrap().build_scaled(4, 4);
        let src = datasets::default_source(g.out());
        let r = sssp(&g, src, cfg()).expect("galois sssp");
        // Rounds = number of distinct distance values processed.
        assert!(r.report.iterations < 2_000);
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = datasets::dataset("PK").unwrap().build_scaled(5, 5);
        let r = pagerank(&g, 0.85, 1e-6, cfg()).expect("galois pr");
        let expected = reference::pagerank(&g, 0.85, 1e-6, 500);
        for (i, (a, b)) in r.meta.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-3, "rank {i}: {a} vs {b}");
        }
    }

    #[test]
    fn high_diameter_means_many_tiny_rounds() {
        // The ER pathology: thousands of priority levels each with a
        // handful of vertices, every one paying spawn + barrier.
        let g = datasets::dataset("RC").unwrap().build_scaled(3, 3);
        let src = datasets::default_source(g.out());
        let r = sssp(&g, src, cfg()).expect("galois sssp");
        assert!(
            r.report.iterations > 500,
            "expected thousands of rounds, got {}",
            r.report.iterations
        );
    }
}
