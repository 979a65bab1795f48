//! Gunrock-style Advance-Filter-Compute engine (Table 1's "AFC" row).
//!
//! The three mechanism differences from SIMD-X, each priced explicitly:
//!
//! 1. **Batch filter** (§4): the frontier is expanded into an explicit
//!    active-edge list every iteration (`batch::expand`), with
//!    its `2·|E|` worst-case memory appetite (the Table 4 SSSP OOMs,
//!    checked at paper scale by [`crate::feasibility`]);
//! 2. **Atomic updates** (§3.3 "Comparison"): Compute results are
//!    applied directly at the destination with atomic operations rather
//!    than warp-combined — conflicting updates serialize (Fig. 5);
//! 3. **No kernel fusion**: advance, compute and filter each launch a
//!    fresh kernel every iteration.
//!
//! Functionally the engine executes the same ACC program as SIMD-X with
//! identical BSP snapshot semantics, so final metadata matches exactly.

use crate::batch;
use crate::BaselineError;
use simdx_core::acc::{AccProgram, DirectionCtx};
use simdx_core::metrics::{RunReport, RunResult};
use simdx_core::ActivationLog;
use simdx_gpu::{Cost, DeviceSpec, GpuExecutor, KernelDesc, SchedUnit};
use simdx_graph::csr::Direction;
use simdx_graph::{Graph, VertexId};

/// Gunrock register consumption per kernel (AFC kernels carry atomic
/// bookkeeping; values in line with the `-Xptxas -v` numbers Gunrock
/// reports for its LB advance kernels).
const ADVANCE_REGS: u32 = 32;
const COMPUTE_REGS: u32 = 30;
const FILTER_REGS: u32 = 28;

/// Configuration for the Gunrock-style engine.
#[derive(Clone, Debug)]
pub struct GunrockConfig {
    /// Simulated device.
    pub device: DeviceSpec,
    /// Device scale divisor (match the dataset twin scale).
    pub parallelism_scale: u32,
    /// Iteration cap.
    pub max_iterations: u32,
}

impl Default for GunrockConfig {
    fn default() -> Self {
        Self {
            device: DeviceSpec::k40(),
            parallelism_scale: 64,
            max_iterations: 100_000,
        }
    }
}

/// The Gunrock-style engine.
pub struct GunrockEngine<'g, P: AccProgram> {
    program: P,
    graph: &'g Graph,
    config: GunrockConfig,
}

impl<'g, P: AccProgram> GunrockEngine<'g, P> {
    /// Creates an engine.
    pub fn new(program: P, graph: &'g Graph, config: GunrockConfig) -> Self {
        Self {
            program,
            graph,
            config,
        }
    }

    /// Runs the program to convergence.
    pub fn run(&mut self) -> Result<RunResult<P::Meta>, BaselineError> {
        let n = self.graph.num_vertices() as usize;
        let mut executor = GpuExecutor::new(self.config.device.clone());
        executor.set_scale(self.config.parallelism_scale);
        let advance_k = KernelDesc::new("gunrock-advance", ADVANCE_REGS);
        let compute_k = KernelDesc::new("gunrock-compute", COMPUTE_REGS);
        let filter_k = KernelDesc::new("gunrock-filter", FILTER_REGS);

        let (mut curr, mut frontier) = self.program.init(self.graph);
        assert_eq!(curr.len(), n, "init must produce one metadata per vertex");
        let mut prev = curr.clone();
        // Iteration stamp per vertex for atomic-conflict counting.
        let mut stamp = vec![u32::MAX; n];
        let mut iteration = 0u32;

        while !frontier.is_empty()
            && !self
                .program
                .converged(iteration, frontier.len() as u64, &curr)
        {
            if iteration >= self.config.max_iterations {
                return Err(BaselineError::IterationLimit {
                    max_iterations: self.config.max_iterations,
                });
            }
            let ctx = DirectionCtx {
                iteration,
                frontier_len: frontier.len() as u64,
                frontier_degree_sum: 0,
                num_vertices: n as u64,
                num_edges: self.graph.num_edges(),
                previous: Direction::Push,
            };
            // Gunrock's advance is push-based; pull only on explicit
            // program demand (PageRank-style full gathers).
            let dir = self.program.direction(&ctx).unwrap_or(Direction::Push);
            let mut changed: Vec<VertexId> = Vec::new();
            match dir {
                Direction::Push => {
                    // Advance: expand the frontier to an edge list.
                    let ef =
                        batch::expand(&frontier, self.graph.out(), &mut executor, &advance_k, true);
                    // Compute: one lane per edge, atomic application.
                    let mut tasks = Vec::with_capacity(ef.edges.len().div_ceil(32));
                    for chunk in ef.edges.chunks(32) {
                        let mut atomics = 0u64;
                        let mut conflicts = 0u64;
                        for &(v, u, w) in chunk {
                            let up =
                                self.program
                                    .compute(v, u, w, &prev[v as usize], &curr[u as usize]);
                            if let Some(up) = up {
                                atomics += 1;
                                if stamp[u as usize] == iteration {
                                    conflicts += 1;
                                }
                                let first = curr[u as usize] == prev[u as usize];
                                if let Some(new) = self.program.apply(u, &curr[u as usize], up) {
                                    curr[u as usize] = new;
                                    stamp[u as usize] = iteration;
                                    if first {
                                        changed.push(u);
                                    }
                                }
                            }
                        }
                        let lanes = chunk.len() as u64;
                        tasks.push(Cost {
                            compute_ops: 2 * lanes,
                            coalesced_reads: 3 * lanes,
                            random_reads: lanes,
                            atomics,
                            atomic_conflicts: conflicts,
                            width: 32,
                            ..Cost::default()
                        });
                    }
                    executor.run_kernel(&compute_k, SchedUnit::Warp, &tasks, true);
                }
                Direction::Pull => {
                    // Full gather over every vertex (Gunrock PR-style).
                    let in_csr = self.graph.in_();
                    let mut tasks = Vec::with_capacity(n);
                    for v in 0..n as VertexId {
                        let (lo, hi) = in_csr.range(v);
                        let mut acc: Option<P::Update> = None;
                        for i in lo..hi {
                            let u = in_csr.targets()[i];
                            let w = in_csr.weights().map_or(1, |ws| ws[i]);
                            if let Some(up) =
                                self.program
                                    .compute(u, v, w, &prev[u as usize], &curr[v as usize])
                            {
                                acc = Some(match acc {
                                    None => up,
                                    Some(a) => self.program.combine(a, up),
                                });
                            }
                        }
                        if let Some(up) = acc {
                            let first = curr[v as usize] == prev[v as usize];
                            if let Some(new) = self.program.apply(v, &curr[v as usize], up) {
                                curr[v as usize] = new;
                                if first {
                                    changed.push(v);
                                }
                            }
                        }
                        let d = (hi - lo) as u64;
                        tasks.push(Cost {
                            compute_ops: 2 * d + 5,
                            coalesced_reads: 1 + d,
                            random_reads: d,
                            writes: 1,
                            width: 32,
                            ..Cost::default()
                        });
                    }
                    executor.run_kernel(&compute_k, SchedUnit::Warp, &tasks, true);
                }
            }

            // Filter: compact updated vertices into the next frontier
            // (unsorted, potentially redundant — batch-filter quality).
            let filter_tasks: Vec<Cost> = (0..(changed.len() as u64).div_ceil(32).max(1))
                .map(|_| Cost {
                    compute_ops: 64,
                    coalesced_reads: 32,
                    writes: 32,
                    width: 32,
                    ..Cost::default()
                })
                .collect();
            executor.run_kernel(&filter_k, SchedUnit::Warp, &filter_tasks, true);

            for &v in &changed {
                prev[v as usize] = curr[v as usize];
            }
            frontier = changed;
            iteration += 1;
        }

        let elapsed_ms = executor.elapsed_ms();
        Ok(RunResult {
            meta: curr,
            report: RunReport {
                algorithm: format!("gunrock-{}", self.program.name()),
                device: executor.device().name,
                iterations: iteration,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_algos::{bfs::Bfs, pagerank::PageRank, reference, sssp, sssp::Sssp};
    use simdx_core::EngineConfig;
    use simdx_graph::datasets;

    fn unscaled() -> GunrockConfig {
        GunrockConfig {
            parallelism_scale: 1,
            ..GunrockConfig::default()
        }
    }

    #[test]
    fn bfs_matches_simdx_and_reference() {
        let g = datasets::dataset("PK").unwrap().build_scaled(3, 5);
        let src = datasets::default_source(g.out());
        let gr = GunrockEngine::new(Bfs::new(src), &g, unscaled())
            .run()
            .expect("gunrock bfs");
        assert_eq!(gr.meta, reference::bfs(g.out(), src));
    }

    #[test]
    fn sssp_matches_reference() {
        let g = datasets::dataset("RC").unwrap().build_scaled(5, 4);
        let src = datasets::default_source(g.out());
        let gr = GunrockEngine::new(Sssp::new(src), &g, unscaled())
            .run()
            .expect("gunrock sssp");
        assert_eq!(gr.meta, reference::sssp(g.out(), src));
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = datasets::dataset("PK").unwrap().build_scaled(5, 5);
        let gr = GunrockEngine::new(PageRank::new(&g), &g, unscaled())
            .run()
            .expect("gunrock pr");
        let expected = reference::pagerank(&g, 0.85, 1e-6, 500);
        for (i, (a, b)) in gr.meta.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-4, "rank {i}: {a} vs {b}");
        }
    }

    #[test]
    fn launches_scale_with_iterations() {
        let g = datasets::dataset("RC").unwrap().build_scaled(4, 4);
        let src = datasets::default_source(g.out());
        let gr = GunrockEngine::new(Bfs::new(src), &g, unscaled())
            .run()
            .expect("gunrock bfs");
        // Three launches per iteration: advance, compute, filter.
        assert_eq!(gr.report.kernel_launches(), 3 * gr.report.iterations as u64);
    }

    #[test]
    fn simdx_beats_gunrock_on_sssp() {
        // The Fig. 5 aggregation effect plus filter/fusion gains: the
        // same SSSP on the same simulated K40 must favor SIMD-X.
        let g = datasets::dataset("RC").unwrap().build(3);
        let src = datasets::default_source(g.out());
        let sx = sssp::run(&g, src, EngineConfig::default()).expect("simdx");
        let gr = GunrockEngine::new(Sssp::new(src), &g, GunrockConfig::default())
            .run()
            .expect("gunrock");
        assert_eq!(sx.meta, gr.meta, "same distances");
        assert!(
            gr.report.elapsed_ms > sx.report.elapsed_ms,
            "gunrock {} <= simdx {}",
            gr.report.elapsed_ms,
            sx.report.elapsed_ms
        );
    }
}
