//! CuSha-style edge-centric engine (Table 1's "ICU" row).
//!
//! CuSha stores the graph as G-Shards — edge-list shards sorted by
//! destination — and sweeps *every* edge *every* iteration with fully
//! coalesced accesses. Its two measured weaknesses:
//!
//! 1. **No task management** (§7.1): iteration cost is Θ(|E|) no matter
//!    how small the active set, which is what makes SSSP on the
//!    high-diameter ER graph "480× slower than SIMD-X";
//! 2. **Edge-list storage**: roughly double the CSR footprint, the
//!    reason CuSha "cannot accommodate large graphs" (Table 4 blanks,
//!    checked at paper scale by [`crate::feasibility`]).
//!
//! Functional note: sweeping an edge whose source did not change since
//! the last iteration cannot alter the gather result, so the engine
//! tracks dirty destinations and only *executes* gathers that could
//! change — while *charging* the full-sweep cost CuSha actually pays.
//! Results are identical to the dense sweep (see `dense_equivalence`
//! test) at a fraction of host time.

use crate::BaselineError;
use simdx_core::acc::AccProgram;
use simdx_core::metrics::{RunReport, RunResult};
use simdx_core::ActivationLog;
use simdx_gpu::{Cost, DeviceSpec, GpuExecutor, KernelDesc, SchedUnit};
use simdx_graph::{Graph, VertexId};

/// Register consumption of the monolithic shard kernel.
const SHARD_KERNEL_REGS: u32 = 40;

/// Configuration for the CuSha-style engine.
#[derive(Clone, Debug)]
pub struct CushaConfig {
    /// Simulated device.
    pub device: DeviceSpec,
    /// Device scale divisor (match the dataset twin scale).
    pub parallelism_scale: u32,
    /// Iteration cap.
    pub max_iterations: u32,
}

impl Default for CushaConfig {
    fn default() -> Self {
        Self {
            device: DeviceSpec::k40(),
            parallelism_scale: 64,
            max_iterations: 100_000,
        }
    }
}

/// The CuSha-style engine.
pub struct CushaEngine<'g, P: AccProgram> {
    program: P,
    graph: &'g Graph,
    config: CushaConfig,
}

impl<'g, P: AccProgram> CushaEngine<'g, P> {
    /// Creates an engine.
    pub fn new(program: P, graph: &'g Graph, config: CushaConfig) -> Self {
        Self {
            program,
            graph,
            config,
        }
    }

    /// Runs the program to convergence.
    pub fn run(&mut self) -> Result<RunResult<P::Meta>, BaselineError> {
        let n = self.graph.num_vertices() as usize;
        let num_edges = self.graph.num_edges();
        let mut executor = GpuExecutor::new(self.config.device.clone());
        executor.set_scale(self.config.parallelism_scale);
        let kernel = KernelDesc::new("cusha-shards", SHARD_KERNEL_REGS);

        let (mut curr, frontier) = self.program.init(self.graph);
        assert_eq!(curr.len(), n, "init must produce one metadata per vertex");
        let mut prev = curr.clone();
        let out = self.graph.out();
        let in_ = self.graph.in_();

        // Dirty destinations: gathers that could change this iteration.
        let mut dirty = vec![false; n];
        let mut dirty_list: Vec<VertexId> = Vec::new();
        let mark_from_sources =
            |sources: &[VertexId], dirty: &mut Vec<bool>, dirty_list: &mut Vec<VertexId>| {
                for &v in sources {
                    for &u in out.neighbors(v) {
                        if !dirty[u as usize] {
                            dirty[u as usize] = true;
                            dirty_list.push(u);
                        }
                    }
                }
            };
        mark_from_sources(&frontier, &mut dirty, &mut dirty_list);
        // Vertices seeded active also need their own first gather (e.g.
        // PageRank's everything-changed start).
        for &v in &frontier {
            if !dirty[v as usize] {
                dirty[v as usize] = true;
                dirty_list.push(v);
            }
        }

        let mut iteration = 0u32;
        loop {
            if dirty_list.is_empty()
                || self
                    .program
                    .converged(iteration, dirty_list.len() as u64, &curr)
            {
                break;
            }
            if iteration >= self.config.max_iterations {
                return Err(BaselineError::IterationLimit {
                    max_iterations: self.config.max_iterations,
                });
            }

            // Execute the gathers that can change; remember who changed.
            let mut changed: Vec<VertexId> = Vec::new();
            for &v in &dirty_list {
                let (lo, hi) = in_.range(v);
                let mut acc: Option<P::Update> = None;
                for i in lo..hi {
                    let u = in_.targets()[i];
                    let w = in_.weights().map_or(1, |ws| ws[i]);
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
                    if let Some(new) = self.program.apply(v, &curr[v as usize], up) {
                        curr[v as usize] = new;
                        changed.push(v);
                    }
                }
            }

            // Charge the full G-Shards sweep CuSha performs: every edge,
            // coalesced shard entries plus window writes, one kernel
            // launch per iteration.
            let chunks = num_edges.div_ceil(32).max(1);
            let tasks: Vec<Cost> = (0..chunks)
                .map(|_| Cost {
                    compute_ops: 96,
                    coalesced_reads: 256,
                    writes: 32,
                    width: 32,
                    ..Cost::default()
                })
                .collect();
            executor.run_kernel(&kernel, SchedUnit::Warp, &tasks, true);

            // Publish and compute the next dirty set.
            for &v in &dirty_list {
                dirty[v as usize] = false;
            }
            dirty_list.clear();
            mark_from_sources(&changed, &mut dirty, &mut dirty_list);
            for &v in &changed {
                prev[v as usize] = curr[v as usize];
            }
            iteration += 1;
        }

        let elapsed_ms = executor.elapsed_ms();
        Ok(RunResult {
            meta: curr,
            report: RunReport {
                algorithm: format!("cusha-{}", self.program.name()),
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

    fn unscaled() -> CushaConfig {
        CushaConfig {
            parallelism_scale: 1,
            ..CushaConfig::default()
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let g = datasets::dataset("PK").unwrap().build_scaled(3, 5);
        let src = datasets::default_source(g.out());
        let r = CushaEngine::new(Bfs::new(src), &g, unscaled())
            .run()
            .expect("cusha bfs");
        assert_eq!(r.meta, reference::bfs(g.out(), src));
    }

    #[test]
    fn sssp_matches_reference() {
        let g = datasets::dataset("RC").unwrap().build_scaled(5, 4);
        let src = datasets::default_source(g.out());
        let r = CushaEngine::new(Sssp::new(src), &g, unscaled())
            .run()
            .expect("cusha sssp");
        assert_eq!(r.meta, reference::sssp(g.out(), src));
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = datasets::dataset("PK").unwrap().build_scaled(5, 5);
        let r = CushaEngine::new(PageRank::new(&g), &g, unscaled())
            .run()
            .expect("cusha pr");
        let expected = reference::pagerank(&g, 0.85, 1e-6, 500);
        for (i, (a, b)) in r.meta.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-4, "rank {i}: {a} vs {b}");
        }
    }

    /// The sparse-execution optimization must be observationally
    /// equivalent to a dense every-edge sweep.
    #[test]
    fn dense_equivalence() {
        let g = datasets::dataset("RM").unwrap().build_scaled(9, 6);
        let src = datasets::default_source(g.out());
        let sparse = CushaEngine::new(Sssp::new(src), &g, unscaled())
            .run()
            .expect("cusha");

        // Dense reference: recompute every vertex every iteration.
        let program = Sssp::new(src);
        use simdx_core::acc::AccProgram;
        let (mut curr, _) = program.init(&g);
        let in_ = g.in_();
        loop {
            let prev = curr.clone();
            for v in 0..g.num_vertices() {
                let (lo, hi) = in_.range(v);
                let mut acc: Option<u32> = None;
                for i in lo..hi {
                    let u = in_.targets()[i];
                    let w = in_.weights().map_or(1, |ws| ws[i]);
                    if let Some(up) = program.compute(u, v, w, &prev[u as usize], &curr[v as usize])
                    {
                        acc = Some(acc.map_or(up, |a| program.combine(a, up)));
                    }
                }
                if let Some(up) = acc {
                    if let Some(new) = program.apply(v, &curr[v as usize], up) {
                        curr[v as usize] = new;
                    }
                }
            }
            if curr == prev {
                break;
            }
        }
        assert_eq!(sparse.meta, curr);
    }

    #[test]
    fn every_iteration_pays_full_edge_sweep() {
        let g = datasets::dataset("RC").unwrap().build_scaled(6, 4);
        let src = datasets::default_source(g.out());
        let r = CushaEngine::new(Bfs::new(src), &g, unscaled())
            .run()
            .expect("cusha bfs");
        let chunks = g.num_edges().div_ceil(32);
        // coalesced_reads traffic ≈ iterations × chunks × 8 / 32.
        let expected = r.report.iterations as u64 * chunks;
        assert!(
            r.report.stats.traffic.coalesced_reads >= expected / 8,
            "full sweeps should dominate traffic"
        );
    }

    #[test]
    fn simdx_crushes_cusha_on_high_diameter_sssp() {
        // The §7.1 ER story: absent task management, every one of the
        // hundreds of iterations pays Θ(E) while SIMD-X touches only the
        // tiny frontier.
        let g = datasets::dataset("ER").unwrap().build_scaled(3, 1);
        let src = datasets::default_source(g.out());
        let sx = sssp::run(&g, src, EngineConfig::default()).expect("simdx");
        let cu = CushaEngine::new(Sssp::new(src), &g, CushaConfig::default())
            .run()
            .expect("cusha");
        assert_eq!(sx.meta, cu.meta);
        let ratio = cu.report.elapsed_ms / sx.report.elapsed_ms;
        // The paper reports 480x on full-scale ER with bucketed
        // Delta-stepping; our frontier Bellman-Ford keeps a wider
        // wavefront, so an order of magnitude is the expected shape.
        assert!(
            ratio > 10.0,
            "expected an order-of-magnitude blowup, got {ratio:.1}x"
        );
    }
}
