//! Single-source shortest path in the ACC model — the paper's running
//! example, transcribed from Fig. 4(a).
//!
//! The frontier-parallel relaxation (active = distance changed, Compute
//! = `dist[src] + w` when improving, Combine = min) is the ∆-stepping-
//! inspired scheme §3.3 describes: every vertex whose distance improved
//! relaxes simultaneously, without atomics thanks to Combine-then-apply.
//! Positive edge weights are assumed (§3.3).

use simdx_core::acc::{AccProgram, CombineKind, SourcedProgram};
use simdx_core::{EngineConfig, RunResult, Runtime, SimdxError};
use simdx_graph::{Graph, VertexId, Weight};

/// Distance metadata for unreached vertices.
pub(crate) const INF: u32 = u32::MAX;

/// SSSP from a source vertex.
#[derive(Clone, Copy, Debug)]
pub struct Sssp {
    /// Source vertex.
    pub(crate) src: VertexId,
}

impl Sssp {
    /// Creates an SSSP program rooted at `src`.
    pub fn new(src: VertexId) -> Self {
        Self { src }
    }
}

impl AccProgram for Sssp {
    type Meta = u32;
    type Update = u32;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn combine_kind(&self) -> CombineKind {
        CombineKind::Aggregation
    }

    fn init(&self, graph: &Graph) -> (Vec<u32>, Vec<VertexId>) {
        let mut meta = vec![INF; graph.num_vertices() as usize];
        meta[self.src as usize] = 0;
        (meta, vec![self.src])
    }

    /// Fig. 4(a) Compute: `new_dist = metadata_curr[e.src] + w;
    /// return old_dist > new_dist ? new_dist : old_dist` — expressed as
    /// an improving-only update.
    fn compute(
        &self,
        _src: VertexId,
        _dst: VertexId,
        w: Weight,
        m_src: &u32,
        m_dst: &u32,
    ) -> Option<u32> {
        if *m_src == INF {
            return None;
        }
        let new_dist = m_src.saturating_add(w);
        (new_dist < *m_dst).then_some(new_dist)
    }

    /// Fig. 4(a) Combine: `min(A)`.
    fn combine(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, _v: VertexId, current: &u32, update: u32) -> Option<u32> {
        (update < *current).then_some(update)
    }
}

impl SourcedProgram for Sssp {
    fn with_source(mut self, src: VertexId) -> Self {
        self.src = src;
        self
    }
}

/// Checks the SSSP precondition: the paper assigns random weights to
/// unweighted inputs before running SSSP (§6); do the same via
/// [`simdx_graph::weights`]. An unweighted graph is a typed
/// [`SimdxError::InvalidQuery`], not a panic.
fn require_weights(graph: &Graph) -> Result<(), SimdxError> {
    if graph.out().is_weighted() {
        Ok(())
    } else {
        Err(SimdxError::InvalidQuery {
            reason: "sssp needs edge weights; \
                     use simdx_graph::weights::assign_default_weights"
                .to_string(),
        })
    }
}

/// Runs SSSP and returns distances plus the run report.
///
/// One-shot convenience over the session API; multi-source workloads
/// should hold a [`Runtime`], bind the graph once and use
/// [`run_batch`].
pub fn run(
    graph: &Graph,
    src: VertexId,
    config: EngineConfig,
) -> Result<RunResult<u32>, SimdxError> {
    require_weights(graph)?;
    let runtime = Runtime::new(config)?;
    // `.source()` (not `Sssp::new(src)` directly) so an out-of-range
    // source is a typed InvalidQuery, like the batch path.
    runtime.bind(graph).run(Sssp::new(0)).source(src).execute()
}

/// Runs SSSP from every source over one bound session — one distance
/// array per source, with the pool and scratch arenas amortized across
/// the whole batch.
pub fn run_batch(
    graph: &Graph,
    sources: &[VertexId],
    config: EngineConfig,
) -> Result<Vec<RunResult<u32>>, SimdxError> {
    require_weights(graph)?;
    let runtime = Runtime::new(config)?;
    runtime.bind(graph).run_batch(Sssp::new(0), sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use simdx_core::FilterPolicy;
    use simdx_graph::{datasets, EdgeList};

    fn weighted_diamond() -> Graph {
        let el = EdgeList::from_weighted(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], vec![1, 5, 1, 1]);
        Graph::directed_from_edges(el)
    }

    #[test]
    fn matches_dijkstra_on_diamond() {
        let g = weighted_diamond();
        let r = run(&g, 0, EngineConfig::unscaled()).expect("sssp");
        assert_eq!(r.meta, reference::sssp(g.out(), 0));
    }

    #[test]
    fn matches_dijkstra_on_dataset_twin() {
        let g = datasets::dataset("PK").unwrap().build_scaled(3, 5);
        let src = datasets::default_source(g.out());
        let r = run(&g, src, EngineConfig::default()).expect("sssp");
        assert_eq!(r.meta, reference::sssp(g.out(), src));
    }

    #[test]
    fn revisits_vertices_across_iterations() {
        // Fig. 1's signature behaviour: vertex b is updated in iteration
        // 1 (direct edge, weight 5) and again in iteration 3 (shorter
        // path through d). Reproduce with a long-cheap vs short-costly
        // path pair.
        let el =
            EdgeList::from_weighted(4, vec![(0, 1), (0, 2), (2, 3), (3, 1)], vec![10, 1, 1, 1]);
        let g = Graph::directed_from_edges(el);
        let r = run(&g, 0, EngineConfig::unscaled()).expect("sssp");
        assert_eq!(r.meta, vec![0, 3, 1, 2]);
        // The improvement through the longer hop chain takes extra
        // iterations beyond BFS depth.
        assert!(r.report.iterations >= 3);
    }

    #[test]
    fn filter_policies_agree() {
        let g = datasets::dataset("RC").unwrap().build_scaled(5, 3);
        let src = datasets::default_source(g.out());
        let jit = run(&g, src, EngineConfig::default()).expect("jit");
        let ballot = run(
            &g,
            src,
            EngineConfig::default().with_filter(FilterPolicy::BallotOnly),
        )
        .expect("ballot");
        assert_eq!(jit.meta, ballot.meta);
        assert_eq!(jit.meta, reference::sssp(g.out(), src));
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        let g = weighted_diamond();
        let err = run(&g, 99, EngineConfig::unscaled()).expect_err("oob source");
        assert!(matches!(err, SimdxError::InvalidQuery { .. }));
    }

    #[test]
    fn unweighted_graph_rejected_with_typed_error() {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(vec![(0, 1)]));
        let err = run(&g, 0, EngineConfig::unscaled()).expect_err("unweighted");
        assert!(matches!(err, SimdxError::InvalidQuery { .. }));
        assert!(err.to_string().contains("needs edge weights"));
    }

    #[test]
    fn batch_matches_single_runs() {
        let g = weighted_diamond();
        let sources = [0u32, 1, 0];
        let batch = run_batch(&g, &sources, EngineConfig::unscaled()).expect("batch");
        for (src, got) in sources.iter().zip(&batch) {
            let single = run(&g, *src, EngineConfig::unscaled()).expect("single");
            assert_eq!(got.meta, single.meta, "src {src}");
            assert_eq!(got.report.stats, single.report.stats, "src {src}");
        }
    }
}
