//! PageRank in the ACC model (§6).
//!
//! "PageRank updates the rank value of one vertex based on the
//! contribution of all in-neighbors iteratively till all vertices have
//! stable rank values. Because the contributions of in neighbors are
//! summarized to the destination vertex, we start PageRank with the
//! pull model and agg_sum as the merge operation."
//!
//! This implementation keeps the pull model throughout (the paper's
//! final push phase is a tail optimization). The Active
//! condition is rank movement beyond `eps`, so the frontier shrinks as
//! ranks stabilize and the run terminates when no rank moves — exactly
//! the "majority of the vertices are stable" dynamics that drive the
//! Fig. 8 filter pattern (ballot at the first iteration, online later).

use simdx_core::acc::{AccProgram, CombineKind, DirectionCtx};
use simdx_core::{EngineConfig, RunResult, Runtime, SimdxError};
use simdx_graph::csr::Direction;
use simdx_graph::{Graph, VertexId, Weight};

/// PageRank configuration and precomputed degree table.
#[derive(Clone, Debug)]
pub struct PageRank {
    /// Damping factor (0.85 conventionally).
    pub(crate) damping: f32,
    /// Rank-movement threshold below which a vertex is stable.
    pub(crate) eps: f32,
    /// Reciprocal out-degrees, indexed by vertex.
    inv_out_degree: Vec<f32>,
    /// `(1 - damping) / |V|`.
    base: f32,
}

impl PageRank {
    /// Creates a PageRank program for `graph` with standard damping.
    pub fn new(graph: &Graph) -> Self {
        Self::with_params(graph, 0.85, 1e-6)
    }

    /// Creates a PageRank program with explicit damping and epsilon.
    pub fn with_params(graph: &Graph, damping: f32, eps: f32) -> Self {
        let n = graph.num_vertices();
        let out = graph.out();
        let inv_out_degree = (0..n)
            .map(|v| {
                let d = out.degree(v);
                if d == 0 {
                    0.0
                } else {
                    1.0 / d as f32
                }
            })
            .collect();
        Self {
            damping,
            eps,
            inv_out_degree,
            base: (1.0 - damping) / n.max(1) as f32,
        }
    }
}

impl AccProgram for PageRank {
    type Meta = f32;
    type Update = f32;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn combine_kind(&self) -> CombineKind {
        CombineKind::Aggregation
    }

    fn init(&self, graph: &Graph) -> (Vec<f32>, Vec<VertexId>) {
        let n = graph.num_vertices();
        let in_ = graph.in_();
        // Vertices without in-edges never receive updates; seed them at
        // their fixpoint value so results match the Jacobi reference.
        let meta = (0..n)
            .map(|v| {
                if in_.degree(v) == 0 {
                    self.base
                } else {
                    1.0 / n as f32
                }
            })
            .collect();
        (meta, (0..n).collect())
    }

    fn active(&self, _v: VertexId, curr: &f32, prev: &f32) -> bool {
        (curr - prev).abs() > self.eps
    }

    fn compute(
        &self,
        src: VertexId,
        _dst: VertexId,
        _w: Weight,
        m_src: &f32,
        _m_dst: &f32,
    ) -> Option<f32> {
        Some(m_src * self.inv_out_degree[src as usize])
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, _v: VertexId, current: &f32, update: f32) -> Option<f32> {
        let rank = self.base + self.damping * update;
        ((rank - current).abs() > self.eps).then_some(rank)
    }

    fn direction(&self, _ctx: &DirectionCtx) -> Option<Direction> {
        Some(Direction::Pull)
    }
}

/// Runs PageRank and returns ranks plus the run report.
pub fn run(graph: &Graph, config: EngineConfig) -> Result<RunResult<f32>, SimdxError> {
    let runtime = Runtime::new(config)?;
    runtime.bind(graph).run(PageRank::new(graph)).execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use simdx_graph::{datasets, EdgeList};

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol,
                "rank mismatch at {i}: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn matches_reference_on_diamond() {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(vec![
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 0),
        ]));
        let r = run(&g, EngineConfig::unscaled()).expect("pagerank");
        let expected = reference::pagerank(&g, 0.85, 1e-6, 500);
        assert_close(&r.meta, &expected, 1e-4);
    }

    #[test]
    fn matches_reference_on_dataset_twin() {
        let g = datasets::dataset("PK").unwrap().build_scaled(4, 5);
        let r = run(&g, EngineConfig::default()).expect("pagerank");
        let expected = reference::pagerank(&g, 0.85, 1e-6, 500);
        assert_close(&r.meta, &expected, 1e-4);
    }

    #[test]
    fn hub_outranks_leaf() {
        let g =
            Graph::directed_from_edges(EdgeList::from_pairs(vec![(1, 0), (2, 0), (3, 0), (0, 1)]));
        let r = run(&g, EngineConfig::unscaled()).expect("pagerank");
        assert!(r.meta[0] > r.meta[2]);
    }

    #[test]
    fn first_iteration_uses_ballot_filter() {
        // "PageRank need the ballot filter at exactly the first
        // iteration of computation" (§4) — all vertices change at once.
        let g = datasets::dataset("PK").unwrap().build_scaled(4, 4);
        // The twin is shrunk 16x below dataset scale; shrink the device
        // by the same factor so bin capacity tracks frontier volume.
        let cfg = EngineConfig {
            parallelism_scale: 64 * 16,
            ..EngineConfig::default()
        };
        let r = run(&g, cfg).expect("pagerank");
        let first = &r.report.log.records[0];
        assert!(first.overflowed, "iteration 0 should overflow the bins");
        use simdx_core::FilterKind;
        assert_eq!(first.filter, FilterKind::Ballot);
        // Later iterations shrink back under the threshold.
        let last = r.report.log.records.last().unwrap();
        assert_eq!(last.filter, FilterKind::Online);
    }

    #[test]
    fn terminates_on_stability() {
        let g = datasets::dataset("RC").unwrap().build_scaled(5, 4);
        let r = run(&g, EngineConfig::default()).expect("pagerank");
        assert!(r.report.iterations < 200, "PR should converge");
    }
}
