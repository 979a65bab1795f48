//! Sparse matrix-vector multiplication — listed in the paper's
//! architecture diagram (Fig. 3) as one of the algorithms SIMD-X hosts.
//!
//! `y = A·x` where `A` is the weighted adjacency matrix in the pull
//! orientation: `y[v] = Σ_{(u,v) ∈ E} w_uv · x[u]`. One aggregation
//! iteration over all vertices; the interest for the framework is that
//! it exercises the all-active, compute-dense path (like PageRank's
//! first iteration) in a single round.

use simdx_core::acc::{AccProgram, CombineKind, DirectionCtx};
use simdx_core::{EngineConfig, RunResult, Runtime, SimdxError};
use simdx_graph::csr::Direction;
use simdx_graph::{Graph, VertexId, Weight};

/// One SpMV round.
#[derive(Clone, Debug)]
pub(crate) struct Spmv {
    /// The input vector `x`.
    pub(crate) x: Vec<f32>,
}

impl Spmv {
    /// Creates an SpMV program for input vector `x`.
    pub(crate) fn new(x: Vec<f32>) -> Self {
        Self { x }
    }
}

impl AccProgram for Spmv {
    type Meta = f32;
    type Update = f32;

    fn name(&self) -> &'static str {
        "spmv"
    }

    fn combine_kind(&self) -> CombineKind {
        CombineKind::Aggregation
    }

    fn init(&self, graph: &Graph) -> (Vec<f32>, Vec<VertexId>) {
        let n = graph.num_vertices();
        assert_eq!(self.x.len(), n as usize, "x must have one entry per vertex");
        (vec![0.0; n as usize], (0..n).collect())
    }

    fn compute(
        &self,
        src: VertexId,
        _dst: VertexId,
        w: Weight,
        _m_src: &f32,
        _m_dst: &f32,
    ) -> Option<f32> {
        Some(w as f32 * self.x[src as usize])
    }

    fn combine(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn apply(&self, _v: VertexId, current: &f32, update: f32) -> Option<f32> {
        (update != *current).then_some(update)
    }

    fn direction(&self, _ctx: &DirectionCtx) -> Option<Direction> {
        Some(Direction::Pull)
    }

    fn converged(&self, iteration: u32, _frontier: u64, _meta: &[f32]) -> bool {
        iteration >= 1
    }
}

/// Runs one SpMV round; returns `y` plus the run report. A mis-sized
/// input vector is a typed [`SimdxError::InvalidQuery`].
pub fn run(graph: &Graph, x: Vec<f32>, config: EngineConfig) -> Result<RunResult<f32>, SimdxError> {
    let n = graph.num_vertices() as usize;
    if x.len() != n {
        return Err(SimdxError::InvalidQuery {
            reason: format!(
                "spmv input vector has {} entries for a graph with {n} vertices",
                x.len()
            ),
        });
    }
    let runtime = Runtime::new(config)?;
    runtime.bind(graph).run(Spmv::new(x)).execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use simdx_graph::{datasets, EdgeList};

    #[test]
    fn matches_manual_product() {
        let el = EdgeList::from_weighted(3, vec![(0, 2), (1, 2), (2, 0)], vec![2, 3, 4]);
        let g = Graph::directed_from_edges(el);
        let r = run(&g, vec![1.0, 2.0, 3.0], EngineConfig::unscaled()).expect("spmv");
        // y[2] = 2*1 + 3*2 = 8; y[0] = 4*3 = 12.
        assert_eq!(r.meta, vec![12.0, 0.0, 8.0]);
        assert_eq!(r.report.iterations, 1);
    }

    #[test]
    fn matches_reference_on_dataset_twin() {
        let g = datasets::dataset("RM").unwrap().build_scaled(6, 5);
        let x: Vec<f32> = (0..g.num_vertices()).map(|v| (v % 7) as f32).collect();
        let r = run(&g, x.clone(), EngineConfig::default()).expect("spmv");
        let expected = reference::spmv(&g, &x);
        for (i, (a, b)) in r.meta.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-3, "y[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn ones_vector_gives_weighted_in_degree() {
        let el = EdgeList::from_weighted(3, vec![(0, 1), (2, 1)], vec![5, 7]);
        let g = Graph::directed_from_edges(el);
        let r = run(&g, vec![1.0; 3], EngineConfig::unscaled()).expect("spmv");
        assert_eq!(r.meta[1], 12.0);
    }

    #[test]
    fn wrong_x_length_rejected_with_typed_error() {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(vec![(0, 1)]));
        let err = run(&g, vec![1.0], EngineConfig::unscaled()).expect_err("bad x");
        assert!(matches!(err, SimdxError::InvalidQuery { .. }));
    }
}
