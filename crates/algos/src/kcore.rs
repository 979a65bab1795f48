//! k-Core decomposition in the ACC model (§6).
//!
//! "k-Core iteratively deletes the vertices whose degree is less than k
//! until all remaining vertices possess more than k neighbors. It
//! experiences large volume of workloads at initial iterations and
//! follows with light workloads" — which is why Fig. 8 shows the ballot
//! filter firing in the first couple of iterations and the online
//! filter afterwards.
//!
//! Metadata is the remaining degree, with a `DELETED` sentinel. The
//! Active condition is the default changed-metadata test, so the
//! frontier contains both newly-deleted and merely-decremented vertices
//! — the documented online-filter redundancy (§4). `compute` keeps the
//! redundancy harmless: only deleted sources emit decrements, and
//! already-deleted destinations absorb nothing (the §7.1 optimization
//! that "reduces tremendous unnecessary updates"). Because every
//! decrement event is recorded, the massive early-iteration cascades
//! overflow the bins and flip JIT control to the ballot filter for
//! "typically the first two iterations" (Fig. 8).

use simdx_core::acc::{AccProgram, CombineKind, DirectionCtx};
use simdx_core::{EngineConfig, RunResult, Runtime, SimdxError};
use simdx_graph::csr::Direction;
use simdx_graph::{Graph, VertexId, Weight};

/// Sentinel marking a deleted vertex.
pub(crate) const DELETED: u32 = u32::MAX;

/// k-Core decomposition.
#[derive(Clone, Copy, Debug)]
pub struct KCore {
    /// The core order.
    pub(crate) k: u32,
}

impl KCore {
    /// Creates a k-Core program.
    pub fn new(k: u32) -> Self {
        Self { k }
    }
}

impl AccProgram for KCore {
    type Meta = u32;
    type Update = u32;

    fn name(&self) -> &'static str {
        "kcore"
    }

    fn combine_kind(&self) -> CombineKind {
        CombineKind::Aggregation
    }

    fn init(&self, graph: &Graph) -> (Vec<u32>, Vec<VertexId>) {
        // Track *in*-degrees: a deletion propagates along the deleted
        // vertex's out-edges and removes an in-edge at each destination.
        // On undirected graphs this is the plain degree.
        let in_ = graph.in_();
        let n = graph.num_vertices();
        let mut meta: Vec<u32> = (0..n).map(|v| in_.degree(v)).collect();
        let frontier: Vec<VertexId> = (0..n).filter(|&v| meta[v as usize] < self.k).collect();
        for &v in &frontier {
            meta[v as usize] = DELETED;
        }
        (meta, frontier)
    }

    fn compute(
        &self,
        _src: VertexId,
        _dst: VertexId,
        _w: Weight,
        m_src: &u32,
        m_dst: &u32,
    ) -> Option<u32> {
        // Only deleted sources emit decrements; already-deleted
        // destinations absorb nothing (the unnecessary-update cut).
        (*m_src == DELETED && *m_dst != DELETED).then_some(1)
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        a + b
    }

    fn apply(&self, _v: VertexId, current: &u32, update: u32) -> Option<u32> {
        if *current == DELETED {
            return None;
        }
        let remaining = current.saturating_sub(update);
        Some(if remaining < self.k {
            DELETED
        } else {
            remaining
        })
    }

    /// Deletions propagate along out-edges; the decomposition runs in
    /// push mode (the paper's early pull phase is an optimization for
    /// the all-active first iterations).
    fn direction(&self, _ctx: &DirectionCtx) -> Option<Direction> {
        Some(Direction::Push)
    }
}

/// Runs k-Core; returns per-vertex remaining degree (`DELETED` for
/// peeled vertices) plus the run report.
pub fn run(graph: &Graph, k: u32, config: EngineConfig) -> Result<RunResult<u32>, SimdxError> {
    let runtime = Runtime::new(config)?;
    runtime.bind(graph).run(KCore::new(k)).execute()
}

/// Extracts the survivor bitmap from a k-Core result.
pub fn survivors(meta: &[u32]) -> Vec<bool> {
    meta.iter().map(|&m| m != DELETED).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use simdx_graph::{datasets, EdgeList};

    /// The k the dataset-twin tests peel with (Table 4 uses k = 32).
    const DEFAULT_K: u32 = 16;

    #[test]
    fn triangle_with_pendant() {
        let el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let g = Graph::undirected_from_edges(el);
        let r = run(&g, 2, EngineConfig::unscaled()).expect("kcore");
        assert_eq!(survivors(&r.meta), vec![true, true, true, false]);
    }

    #[test]
    fn cascading_deletion() {
        // A path: every vertex eventually peels at k=2.
        let el = EdgeList::from_pairs((0..9).map(|i| (i, i + 1)).collect());
        let g = Graph::undirected_from_edges(el);
        let r = run(&g, 2, EngineConfig::unscaled()).expect("kcore");
        assert!(survivors(&r.meta).iter().all(|&s| !s));
        // The peel cascades inward from both endpoints.
        assert!(r.report.iterations >= 4);
    }

    #[test]
    fn matches_reference_on_dataset_twin() {
        let g = datasets::dataset("OR").unwrap().build_scaled(7, 4);
        let r = run(&g, DEFAULT_K, EngineConfig::default()).expect("kcore");
        assert_eq!(survivors(&r.meta), reference::kcore(&g, DEFAULT_K));
    }

    #[test]
    fn survivors_keep_k_surviving_in_neighbors() {
        let g = datasets::dataset("PK").unwrap().build_scaled(9, 5);
        let k = 8;
        let r = run(&g, k, EngineConfig::default()).expect("kcore");
        let alive = survivors(&r.meta);
        for v in 0..g.num_vertices() {
            if alive[v as usize] {
                let surviving = g
                    .in_()
                    .neighbors(v)
                    .iter()
                    .filter(|&&u| alive[u as usize])
                    .count() as u32;
                assert!(
                    surviving >= k,
                    "vertex {v} survives with only {surviving} in-neighbors"
                );
            }
        }
    }

    #[test]
    fn ballot_fires_in_early_iterations_on_social_twin() {
        // "k-Core activates the ballot filter at the initial iterations,
        // i.e., typically the first two iterations" (§4).
        let g = datasets::dataset("LJ").unwrap().build(3);
        let r = run(&g, DEFAULT_K, EngineConfig::default()).expect("kcore");
        use simdx_core::FilterKind;
        assert_eq!(
            r.report.log.records[0].filter,
            FilterKind::Ballot,
            "pattern: {}",
            r.report.log.pattern()
        );
        let tail_ballots = r
            .report
            .log
            .records
            .iter()
            .skip(3)
            .filter(|x| x.filter == FilterKind::Ballot)
            .count();
        assert_eq!(tail_ballots, 0, "pattern: {}", r.report.log.pattern());
    }

    #[test]
    fn low_degree_graph_peels_in_one_iteration() {
        // The RC case in §4: "all its vertices have < 16 neighbors", so
        // everything dies immediately and the run is one iteration.
        let g = datasets::dataset("RC").unwrap().build_scaled(11, 4);
        assert!(g.out().max_degree() < 16);
        let r = run(&g, 16, EngineConfig::default()).expect("kcore");
        assert!(r.report.iterations <= 2);
        assert!(survivors(&r.meta).iter().all(|&s| !s));
    }
}
