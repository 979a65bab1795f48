//! Breadth-first search in the ACC model (§6).
//!
//! BFS "traverses a graph level by level... relies on vote to combine
//! the updates". The metadata is the level array; the Active condition
//! is the default changed-metadata test; Compute emits `level + 1` for
//! unvisited destinations only — which is both the frontier dedup and
//! the collaborative-early-termination hook (in pull mode the engine
//! stops scanning a vertex's in-edges at the first visited parent).

use simdx_core::acc::{AccProgram, CombineKind, SourcedProgram};
use simdx_core::{EngineConfig, RunResult, Runtime, SimdxError};
use simdx_graph::{Graph, VertexId, Weight};

/// Level metadata for unvisited vertices.
pub(crate) const UNVISITED: u32 = u32::MAX;

/// BFS from a source vertex.
#[derive(Clone, Copy, Debug)]
pub struct Bfs {
    /// Source vertex.
    pub(crate) src: VertexId,
}

impl Bfs {
    /// Creates a BFS program rooted at `src`.
    pub fn new(src: VertexId) -> Self {
        Self { src }
    }
}

impl AccProgram for Bfs {
    type Meta = u32;
    type Update = u32;

    fn name(&self) -> &'static str {
        "bfs"
    }

    fn combine_kind(&self) -> CombineKind {
        CombineKind::Vote
    }

    fn init(&self, graph: &Graph) -> (Vec<u32>, Vec<VertexId>) {
        let mut meta = vec![UNVISITED; graph.num_vertices() as usize];
        meta[self.src as usize] = 0;
        (meta, vec![self.src])
    }

    fn compute(
        &self,
        _src: VertexId,
        _dst: VertexId,
        _w: Weight,
        m_src: &u32,
        m_dst: &u32,
    ) -> Option<u32> {
        if *m_src == UNVISITED || *m_dst != UNVISITED {
            return None;
        }
        Some(m_src + 1)
    }

    fn combine(&self, a: u32, b: u32) -> u32 {
        // Vote: all updates in one iteration carry the same level; min
        // is the natural idempotent choice.
        a.min(b)
    }

    fn apply(&self, _v: VertexId, current: &u32, update: u32) -> Option<u32> {
        (update < *current).then_some(update)
    }

    fn pull_candidate(&self, _v: VertexId, meta: &u32) -> bool {
        *meta == UNVISITED
    }
}

impl SourcedProgram for Bfs {
    fn with_source(mut self, src: VertexId) -> Self {
        self.src = src;
        self
    }
}

/// Runs BFS and returns levels plus the run report.
///
/// One-shot convenience over the session API; services running many
/// BFS queries should hold a [`Runtime`], bind the graph once and use
/// the run builder (or [`run_batch`]) to amortize setup.
pub fn run(
    graph: &Graph,
    src: VertexId,
    config: EngineConfig,
) -> Result<RunResult<u32>, SimdxError> {
    let runtime = Runtime::new(config)?;
    // `.source()` (not `Bfs::new(src)` directly) so an out-of-range
    // source is a typed InvalidQuery, like the batch path.
    runtime.bind(graph).run(Bfs::new(0)).source(src).execute()
}

/// Runs BFS from every source over one bound session — one result per
/// source, every allocation and the worker pool reused across queries.
pub fn run_batch(
    graph: &Graph,
    sources: &[VertexId],
    config: EngineConfig,
) -> Result<Vec<RunResult<u32>>, SimdxError> {
    let runtime = Runtime::new(config)?;
    runtime.bind(graph).run_batch(Bfs::new(0), sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use simdx_graph::{datasets, EdgeList};

    #[test]
    fn matches_reference_on_diamond() {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(vec![
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
        ]));
        let r = run(&g, 0, EngineConfig::unscaled()).expect("bfs");
        assert_eq!(r.meta, reference::bfs(g.out(), 0));
    }

    #[test]
    fn matches_reference_on_dataset_twin() {
        let g = datasets::dataset("PK").unwrap().build_scaled(3, 5);
        let src = datasets::default_source(g.out());
        let r = run(&g, src, EngineConfig::default()).expect("bfs");
        assert_eq!(r.meta, reference::bfs(g.out(), src));
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        use simdx_core::SimdxError;
        let g = Graph::directed_from_edges(EdgeList::from_pairs(vec![(0, 1)]));
        let err = run(&g, 99, EngineConfig::unscaled()).expect_err("oob source");
        assert!(matches!(err, SimdxError::InvalidQuery { .. }));
    }

    #[test]
    fn unreachable_stays_unvisited() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        let g = Graph::directed_from_edges(el);
        let r = run(&g, 0, EngineConfig::unscaled()).expect("bfs");
        assert_eq!(r.meta, vec![0, 1, UNVISITED]);
    }

    #[test]
    fn road_twin_uses_online_filter_throughout() {
        // High-diameter graphs never overflow the bins — the Fig. 8
        // ER/RC pattern.
        let g = datasets::dataset("RC").unwrap().build_scaled(1, 2);
        let src = datasets::default_source(g.out());
        let r = run(&g, src, EngineConfig::default()).expect("bfs");
        assert!(r.report.iterations > 50, "road twin should be deep");
        assert_eq!(r.report.ballot_iterations(), 0, "no overflow expected");
    }

    #[test]
    fn social_twin_overflows_into_ballot_mid_run() {
        // Power-law twins have a bulging middle frontier — JIT must
        // switch to ballot there and back (Fig. 8 BFS rows).
        let g = datasets::dataset("LJ").unwrap().build_scaled(2, 2);
        let src = datasets::default_source(g.out());
        // The twin is shrunk 4x below dataset scale; shrink the device
        // by the same factor so bin capacity tracks frontier volume.
        let cfg = EngineConfig {
            parallelism_scale: 64 * 4,
            ..EngineConfig::default()
        };
        let r = run(&g, src, cfg).expect("bfs");
        assert!(
            r.report.ballot_iterations() > 0,
            "social twin should overflow: pattern {}",
            r.report.log.pattern()
        );
        assert!(
            r.report.log.online_iterations() > 0,
            "start/end should stay online: pattern {}",
            r.report.log.pattern()
        );
    }
}
