//! The Active-Compute-Combine (ACC) programming model (§3).
//!
//! ACC asks a program for three data-parallel functions:
//!
//! * **Active** — the condition deciding whether a vertex is active,
//!   evaluated over its current and previous metadata (`∃v ← active(Mv, v)`);
//! * **Compute** — the computation on one edge
//!   (`update_{v→u} ← compute(Mv, M(v,u), Mu)`);
//! * **Combine** — merging updates with a commutative, associative `⊕`
//!   (`update_u ← ⊕_{v∈Nbr[u]} update_{v→u}`).
//!
//! The engine schedules these over Thread/Warp/CTA kernels and applies
//! the combined result with a single non-atomic write per vertex, which
//! is the model's key difference from Gunrock's atomic-update approach
//! (Fig. 5).

use simdx_graph::csr::Direction;
use simdx_graph::{Graph, VertexId, Weight};

/// The two classes of Combine operators SIMD-X optimizes (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CombineKind {
    /// Every update is needed (sum, min over distinct values): PageRank,
    /// SSSP, k-Core. Overwrites cannot be tolerated.
    Aggregation,
    /// All updates are identical, any single one suffices: BFS, WCC,
    /// SCC. Enables collaborative early termination.
    Vote,
}

/// Context handed to [`AccProgram::direction`] so programs can request
/// push/pull switches (§5's "push in the first and last iterations, pull
/// in between" patterns are expressed through this hook).
#[derive(Clone, Copy, Debug)]
pub struct DirectionCtx {
    /// Zero-based iteration index about to run.
    pub iteration: u32,
    /// Number of entries in the active worklists.
    pub frontier_len: u64,
    /// Sum of scan-direction degrees over the frontier (the workload
    /// volume the Beamer-style direction heuristic uses).
    pub frontier_degree_sum: u64,
    /// Total vertices in the graph.
    pub num_vertices: u64,
    /// Total directed edges in the graph.
    pub num_edges: u64,
    /// Direction used by the previous iteration.
    pub previous: Direction,
}

/// A graph algorithm expressed in the ACC model.
///
/// Implementations provide pure per-vertex/per-edge logic; all
/// scheduling, filtering and fusion decisions belong to the engine.
/// `Meta` is the per-vertex algorithmic metadata (the "distance array"
/// of Fig. 1), kept in current/previous pairs so `active` can compare
/// across iterations.
///
/// Programs must be `Sync`: the engine's parallel host backend
/// ([`crate::config::ExecMode::Parallel`]) shares the program across
/// its worker threads. ACC functions are pure per-vertex/per-edge logic
/// over immutable `&self`, so this holds structurally for every
/// implementation.
pub trait AccProgram: Sync {
    /// Per-vertex metadata.
    type Meta: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static;
    /// The value produced by `compute` on one edge and folded by
    /// `combine`.
    type Update: Copy + std::fmt::Debug + Send + Sync + 'static;

    /// Short algorithm name for reports ("bfs", "sssp", ...).
    fn name(&self) -> &'static str;

    /// Which Combine class this program uses.
    fn combine_kind(&self) -> CombineKind;

    /// Produces the initial metadata array and initial frontier
    /// (Fig. 4(a) `Init`).
    fn init(&self, graph: &Graph) -> (Vec<Self::Meta>, Vec<VertexId>);

    /// The Active condition: is `v` active given its current and
    /// previous-iteration metadata? (Fig. 4(a): `metadata_curr[v] !=
    /// metadata_prev[v]` for SSSP.)
    fn active(&self, v: VertexId, curr: &Self::Meta, prev: &Self::Meta) -> bool {
        let _ = v;
        curr != prev
    }

    /// The Compute function on edge `(src, dst)` with weight `w`.
    /// Returns `None` when the edge produces no useful update — this is
    /// how BFS skips already-visited destinations (collaborative early
    /// termination) and k-Core stops decrementing dead vertices.
    fn compute(
        &self,
        src: VertexId,
        dst: VertexId,
        w: Weight,
        m_src: &Self::Meta,
        m_dst: &Self::Meta,
    ) -> Option<Self::Update>;

    /// The Combine operator `⊕`. Must be commutative and associative;
    /// the warp-level reduction pairs operands in hardware order.
    fn combine(&self, a: Self::Update, b: Self::Update) -> Self::Update;

    /// Applies a combined update to `v`'s metadata. Returns the new
    /// metadata if the vertex actually changed, `None` otherwise; the
    /// engine uses the change signal to feed the online filter.
    fn apply(&self, v: VertexId, current: &Self::Meta, update: Self::Update) -> Option<Self::Meta>;

    /// Whether an applied change activates `v` for the next iteration
    /// (i.e. gets recorded by the online filter). Defaults to `true`.
    /// k-Core overrides this: a degree decrement updates metadata but
    /// only an actual deletion activates the vertex — the optimization
    /// §7.1 credits for "reducing tremendous unnecessary updates".
    /// Must agree with [`Self::active`], which the ballot filter uses.
    fn activates(&self, v: VertexId, new_meta: &Self::Meta) -> bool {
        let _ = (v, new_meta);
        true
    }

    /// Pull-mode candidate predicate: should `v` be recomputed when the
    /// engine gathers? Defaults to every vertex; BFS restricts this to
    /// unvisited vertices, k-Core to still-alive ones.
    fn pull_candidate(&self, v: VertexId, meta: &Self::Meta) -> bool {
        let _ = (v, meta);
        true
    }

    /// Optional direction override. Returning `None` delegates to the
    /// engine's frontier-volume heuristic.
    fn direction(&self, ctx: &DirectionCtx) -> Option<Direction> {
        let _ = ctx;
        None
    }

    /// Extra convergence condition checked when the frontier is empty
    /// *or* each iteration for always-active algorithms (PageRank's rank
    /// stability, BP's residual). Returning `true` stops the run even
    /// with a non-empty frontier.
    fn converged(&self, iteration: u32, frontier_len: u64, meta: &[Self::Meta]) -> bool {
        let _ = (iteration, frontier_len, meta);
        false
    }
}

/// Delegating impl so borrowed programs run anywhere an owned program
/// does — the session API's run builder takes the program by value, and
/// this lets callers hand in `&program` instead of cloning. Every
/// method delegates explicitly: relying on the trait defaults here
/// would silently drop a concrete program's overrides (`activates`,
/// `pull_candidate`, ...).
impl<P: AccProgram + ?Sized> AccProgram for &P {
    type Meta = P::Meta;
    type Update = P::Update;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn combine_kind(&self) -> CombineKind {
        (**self).combine_kind()
    }

    fn init(&self, graph: &Graph) -> (Vec<Self::Meta>, Vec<VertexId>) {
        (**self).init(graph)
    }

    fn active(&self, v: VertexId, curr: &Self::Meta, prev: &Self::Meta) -> bool {
        (**self).active(v, curr, prev)
    }

    fn compute(
        &self,
        src: VertexId,
        dst: VertexId,
        w: Weight,
        m_src: &Self::Meta,
        m_dst: &Self::Meta,
    ) -> Option<Self::Update> {
        (**self).compute(src, dst, w, m_src, m_dst)
    }

    fn combine(&self, a: Self::Update, b: Self::Update) -> Self::Update {
        (**self).combine(a, b)
    }

    fn apply(&self, v: VertexId, current: &Self::Meta, update: Self::Update) -> Option<Self::Meta> {
        (**self).apply(v, current, update)
    }

    fn activates(&self, v: VertexId, new_meta: &Self::Meta) -> bool {
        (**self).activates(v, new_meta)
    }

    fn pull_candidate(&self, v: VertexId, meta: &Self::Meta) -> bool {
        (**self).pull_candidate(v, meta)
    }

    fn direction(&self, ctx: &DirectionCtx) -> Option<Direction> {
        (**self).direction(ctx)
    }

    fn converged(&self, iteration: u32, frontier_len: u64, meta: &[Self::Meta]) -> bool {
        (**self).converged(iteration, frontier_len, meta)
    }
}

/// A program whose query is parameterized by a single seed vertex —
/// BFS levels from a root, SSSP distances from a source. The session
/// API uses this for [`crate::session::RunBuilder::source`] and the
/// batched [`crate::session::BoundGraph::run_batch`] entry point, which
/// re-roots one prototype program per query seed.
pub trait SourcedProgram: AccProgram + Clone {
    /// The same program re-rooted at `src`.
    fn with_source(self, src: VertexId) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_graph::EdgeList;

    /// A minimal aggregation program (integer min-plus) for trait-level
    /// tests.
    struct MinPlus;

    impl AccProgram for MinPlus {
        type Meta = u32;
        type Update = u32;

        fn name(&self) -> &'static str {
            "min-plus"
        }

        fn combine_kind(&self) -> CombineKind {
            CombineKind::Aggregation
        }

        fn init(&self, graph: &Graph) -> (Vec<u32>, Vec<VertexId>) {
            let mut meta = vec![u32::MAX; graph.num_vertices() as usize];
            meta[0] = 0;
            (meta, vec![0])
        }

        fn compute(
            &self,
            _src: VertexId,
            _dst: VertexId,
            w: Weight,
            m_src: &u32,
            m_dst: &u32,
        ) -> Option<u32> {
            let cand = m_src.checked_add(w)?;
            (cand < *m_dst).then_some(cand)
        }

        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }

        fn apply(&self, _v: VertexId, current: &u32, update: u32) -> Option<u32> {
            (update < *current).then_some(update)
        }
    }

    fn graph() -> Graph {
        Graph::directed_from_edges(EdgeList::from_pairs(vec![(0, 1), (1, 2)]))
    }

    #[test]
    fn default_active_compares_metadata() {
        let p = MinPlus;
        assert!(p.active(3, &1, &2));
        assert!(!p.active(3, &5, &5));
    }

    #[test]
    fn init_seeds_source() {
        let (meta, frontier) = MinPlus.init(&graph());
        assert_eq!(meta[0], 0);
        assert_eq!(meta[1], u32::MAX);
        assert_eq!(frontier, vec![0]);
    }

    #[test]
    fn compute_skips_non_improving() {
        let p = MinPlus;
        assert_eq!(p.compute(0, 1, 5, &10, &20), Some(15));
        assert_eq!(p.compute(0, 1, 5, &10, &12), None);
        // Overflow-safe: an unreached source yields no update.
        assert_eq!(p.compute(0, 1, 5, &u32::MAX, &1), None);
    }

    #[test]
    fn apply_reports_change() {
        let p = MinPlus;
        assert_eq!(p.apply(0, &10, 4), Some(4));
        assert_eq!(p.apply(0, &4, 10), None);
    }
}
