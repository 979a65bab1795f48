//! Belief propagation in the ACC model (§6).
//!
//! "BP infers the posterior probability of each event based on the
//! likelihoods and prior probabilities of all related events. Once
//! modeled as a graph, each event becomes a vertex with all incoming
//! vertices and edges as related events and corresponding likelihoods.
//! In BP, vertex possibility is the metadata."
//!
//! We implement the damped, weight-normalized message-passing variant:
//! each round, a vertex's belief becomes
//! `(1-λ)·prior + λ·(Σ w·belief_in) / (Σ w)`, where edge weights play
//! the likelihood role. This is the sum-product update specialized to
//! scalar beliefs — enough to exercise BP's system-level signature:
//! every vertex is active every round (the paper's "BP treats all
//! vertices as active"), aggregation combine, pull direction, ballot
//! filter at the first iteration.

use simdx_core::acc::{AccProgram, CombineKind, DirectionCtx};
use simdx_core::{EngineConfig, RunResult, Runtime, SimdxError};
use simdx_graph::csr::Direction;
use simdx_graph::{Graph, VertexId, Weight};

/// Belief propagation over scalar beliefs.
#[derive(Clone, Debug)]
pub struct BeliefPropagation {
    /// Per-vertex prior probabilities.
    pub(crate) priors: Vec<f32>,
    /// Damping (mixing) factor λ.
    pub(crate) lambda: f32,
    /// Number of message-passing rounds.
    pub(crate) rounds: u32,
}

impl BeliefPropagation {
    /// Creates a BP program with explicit priors.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `(0, 1)`.
    pub(crate) fn new(priors: Vec<f32>, lambda: f32, rounds: u32) -> Self {
        assert!(lambda > 0.0 && lambda < 1.0, "lambda must be in (0, 1)");
        Self {
            priors,
            lambda,
            rounds,
        }
    }

    /// Creates a BP program with deterministic pseudo-random priors —
    /// the common benchmark setup when no real evidence exists.
    pub fn with_random_priors(graph: &Graph, seed: u64, lambda: f32, rounds: u32) -> Self {
        let n = graph.num_vertices() as usize;
        // Simple xorshift-based priors in (0, 1); deterministic per seed.
        let mut state = seed | 1;
        let priors = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000_000) as f32 / 1_000_000.0
            })
            .collect();
        Self::new(priors, lambda, rounds)
    }
}

impl AccProgram for BeliefPropagation {
    type Meta = f32;
    /// `(weighted belief sum, weight sum)` — both halves are needed for
    /// the normalized update, and component-wise addition keeps the
    /// combine commutative and associative.
    type Update = (f32, f32);

    fn name(&self) -> &'static str {
        "bp"
    }

    fn combine_kind(&self) -> CombineKind {
        CombineKind::Aggregation
    }

    fn init(&self, graph: &Graph) -> (Vec<f32>, Vec<VertexId>) {
        let n = graph.num_vertices();
        assert_eq!(
            self.priors.len(),
            n as usize,
            "one prior per vertex required"
        );
        (self.priors.clone(), (0..n).collect())
    }

    fn compute(
        &self,
        _src: VertexId,
        _dst: VertexId,
        w: Weight,
        m_src: &f32,
        _m_dst: &f32,
    ) -> Option<(f32, f32)> {
        let w = w as f32;
        Some((w * m_src, w))
    }

    fn combine(&self, a: (f32, f32), b: (f32, f32)) -> (f32, f32) {
        (a.0 + b.0, a.1 + b.1)
    }

    fn apply(&self, v: VertexId, current: &f32, update: (f32, f32)) -> Option<f32> {
        let (acc, wsum) = update;
        let belief = if wsum > 0.0 {
            (1.0 - self.lambda) * self.priors[v as usize] + self.lambda * acc / wsum
        } else {
            self.priors[v as usize]
        };
        (belief != *current).then_some(belief)
    }

    fn direction(&self, _ctx: &DirectionCtx) -> Option<Direction> {
        Some(Direction::Pull)
    }

    fn converged(&self, iteration: u32, _frontier: u64, _meta: &[f32]) -> bool {
        iteration >= self.rounds
    }
}

/// Runs BP and returns beliefs plus the run report. A prior vector
/// that does not match the graph is a typed
/// [`SimdxError::InvalidQuery`].
pub fn run(
    graph: &Graph,
    program: BeliefPropagation,
    config: EngineConfig,
) -> Result<RunResult<f32>, SimdxError> {
    let n = graph.num_vertices() as usize;
    if program.priors.len() != n {
        return Err(SimdxError::InvalidQuery {
            reason: format!(
                "bp prior vector has {} entries for a graph with {n} vertices",
                program.priors.len()
            ),
        });
    }
    let runtime = Runtime::new(config)?;
    runtime.bind(graph).run(program).execute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use simdx_graph::{datasets, weights, EdgeList};

    fn weighted_graph() -> Graph {
        let el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]);
        Graph::directed_from_edges(weights::assign_default_weights(&el, 7))
    }

    #[test]
    fn matches_reference_rounds() {
        let g = weighted_graph();
        let priors = vec![0.9, 0.1, 0.5, 0.3];
        let r = run(
            &g,
            BeliefPropagation::new(priors.clone(), 0.5, 8),
            EngineConfig::unscaled(),
        )
        .expect("bp");
        let expected = reference::belief_propagation(&g, &priors, 0.5, 8);
        for (i, (a, b)) in r.meta.iter().zip(&expected).enumerate() {
            assert!((a - b).abs() < 1e-5, "belief {i}: {a} vs {b}");
        }
        assert_eq!(r.report.iterations, 8);
    }

    #[test]
    fn beliefs_stay_in_unit_interval() {
        let g = datasets::dataset("PK").unwrap().build_scaled(5, 5);
        let bp = BeliefPropagation::with_random_priors(&g, 42, 0.4, 6);
        let r = run(&g, bp, EngineConfig::default()).expect("bp");
        for &b in &r.meta {
            assert!((0.0..=1.0).contains(&b), "belief out of range: {b}");
        }
    }

    #[test]
    fn isolated_vertex_keeps_prior() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 3);
        let g = Graph::directed_from_edges(el);
        let r = run(
            &g,
            BeliefPropagation::new(vec![0.2, 0.4, 0.8], 0.5, 4),
            EngineConfig::unscaled(),
        )
        .expect("bp");
        assert!((r.meta[2] - 0.8).abs() < 1e-6);
        // Vertex 0 has no in-edges either.
        assert!((r.meta[0] - 0.2).abs() < 1e-6);
    }

    #[test]
    fn all_receiving_vertices_active_first_round() {
        // "BP treats all vertices as active" — the first round's
        // worklist covers every vertex that can receive a message
        // (task management skips in-degree-0 vertices, whose belief is
        // pinned to the prior).
        let g = datasets::dataset("PK").unwrap().build_scaled(5, 5);
        let receiving = (0..g.num_vertices())
            .filter(|&v| g.in_().degree(v) > 0)
            .count() as u64;
        let bp = BeliefPropagation::with_random_priors(&g, 1, 0.4, 3);
        let r = run(&g, bp, EngineConfig::default()).expect("bp");
        assert_eq!(r.report.log.records[0].frontier_len, receiving);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn bad_lambda_rejected() {
        BeliefPropagation::new(vec![0.5], 1.5, 3);
    }
}
