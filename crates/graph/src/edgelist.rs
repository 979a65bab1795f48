//! Edge-list representation and normalization.
//!
//! The edge list is the ingestion format: generators emit edge lists and
//! the CSR builder consumes them. CuSha-style baselines also compute on
//! edge lists directly, which is why the paper notes the format "doubles
//! the memory consumption" relative to CSR (§3.1, §7.1) — we model that
//! in the baselines crate from the sizes reported here.

use crate::error::GraphError;
use crate::{VertexId, Weight};

/// The vertex count raw pairs imply: one past the largest endpoint,
/// saturating — `VertexId::MAX` itself then lies outside the graph and
/// the CSR build rejects it with a typed error.
pub(crate) fn vertex_span(edges: &[(VertexId, VertexId)]) -> VertexId {
    edges
        .iter()
        .map(|&(s, d)| s.max(d).saturating_add(1))
        .max()
        .unwrap_or(0)
}

/// A list of directed edges, optionally weighted.
///
/// Invariant: if `weights` is `Some`, it has exactly one entry per edge.
///
/// [`Graph::directed_from_edges`](crate::Graph::directed_from_edges)
/// takes the list by value and, when it is presorted, adopts its
/// weights vector instead of copying it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices (IDs are in `0..num_vertices`).
    num_vertices: VertexId,
    /// `(source, destination)` pairs.
    edges: Vec<(VertexId, VertexId)>,
    /// Optional per-edge weights, parallel to `edges`.
    weights: Option<Vec<Weight>>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: VertexId) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            weights: None,
        }
    }

    /// Creates an edge list from raw pairs, inferring the vertex count
    /// from the largest endpoint.
    pub fn from_pairs(edges: Vec<(VertexId, VertexId)>) -> Self {
        Self {
            num_vertices: vertex_span(&edges),
            edges,
            weights: None,
        }
    }

    /// Creates a weighted edge list from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != edges.len()`.
    pub fn from_weighted(
        num_vertices: VertexId,
        edges: Vec<(VertexId, VertexId)>,
        weights: Vec<Weight>,
    ) -> Self {
        Self::try_from_weighted(num_vertices, edges, weights).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible [`Self::from_weighted`]: a skewed weights vector comes
    /// back as [`GraphError::WeightsLengthMismatch`].
    pub(crate) fn try_from_weighted(
        num_vertices: VertexId,
        edges: Vec<(VertexId, VertexId)>,
        weights: Vec<Weight>,
    ) -> Result<Self, GraphError> {
        if edges.len() != weights.len() {
            return Err(GraphError::WeightsLengthMismatch {
                weights: weights.len(),
                edges: edges.len(),
            });
        }
        Ok(Self {
            num_vertices,
            edges,
            weights: Some(weights),
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    /// Number of directed edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the list carries weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The edge pairs.
    pub(crate) fn edges(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// The weights, if present.
    pub(crate) fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// The vertex count, pairs and weights, by value: a directed build
    /// of a presorted list adopts the weights vector as its own.
    pub(crate) fn into_parts(self) -> (VertexId, Vec<(VertexId, VertexId)>, Option<Vec<Weight>>) {
        (self.num_vertices, self.edges, self.weights)
    }

    /// Appends an unweighted edge.
    ///
    /// # Panics
    ///
    /// Panics if the list is weighted (mixing weighted and unweighted
    /// edges would break the parallel-vector invariant) or if an endpoint
    /// is out of range.
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        self.try_push(src, dst)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible [`Self::push`]: mixing weightedness or an out-of-range
    /// endpoint is a typed [`GraphError`], and the list is left
    /// unmodified on error.
    pub(crate) fn try_push(&mut self, src: VertexId, dst: VertexId) -> Result<(), GraphError> {
        if self.weights.is_some() {
            return Err(GraphError::WeightedPush);
        }
        self.check_endpoints(src, dst)?;
        self.edges.push((src, dst));
        Ok(())
    }

    /// Appends a weighted edge.
    ///
    /// # Panics
    ///
    /// Panics if previous edges were pushed unweighted, or on an
    /// out-of-range endpoint.
    pub fn push_weighted(&mut self, src: VertexId, dst: VertexId, w: Weight) {
        self.try_push_weighted(src, dst, w)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible [`Self::push_weighted`]; the list is left unmodified
    /// on error.
    pub(crate) fn try_push_weighted(
        &mut self,
        src: VertexId,
        dst: VertexId,
        w: Weight,
    ) -> Result<(), GraphError> {
        self.check_endpoints(src, dst)?;
        if self.weights.is_none() {
            if !self.edges.is_empty() {
                return Err(GraphError::UnweightedPush);
            }
            self.weights = Some(Vec::new());
        }
        self.edges.push((src, dst));
        self.weights
            .as_mut()
            .expect("weights vector was just ensured")
            .push(w);
        Ok(())
    }

    fn check_endpoints(&self, src: VertexId, dst: VertexId) -> Result<(), GraphError> {
        if src >= self.num_vertices || dst >= self.num_vertices {
            return Err(GraphError::out_of_range((src, dst), self.num_vertices));
        }
        Ok(())
    }

    /// Removes self-loops and collapses duplicate `(src, dst)` pairs to
    /// one edge each, leaving the list sorted by `(src, dst)`. Returns
    /// the number of edges removed.
    ///
    /// For weighted lists the duplicate with the *smallest weight*
    /// survives (not the first in input order), so SSSP results are
    /// unaffected by duplicate-collapsing.
    pub fn dedup(&mut self) -> usize {
        let before = self.edges.len();
        match self.weights.take() {
            None => {
                self.edges.retain(|&(s, d)| s != d);
                self.edges.sort_unstable();
                self.edges.dedup();
            }
            Some(w) => {
                let mut combined: Vec<((VertexId, VertexId), Weight)> = self
                    .edges
                    .iter()
                    .copied()
                    .zip(w)
                    .filter(|&((s, d), _)| s != d)
                    .collect();
                // Sort by endpoint then weight so dedup keeps the minimum weight.
                combined.sort_unstable();
                combined.dedup_by_key(|&mut (e, _)| e);
                self.edges = combined.iter().map(|&(e, _)| e).collect();
                self.weights = Some(combined.into_iter().map(|(_, w)| w).collect());
            }
        }
        before - self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_infers_vertex_count() {
        let el = EdgeList::from_pairs(vec![(0, 3), (2, 1)]);
        assert_eq!(el.num_vertices(), 4);
        assert_eq!(el.num_edges(), 2);
        assert!(!el.is_weighted());
    }

    #[test]
    fn empty_list() {
        let el = EdgeList::from_pairs(vec![]);
        assert_eq!(el.num_vertices(), 0);
        assert_eq!(el.num_edges(), 0);
    }

    #[test]
    fn push_and_push_weighted() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        assert_eq!(el.num_edges(), 2);

        let mut wl = EdgeList::new(4);
        wl.push_weighted(0, 1, 10);
        wl.push_weighted(1, 2, 20);
        assert_eq!(wl.weights(), Some(&[10, 20][..]));
    }

    #[test]
    #[should_panic(expected = "edge list is weighted")]
    fn mixing_weighted_then_unweighted_panics() {
        let mut el = EdgeList::new(2);
        el.push_weighted(0, 1, 1);
        el.push(1, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_panics() {
        let mut el = EdgeList::new(2);
        el.push(0, 2);
    }

    #[test]
    fn dedup_removes_self_loops_and_duplicates() {
        let mut el = EdgeList::from_pairs(vec![(0, 1), (1, 1), (0, 1), (1, 0)]);
        let removed = el.dedup();
        assert_eq!(removed, 2);
        assert_eq!(el.edges(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn dedup_weighted_keeps_min_weight() {
        let mut el =
            EdgeList::from_weighted(3, vec![(0, 1), (0, 1), (2, 2), (1, 2)], vec![9, 3, 1, 4]);
        let removed = el.dedup();
        assert_eq!(removed, 2);
        assert_eq!(el.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(el.weights(), Some(&[3, 4][..]));
    }

    #[test]
    fn try_push_reports_typed_errors_and_leaves_the_list_intact() {
        let mut el = EdgeList::new(2);
        el.try_push(0, 1).expect("in range");
        assert_eq!(
            el.try_push(0, 2),
            Err(GraphError::EndpointOutOfRange {
                src: 0,
                dst: 2,
                num_vertices: 2
            })
        );
        assert_eq!(
            el.try_push_weighted(0, 1, 7),
            Err(GraphError::UnweightedPush)
        );
        assert_eq!(el.num_edges(), 1, "failed pushes must not append");

        let mut wl = EdgeList::new(2);
        wl.try_push_weighted(0, 1, 7).expect("first weighted");
        assert_eq!(wl.try_push(1, 0), Err(GraphError::WeightedPush));
        assert_eq!(wl.weights(), Some(&[7][..]));

        assert_eq!(
            EdgeList::try_from_weighted(3, vec![(0, 1)], vec![1, 2]),
            Err(GraphError::WeightsLengthMismatch {
                weights: 2,
                edges: 1
            })
        );
    }
}
