//! Typed ingestion errors.
//!
//! Graph construction historically policed its invariants with
//! `assert!` — fine for generator-produced inputs, fatal for a service
//! ingesting untrusted data. Every invariant now has a [`GraphError`]
//! variant and a fallible constructor (`Csr::try_build`,
//! `EdgeList::try_push`, ...); the legacy panicking entry points
//! delegate to them and panic with the error's `Display`, preserving
//! their historical messages.

use crate::VertexId;

/// A structural invariant violated while building a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A weights vector is not parallel to the edges it annotates.
    WeightsLengthMismatch {
        /// Number of weights supplied.
        weights: usize,
        /// Number of edges they should annotate.
        edges: usize,
    },
    /// An unweighted edge was appended to a weighted edge list.
    WeightedPush,
    /// A weighted edge was appended to a list with unweighted edges.
    UnweightedPush,
    /// An edge endpoint is outside `0..num_vertices`.
    EndpointOutOfRange {
        /// The offending edge's source.
        src: VertexId,
        /// The offending edge's destination.
        dst: VertexId,
        /// Vertex count of the list or CSR under construction.
        num_vertices: VertexId,
    },
}

impl GraphError {
    /// [`Self::EndpointOutOfRange`] naming the pair `(src, dst)`.
    pub(crate) fn out_of_range((src, dst): (VertexId, VertexId), num_vertices: VertexId) -> Self {
        Self::EndpointOutOfRange {
            src,
            dst,
            num_vertices,
        }
    }
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WeightsLengthMismatch { weights, edges } => write!(
                f,
                "weights must be parallel to edges ({weights} weights, {edges} edges)"
            ),
            Self::WeightedPush => write!(f, "edge list is weighted; use push_weighted"),
            Self::UnweightedPush => write!(f, "edge list already has unweighted edges"),
            Self::EndpointOutOfRange {
                src,
                dst,
                num_vertices,
            } => write!(
                f,
                "edge ({src}, {dst}) outside a graph with {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_the_legacy_assert_phrases() {
        // Panicking wrappers format these errors, so `#[should_panic
        // (expected = ...)]` call sites keep matching.
        assert!(GraphError::WeightsLengthMismatch {
            weights: 2,
            edges: 3
        }
        .to_string()
        .contains("weights must be parallel to edges"));
        assert_eq!(
            GraphError::WeightedPush.to_string(),
            "edge list is weighted; use push_weighted"
        );
        assert_eq!(
            GraphError::UnweightedPush.to_string(),
            "edge list already has unweighted edges"
        );
    }
}
