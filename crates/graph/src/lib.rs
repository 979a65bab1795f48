//! Graph substrate for the SIMD-X reproduction.
//!
//! This crate provides everything the engine needs below the programming
//! model: edge-list ingestion (from a generator or the text parser in
//! [`io`]), compressed sparse row (CSR) storage in the push
//! (out-neighbor) and pull (in-neighbor) orientations the paper's engine
//! requires, synthetic graph generators matching the structural
//! classes of the paper's Table 3 datasets, a registry of scaled-down
//! dataset twins, and structural statistics used by the evaluation
//! harness (BFS levels, diameter estimation, degree skew).
//!
//! # Quick example
//!
//! ```
//! use simdx_graph::{datasets, stats};
//!
//! let g = datasets::dataset("RC").expect("known dataset").build(7);
//! assert!(g.num_vertices() > 0);
//! let est = stats::estimate_diameter(g.out(), 4, 0xC0FFEE);
//! assert!(est > 50, "road networks are high-diameter, got {est}");
//! ```

#![forbid(unsafe_code)]

pub mod csr;
pub mod datasets;
pub(crate) mod edgelist;
pub(crate) mod error;
pub mod gen;
pub mod io;
pub mod stats;
pub mod weights;

pub use csr::{Csr, Graph};
pub use edgelist::EdgeList;
pub use error::GraphError;

/// Vertex identifier. The paper uses `uint32` vertex IDs (§7).
pub type VertexId = u32;

/// Edge index type. The paper uses `uint64` indices (§7) so that graphs
/// with more than 4B edges stay addressable.
pub(crate) type EdgeIdx = u64;

/// Integral edge weight, as used by SSSP. The paper generates a random
/// weight per edge for unweighted inputs, "similar to Gunrock" (§6).
pub type Weight = u32;
