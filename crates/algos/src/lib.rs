//! Graph algorithms expressed in the ACC programming model, plus the
//! sequential reference implementations that validate them.
//!
//! The paper's §6 algorithms — BFS, SSSP, PageRank, k-Core and Belief
//! Propagation — each fit in tens of lines of `AccProgram`
//! implementation, reproducing the "around 100 lines of C++ code"
//! programmability claim (§7). Connected components ([`wcc`], the
//! voting-class example of §3.2) and SpMV (from Fig. 3) round out the
//! set.
//!
//! # Quick example
//!
//! One-shot helpers (`bfs::run`, `sssp::run`, ...) cover single
//! queries; repeated queries should go through the session API
//! (`simdx_core::session::Runtime`) or the `run_batch` helpers, which
//! amortize the engine's pool and scratch across a whole seed batch.
//!
//! ```
//! use simdx_algos::{bfs, reference, Bfs};
//! use simdx_core::{EngineConfig, Runtime};
//!
//! use simdx_graph::{EdgeList, Graph};
//!
//! let g = Graph::undirected_from_edges(
//!     EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 3)]));
//! let result = bfs::run(&g, 0, EngineConfig::unscaled()).unwrap();
//! assert_eq!(result.meta, reference::bfs(g.out(), 0));
//!
//! // Amortized multi-source form: one bound session, three queries.
//! let runtime = Runtime::new(EngineConfig::unscaled()).unwrap();
//! let batch = runtime
//!     .bind(&g)
//!     .run_batch(Bfs::new(0), &[0, 1, 2])
//!     .unwrap();
//! assert_eq!(batch[0].meta, result.meta);
//! ```

#![forbid(unsafe_code)]

pub mod bfs;
pub mod bp;
pub mod kcore;
pub mod pagerank;
pub mod reference;
pub mod spmv;
pub mod sssp;
pub mod wcc;

pub use bfs::Bfs;
pub use kcore::KCore;
pub use pagerank::PageRank;
pub use sssp::Sssp;
pub use wcc::Wcc;
