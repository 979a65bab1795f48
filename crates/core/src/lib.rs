//! SIMD-X core: the ACC programming model, just-in-time task management
//! and push-pull based kernel fusion over the simulated GPU.
//!
//! The crate mirrors the paper's architecture diagram (Fig. 3):
//!
//! ```text
//!          BFS  BP  k-Core  PageRank  SpMV  SSSP   (simdx-algos)
//!        ┌──────────────────────────────────────┐
//!        │        ACC programming model          │  acc
//!        ├──────────────────┬───────────────────┤
//!        │ Just-in-time     │ Push-pull based   │  jit, filters /
//!        │ task management  │ kernel fusion     │  fusion
//!        │ online + ballot  │ deadlock-free     │
//!        │ filters, JIT ctl │ global barrier    │
//!        └──────────────────┴───────────────────┘
//!                      GPU (simdx-gpu)
//! ```
//!
//! # Public modules
//!
//! A program is written against [`acc`] and run through [`session`],
//! configured by [`config`] and [`supervise`], served by [`service`]
//! and persisted by [`checkpoint`] / [`persist`]; what comes back is
//! [`metrics`] and [`error`]. [`jit`] exports the per-iteration
//! record an observer sees and [`fusion`] the register model the
//! Table 2 bin prints. The task-management internals — worklists,
//! thread bins, the changed set (`frontier`), the online and ballot
//! filters (`filters`) and the atomic facade (`sync`) — are private.
//!
//! Three modules stay public for callers that import them by path:
//! [`par`] for `WorkerPool::{new, run}` (the benchmark's empty-epoch
//! probe), [`jit`] for the `IterationRecord` path and [`persist`] for
//! `encode` / `decode` and `DurableCheckpoint`, which the benchmark's
//! codec probe times.
//!
//! # Example: a session serving repeated queries
//!
//! The public surface is the session API ([`session`]): a long-lived
//! [`Runtime`] owns the worker pools, scratch arenas and validated
//! configuration, [`Runtime::bind`] ties a graph to it, and every
//! query through the run builder reuses those resources — the paper's
//! own design, where task management state persists so per-iteration
//! decisions stay cheap, extended across whole queries.
//!
//! ```
//! use simdx_core::prelude::*;
//! use simdx_graph::{EdgeList, Graph, VertexId, Weight};
//!
//! // A 4-vertex path and a trivial "levels" vote program.
//! #[derive(Clone)]
//! struct Levels {
//!     src: VertexId,
//! }
//! impl AccProgram for Levels {
//!     type Meta = u32;
//!     type Update = u32;
//!     fn name(&self) -> &'static str { "levels" }
//!     fn combine_kind(&self) -> CombineKind { CombineKind::Vote }
//!     fn init(&self, g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
//!         let mut m = vec![u32::MAX; g.num_vertices() as usize];
//!         m[self.src as usize] = 0;
//!         (m, vec![self.src])
//!     }
//!     fn compute(&self, _s: VertexId, _d: VertexId, _w: Weight,
//!                ms: &u32, md: &u32) -> Option<u32> {
//!         (*ms != u32::MAX && *md == u32::MAX).then(|| ms + 1)
//!     }
//!     fn combine(&self, a: u32, b: u32) -> u32 { a.min(b) }
//!     fn apply(&self, _v: VertexId, c: &u32, u: u32) -> Option<u32> {
//!         (u < *c).then_some(u)
//!     }
//! }
//! impl SourcedProgram for Levels {
//!     fn with_source(mut self, src: VertexId) -> Self {
//!         self.src = src;
//!         self
//!     }
//! }
//!
//! let g = Graph::directed_from_edges(
//!     EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 3)]));
//!
//! // One runtime, one bind — then as many queries as you like,
//! // amortizing the pool and the scratch arenas.
//! let runtime = Runtime::new(EngineConfig::unscaled())?;
//! let bound = runtime.bind(&g);
//! let result = bound.run(Levels { src: 0 }).execute()?;
//! assert_eq!(result.meta, vec![0, 1, 2, 3]);
//!
//! // Batched queries: one report per seed, shared scratch.
//! let batch = bound.run_batch(Levels { src: 0 }, &[0, 1, 2])?;
//! assert_eq!(batch[2].meta, vec![u32::MAX, u32::MAX, 0, 1]);
//! # Ok::<(), SimdxError>(())
//! ```

// A function that needs eight arguments wants a context struct, as the
// engine's `Kernel` is. Under clippy, `forbid` also rejects a local
// `allow` (E0453); plain `rustc` does not check clippy's lints.
#![forbid(clippy::too_many_arguments)]

pub mod acc;
pub mod checkpoint;
pub mod config;
mod engine;
pub mod error;
mod filters;
mod frontier;
pub mod fusion;
pub mod jit;
pub mod metrics;
pub mod par;
pub mod persist;
// Only the interleaving harness reaches the pools (re-exported below,
// `--features model`); in every other build they stay private.
#[cfg_attr(not(feature = "model"), allow(unreachable_pub))]
mod pool;
mod scratch;
pub mod service;
pub mod session;
pub mod supervise;
// Public only to the interleaving harness, which reads the atomic
// operation counter of the instrumented facade.
#[cfg(feature = "model")]
pub mod sync;
#[cfg(not(feature = "model"))]
mod sync;

// The deterministic interleaving harness (`tests/model_interleave.rs`
// at the workspace root, `--features model`) drives the internal pools
// and the service breaker through explicitly enumerated schedules.
#[cfg(feature = "model")]
pub use pool::{PoolLease, PoolStash, MAX_IDLE_POOLS};
#[cfg(feature = "model")]
pub use service::Breaker;

pub use acc::{AccProgram, CombineKind, DirectionCtx, SourcedProgram};
pub use checkpoint::{RunAborted, RunCheckpoint};
pub use config::{DirectionPolicy, EngineConfig, ExecMode, FilterPolicy};
pub use error::SimdxError;
pub use filters::FilterKind;
pub use fusion::FusionStrategy;
pub use jit::{ActivationLog, IterationRecord};
pub use metrics::{RunReport, RunResult};
pub use par::WorkerPanic;
pub use persist::{CheckpointStore, DirStore, DurableCheckpoint, PersistMeta};
pub use service::{
    AdmissionPolicy, CloseMode, DurabilityPolicy, QueryClient, QueryPool, QueryRequest,
    QueryTicket, RecoveredQuery, RecoveryReport, RetryPolicy, ServeOutcome, ServeReport,
    ServiceConfig,
};
pub use session::{BoundGraph, ResumableRunBuilder, RunBuilder, Runtime};
pub use supervise::{CancelToken, RunProgress};

/// Convenience re-exports for programs and harnesses.
pub mod prelude {
    pub use crate::acc::{AccProgram, CombineKind, DirectionCtx, SourcedProgram};
    pub use crate::checkpoint::{RunAborted, RunCheckpoint};
    pub use crate::config::{DirectionPolicy, EngineConfig, ExecMode, FilterPolicy};
    pub use crate::error::SimdxError;
    pub use crate::fusion::FusionStrategy;
    pub use crate::jit::IterationRecord;
    pub use crate::metrics::{RunReport, RunResult};
    pub use crate::persist::{CheckpointStore, DirStore, DurableCheckpoint, PersistMeta};
    pub use crate::service::{
        AdmissionPolicy, CloseMode, DurabilityPolicy, QueryPool, QueryRequest, RecoveryReport,
        RetryPolicy, ServeReport, ServiceConfig,
    };
    pub use crate::session::{BoundGraph, ResumableRunBuilder, RunBuilder, Runtime};
    pub use crate::supervise::{CancelToken, RunProgress};
}
