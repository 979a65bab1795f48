//! Frontier filters: SIMD-X's online and ballot filters (§4).
//!
//! | Filter | Produces | Cost shape | Weakness |
//! |---|---|---|---|
//! | [`online`] | unsorted, possibly redundant list | ∝ recorded actives | bounded bins overflow on big frontiers |
//! | [`ballot`] | sorted, duplicate-free list | ∝ `V/32` coalesced scan | scan dominates when frontiers are tiny |
//!
//! Every function both performs the real data movement (so results are
//! exact) and charges the corresponding simulated cost through the
//! [`GpuExecutor`](simdx_gpu::GpuExecutor).

pub(crate) mod ballot;
pub(crate) mod online;

/// Which filter generated an iteration's worklist (Fig. 8's legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// Online filter (thread bins).
    Online,
    /// Ballot filter (metadata scan).
    Ballot,
}

impl std::fmt::Display for FilterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Online => write!(f, "online"),
            Self::Ballot => write!(f, "ballot"),
        }
    }
}
