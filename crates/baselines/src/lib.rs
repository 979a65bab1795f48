//! Baseline graph-processing engines the paper compares against
//! (Table 4, Fig. 5).
//!
//! Two GPU baselines run on the *same* simulated device as SIMD-X so
//! that every measured difference is attributable to the mechanism the
//! paper names:
//!
//! * [`gunrock`] — the Advance-Filter-Compute model: batch-filter
//!   frontier expansion into an explicit edge list, atomic updates at
//!   destinations, one kernel launch per stage per iteration;
//! * [`cusha`] — the edge-centric G-Shards model: coalesced full-edge
//!   sweeps every iteration with no task management, edge-list storage
//!   (double the CSR footprint).
//!
//! Two CPU baselines run on a simulated dual-Xeon host (the paper's
//! evaluation machine):
//!
//! * [`cpu::ligra`] — push/pull frontier BSP with Beamer-style
//!   direction switching;
//! * [`cpu::galois`] — asynchronous priority-ordered worklist
//!   execution.
//!
//! [`feasibility`] encodes the paper-scale out-of-memory and
//! non-convergence rules behind Table 4's blank cells.

#![forbid(unsafe_code)]

mod batch;
pub mod cpu;
pub mod cusha;
pub mod feasibility;
pub mod gunrock;

/// Why a baseline run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// The iteration cap was hit before convergence.
    IterationLimit {
        /// The cap.
        max_iterations: u32,
    },
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::IterationLimit { max_iterations } => {
                write!(f, "did not converge within {max_iterations} iterations")
            }
        }
    }
}

impl std::error::Error for BaselineError {}
