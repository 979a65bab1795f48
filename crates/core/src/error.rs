//! The unified, typed error surface of the engine and session API.
//!
//! Every failure mode a service caller can hit — an inconsistent
//! [`crate::config::EngineConfig`], a malformed query, or a run that
//! aborts inside the engine — is one variant of [`SimdxError`], so
//! callers match on variants instead of catching panics.
//!
//! Supervision aborts ([`SimdxError::Cancelled`],
//! [`SimdxError::DeadlineExceeded`], [`SimdxError::BudgetExhausted`])
//! carry a [`RunProgress`] partial-progress summary; a contained worker
//! panic surfaces as [`SimdxError::WorkerPanicked`] with the worker
//! index and stringified payload. None of these poison the session:
//! the `BoundGraph` stays reusable and the next run is bit-equal to a
//! fresh engine.

use crate::par::WorkerPanic;
use crate::supervise::RunProgress;
use simdx_graph::GraphError;

/// Why a session construction, query setup or engine run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimdxError {
    /// The online-only policy hit a bin overflow: the filter alone
    /// "cannot work for many graphs, particularly large ones" (§7.2).
    OnlineOverflow {
        /// Iteration at which the overflow occurred.
        iteration: u32,
    },
    /// The configured iteration cap was reached before convergence.
    IterationLimit {
        /// The cap that was hit.
        max_iterations: u32,
    },
    /// The engine configuration is internally inconsistent.
    InvalidConfig {
        /// What is wrong with it.
        reason: String,
    },
    /// A query was malformed for the bound graph (out-of-range source,
    /// missing edge weights, mis-sized input vector, ...).
    InvalidQuery {
        /// What is wrong with it.
        reason: String,
    },
    /// The graph failed ingestion validation (see
    /// [`simdx_graph::GraphError`] for the invariant that broke).
    InvalidGraph {
        /// What is wrong with it.
        reason: String,
    },
    /// The run's [`crate::supervise::CancelToken`] was cancelled.
    Cancelled {
        /// Work completed before the abort.
        progress: RunProgress,
    },
    /// The run's wall-clock deadline expired.
    DeadlineExceeded {
        /// Work completed before the abort.
        progress: RunProgress,
    },
    /// The run's simulated-cycle budget was exhausted.
    BudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
        /// Work completed before the abort.
        progress: RunProgress,
    },
    /// An engine worker panicked; the panic was contained, the
    /// poisoned pool discarded (the `Runtime`'s stash spawns a
    /// replacement at the next checkout), and the session remains
    /// usable — concurrent queries hold their own pools and are
    /// unaffected.
    WorkerPanicked {
        /// Index of the worker that panicked (0 is the submitter).
        worker: usize,
        /// The panic payload, stringified.
        payload: String,
    },
    /// A [`crate::service::QueryPool`] submission found the bounded
    /// queue full under
    /// [`crate::service::AdmissionPolicy::Reject`]: the query was
    /// never admitted (no ticket, no partial work) — retry later or
    /// shed the load.
    Overloaded {
        /// The queue capacity that was exhausted
        /// ([`crate::service::ServiceConfig::queue_depth`]).
        capacity: usize,
        /// Queue occupancy observed at rejection. Always equals
        /// `capacity` today (a submission is only rejected when the
        /// queue is full), but carried separately so producers can
        /// implement informed backoff without hard-coding that
        /// equality.
        depth: usize,
    },
    /// The [`crate::service::QueryPool`]'s circuit breaker is open
    /// after too many consecutive worker panics
    /// ([`crate::service::ServiceConfig::breaker_threshold`]): the
    /// submission was shed without being admitted. Unlike
    /// [`Self::Overloaded`] this is not a capacity signal — the
    /// service is refusing work to protect itself while it probes its
    /// way back to health.
    Unavailable {
        /// How long until the breaker half-opens and admits a probe —
        /// the producer's backoff hint.
        retry_after: std::time::Duration,
    },
    /// A durable checkpoint failed integrity validation
    /// ([`crate::persist`]): truncated file, CRC mismatch, bad magic,
    /// schema-version skew or a malformed section. The blob is
    /// diagnosed, never trusted — recovery skips it and reports it
    /// ([`crate::service::RecoveryReport::skipped`]).
    CheckpointCorrupt {
        /// What failed to validate (offset/section detail included).
        reason: String,
    },
    /// A checkpoint-store I/O operation failed
    /// ([`crate::persist::CheckpointStore`]): the underlying
    /// filesystem error, stringified (the error type stays `Clone` +
    /// `Eq`, which `std::io::Error` is not).
    CheckpointIo {
        /// The failed operation and its OS error.
        reason: String,
    },
}

impl From<WorkerPanic> for SimdxError {
    fn from(p: WorkerPanic) -> Self {
        Self::WorkerPanicked {
            worker: p.worker,
            payload: p.payload,
        }
    }
}

impl From<GraphError> for SimdxError {
    fn from(e: GraphError) -> Self {
        Self::InvalidGraph {
            reason: e.to_string(),
        }
    }
}

impl std::fmt::Display for SimdxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OnlineOverflow { iteration } => {
                write!(f, "online filter bin overflow at iteration {iteration}")
            }
            Self::IterationLimit { max_iterations } => {
                write!(f, "did not converge within {max_iterations} iterations")
            }
            Self::InvalidConfig { reason } => write!(f, "invalid engine config: {reason}"),
            Self::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            Self::InvalidGraph { reason } => write!(f, "invalid graph: {reason}"),
            Self::Cancelled { progress } => write!(
                f,
                "run cancelled after {} iterations ({} edges examined, {:?} elapsed)",
                progress.iterations, progress.edges_examined, progress.elapsed
            ),
            Self::DeadlineExceeded { progress } => write!(
                f,
                "deadline exceeded after {} iterations ({} edges examined, {:?} elapsed)",
                progress.iterations, progress.edges_examined, progress.elapsed
            ),
            Self::BudgetExhausted { budget, progress } => write!(
                f,
                "cycle budget of {budget} exhausted after {} iterations \
                 ({} edges examined, {:?} elapsed)",
                progress.iterations, progress.edges_examined, progress.elapsed
            ),
            Self::WorkerPanicked { worker, payload } => {
                write!(f, "engine worker {worker} panicked: {payload}")
            }
            Self::Overloaded { capacity, depth } => write!(
                f,
                "service overloaded: submission queue at capacity {capacity} (depth {depth})"
            ),
            Self::Unavailable { retry_after } => write!(
                f,
                "service unavailable: circuit breaker open, retry after {retry_after:?}"
            ),
            Self::CheckpointCorrupt { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            Self::CheckpointIo { reason } => {
                write!(f, "checkpoint store i/o failed: {reason}")
            }
        }
    }
}

impl std::error::Error for SimdxError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_progress() -> RunProgress {
        RunProgress {
            iterations: 3,
            edges_examined: 120,
            elapsed: std::time::Duration::from_millis(8),
        }
    }

    #[test]
    fn conversions_preserve_detail() {
        let err: SimdxError = WorkerPanic {
            worker: 1,
            payload: "boom".to_string(),
        }
        .into();
        assert_eq!(
            err,
            SimdxError::WorkerPanicked {
                worker: 1,
                payload: "boom".to_string()
            }
        );

        let err: SimdxError = GraphError::EndpointOutOfRange {
            src: 4,
            dst: 9,
            num_vertices: 3,
        }
        .into();
        match err {
            SimdxError::InvalidGraph { reason } => {
                assert!(reason.contains("(4, 9)"), "reason: {reason}")
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn display_covers_every_variant() {
        let cases = [
            (
                SimdxError::OnlineOverflow { iteration: 5 },
                "overflow at iteration 5",
            ),
            (
                SimdxError::IterationLimit { max_iterations: 9 },
                "within 9 iterations",
            ),
            (
                SimdxError::InvalidConfig {
                    reason: "zero CTA width".to_string(),
                },
                "invalid engine config: zero CTA width",
            ),
            (
                SimdxError::InvalidQuery {
                    reason: "source 7 out of range".to_string(),
                },
                "invalid query: source 7 out of range",
            ),
            (
                SimdxError::InvalidGraph {
                    reason: "offsets not monotone".to_string(),
                },
                "invalid graph: offsets not monotone",
            ),
            (
                SimdxError::Cancelled {
                    progress: sample_progress(),
                },
                "run cancelled after 3 iterations (120 edges examined",
            ),
            (
                SimdxError::DeadlineExceeded {
                    progress: sample_progress(),
                },
                "deadline exceeded after 3 iterations",
            ),
            (
                SimdxError::BudgetExhausted {
                    budget: 500,
                    progress: sample_progress(),
                },
                "cycle budget of 500 exhausted after 3 iterations",
            ),
            (
                SimdxError::WorkerPanicked {
                    worker: 2,
                    payload: "index out of bounds".to_string(),
                },
                "engine worker 2 panicked: index out of bounds",
            ),
            (
                SimdxError::Overloaded {
                    capacity: 64,
                    depth: 64,
                },
                "service overloaded: submission queue at capacity 64 (depth 64)",
            ),
            (
                SimdxError::Unavailable {
                    retry_after: std::time::Duration::from_millis(250),
                },
                "service unavailable: circuit breaker open, retry after 250ms",
            ),
            (
                SimdxError::CheckpointCorrupt {
                    reason: "section 2 CRC mismatch".to_string(),
                },
                "corrupt checkpoint: section 2 CRC mismatch",
            ),
            (
                SimdxError::CheckpointIo {
                    reason: "rename cp-0.sxcp: permission denied".to_string(),
                },
                "checkpoint store i/o failed: rename cp-0.sxcp: permission denied",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err:?} display missing '{needle}'"
            );
        }
    }

    #[test]
    fn errors_compare_by_value() {
        assert_eq!(
            SimdxError::IterationLimit { max_iterations: 3 },
            SimdxError::IterationLimit { max_iterations: 3 }
        );
        assert_ne!(
            SimdxError::OnlineOverflow { iteration: 0 },
            SimdxError::OnlineOverflow { iteration: 1 }
        );
    }
}
