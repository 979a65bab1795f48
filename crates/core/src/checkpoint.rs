//! Resumable run state: boundary snapshots and the abort wrapper that
//! carries them.
//!
//! An aborted run used to surrender every completed iteration — a
//! [`crate::supervise::RunProgress`] is just counters. This module
//! makes aborts *resumable*: when a run opts in
//! ([`crate::session::RunBuilder::checkpoint_on_abort`], or a
//! [`crate::service::RetryPolicy`] with more than one attempt), the
//! engine overwrites a caller-owned slot with a [`RunCheckpoint`] at
//! every supervised iteration boundary. Whatever abort then fires —
//! cancellation, deadline, cycle budget, iteration limit, even a
//! contained worker panic (the slot lives *outside* the panic guard) —
//! the typed error comes back inside a [`RunAborted`] holding the last
//! boundary snapshot, and
//! [`crate::session::BoundGraph::resume`] continues the run from it.
//!
//! # The resume contract
//!
//! Abort-at-iteration-k then resume is **bit-equal** to the
//! uninterrupted run — identical metadata, activation logs and
//! simulated cycle counts — in both exec modes (`tests/properties.rs`,
//! `tests/fault_injection.rs`). This holds
//! because a boundary snapshot is *complete*: at the top of an
//! iteration `metadata_prev == metadata_curr` (the publish step just
//! ran), the activation log holds exactly the completed iterations,
//! and the executor's cycle counters plus the fusion plan's
//! launch-residency state are captured verbatim. A mid-iteration abort
//! (in-sweep poll, worker panic) surfaces the snapshot of the
//! iteration's *start*, so the resumed run re-executes that iteration
//! from scratch — charging the same costs the uninterrupted run
//! charged, because the interrupted attempt's partial charges died
//! with its executor.
//!
//! A checkpoint is RNG-free by construction (the engine is
//! deterministic), holds no borrowed state, and is `Send`, so a
//! serving layer can hand it across threads or back to the submitter.
//! It also outlives the process: [`crate::persist`] frames a
//! checkpoint into a versioned, CRC-guarded wire format and spills it
//! through a crash-safe [`crate::persist::CheckpointStore`], and
//! [`crate::service::QueryPool::recover`] resumes it bit-equal in a
//! restarted process.

use crate::error::SimdxError;
use crate::jit::ActivationLog;
use simdx_gpu::executor::ExecutorStats;
use simdx_graph::csr::Direction;
use simdx_graph::VertexId;

/// A resumable snapshot of one run at a supervised iteration boundary.
///
/// Opaque by design: every field the engine needs to continue
/// bit-equally is here (metadata, frontier/worklist state,
/// activation log, simulated-cycle counters, fusion launch residency),
/// but callers only observe the summary accessors — mutating a
/// checkpoint would void the resume contract.
#[derive(Clone)]
pub struct RunCheckpoint<M: Copy> {
    /// `AccProgram::name()` of the run that captured this — resume
    /// validates it so a checkpoint cannot continue a different
    /// algorithm's run.
    pub(crate) algorithm: String,
    /// Vertex count of the graph the run was bound to.
    pub(crate) num_vertices: u32,
    /// The metadata at the boundary (`prev == curr` there, so one copy
    /// restores both).
    pub(crate) meta: Vec<M>,
    /// The boundary's frontier (after an online-filter iteration it
    /// carries that filter's duplicates, in concatenation order).
    pub(crate) frontier: Vec<VertexId>,
    /// Activation log of every completed iteration.
    pub(crate) log: ActivationLog,
    /// Direction of the last completed iteration.
    pub(crate) prev_dir: Direction,
    /// The iteration the resumed run executes next.
    pub(crate) iteration: u32,
    /// Host edge-traversal meter at the boundary.
    pub(crate) edges_examined: u64,
    /// Simulated-device counters at the boundary; restored verbatim so
    /// the resumed run charges on top of them.
    pub(crate) stats: ExecutorStats,
    /// Fusion launch residency `(running direction, all-launched)` —
    /// without it a resumed fused run would re-charge a kernel launch
    /// the uninterrupted run never paid.
    pub(crate) fusion: (Option<Direction>, bool),
}

impl<M: Copy> RunCheckpoint<M> {
    /// `AccProgram::name()` of the checkpointed run.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Vertex count of the graph the checkpoint was captured on.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// The iteration the resumed run will execute next — equivalently,
    /// the number of completed iterations the checkpoint preserves.
    pub fn iteration(&self) -> u32 {
        self.iteration
    }

    /// Frontier size at the checkpointed boundary.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Simulated device cycles completed before the boundary.
    pub fn cycles(&self) -> u64 {
        self.stats.total_cycles
    }

    /// Host edge traversals completed before the boundary.
    pub fn edges_examined(&self) -> u64 {
        self.edges_examined
    }
}

impl<M: Copy> std::fmt::Debug for RunCheckpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCheckpoint")
            .field("algorithm", &self.algorithm)
            .field("iteration", &self.iteration)
            .field("frontier_len", &self.frontier.len())
            .field("cycles", &self.stats.total_cycles)
            .field("edges_examined", &self.edges_examined)
            .finish_non_exhaustive()
    }
}

/// A typed abort plus, when checkpointing was armed and a boundary was
/// reached, the snapshot to resume from.
///
/// Returned (boxed — the snapshot is as big as the metadata array) by
/// [`crate::session::ResumableRunBuilder::execute`] and per seed by
/// [`crate::session::BoundGraph::run_batch_partial`]. `checkpoint` is
/// `None` when the run aborted before its first boundary capture
/// (e.g. a pre-cancelled token, or a malformed query that never
/// started) — resuming from nothing is just a fresh run.
#[derive(Clone, Debug)]
pub struct RunAborted<M: Copy> {
    /// Why the run stopped — the same typed [`SimdxError`] a
    /// non-resumable run returns.
    pub error: SimdxError,
    /// The last boundary snapshot, if one was captured.
    pub checkpoint: Option<RunCheckpoint<M>>,
}

impl<M: Copy> RunAborted<M> {
    /// Splits the wrapper into its parts.
    pub fn into_parts(self) -> (SimdxError, Option<RunCheckpoint<M>>) {
        (self.error, self.checkpoint)
    }
}

impl<M: Copy> std::fmt::Display for RunAborted<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)?;
        match &self.checkpoint {
            Some(cp) => write!(f, " (resumable from iteration {})", cp.iteration),
            None => write!(f, " (no checkpoint captured)"),
        }
    }
}

impl<M: Copy + std::fmt::Debug> std::error::Error for RunAborted<M> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

// Checkpoints travel: from a panicked serving thread's slot back to
// the submitter (`CloseMode::Abort` hands outstanding queries back
// across the scope boundary), so they must stay `Send + Sync` for any
// metadata type the ACC model admits.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RunCheckpoint<u32>>();
    assert_send_sync::<RunAborted<u32>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunCheckpoint<u32> {
        RunCheckpoint {
            algorithm: "levels".to_string(),
            num_vertices: 4,
            meta: vec![0, 1, u32::MAX, u32::MAX],
            frontier: vec![1],
            log: ActivationLog::default(),
            prev_dir: Direction::Push,
            iteration: 2,
            edges_examined: 7,
            stats: ExecutorStats {
                total_cycles: 1234,
                ..ExecutorStats::default()
            },
            fusion: (Some(Direction::Push), false),
        }
    }

    #[test]
    fn accessors_summarize_without_exposing_state() {
        let cp = sample();
        assert_eq!(cp.algorithm(), "levels");
        assert_eq!(cp.num_vertices(), 4);
        assert_eq!(cp.iteration(), 2);
        assert_eq!(cp.frontier_len(), 1);
        assert_eq!(cp.cycles(), 1234);
        assert_eq!(cp.edges_examined(), 7);
        let dbg = format!("{cp:?}");
        assert!(
            dbg.contains("levels") && dbg.contains("iteration: 2"),
            "{dbg}"
        );
    }

    #[test]
    fn aborted_display_carries_resume_hint() {
        let with = RunAborted {
            error: SimdxError::IterationLimit { max_iterations: 2 },
            checkpoint: Some(sample()),
        };
        assert!(with.to_string().contains("resumable from iteration 2"));
        let without = RunAborted::<u32> {
            error: SimdxError::IterationLimit { max_iterations: 2 },
            checkpoint: None,
        };
        assert!(without.to_string().contains("no checkpoint captured"));
        let (err, cp) = with.into_parts();
        assert_eq!(err, SimdxError::IterationLimit { max_iterations: 2 });
        assert_eq!(cp.expect("checkpoint").iteration(), 2);
    }
}
