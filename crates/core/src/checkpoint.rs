//! Resumable run state: the boundary record, the checkpoint that wraps
//! it, and the abort wrapper that carries a checkpoint back.
//!
//! An aborted run used to surrender every completed iteration — a
//! [`crate::supervise::RunProgress`] is just counters. This module
//! makes aborts *resumable*: when a run opts in
//! ([`crate::session::RunBuilder::checkpoint_on_abort`], or a
//! [`crate::service::RetryPolicy`] with more than one attempt), the
//! engine keeps a caller-owned slot current with a [`RunCheckpoint`] of
//! every iteration boundary. Whatever abort then fires — cancellation,
//! deadline, cycle budget, iteration limit, even a contained panic —
//! the typed error comes back inside a [`RunAborted`] holding the last
//! boundary snapshot, and
//! [`crate::session::BoundGraph::resume`] continues the run from it.
//!
//! # The slot
//!
//! One `Option<RunCheckpoint>` per query, owned by whoever issued the
//! query (the resumable builder's `execute`, `run_batch_partial` per
//! seed, a serving thread per ticket) in a frame *outside* every panic
//! guard, is both the capture target and the only resume input. It is
//! read once, when an attempt starts: occupied means "continue from
//! this" and the engine restores a *copy*; empty means `program.init`.
//! It is overwritten in place at the top of every iteration, before any
//! check that can abort that iteration. Nothing ever moves a checkpoint
//! out of the slot while an attempt runs, and the overwrite is a
//! sequence of plain `Copy`-element copies that cannot unwind (it never
//! calls the metadata type's `Clone`, which is user code), so a panic
//! anywhere — in restore, mid-sweep, in any `AccProgram` method — leaves
//! the slot holding a complete boundary: the one it was entered with,
//! or a later one. Every further attempt (degrade retry,
//! service retry, a resume in a restarted process) follows the same
//! rule.
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

/// What a run carries across an iteration boundary, declared once: the
/// engine's live state *is* this record (plus the `metadata_prev`
/// snapshot, which equals `meta` at every boundary), a
/// [`RunCheckpoint`] wraps a copy of it, and [`Clone::clone_from`]
/// below is the one field-wise copy — capture in one direction, restore
/// in the other. [`crate::persist`] spells the fields out a second time
/// on purpose: a wire format names what it writes.
pub(crate) struct RunState<M> {
    /// `metadata_curr`; at a boundary also `metadata_prev` (the publish
    /// step just ran), so one copy restores both.
    pub(crate) meta: Vec<M>,
    /// The frontier the next iteration expands (after an online-filter
    /// iteration it carries that filter's duplicates, in concatenation
    /// order).
    pub(crate) frontier: Vec<VertexId>,
    /// Activation log of every completed iteration.
    pub(crate) log: ActivationLog,
    /// Direction of the last completed iteration.
    pub(crate) prev_dir: Direction,
    /// The iteration executed next — the number completed so far.
    pub(crate) iteration: u32,
    /// Host edge-traversal meter. Deliberately outside the bit-equality
    /// contract — it is how the tests pin the grid push replay's
    /// work-optimality — but carried, so a resumed run's final report
    /// matches the uninterrupted run's.
    pub(crate) edges_examined: u64,
    /// Simulated-device counters. The executor owns the live ones; the
    /// engine syncs them in just before a capture and out just after a
    /// restore, so a resumed run charges on top of them.
    pub(crate) stats: ExecutorStats,
    /// Fusion launch residency `(running direction, all-launched)`,
    /// synced with the plan like `stats` — without it a resumed fused
    /// run would re-charge a kernel launch the uninterrupted run never
    /// paid.
    pub(crate) fusion: (Option<Direction>, bool),
}

impl<M> RunState<M> {
    /// The state of a run that has executed nothing yet, over
    /// `AccProgram::init`'s metadata and frontier.
    pub(crate) fn new(meta: Vec<M>, frontier: Vec<VertexId>) -> Self {
        Self {
            meta,
            frontier,
            log: ActivationLog::default(),
            prev_dir: Direction::Push,
            iteration: 0,
            edges_examined: 0,
            stats: ExecutorStats::default(),
            fusion: (None, false),
        }
    }
}

impl<M: Copy> Clone for RunState<M> {
    fn clone(&self) -> Self {
        let mut copy = Self::new(Vec::new(), Vec::new());
        copy.clone_from(self);
        copy
    }

    /// Overwrites `self` in place, reusing its buffers: the three
    /// vectors copy `Copy` elements into existing capacity and grow by
    /// doubling, so a whole run of boundary captures allocates
    /// O(log iterations) times, not per iteration. The metadata is
    /// copied, not cloned: `Vec::clone_from` would call `M::clone` per
    /// element, and a `Clone` that panics half-way would leave a capture
    /// torn between two boundaries. The exhaustive pattern makes a new
    /// field a compile error here.
    fn clone_from(&mut self, source: &Self) {
        let Self {
            meta,
            frontier,
            log,
            prev_dir,
            iteration,
            edges_examined,
            stats,
            fusion,
        } = source;
        self.meta.clear();
        self.meta.extend(meta.iter().copied());
        self.frontier.clone_from(frontier);
        // Not `log.clone_from`: `ActivationLog` derives `Clone`, whose
        // `clone_from` is a fresh `clone()` — a new buffer every time.
        self.log.records.clone_from(&log.records);
        self.prev_dir = *prev_dir;
        self.iteration = *iteration;
        self.edges_examined = *edges_examined;
        self.stats.clone_from(stats);
        self.fusion = *fusion;
    }
}

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
    /// The boundary record itself.
    pub(crate) state: RunState<M>,
}

impl<M: Copy> RunCheckpoint<M> {
    /// Boundary capture: overwrites `slot` in place with a copy of
    /// `live` (the first capture into an empty slot creates the
    /// checkpoint). An occupied slot was validated against this graph
    /// and program before the attempt started, so only the record
    /// changes.
    pub(crate) fn capture(slot: &mut Option<Self>, algorithm: &str, live: &RunState<M>) {
        let cp = slot.get_or_insert_with(|| Self {
            algorithm: algorithm.to_string(),
            num_vertices: live.meta.len() as u32,
            state: RunState::new(Vec::new(), Vec::new()),
        });
        cp.state.clone_from(live);
    }

    /// Restore: a copy of the boundary record for the engine to run on.
    /// The checkpoint itself stays where it is (see the module docs on
    /// the slot).
    pub(crate) fn restore(&self) -> RunState<M> {
        self.state.clone()
    }

    /// The invariants every checkpoint the engine captures satisfies by
    /// construction, and which a decoded one must be shown to satisfy
    /// before the engine indexes by it: one metadata element per
    /// vertex, every frontier vertex in range, one log record per
    /// completed iteration.
    pub(crate) fn check_invariants(&self) -> Result<(), SimdxError> {
        let (n, state) = (self.num_vertices, &self.state);
        let reason = if state.meta.len() != n as usize {
            format!(
                "metadata holds {} elements for a graph of {n} vertices",
                state.meta.len()
            )
        } else if let Some(v) = state.frontier.iter().find(|&&v| v >= n) {
            format!("frontier vertex {v} out of range for a graph of {n} vertices")
        } else if state.log.records.len() != state.iteration as usize {
            format!(
                "activation log holds {} records at iteration {}",
                state.log.records.len(),
                state.iteration
            )
        } else {
            return Ok(());
        };
        Err(SimdxError::CheckpointCorrupt { reason })
    }

    /// `AccProgram::name()` of the checkpointed run.
    pub(crate) fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// Vertex count of the graph the checkpoint was captured on.
    pub(crate) fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// The iteration the resumed run will execute next — equivalently,
    /// the number of completed iterations the checkpoint preserves.
    pub fn iteration(&self) -> u32 {
        self.state.iteration
    }

    /// Frontier size at the checkpointed boundary.
    pub(crate) fn frontier_len(&self) -> usize {
        self.state.frontier.len()
    }

    /// Simulated device cycles completed before the boundary.
    pub(crate) fn cycles(&self) -> u64 {
        self.state.stats.total_cycles
    }

    /// Host edge traversals completed before the boundary.
    pub(crate) fn edges_examined(&self) -> u64 {
        self.state.edges_examined
    }
}

impl<M: Copy> std::fmt::Debug for RunCheckpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCheckpoint")
            .field("algorithm", &self.algorithm)
            .field("iteration", &self.iteration())
            .field("frontier_len", &self.frontier_len())
            .field("cycles", &self.cycles())
            .field("edges_examined", &self.edges_examined())
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
            Some(cp) => write!(f, " (resumable from iteration {})", cp.iteration()),
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
            state: RunState {
                iteration: 2,
                edges_examined: 7,
                stats: ExecutorStats {
                    total_cycles: 1234,
                    ..ExecutorStats::default()
                },
                fusion: (Some(Direction::Push), false),
                ..RunState::new(vec![0, 1, u32::MAX, u32::MAX], vec![1])
            },
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
