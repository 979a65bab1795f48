//! The session API: amortized engine reuse for repeated queries.
//!
//! An engine run needs a worker pool and scratch arenas — setup a
//! service answering many small queries (multi-source SSSP, BFS per
//! user request) cannot afford per query. This module splits that cost
//! into three lifetimes:
//!
//! * [`Runtime`] — owns the resolved [`EngineConfig`], the persistent
//!   [`crate::par::WorkerPool`] and the reusable scratch arenas. Built
//!   once per process/service.
//! * [`BoundGraph`] — [`Runtime::bind`] ties one graph to the runtime;
//!   it builds nothing, so it costs no allocation in either exec mode.
//! * [`RunBuilder`] — one query: `bound.run(program).source(v)
//!   .max_iterations(n).observe(hook).execute()`. Costs only the work
//!   of the query itself; every allocation is reused.
//!
//! [`BoundGraph::run_batch`] executes a slice of query seeds over the
//! shared scratch, returning one [`RunResult`] per seed (fail-fast). A
//! caller that needs every seed's own outcome runs
//! `run(p).source(s).checkpoint_on_abort().execute()` per seed: a
//! failing seed then costs only its own result and hands back its last
//! boundary checkpoint.
//!
//! # Concurrency
//!
//! `Runtime` and `BoundGraph` are `Send + Sync` (compile-time asserted
//! at the bottom of this module): any number of threads may run
//! queries over one bound graph concurrently. The sharing model:
//!
//! * A `BoundGraph` holds only borrows (its runtime and its graph);
//!   queries mutate nothing it owns.
//! * Worker pools live in a pool stash: each query checks one out
//!   for its duration, so concurrent queries never share a pool, and a
//!   pool poisoned by a contained worker panic is discarded at
//!   check-in (replaced at the next checkout) without touching
//!   in-flight peers.
//! * Scratch arenas live in one stash per runtime, shared by every
//!   graph bound to it and every metadata type (an arena holds no
//!   metadata): checked out per query (per batch for `run_batch`, per
//!   serving thread for the service tier), preferring an arena sized
//!   for the graph, else refitting any idle one, created on a dry
//!   stash, returned at completion (idle inventory capped; see
//!   [`BoundGraph::idle_scratch_arenas`]).
//!
//! Concurrent queries remain under the bit-equality contract below —
//! a query's result is independent of what runs beside it
//! (`tests/concurrent_serving.rs`). [`crate::service::QueryPool`]
//! builds a bounded-queue serving layer on top of this.
//!
//! # Determinism
//!
//! Session reuse is covered by the same bit-equality contract as every
//! other host knob (`crates/core/README.md`): a reused `BoundGraph`
//! produces reports **bit-identical** to a fresh engine — identical
//! metadata, activation logs and simulated cycle counts — across the
//! exec modes (`tests/session_equivalence.rs`). The
//! engine enforces the invariant at every `execute()` entry: all
//! transient scratch is cleared and debug-asserted clean, so one query
//! can never observe a previous query's state.
//!
//! # Example
//!
//! ```
//! use simdx_core::prelude::*;
//! use simdx_graph::{EdgeList, Graph, VertexId, Weight};
//!
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
//! let graph = Graph::directed_from_edges(
//!     EdgeList::from_pairs(vec![(0, 1), (1, 2), (2, 3)]));
//! let runtime = Runtime::new(EngineConfig::unscaled())?;
//! let bound = runtime.bind(&graph);
//!
//! // Repeated queries reuse the pool and the scratch.
//! let a = bound.run(Levels { src: 0 }).execute()?;
//! let b = bound.run(Levels { src: 0 }).source(1).execute()?;
//! assert_eq!(a.meta, vec![0, 1, 2, 3]);
//! assert_eq!(b.meta, vec![u32::MAX, 0, 1, 2]);
//!
//! // Or as one batch: one result per seed.
//! let batch = bound.run_batch(Levels { src: 0 }, &[0, 1])?;
//! assert_eq!(batch[0].meta, a.meta);
//! assert_eq!(batch[1].meta, b.meta);
//! # Ok::<(), SimdxError>(())
//! ```

use std::time::Duration;

use crate::acc::{AccProgram, SourcedProgram};
use crate::checkpoint::{RunAborted, RunCheckpoint};
use crate::config::EngineConfig;
use crate::engine::{run_session, SessionCtx};
use crate::error::SimdxError;
use crate::jit::IterationRecord;
use crate::metrics::RunResult;
use crate::par::payload_string;
use crate::pool::PoolStash;
use crate::scratch::IterScratch;
use crate::supervise::{CancelToken, Supervisor};
use crate::sync::{Mutex, MutexGuard, PoisonError};
use simdx_graph::{Graph, VertexId};

/// Idle scratch arenas a [`Runtime`] retains. Bursts of concurrent
/// queries beyond this still run (each creates an arena); only the
/// *idle* inventory is capped, so a long-lived service cannot
/// accumulate dead arenas.
const MAX_IDLE_ARENAS: usize = 8;

/// The long-lived engine runtime: a validated [`EngineConfig`], a
/// poison-safe stash of persistent worker pools backing
/// `ExecMode::Parallel`, and a stash of scratch arenas every bound
/// graph's queries draw on.
///
/// Build one per service (or per configuration under test), then
/// [`bind`](Self::bind) graphs and run queries. `Runtime` is
/// `Send + Sync`: any number of threads may query one runtime
/// concurrently — each query checks a pool out of the stash for its
/// duration (concurrent queries never share a pool), and a pool
/// poisoned by a contained worker panic is discarded at check-in and
/// replaced at the next checkout, so a fault in one query never
/// corrupts an in-flight peer. A lone sequential caller reuses a
/// single pool forever — the pool threads are spawned once, not per
/// query.
pub struct Runtime {
    config: EngineConfig,
    /// Idle worker pools of the resolved width; every query checks one
    /// out for its duration.
    pools: PoolStash,
    /// Idle scratch arenas, each with one worker slot per pool worker,
    /// sized for whichever graph last used it; every query checks one
    /// out for its duration.
    arenas: Mutex<Vec<IterScratch>>,
}

impl Runtime {
    /// Creates a runtime: validates the configuration, resolves the
    /// worker count and spawns the first pool (a resolved width of 1
    /// runs serially with no pool at all).
    pub fn new(config: EngineConfig) -> Result<Self, SimdxError> {
        config.validate()?;
        // Pre-spawn the first pool so construction (not the first
        // query) pays the thread-spawn cost.
        let pools = PoolStash::new(config.exec.worker_count().max(1));
        drop(pools.checkout());
        Ok(Self {
            config,
            pools,
            arenas: Mutex::new(Vec::new()),
        })
    }

    /// Resolved host worker count (1 = serial).
    pub(crate) fn threads(&self) -> usize {
        self.pools.width()
    }

    fn idle_arenas(&self) -> MutexGuard<'_, Vec<IterScratch>> {
        self.arenas.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Binds a graph to this runtime. Nothing is precomputed: push
    /// runs the serial kernel in both exec modes, so bind builds no
    /// per-graph state, allocates nothing and cannot fail — and a
    /// directed graph's transpose still waits for its first pull.
    /// Scratch arenas come from the runtime's stash at query time.
    pub fn bind<'rt, 'g>(&'rt self, graph: &'g Graph) -> BoundGraph<'rt, 'g> {
        BoundGraph {
            runtime: self,
            graph,
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.threads())
            .field("exec", &self.config.exec)
            .finish_non_exhaustive()
    }
}

/// The retired bind-time grid CSR. Uninhabited: nothing builds one, so
/// [`BoundGraph::grid`] is always `None`, and the type says so.
mod retired {
    /// A value of this type cannot exist.
    pub enum GridCsr {}

    impl GridCsr {
        /// The grid's memory cost; there is no grid to ask.
        pub fn footprint_bytes(&self) -> u64 {
            match *self {}
        }
    }
}

use retired::GridCsr;

/// One query as the execute path takes it — the run builders', the
/// batch entry point's and the serving tier's per-query settings in one
/// shape. Everything defaults to "unset".
#[derive(Default)]
pub(crate) struct Query<'o> {
    /// The source vertex the caller rooted the program at, if any;
    /// range-checked against the bound graph.
    pub(crate) source: Option<VertexId>,
    /// Overrides the config's iteration cap.
    pub(crate) max_iterations: Option<u32>,
    #[allow(clippy::type_complexity)]
    pub(crate) observer: Option<Box<dyn FnMut(&IterationRecord) + 'o>>,
    pub(crate) cancel: Option<CancelToken>,
    /// Wall-clock allowance, measured from the execute call.
    pub(crate) deadline: Option<Duration>,
    /// Simulated cycles this execute call may spend, on top of whatever
    /// the checkpoint it continues from already spent.
    pub(crate) cycle_budget: Option<u64>,
    /// A serving pool's shutdown token, observed like `cancel`.
    pub(crate) shutdown: Option<CancelToken>,
}

impl Query<'_> {
    /// A query with nothing set but the seed its program is rooted at.
    fn rooted(seed: VertexId) -> Self {
        Self {
            source: Some(seed),
            ..Self::default()
        }
    }
}

/// A graph bound to a [`Runtime`]. Queries against the same
/// `BoundGraph` reuse every allocation through the runtime's pool and
/// arena stashes — from one thread or many:
/// `BoundGraph` is `Send + Sync`, and concurrent queries stay bit-equal
/// to running them serially.
pub struct BoundGraph<'rt, 'g> {
    runtime: &'rt Runtime,
    graph: &'g Graph,
}

impl<'rt, 'g> BoundGraph<'rt, 'g> {
    /// The bound graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The bind-time grid CSR: always `None`, since no exec mode
    /// builds one. Kept for callers that report its memory cost.
    pub fn grid(&self) -> Option<&GridCsr> {
        None
    }

    /// Idle scratch arenas the runtime holds last sized for a graph of
    /// this one's `|V|` — the ones its next query takes first. Bounded:
    /// the runtime keeps at most 8 idle arenas, whatever graphs and
    /// metadata types its queries ran on.
    pub fn idle_scratch_arenas(&self) -> usize {
        let n = self.graph.num_vertices() as usize;
        let idle = self.runtime.idle_arenas();
        idle.iter().filter(|a| a.num_vertices() == n).count()
    }

    /// Starts building one query. Terminal [`RunBuilder::execute`]
    /// runs it over the session's shared resources.
    pub fn run<P: AccProgram>(&self, program: P) -> RunBuilder<'_, 'rt, 'g, P> {
        RunBuilder {
            bound: self,
            program,
            query: Query::default(),
        }
    }

    /// Continues an aborted run from its boundary [`RunCheckpoint`],
    /// bit-equal to the run never having been interrupted (identical
    /// metadata, activation logs and simulated cycle counts — the
    /// resume contract, pinned by `tests/properties.rs`).
    ///
    /// The checkpoint is validated against this graph and the program
    /// at [`ResumableRunBuilder::execute`] time; a mismatch comes back
    /// as [`SimdxError::InvalidQuery`] *with the checkpoint handed
    /// back* inside the [`RunAborted`], so a misdirected resume never
    /// loses the snapshot. The resumed run is itself checkpoint-armed:
    /// a second abort yields a fresh, further-along checkpoint.
    ///
    /// A [`ResumableRunBuilder::cycle_budget`] on a resumed run is
    /// *additional* simulated cycles on top of the checkpoint's spent
    /// count.
    ///
    /// The checkpoint need not come from this process: one decoded
    /// from a durable [`crate::persist::CheckpointStore`] blob resumes
    /// identically (the cross-process recovery contract, pinned by
    /// `tests/durable_recovery.rs`); see
    /// [`crate::service::QueryPool::recover`] for the batch form.
    pub fn resume<P: AccProgram>(
        &self,
        program: P,
        checkpoint: RunCheckpoint<P::Meta>,
    ) -> ResumableRunBuilder<'_, 'rt, 'g, P> {
        ResumableRunBuilder {
            inner: self.run(program),
            resume: Some(checkpoint),
        }
    }

    /// Executes one query per seed over the shared scratch, returning
    /// one report per query — bit-identical to running the seeds
    /// through individual [`Self::run`] calls (or fresh engines), just
    /// without any per-query setup. Fails fast on the first seed whose
    /// run fails, discarding the completed reports — run the seeds one
    /// by one through [`RunBuilder::checkpoint_on_abort`] when a typed
    /// abort on one seed must not cost the others' results.
    pub fn run_batch<P: SourcedProgram>(
        &self,
        program: P,
        seeds: &[VertexId],
    ) -> Result<Vec<RunResult<P::Meta>>, SimdxError> {
        let mut scratch = self.checkout_scratch();
        let out = seeds
            .iter()
            .map(|&seed| {
                self.execute(
                    &program.clone().with_source(seed),
                    Query::rooted(seed),
                    &mut scratch,
                    None,
                )
            })
            .collect();
        self.checkin_scratch(scratch);
        out
    }

    /// Checks a scratch arena out of the runtime's stash: an idle arena
    /// last sized for a graph of this one's `|V|` if there is one, else
    /// any idle arena (each run's reset refits its two bitmaps), else —
    /// a dry stash — a new one.
    pub(crate) fn checkout_scratch(&self) -> IterScratch {
        let n = self.graph.num_vertices() as usize;
        let mut idle = self.runtime.idle_arenas();
        let fits = idle.iter().rposition(|a| a.num_vertices() == n);
        let arena = match fits {
            Some(at) => Some(idle.swap_remove(at)),
            None => idle.pop(),
        };
        drop(idle);
        arena.unwrap_or_else(|| IterScratch::new(self.runtime.threads(), n))
    }

    /// Returns a scratch arena to the runtime's stash for the next query
    /// (idle inventory capped at 8).
    pub(crate) fn checkin_scratch(&self, scratch: IterScratch) {
        let mut idle = self.runtime.idle_arenas();
        if idle.len() < MAX_IDLE_ARENAS {
            idle.push(scratch);
        }
    }

    /// The one execute path: every query attempt — a builder's, a batch
    /// seed's, a serving ticket's, a recovered blob's — runs through
    /// here exactly once, over caller-held scratch (so one checkout
    /// amortizes over a batch or a serving thread's tickets) and the
    /// caller's checkpoint slot (`None` = unarmed; see
    /// [`crate::checkpoint`] for the slot rule). Retrying is the
    /// caller's business: the serving tier's [`crate::service::RetryPolicy`]
    /// re-enters with the same slot. An occupied slot is validated
    /// against this graph and `program` before anything else, whoever
    /// filled it, and is left untouched by every rejection.
    pub(crate) fn execute<P: AccProgram>(
        &self,
        program: &P,
        query: Query<'_>,
        scratch: &mut IterScratch,
        slot: Option<&mut Option<RunCheckpoint<P::Meta>>>,
    ) -> Result<RunResult<P::Meta>, SimdxError> {
        let n = self.graph.num_vertices();
        let occupied = slot.as_deref().and_then(Option::as_ref);
        let invalid = match (occupied, query.source) {
            (Some(cp), _) if cp.num_vertices() != n => Some(format!(
                "checkpoint was captured on a graph with {} vertices, this graph has {n}",
                cp.num_vertices()
            )),
            (Some(cp), _) if cp.algorithm() != program.name() => Some(format!(
                "checkpoint belongs to algorithm `{}`, not `{}`",
                cp.algorithm(),
                program.name()
            )),
            (_, Some(src)) if src >= n => Some(format!(
                "source vertex {src} out of range for a graph with {n} vertices"
            )),
            _ => None,
        };
        if let Some(reason) = invalid {
            return Err(SimdxError::InvalidQuery { reason });
        }
        let config = &self.runtime.config;
        let max_iterations = query.max_iterations.unwrap_or(config.max_iterations);
        // The cycle budget is *relative*: granted on top of the cycles
        // the slot's checkpoint already spent, so the restored counters
        // don't re-trip the supervisor at the boundary they aborted at.
        let spent = occupied.map_or(0, RunCheckpoint::cycles);
        let budget = query.cycle_budget.map(|b| b.saturating_add(spent));
        let mut supervisor = Supervisor::new(query.cancel, query.deadline, budget);
        if let Some(token) = query.shutdown {
            supervisor = supervisor.with_shutdown(token);
        }
        let mut observer = query.observer;
        // A panicked run poisons its pool, so the lease drop discards it
        // without touching concurrent queries' pools; the next checkout
        // spawns a replacement.
        let lease = self.runtime.pools.checkout();
        let ctx = SessionCtx {
            pool: lease.as_deref(),
            scratch,
            max_iterations,
            observer: observer.as_deref_mut(),
            supervisor: &supervisor,
            checkpoint: slot,
        };
        // Panic containment: a contained pool panic is already a typed
        // error, so the guard catches the *host-side* ones as worker 0,
        // the submitting thread — the program's own code (an
        // `AccProgram` method or the metadata `Clone`) called from a
        // serial kernel, a filter, `init`, the capture or the restore.
        // The slot is borrowed from a frame outside the guard, so a
        // retry (the caller's) starts from the boundary it holds.
        let run = || run_session(program, self.graph, config, ctx);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
            Err(SimdxError::WorkerPanicked {
                worker: 0,
                payload: payload_string(&*payload),
            })
        })
    }
}

impl std::fmt::Debug for BoundGraph<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundGraph")
            .field("num_vertices", &self.graph.num_vertices())
            .field("num_edges", &self.graph.num_edges())
            .field("runtime", self.runtime)
            .finish_non_exhaustive()
    }
}

// The ISSUE 7 contract, proved at compile time: the runtime and the
// bound graph are shareable across serving threads. Removing this
// block does not make the types `!Sync` — it only removes the proof;
// conversely, any future field that reintroduces thread confinement (a
// `RefCell`, an `Rc`) fails compilation here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Runtime>();
    assert_send_sync::<BoundGraph<'static, 'static>>();
};

/// One query under construction against a [`BoundGraph`]; terminal
/// [`Self::execute`] runs it.
pub struct RunBuilder<'b, 'rt, 'g, P: AccProgram> {
    bound: &'b BoundGraph<'rt, 'g>,
    program: P,
    query: Query<'b>,
}

impl<'b, 'rt, 'g, P: AccProgram> RunBuilder<'b, 'rt, 'g, P> {
    /// Overrides the config's iteration cap for this query only.
    pub fn max_iterations(mut self, n: u32) -> Self {
        self.query.max_iterations = Some(n);
        self
    }

    /// Attaches a shareable cancellation token: once
    /// [`CancelToken::cancel`] is called (from any thread), the run
    /// aborts at the next supervision check with
    /// [`SimdxError::Cancelled`] carrying the partial progress.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.query.cancel = Some(token);
        self
    }

    /// Caps this query's wall-clock time, measured from `execute()`
    /// entry. Exceeding it aborts with
    /// [`SimdxError::DeadlineExceeded`].
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.query.deadline = Some(limit);
        self
    }

    /// Caps this query's *simulated* GPU cycles, checked at iteration
    /// boundaries. Exceeding it aborts with
    /// [`SimdxError::BudgetExhausted`]. Unlike the wall-clock knobs,
    /// the budget is deterministic: the same query always aborts at
    /// the same boundary.
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.query.cycle_budget = Some(cycles);
        self
    }

    /// Installs a per-iteration observer, called with each iteration's
    /// [`IterationRecord`] as soon as it is logged — live progress for
    /// long queries without waiting for the final report. Re-entrant
    /// queries from inside the hook are not supported (the session's
    /// scratch is checked out for the duration of the run).
    pub fn observe(mut self, hook: impl FnMut(&IterationRecord) + 'b) -> Self {
        self.query.observer = Some(Box::new(hook));
        self
    }

    /// Opts this query into boundary checkpointing: the engine
    /// snapshots the run state at the top of every iteration, and any
    /// abort comes back as a [`RunAborted`] carrying the last snapshot
    /// — resumable via [`BoundGraph::resume`]. The plain
    /// [`Self::execute`] path is untouched (zero capture overhead);
    /// opting in costs one metadata copy per iteration and a fixed
    /// number of allocations per run — the snapshot's three buffers and
    /// their doublings, at most 16 allocator calls on top of the
    /// unarmed query whatever its iteration count
    /// (`tests/steady_state_allocs.rs`).
    pub fn checkpoint_on_abort(self) -> ResumableRunBuilder<'b, 'rt, 'g, P> {
        ResumableRunBuilder {
            inner: self,
            resume: None,
        }
    }

    /// Executes the query over the session's shared pool and scratch,
    /// returning the final metadata and run report.
    pub fn execute(self) -> Result<RunResult<P::Meta>, SimdxError> {
        self.run(None)
    }

    /// Runs the built query on a scratch arena checked out for its
    /// duration, checkpointing into `slot` when there is one.
    fn run(
        self,
        slot: Option<&mut Option<RunCheckpoint<P::Meta>>>,
    ) -> Result<RunResult<P::Meta>, SimdxError> {
        let mut scratch = self.bound.checkout_scratch();
        let result = self
            .bound
            .execute(&self.program, self.query, &mut scratch, slot);
        self.bound.checkin_scratch(scratch);
        result
    }
}

impl<P: SourcedProgram> RunBuilder<'_, '_, '_, P> {
    /// Re-roots the query at `src`. Validated against the bound
    /// graph's vertex count at [`Self::execute`] time — an
    /// out-of-range seed is a typed [`SimdxError::InvalidQuery`], not
    /// a panic.
    pub fn source(mut self, src: VertexId) -> Self {
        self.program = self.program.with_source(src);
        self.query.source = Some(src);
        self
    }
}

/// A checkpoint-armed query: either a fresh run that opted in via
/// [`RunBuilder::checkpoint_on_abort`], or a continuation built by
/// [`BoundGraph::resume`]. Terminal [`Self::execute`] returns aborts
/// as [`RunAborted`] (boxed — the snapshot inside is as big as the
/// metadata array) so the caller can resume instead of restarting.
pub struct ResumableRunBuilder<'b, 'rt, 'g, P: AccProgram> {
    inner: RunBuilder<'b, 'rt, 'g, P>,
    resume: Option<RunCheckpoint<P::Meta>>,
}

impl<'b, 'rt, 'g, P: AccProgram> ResumableRunBuilder<'b, 'rt, 'g, P> {
    /// Caps this attempt's *additional* simulated GPU cycles. On a
    /// fresh run this is [`RunBuilder::cycle_budget`]; on a resumed
    /// run the allowance is granted on top of the checkpoint's
    /// already-spent cycles (the supervisor sees their sum), so
    /// resuming with the same budget makes forward progress instead of
    /// re-tripping at the same boundary.
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.inner = self.inner.cycle_budget(cycles);
        self
    }

    /// Installs a per-iteration observer ([`RunBuilder::observe`]).
    /// On a resumed run the hook fires from the checkpoint's iteration
    /// onward — completed iterations are not replayed.
    pub fn observe(mut self, hook: impl FnMut(&IterationRecord) + 'b) -> Self {
        self.inner = self.inner.observe(hook);
        self
    }

    /// Executes the query with boundary checkpointing armed. Success
    /// is the ordinary [`RunResult`]; any abort comes back as a
    /// [`RunAborted`] whose `checkpoint` holds the last boundary
    /// snapshot. A resume checkpoint is never lost: it starts out *in*
    /// the slot the engine captures into and is only ever overwritten
    /// there by a later boundary of the same run, so a failed
    /// validation, a panic while restoring and an abort before the
    /// first new boundary all hand it back as it came.
    #[allow(clippy::result_large_err)] // boxed: the Err is pointer-sized
    pub fn execute(self) -> Result<RunResult<P::Meta>, Box<RunAborted<P::Meta>>> {
        // The slot lives in this frame, outside the execute path's
        // panic guard.
        let mut slot = self.resume;
        self.inner.run(Some(&mut slot)).map_err(|error| {
            Box::new(RunAborted {
                error,
                checkpoint: slot,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::CombineKind;
    use crate::config::{DirectionPolicy, ExecMode, FilterPolicy};
    use simdx_graph::{EdgeList, Weight};

    /// The engine-test "levels" vote program, with a seed hook.
    #[derive(Clone)]
    struct Levels {
        src: VertexId,
    }

    impl AccProgram for Levels {
        type Meta = u32;
        type Update = u32;

        fn name(&self) -> &'static str {
            "levels"
        }

        fn combine_kind(&self) -> CombineKind {
            CombineKind::Vote
        }

        fn init(&self, g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
            let mut meta = vec![u32::MAX; g.num_vertices() as usize];
            meta[self.src as usize] = 0;
            (meta, vec![self.src])
        }

        fn compute(
            &self,
            _src: VertexId,
            _dst: VertexId,
            _w: Weight,
            m_src: &u32,
            m_dst: &u32,
        ) -> Option<u32> {
            (*m_src != u32::MAX && *m_dst == u32::MAX).then(|| m_src + 1)
        }

        fn combine(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }

        fn apply(&self, _v: VertexId, current: &u32, update: u32) -> Option<u32> {
            (update < *current).then_some(update)
        }

        fn pull_candidate(&self, _v: VertexId, meta: &u32) -> bool {
            *meta == u32::MAX
        }
    }

    impl SourcedProgram for Levels {
        fn with_source(mut self, src: VertexId) -> Self {
            self.src = src;
            self
        }
    }

    /// A rank-sum aggregation program over `f32` metadata, used to
    /// exercise one arena serving two metadata types.
    #[derive(Clone)]
    struct Mass;

    impl AccProgram for Mass {
        type Meta = f32;
        type Update = f32;

        fn name(&self) -> &'static str {
            "mass"
        }

        fn combine_kind(&self) -> CombineKind {
            CombineKind::Aggregation
        }

        fn init(&self, g: &Graph) -> (Vec<f32>, Vec<VertexId>) {
            let mut meta = vec![0.0; g.num_vertices() as usize];
            meta[0] = 1.0;
            (meta, vec![0])
        }

        fn compute(
            &self,
            _src: VertexId,
            _dst: VertexId,
            _w: Weight,
            m_src: &f32,
            _m_dst: &f32,
        ) -> Option<f32> {
            (*m_src > 0.0).then_some(*m_src * 0.5)
        }

        fn combine(&self, a: f32, b: f32) -> f32 {
            a + b
        }

        fn apply(&self, _v: VertexId, current: &f32, update: f32) -> Option<f32> {
            (*current == 0.0).then_some(update)
        }

        fn converged(&self, iteration: u32, _frontier_len: u64, _meta: &[f32]) -> bool {
            iteration >= 8
        }
    }

    fn path_graph(n: u32) -> Graph {
        Graph::undirected_from_edges(EdgeList::from_pairs(
            (0..n - 1).map(|i| (i, i + 1)).collect(),
        ))
    }

    #[test]
    fn bound_graph_reuse_is_bit_equal_to_fresh_runs() {
        let g = path_graph(200);
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 3 }] {
            let cfg = EngineConfig::unscaled().with_exec(exec);
            let runtime = Runtime::new(cfg.clone()).expect("runtime");
            let bound = runtime.bind(&g);
            for src in [0u32, 7, 150] {
                let reused = bound
                    .run(Levels { src: 0 })
                    .source(src)
                    .execute()
                    .expect("reused run");
                let fresh_rt = Runtime::new(cfg.clone()).expect("runtime");
                let fresh = fresh_rt
                    .bind(&g)
                    .run(Levels { src })
                    .execute()
                    .expect("fresh run");
                assert_eq!(reused.meta, fresh.meta, "src {src}: metadata");
                assert_eq!(reused.report.log, fresh.report.log, "src {src}: log");
                assert_eq!(reused.report.stats, fresh.report.stats, "src {src}: stats");
            }
        }
    }

    #[test]
    fn run_batch_matches_per_query_loop() {
        let g = path_graph(128);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let seeds = [3u32, 64, 3, 127];
        let batch = bound.run_batch(Levels { src: 0 }, &seeds).expect("batch");
        assert_eq!(batch.len(), seeds.len());
        for (seed, got) in seeds.iter().zip(&batch) {
            let single = bound
                .run(Levels { src: *seed })
                .execute()
                .expect("single run");
            assert_eq!(got.meta, single.meta, "seed {seed}");
            assert_eq!(got.report.stats, single.report.stats, "seed {seed}");
        }
    }

    #[test]
    fn u32_and_f32_programs_share_one_arena_bit_equal_to_fresh_runtimes() {
        let g = path_graph(96);
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
            let cfg = EngineConfig::unscaled().with_exec(exec);
            let fresh = || Runtime::new(cfg.clone()).expect("runtime");
            let levels = fresh().bind(&g).run(Levels { src: 0 }).execute();
            let levels = levels.expect("levels");
            let mass = fresh().bind(&g).run(Mass).execute().expect("mass");
            let runtime = fresh();
            let bound = runtime.bind(&g);
            for _ in 0..2 {
                let l = bound.run(Levels { src: 0 }).execute().expect("levels");
                let m = bound.run(Mass).execute().expect("mass");
                assert_eq!(bound.idle_scratch_arenas(), 1, "{exec:?}: one arena");
                assert_eq!(l.meta, levels.meta);
                assert_eq!(l.report.log, levels.report.log);
                assert_eq!(l.report.stats, levels.report.stats);
                assert!(m
                    .meta
                    .iter()
                    .zip(&mass.meta)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                assert_eq!(m.report.log, mass.report.log);
                assert_eq!(m.report.stats, mass.report.stats);
            }
        }
    }

    #[test]
    fn builder_max_iterations_overrides_config() {
        let g = path_graph(50);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let err = bound
            .run(Levels { src: 0 })
            .max_iterations(3)
            .execute()
            .expect_err("capped run");
        assert_eq!(err, SimdxError::IterationLimit { max_iterations: 3 });
        // The override is per query: the next run uses the config cap.
        bound
            .run(Levels { src: 0 })
            .execute()
            .expect("uncapped run");
    }

    #[test]
    fn observer_sees_every_iteration_in_order() {
        let g = path_graph(20);
        let runtime =
            Runtime::new(EngineConfig::unscaled().with_direction(DirectionPolicy::FixedPush))
                .expect("runtime");
        let bound = runtime.bind(&g);
        let mut seen = Vec::new();
        let r = bound
            .run(Levels { src: 0 })
            .observe(|rec| seen.push((rec.iteration, rec.frontier_len)))
            .execute()
            .expect("observed run");
        assert_eq!(seen.len() as u32, r.report.iterations);
        for (i, (iter, len)) in seen.iter().enumerate() {
            assert_eq!(*iter, i as u32);
            assert_eq!(*len, 1);
        }
    }

    #[test]
    fn out_of_range_source_is_a_typed_error() {
        let g = path_graph(10);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let err = bound
            .run(Levels { src: 0 })
            .source(10)
            .execute()
            .expect_err("out of range");
        assert!(matches!(err, SimdxError::InvalidQuery { .. }));
        let err = bound
            .run_batch(Levels { src: 0 }, &[0, 99])
            .expect_err("bad batch seed");
        assert!(matches!(err, SimdxError::InvalidQuery { .. }));
    }

    #[test]
    fn invalid_config_is_rejected_at_runtime_construction() {
        let mut cfg = EngineConfig::unscaled();
        cfg.threads_per_cta = 0;
        assert!(matches!(
            Runtime::new(cfg),
            Err(SimdxError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn reuse_after_failed_run_stays_clean() {
        // An error exit leaves mid-run state in the scratch; the next
        // query must still see a clean session (reset at entry).
        let g = path_graph(50);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let err = bound
            .run(Levels { src: 0 })
            .max_iterations(2)
            .execute()
            .expect_err("capped");
        assert_eq!(err, SimdxError::IterationLimit { max_iterations: 2 });
        let ok = bound.run(Levels { src: 0 }).execute().expect("clean rerun");
        let fresh_rt = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let fresh = fresh_rt
            .bind(&g)
            .run(Levels { src: 0 })
            .execute()
            .expect("fresh");
        assert_eq!(ok.meta, fresh.meta);
        assert_eq!(ok.report.stats, fresh.report.stats);
    }

    #[test]
    fn overflow_error_carries_through_the_session_api() {
        let leaves = 10_000u32;
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            (1..=leaves).map(|i| (0, i)).collect(),
        ));
        let cfg = EngineConfig::unscaled()
            .with_filter(FilterPolicy::OnlineOnly)
            .with_direction(DirectionPolicy::FixedPush);
        let runtime = Runtime::new(cfg).expect("runtime");
        let err = runtime
            .bind(&g)
            .run(Levels { src: 0 })
            .execute()
            .expect_err("online overflow");
        assert_eq!(err, SimdxError::OnlineOverflow { iteration: 0 });
    }

    #[test]
    fn precancelled_token_aborts_before_the_first_iteration() {
        let g = path_graph(64);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let token = CancelToken::new();
        token.cancel();
        let err = bound
            .run(Levels { src: 0 })
            .cancel_token(token)
            .execute()
            .expect_err("cancelled");
        match err {
            SimdxError::Cancelled { progress } => {
                assert_eq!(progress.iterations, 0);
                assert_eq!(progress.edges_examined, 0);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The session stays reusable and bit-equal after the abort.
        let ok = bound.run(Levels { src: 0 }).execute().expect("clean rerun");
        let fresh_rt = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let fresh = fresh_rt
            .bind(&g)
            .run(Levels { src: 0 })
            .execute()
            .expect("fresh");
        assert_eq!(ok.meta, fresh.meta);
        assert_eq!(ok.report.stats, fresh.report.stats);
    }

    #[test]
    fn zero_deadline_aborts_with_typed_error() {
        let g = path_graph(64);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let err = bound
            .run(Levels { src: 0 })
            .deadline(Duration::ZERO)
            .execute()
            .expect_err("deadline");
        assert!(matches!(err, SimdxError::DeadlineExceeded { .. }));
        bound.run(Levels { src: 0 }).execute().expect("clean rerun");
    }

    #[test]
    fn cycle_budget_aborts_deterministically_mid_run() {
        let g = path_graph(200);
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 3 }] {
            let runtime = Runtime::new(EngineConfig::unscaled().with_exec(exec)).expect("runtime");
            let bound = runtime.bind(&g);
            let run_budgeted = || {
                bound
                    .run(Levels { src: 0 })
                    .cycle_budget(1)
                    .execute()
                    .expect_err("budget")
            };
            let (a, b) = (run_budgeted(), run_budgeted());
            // Budget checks consume only the deterministic simulated
            // cycle count, so the abort point is reproducible (the
            // progress's wall-clock `elapsed` is excluded: it is the
            // one non-deterministic field).
            match (a, b) {
                (
                    SimdxError::BudgetExhausted {
                        budget: ba,
                        progress: pa,
                    },
                    SimdxError::BudgetExhausted {
                        budget: bb,
                        progress: pb,
                    },
                ) => {
                    assert_eq!((ba, bb), (1, 1));
                    assert_eq!(pa.iterations, pb.iterations);
                    assert_eq!(pa.edges_examined, pb.edges_examined);
                }
                other => panic!("expected two BudgetExhausted aborts, got {other:?}"),
            }
            bound.run(Levels { src: 0 }).execute().expect("clean rerun");
        }
    }

    #[test]
    fn successful_runs_report_supervision_fields() {
        let g = path_graph(32);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let plain = bound.run(Levels { src: 0 }).execute().expect("plain");
        assert_eq!(
            plain.report.supervision_checks, 0,
            "unsupervised runs never poll"
        );
        let supervised = bound
            .run(Levels { src: 0 })
            .cancel_token(CancelToken::new())
            .deadline(Duration::from_secs(3600))
            .cycle_budget(u64::MAX)
            .execute()
            .expect("supervised");
        // The meter is bounded by the run's own shape: a boundary and a
        // mid-iteration check per iteration, plus one poll per
        // `POLL_STRIDE` tasks (rounded up) of each of the three
        // worklists — never one per vertex or per edge.
        let report = &supervised.report;
        let stride = crate::supervise::POLL_STRIDE as u64;
        let ceiling: u64 = report
            .log
            .records
            .iter()
            .map(|r| 5 + r.frontier_len / stride)
            .sum();
        assert!(
            (2 * u64::from(report.iterations)..=ceiling).contains(&report.supervision_checks),
            "{} checks over {} iterations (ceiling {ceiling})",
            report.supervision_checks,
            report.iterations
        );
        // Supervision is host-side only: results stay bit-equal.
        assert_eq!(plain.meta, supervised.meta);
        assert_eq!(plain.report.stats, supervised.report.stats);
        assert_eq!(plain.report.log, supervised.report.log);
    }

    /// A levels program that panics exactly once (shared flag): a
    /// transient worker fault, entering where faults do — the program.
    #[derive(Clone)]
    struct PanicOnce {
        inner: Levels,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl AccProgram for PanicOnce {
        type Meta = u32;
        type Update = u32;

        fn name(&self) -> &'static str {
            "panic-once"
        }

        fn combine_kind(&self) -> CombineKind {
            self.inner.combine_kind()
        }

        fn init(&self, g: &Graph) -> (Vec<u32>, Vec<VertexId>) {
            self.inner.init(g)
        }

        fn active(&self, v: VertexId, curr: &u32, prev: &u32) -> bool {
            if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("transient worker fault");
            }
            self.inner.active(v, curr, prev)
        }

        fn compute(
            &self,
            src: VertexId,
            dst: VertexId,
            w: Weight,
            m_src: &u32,
            m_dst: &u32,
        ) -> Option<u32> {
            self.inner.compute(src, dst, w, m_src, m_dst)
        }

        fn combine(&self, a: u32, b: u32) -> u32 {
            self.inner.combine(a, b)
        }

        fn apply(&self, v: VertexId, current: &u32, update: u32) -> Option<u32> {
            self.inner.apply(v, current, update)
        }

        fn pull_candidate(&self, v: VertexId, meta: &u32) -> bool {
            self.inner.pull_candidate(v, meta)
        }
    }

    #[test]
    fn a_worker_panic_is_a_typed_error_and_the_pool_is_rebuilt() {
        let g = path_graph(150);
        let armed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let program = PanicOnce {
            inner: Levels { src: 0 },
            armed,
        };
        // The ballot scan is the one step `Parallel` runs on the pool,
        // so under `BallotOnly` a fault in `active` lands inside a pool
        // region and poisons the pool (a compute fault would land on
        // the submitting thread, outside any region).
        let cfg = EngineConfig::unscaled()
            .with_exec(ExecMode::Parallel { threads: 3 })
            .with_filter(FilterPolicy::BallotOnly);
        let runtime = Runtime::new(cfg.clone()).expect("runtime");
        assert_eq!(runtime.pools.idle_pools(), 1, "the pre-spawned pool");
        let bound = runtime.bind(&g);
        let err = bound.run(program.clone()).execute().expect_err("contained");
        match err {
            SimdxError::WorkerPanicked { payload, .. } => {
                assert!(
                    payload.contains("transient worker fault"),
                    "payload: {payload}"
                );
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(
            runtime.pools.idle_pools(),
            0,
            "the poisoned pool is discarded at check-in"
        );
        // The poisoned pool is rebuilt transparently: the next query
        // spawns a fresh pool, runs parallel again, checks the new pool
        // in and matches the parallel baseline.
        let next = bound.run(program).execute().expect("rebuilt pool run");
        assert_eq!(runtime.pools.idle_pools(), 1, "the rebuilt pool");
        let parallel_rt = Runtime::new(cfg).expect("parallel runtime");
        let parallel = parallel_rt
            .bind(&g)
            .run(Levels { src: 0 })
            .execute()
            .expect("parallel baseline");
        assert_eq!(next.meta, parallel.meta);
        assert_eq!(next.report.stats, parallel.report.stats);
    }

    #[test]
    fn run_batch_fails_fast_on_a_bad_seed() {
        let g = path_graph(128);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        // The fail-fast batch loses seed 3's report to seed 999.
        assert!(matches!(
            bound.run_batch(Levels { src: 0 }, &[3u32, 999, 64]),
            Err(SimdxError::InvalidQuery { .. })
        ));
    }

    #[test]
    fn arming_checkpoints_does_not_change_results() {
        let g = path_graph(100);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        let plain = bound.run(Levels { src: 0 }).execute().expect("plain");
        let armed = bound
            .run(Levels { src: 0 })
            .checkpoint_on_abort()
            .execute()
            .expect("armed");
        assert_eq!(plain.meta, armed.meta);
        assert_eq!(plain.report.log, armed.report.log);
        assert_eq!(plain.report.stats, armed.report.stats);
    }

    #[test]
    fn scratch_pool_reaches_bounded_steady_state() {
        let g = path_graph(96);
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let bound = runtime.bind(&g);
        assert_eq!(bound.idle_scratch_arenas(), 0, "no arenas before a query");
        // Sequential queries of one metadata type reuse a single arena
        // forever — the pool never grows past it.
        for _ in 0..20 {
            bound.run(Levels { src: 0 }).execute().expect("levels");
        }
        assert_eq!(bound.idle_scratch_arenas(), 1);
        // A second metadata type reuses the same arena.
        bound.run(Mass).execute().expect("mass");
        assert_eq!(bound.idle_scratch_arenas(), 1);
    }

    #[test]
    fn runtime_arena_stash_caps_prefers_a_matching_size_and_refits() {
        let (small, large) = (path_graph(70), path_graph(300));
        let runtime = Runtime::new(EngineConfig::unscaled()).expect("runtime");
        let (bs, bl) = (runtime.bind(&small), runtime.bind(&large));
        let idle = || (bs.idle_scratch_arenas(), bl.idle_scratch_arenas());
        // Bit-equal to a fresh runtime's run, whichever arena it got.
        let run = |bound: &BoundGraph, g: &Graph| {
            let fresh_rt = Runtime::new(EngineConfig::unscaled()).expect("runtime");
            let fresh = fresh_rt.bind(g).run(Mass).execute().expect("fresh");
            let got = bound.run(Mass).execute().expect("reused");
            assert!(got
                .meta
                .iter()
                .zip(&fresh.meta)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(got.report.stats, fresh.report.stats);
        };
        // The cap: a burst's check-ins beyond 8 are dropped.
        let burst: Vec<_> = (0..MAX_IDLE_ARENAS + 3)
            .map(|_| bs.checkout_scratch())
            .collect();
        burst.into_iter().for_each(|a| bs.checkin_scratch(a));
        assert_eq!(idle(), (MAX_IDLE_ARENAS, 0));
        // A graph of another size refits an idle arena, creating none.
        run(&bl, &large);
        assert_eq!(idle(), (MAX_IDLE_ARENAS - 1, 1));
        // The refitted arena sits on top of the stash, yet each graph
        // takes one sized for it.
        run(&bs, &small);
        run(&bl, &large);
        assert_eq!(idle(), (MAX_IDLE_ARENAS - 1, 1));
    }

    #[test]
    fn queries_from_many_threads_share_one_bound_graph() {
        // Smoke test for the Sync contract (the full N×M stress matrix
        // lives in `tests/concurrent_serving.rs`): four threads query
        // one bound graph concurrently and every result is bit-equal
        // to the single-threaded baseline.
        let g = path_graph(200);
        for exec in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
            let cfg = EngineConfig::unscaled().with_exec(exec);
            let runtime = Runtime::new(cfg).expect("runtime");
            let bound = runtime.bind(&g);
            let seeds = [0u32, 7, 64, 150];
            let baselines: Vec<_> = seeds
                .iter()
                .map(|&s| bound.run(Levels { src: s }).execute().expect("baseline"))
                .collect();
            std::thread::scope(|scope| {
                for (&seed, baseline) in seeds.iter().zip(&baselines) {
                    let bound = &bound;
                    scope.spawn(move || {
                        for _ in 0..3 {
                            let got = bound
                                .run(Levels { src: 0 })
                                .source(seed)
                                .execute()
                                .expect("concurrent run");
                            assert_eq!(got.meta, baseline.meta, "seed {seed}");
                            assert_eq!(got.report.stats, baseline.report.stats, "seed {seed}");
                            assert_eq!(got.report.log, baseline.report.log, "seed {seed}");
                        }
                    });
                }
            });
        }
    }
}
