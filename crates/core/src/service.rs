//! Concurrent query serving: a bounded-queue `QueryPool` over one
//! shared [`BoundGraph`].
//!
//! The session API makes concurrent queries *possible* (`Runtime` and
//! `BoundGraph` are `Sync`; see `session`'s module docs for the
//! sharing model); this module makes them *operable*. A
//! [`QueryPool::serve`] call stands up the paper's target shape — one
//! bound graph answering a stream of single-source queries for many
//! clients — as a closed-loop service:
//!
//! * a **bounded submission queue** ([`ServiceConfig::queue_depth`])
//!   with admission control: [`AdmissionPolicy::Block`] applies
//!   backpressure to the producer, [`AdmissionPolicy::Reject`] fails
//!   the submission with [`SimdxError::Overloaded`] so the caller can
//!   shed load;
//! * **N serving threads** ([`ServiceConfig::workers`]), each running
//!   independent queries over the shared bind-time core — every thread
//!   checks its own worker pool and scratch arena out of the session's
//!   stashes, so queries never contend on engine state;
//! * a **batching scheduler**: each serving thread drains up to
//!   [`ServiceConfig::batch_max`] queued requests per turn and runs
//!   them over a single scratch checkout (the `run_batch`
//!   amortization), without delaying a lone request — batches form
//!   only from queue backlog;
//! * **per-query supervision**: every [`QueryRequest`] carries its own
//!   optional [`CancelToken`], deadline and cycle budget. Deadlines
//!   are measured from *submission*, so time spent queued counts
//!   against the query — a request that waited out its whole deadline
//!   in the queue aborts immediately with
//!   [`SimdxError::DeadlineExceeded`] instead of running late.
//!
//! Results are collected into a [`ServeReport`]: one [`ServeOutcome`]
//! per accepted ticket (in ticket order) with its submission-to-result
//! latency, plus the closed-loop elapsed time — everything a harness
//! needs for queries/sec and p50/p99 latency (the repo benchmark's
//! `service.*` layer metrics on `serve_open` are built from it).
//!
//! Serving threads are *scoped* (`std::thread::scope`): they borrow
//! the `BoundGraph` directly, so the service needs no `'static`
//! plumbing and cannot outlive the graph it serves. The producer
//! closure runs on the calling thread concurrently with the serving
//! threads; when it returns, the queue closes, the workers drain every
//! accepted request, and `serve` returns the report.
//!
//! Every query served concurrently remains **bit-equal** to running it
//! alone on a fresh engine — same metadata, activation logs and
//! simulated cycles (`tests/concurrent_serving.rs` asserts the matrix,
//! including mid-stream cancellations and worker panics raised by a
//! query's own program).
//!
//! With [`ServiceConfig::durability`] armed, the pool also survives
//! its own process: final-failure checkpoints (retries exhausted, or
//! an abort-mode shutdown) are spilled through a
//! [`crate::persist::CheckpointStore`] and a fresh process picks them
//! back up with [`QueryPool::recover`] — completing each one bit-equal
//! to the uninterrupted run (`tests/durable_recovery.rs` SIGKILLs a
//! serving process mid-batch and proves it).
//!
//! # Example
//!
//! ```
//! use simdx_core::prelude::*;
//! use simdx_core::service::{QueryPool, QueryRequest, ServiceConfig};
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
//! let report = QueryPool::serve(
//!     &bound,
//!     Levels { src: 0 },
//!     ServiceConfig::default().workers(2),
//!     |client| {
//!         for seed in [0u32, 1, 2, 3] {
//!             client.submit(QueryRequest::new(seed))?;
//!         }
//!         Ok(())
//!     },
//! )?;
//! assert_eq!(report.outcomes.len(), 4);
//! assert_eq!(
//!     report.outcomes[1].result.as_ref().unwrap().meta,
//!     vec![u32::MAX, 0, 1, 2],
//! );
//! # Ok::<(), SimdxError>(())
//! ```

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::acc::SourcedProgram;
use crate::checkpoint::RunCheckpoint;
use crate::error::SimdxError;
use crate::metrics::RunResult;
use crate::persist::{self, CheckpointStore, DurableCheckpoint, PersistMeta};
use crate::scratch::IterScratch;
use crate::session::{BoundGraph, Query};
use crate::supervise::{CancelToken, RunProgress};
use crate::sync::Arc;
use simdx_graph::VertexId;

/// What [`QueryClient::submit`] does when the submission queue is at
/// [`ServiceConfig::queue_depth`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the producer until a serving thread drains a slot —
    /// backpressure (default).
    #[default]
    Block,
    /// Fail the submission with [`SimdxError::Overloaded`] — load
    /// shedding; the query is never admitted and gets no ticket.
    Reject,
}

/// How many times a serving thread attempts one query, and how long it
/// waits between attempts.
///
/// Attempts after the first *resume from the query's last boundary
/// checkpoint* ([`RunCheckpoint`]) rather than restarting, so a
/// deadline set 1 ms too tight costs one iteration of progress, not
/// the whole run. Retryable aborts are the transient ones —
/// [`SimdxError::WorkerPanicked`], [`SimdxError::DeadlineExceeded`]
/// and [`SimdxError::BudgetExhausted`]; a cancellation
/// ([`SimdxError::Cancelled`]) is the caller's decision and is never
/// retried — nor, when it came through the request's own token, spilled
/// by an armed [`DurabilityPolicy`]. On a retried attempt the deadline
/// allowance is granted fresh from the attempt's start and the cycle
/// budget is granted on top of the checkpoint's spent cycles —
/// otherwise the retry would re-trip at the same boundary it just
/// aborted at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per query, first included. `1` (the default)
    /// disables retries *and* the per-query checkpoint capture — the
    /// zero-overhead path.
    pub max_attempts: u32,
    /// Base wait before the second attempt; doubles per further
    /// attempt (attempt `k` waits `backoff × 2^(k-2)`). Zero (the
    /// default) retries immediately.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// Builder: total attempts per query (≥ 1).
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts;
        self
    }

    /// Builder: base backoff before the second attempt (doubles per
    /// further attempt).
    pub fn backoff(mut self, base: Duration) -> Self {
        self.backoff = base;
        self
    }
}

/// Where the pool durably spills final-failure checkpoints
/// ([`ServiceConfig::durability`]).
///
/// When armed, every final outcome that fails *with a captured
/// checkpoint* — retries exhausted, or an abort-mode shutdown
/// cancelling in-flight queries — is encoded
/// ([`crate::persist::encode`]) and written through the wrapped
/// [`CheckpointStore`] under the query's ticket, so a later process
/// can pick the work back up with [`QueryPool::recover`]. The one
/// exception is a query cancelled through its *own*
/// [`QueryRequest::cancel_token`]: its caller withdrew it, so it is not
/// spilled (recovery would resurrect it) and only the in-memory
/// [`ServeOutcome::checkpoint`] is handed back. Arming
/// durability implies checkpoint capture
/// (like [`ServiceConfig::checkpoint_aborts`]); spilling itself only
/// touches the store on the failure path, so the success path stays at
/// capture cost.
///
/// Spill failures (a full disk, a store's i/o error) never
/// fail the serve call: the outcome still lands in the report with its
/// in-memory checkpoint attached, and the failed spill is surfaced in
/// [`ServeReport::spill_failures`].
#[derive(Clone)]
pub struct DurabilityPolicy {
    store: Arc<dyn CheckpointStore>,
}

impl DurabilityPolicy {
    /// Spill through `store` (shared; the pool never takes ownership
    /// of the underlying directory or medium).
    pub fn spill_to(store: impl CheckpointStore + 'static) -> Self {
        Self {
            store: Arc::new(store),
        }
    }

    /// The wrapped store.
    pub(crate) fn store(&self) -> &dyn CheckpointStore {
        &*self.store
    }
}

impl std::fmt::Debug for DurabilityPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityPolicy")
            .field("store", &"<dyn CheckpointStore>")
            .finish()
    }
}

/// How [`QueryClient::close`] shuts the pool down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CloseMode {
    /// Stop admitting, finish everything already admitted (the same
    /// drain `serve` performs when the producer returns).
    #[default]
    Drain,
    /// Stop admitting *and* stop working: in-flight queries abort at
    /// their next supervision check (as [`SimdxError::Cancelled`],
    /// carrying their boundary checkpoint when
    /// [`ServiceConfig::checkpoint_aborts`] or a multi-attempt
    /// [`RetryPolicy`] armed capture), and queued-but-unserved queries
    /// come back as zero-progress cancellations. Every admitted ticket
    /// still gets an outcome.
    Abort,
}

/// Knobs for one [`QueryPool::serve`] call.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Serving threads. Each runs independent queries over the shared
    /// core with its own worker-pool and scratch checkouts, so total
    /// host threads ≈ `workers × Runtime::threads`.
    pub workers: usize,
    /// Bounded submission-queue capacity (requests admitted but not
    /// yet picked up by a serving thread).
    pub queue_depth: usize,
    /// Most queued requests one serving thread drains per turn onto a
    /// single scratch checkout. `1` disables batching.
    pub batch_max: usize,
    /// Reaction to a full queue at submit time.
    pub admission: AdmissionPolicy,
    /// Per-query retry-with-resume policy. The default single attempt
    /// keeps serving on the zero-capture-overhead path.
    pub retry: RetryPolicy,
    /// Consecutive final-outcome worker panics that open the circuit
    /// breaker. `0` (the default) disables the breaker entirely.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds before half-opening to admit a
    /// single probe query.
    pub breaker_cooldown: Duration,
    /// Arm boundary checkpointing even without retries, so every
    /// aborted outcome carries its [`RunCheckpoint`] back to the
    /// submitter ([`ServeOutcome::checkpoint`]) — the abort-mode
    /// shutdown's hand-back, or manual resume via
    /// [`crate::session::BoundGraph::resume`]. Off by default: capture
    /// costs one metadata copy per iteration.
    pub checkpoint_aborts: bool,
    /// Durable spill-on-failure: when `Some`, final-failure
    /// checkpoints are persisted through the policy's
    /// [`CheckpointStore`] so [`QueryPool::recover`] can resume them
    /// in a later process. Implies checkpoint capture. `None` (the
    /// default) keeps serving purely in-memory.
    pub durability: Option<DurabilityPolicy>,
}

impl Default for ServiceConfig {
    /// Two serving threads, a 64-deep queue, batches of up to 8,
    /// blocking admission; no retries, no breaker, no checkpointing.
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
            batch_max: 8,
            admission: AdmissionPolicy::Block,
            retry: RetryPolicy::default(),
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_millis(100),
            checkpoint_aborts: false,
            durability: None,
        }
    }
}

impl ServiceConfig {
    /// Builder: set the serving-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Builder: set the submission-queue capacity.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Builder: set the per-turn batching cap.
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }

    /// Builder: set the admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Builder: set the retry-with-resume policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: enable the circuit breaker — open after `threshold`
    /// consecutive worker-panic outcomes, shed with
    /// [`SimdxError::Unavailable`] for `cooldown`, then half-open a
    /// probe.
    pub fn breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Builder: arm checkpoint capture on every query so aborted
    /// outcomes carry a resumable [`RunCheckpoint`].
    pub fn checkpoint_aborts(mut self, arm: bool) -> Self {
        self.checkpoint_aborts = arm;
        self
    }

    /// Builder: durably spill final-failure checkpoints through
    /// `policy`'s store for cross-process recovery
    /// ([`QueryPool::recover`]). Implies checkpoint capture.
    pub fn durability(mut self, policy: DurabilityPolicy) -> Self {
        self.durability = Some(policy);
        self
    }

    fn validate(&self) -> Result<(), SimdxError> {
        let fail = |reason: String| Err(SimdxError::InvalidConfig { reason });
        if self.workers == 0 {
            return fail("service needs at least 1 serving thread".to_string());
        }
        if self.queue_depth == 0 {
            return fail("service queue_depth must be at least 1".to_string());
        }
        if self.batch_max == 0 {
            return fail("service batch_max must be at least 1".to_string());
        }
        if self.retry.max_attempts == 0 {
            return fail("retry max_attempts must be at least 1 (1 = no retries)".to_string());
        }
        if self.breaker_threshold > 0 && self.breaker_cooldown.is_zero() {
            return fail("breaker_cooldown must be non-zero when the breaker is armed".to_string());
        }
        Ok(())
    }

    /// Whether serving arms the engine's per-iteration checkpoint
    /// capture: explicitly requested, implied by a multi-attempt retry
    /// policy (a retry without a checkpoint is just a restart), or
    /// implied by durability (a spill without a checkpoint has nothing
    /// to persist).
    fn arms_checkpoints(&self) -> bool {
        self.checkpoint_aborts || self.retry.max_attempts > 1 || self.durability.is_some()
    }
}

/// One query to submit: a seed plus optional per-query supervision.
#[derive(Clone, Debug, Default)]
pub struct QueryRequest {
    seed: VertexId,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
    cycle_budget: Option<u64>,
}

impl QueryRequest {
    /// A plain query rooted at `seed` (validated against the bound
    /// graph when served, like [`crate::session::RunBuilder::source`]).
    pub fn new(seed: VertexId) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Attaches a cancellation token (keep a clone to cancel the query
    /// from any thread, whether it is still queued or already running).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps this query's wall-clock time **from submission**: time
    /// spent waiting in the queue counts, so an expired deadline
    /// aborts the query the moment a serving thread picks it up.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Caps this query's simulated device cycles
    /// ([`crate::session::RunBuilder::cycle_budget`]).
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = Some(cycles);
        self
    }
}

/// Receipt for an admitted query: its index into
/// [`ServeReport::outcomes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryTicket {
    index: usize,
}

impl QueryTicket {
    /// The outcome slot this ticket's result lands in.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// The served result of one admitted query.
#[derive(Clone, Debug)]
pub struct ServeOutcome<M: Copy> {
    /// The query's seed vertex.
    pub seed: VertexId,
    /// The run's result — bit-equal to a solo run of the same query —
    /// or its typed abort.
    pub result: Result<RunResult<M>, SimdxError>,
    /// Submission-to-completion latency (queue wait included, retries
    /// included).
    pub latency: Duration,
    /// Serving attempts this query took (1 = served without retrying;
    /// 0 never occurs for a served query — a queued query cancelled by
    /// an abort-mode close reports 0 attempts).
    pub attempts: u32,
    /// The query's last boundary checkpoint when it aborted with
    /// capture armed ([`ServiceConfig::checkpoint_aborts`] or a
    /// multi-attempt [`RetryPolicy`] with attempts exhausted) — resume
    /// it with [`crate::session::BoundGraph::resume`]. `None` on
    /// success, with capture unarmed, or when the abort struck before
    /// the first iteration boundary.
    pub checkpoint: Option<RunCheckpoint<M>>,
}

/// Everything one [`QueryPool::serve`] call produced.
#[derive(Clone, Debug)]
pub struct ServeReport<M: Copy> {
    /// One outcome per admitted ticket, in ticket order
    /// ([`QueryTicket::index`] indexes this). Rejected submissions
    /// ([`AdmissionPolicy::Reject`]) never got a ticket and do not
    /// appear.
    pub outcomes: Vec<ServeOutcome<M>>,
    /// Serving-thread turns taken — `outcomes.len() / batches` is the
    /// achieved batching factor.
    pub batches: u64,
    /// Wall-clock time of the whole closed loop (first submission
    /// possible to last query drained).
    pub elapsed: Duration,
    /// Tickets whose final-failure checkpoints were durably spilled
    /// ([`ServiceConfig::durability`]), ascending — recover them with
    /// [`QueryPool::recover`]. Empty when durability is unarmed.
    pub spilled: Vec<u64>,
    /// Spills that themselves failed (ticket, typed store error). The
    /// query's outcome still carries its in-memory checkpoint; only
    /// the durable copy is missing.
    pub spill_failures: Vec<(u64, SimdxError)>,
}

impl<M: Copy> ServeReport<M> {
    /// Served queries that completed without an error.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Closed-loop throughput over every admitted query.
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Nearest-rank latency percentile (`p` in `[0, 100]`) over every
    /// admitted query's submission-to-completion latency.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.outcomes.is_empty() {
            return Duration::ZERO;
        }
        let mut lat: Vec<Duration> = self.outcomes.iter().map(|o| o.latency).collect();
        lat.sort_unstable();
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.saturating_sub(1).min(lat.len() - 1)]
    }
}

/// One admitted, not-yet-served request.
struct Entry {
    ticket: usize,
    request: QueryRequest,
    submitted: Instant,
}

struct QueueState {
    queue: VecDeque<Entry>,
    next_ticket: usize,
    closed: bool,
    /// Set by [`CloseMode::Abort`]: serving threads hand queued entries
    /// back as zero-progress cancellations instead of running them.
    aborted: bool,
}

/// The worker-panic circuit breaker as a standalone, explicitly-timed
/// state machine: closed (healthy) when `opened_at` is `None`; open
/// (shedding) while `opened_at` is within the cooldown; half-open (one
/// probe in flight) when `probing`.
///
/// [`QueryPool`] wraps one in a mutex and feeds it `Instant::now()`;
/// every transition takes the clock as an argument, so the
/// deterministic interleaving harness (`tests/model_interleave.rs`)
/// drives the same machine through enumerated schedules and synthetic
/// clocks — no wall-clock read hides inside a transition.
#[derive(Debug)]
pub struct Breaker {
    /// Consecutive worker-panic final outcomes observed while closed.
    consecutive: u32,
    /// When the breaker last opened; `None` = closed.
    opened_at: Option<Instant>,
    /// A half-open probe query has been admitted and its outcome is
    /// still pending; further submissions shed until it lands.
    probing: bool,
    /// Opens after this many consecutive worker-panic outcomes.
    threshold: u32,
    /// How long an open breaker sheds before half-opening.
    cooldown: Duration,
}

impl Breaker {
    /// A closed breaker opening after `threshold` consecutive
    /// worker-panic outcomes and shedding for `cooldown` before each
    /// half-open probe.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            consecutive: 0,
            opened_at: None,
            probing: false,
            threshold,
            cooldown,
        }
    }

    /// Admission gate: `Ok(())` admits the submission (possibly as the
    /// half-open probe), `Err(retry_after)` sheds it.
    pub fn admit(&mut self, now: Instant) -> Result<(), Duration> {
        if let Some(opened) = self.opened_at {
            let elapsed = now.saturating_duration_since(opened);
            if elapsed < self.cooldown {
                return Err(self.cooldown - elapsed);
            }
            // Cooled down: half-open. Admit exactly one probe; shed the
            // rest until its outcome lands.
            if self.probing {
                return Err(self.cooldown);
            }
            self.probing = true;
        }
        Ok(())
    }

    /// Feeds one query's *final* outcome into the machine: `panicked`
    /// means a worker-panic outcome (the only failure kind that speaks
    /// to service health).
    pub fn record(&mut self, panicked: bool, now: Instant) {
        if panicked {
            self.consecutive += 1;
            if self.probing || self.consecutive >= self.threshold {
                // Threshold tripped, or the half-open probe died:
                // (re)open for a fresh cooldown.
                self.opened_at = Some(now);
                self.probing = false;
                self.consecutive = 0;
            }
        } else {
            self.consecutive = 0;
            self.opened_at = None;
            self.probing = false;
        }
    }

    /// Whether a submission at `now` would be shed (open and still
    /// cooling, or half-open with the probe outstanding).
    pub fn is_shedding(&self, now: Instant) -> bool {
        match self.opened_at {
            None => false,
            Some(opened) => now.saturating_duration_since(opened) < self.cooldown || self.probing,
        }
    }
}

/// The bounded submission queue shared by the producer and the serving
/// threads. Plain `Mutex` + two `Condvar`s: submitters wait on
/// `not_full` (blocking admission), serving threads on `not_empty`.
struct SharedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
    admission: AdmissionPolicy,
    /// `Some` when [`ServiceConfig::breaker_threshold`] > 0.
    breaker: Option<Mutex<Breaker>>,
    /// Pool-wide shutdown token; cancelled by [`CloseMode::Abort`] and
    /// attached to every query's supervisor so in-flight runs abort at
    /// their next supervision check.
    shutdown: CancelToken,
}

impl SharedQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Breaker gate at submit time: `Err(Unavailable)` sheds the
    /// submission, `Ok(())` admits it (possibly as the half-open
    /// probe).
    fn breaker_admit(&self) -> Result<(), SimdxError> {
        let Some(breaker) = &self.breaker else {
            return Ok(());
        };
        breaker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .admit(Instant::now())
            .map_err(|retry_after| SimdxError::Unavailable { retry_after })
    }

    /// Feeds one query's *final* outcome (retries already exhausted or
    /// not configured) into the breaker. Only worker panics count as
    /// failures: supervision aborts and invalid queries say nothing
    /// about service health.
    fn breaker_record(&self, panicked: bool) {
        let Some(breaker) = &self.breaker else {
            return;
        };
        breaker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record(panicked, Instant::now());
    }
}

/// Closes the queue on drop — on the producer's return and on its
/// unwind alike (see [`QueryPool::serve`]).
struct CloseOnDrop<'a>(&'a SharedQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The producer's handle into a running [`QueryPool::serve`] call.
pub struct QueryClient<'a> {
    shared: &'a SharedQueue,
}

impl QueryClient<'_> {
    /// Submits one query. Under [`AdmissionPolicy::Block`] this waits
    /// for queue space; under [`AdmissionPolicy::Reject`] a full queue
    /// fails with [`SimdxError::Overloaded`] and the query is never
    /// admitted. An open circuit breaker sheds the submission with
    /// [`SimdxError::Unavailable`] before it touches the queue, and a
    /// closed pool ([`Self::close`]) rejects it as
    /// [`SimdxError::InvalidQuery`]. On success the returned ticket
    /// indexes the query's slot in [`ServeReport::outcomes`].
    pub fn submit(&self, request: QueryRequest) -> Result<QueryTicket, SimdxError> {
        self.shared.breaker_admit()?;
        let index;
        {
            let mut st = self.shared.lock();
            loop {
                if st.closed {
                    return Err(SimdxError::InvalidQuery {
                        reason: "query pool is closed".to_string(),
                    });
                }
                if st.queue.len() < self.shared.depth {
                    break;
                }
                match self.shared.admission {
                    AdmissionPolicy::Reject => {
                        return Err(SimdxError::Overloaded {
                            capacity: self.shared.depth,
                            depth: st.queue.len(),
                        })
                    }
                    AdmissionPolicy::Block => {
                        st = self
                            .shared
                            .not_full
                            .wait(st)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
            index = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push_back(Entry {
                ticket: index,
                request,
                submitted: Instant::now(),
            });
        }
        self.shared.not_empty.notify_one();
        Ok(QueryTicket { index })
    }

    /// Requests currently admitted but not yet picked up.
    pub fn queued(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Closes the pool from inside the producer. Later [`Self::submit`]
    /// calls fail with [`SimdxError::InvalidQuery`]; what happens to
    /// already-admitted work depends on the mode:
    ///
    /// - [`CloseMode::Drain`] finishes everything admitted — identical
    ///   to returning from the producer, just earlier.
    /// - [`CloseMode::Abort`] cancels the pool-wide shutdown token so
    ///   in-flight queries abort at their next supervision check
    ///   ([`SimdxError::Cancelled`], checkpoint attached when capture
    ///   is armed), and queued-but-unserved queries come back as
    ///   zero-progress, zero-attempt cancellations. Every admitted
    ///   ticket still gets its outcome slot in the report.
    ///
    /// Idempotent; an `Abort` after a `Drain` still escalates.
    pub fn close(&self, mode: CloseMode) {
        {
            let mut st = self.shared.lock();
            st.closed = true;
            if mode == CloseMode::Abort {
                st.aborted = true;
            }
        }
        if mode == CloseMode::Abort {
            self.shared.shutdown.cancel();
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }
}

/// The concurrent serving front-end; see the module docs.
pub struct QueryPool;

impl QueryPool {
    /// Serves queries over `bound` with `config.workers` scoped
    /// serving threads while `producer` — run on the calling thread —
    /// submits them through the [`QueryClient`]. When the producer
    /// returns, the queue closes, every admitted query is drained, and
    /// the per-ticket outcomes come back as a [`ServeReport`].
    ///
    /// A producer error cancels nothing retroactively: already
    /// admitted queries still run, but their outcomes are discarded
    /// with the error. Propagate submission failures only when that is
    /// acceptable (a load-shedding producer should tolerate
    /// [`SimdxError::Overloaded`] instead).
    pub fn serve<P, F>(
        bound: &BoundGraph<'_, '_>,
        program: P,
        config: ServiceConfig,
        producer: F,
    ) -> Result<ServeReport<P::Meta>, SimdxError>
    where
        P: SourcedProgram,
        P::Meta: PersistMeta,
        F: FnOnce(&QueryClient<'_>) -> Result<(), SimdxError>,
    {
        config.validate()?;
        let shared = SharedQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_depth),
                next_ticket: 0,
                closed: false,
                aborted: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: config.queue_depth,
            admission: config.admission,
            breaker: (config.breaker_threshold > 0).then(|| {
                Mutex::new(Breaker::new(
                    config.breaker_threshold,
                    config.breaker_cooldown,
                ))
            }),
            shutdown: CancelToken::new(),
        };
        let slots: Mutex<Vec<Option<ServeOutcome<P::Meta>>>> = Mutex::new(Vec::new());
        let spills: Mutex<SpillLog> = Mutex::new(SpillLog::default());
        let batches = AtomicU64::new(0);
        let started = Instant::now();
        let produced = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(config.workers);
            let mut spawn_failed = None;
            for w in 0..config.workers {
                let (shared, slots, spills, batches, program, config) =
                    (&shared, &slots, &spills, &batches, &program, &config);
                let spawned = std::thread::Builder::new()
                    .name(format!("simdx-serve-{w}"))
                    .spawn_scoped(scope, move || {
                        serve_loop(bound, program, config, shared, slots, spills, batches);
                    });
                match spawned {
                    Ok(handle) => handles.push(handle),
                    Err(e) => {
                        // OS thread exhaustion is an operator problem,
                        // not a panic: close the queue (nothing was
                        // admitted yet — the producer never ran), let
                        // any already-spawned workers drain out, and
                        // surface a typed error.
                        spawn_failed = Some(SimdxError::InvalidConfig {
                            reason: format!(
                                "cannot spawn serving thread {w} of {}: {e}",
                                config.workers
                            ),
                        });
                        break;
                    }
                }
            }
            let produced = {
                // Closes the queue when the producer returns *or
                // unwinds*: a panicking producer must still release the
                // serving threads parked on `not_empty`, or the scope
                // would wait on them forever instead of re-raising the
                // panic. Admitted queries drain either way.
                let _close = CloseOnDrop(&shared);
                match spawn_failed {
                    None => producer(&QueryClient { shared: &shared }),
                    Some(err) => Err(err),
                }
            };
            for handle in handles {
                // Engine panics are contained inside the execute path,
                // so a serving thread only dies of a harness bug; don't
                // swallow that.
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            produced
        });
        produced?;
        let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut outcomes = Vec::with_capacity(slots.len());
        for (ticket, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(outcome) => outcomes.push(outcome),
                // Unreachable by construction (every drained entry is
                // published, abort-mode orphans included); surface a
                // typed error rather than panicking if the invariant
                // ever breaks.
                None => {
                    return Err(SimdxError::InvalidQuery {
                        reason: format!(
                            "internal serving invariant broken: \
                             ticket {ticket} was admitted but never produced an outcome"
                        ),
                    })
                }
            }
        }
        let mut spills = spills.into_inner().unwrap_or_else(PoisonError::into_inner);
        spills.spilled.sort_unstable();
        spills.failures.sort_unstable_by_key(|(ticket, _)| *ticket);
        Ok(ServeReport {
            outcomes,
            batches: batches.into_inner(),
            elapsed: started.elapsed(),
            spilled: spills.spilled,
            spill_failures: spills.failures,
        })
    }

    /// Scans `store` for checkpoints spilled by an earlier process
    /// ([`ServiceConfig::durability`]) and resumes each one over
    /// `bound` via [`crate::session::BoundGraph::resume`] — completing
    /// it **bit-equal** to the uninterrupted run (same metadata,
    /// activation log and simulated cycles; the resume contract).
    ///
    /// Per ticket, ascending: the blob is read and decoded; a
    /// truncated, bit-flipped or version-skewed blob is *skipped* —
    /// diagnosed into [`RecoveryReport::skipped`] with its typed
    /// [`SimdxError::CheckpointCorrupt`] / [`SimdxError::CheckpointIo`]
    /// and left on disk for forensics — never a panic. A blob that
    /// decodes is resumed; on success its file is removed from the
    /// store, on a fresh abort it is kept (still resumable later) and
    /// the typed error lands in the ticket's [`RecoveredQuery`].
    ///
    /// Recovery runs on the calling thread (it is a startup path, not
    /// a serving path); admit the recovered results however suits the
    /// caller before opening a fresh [`QueryPool::serve`] loop.
    pub fn recover<P>(
        bound: &BoundGraph<'_, '_>,
        program: P,
        store: &dyn CheckpointStore,
    ) -> Result<RecoveryReport<P::Meta>, SimdxError>
    where
        P: SourcedProgram,
        P::Meta: PersistMeta,
    {
        let mut recovered = Vec::new();
        let mut skipped = Vec::new();
        for ticket in store.tickets()? {
            let frame = match persist::load::<P::Meta>(store, ticket) {
                Ok(frame) => frame,
                Err(error) => {
                    skipped.push((ticket, error));
                    continue;
                }
            };
            let seed = frame.seed;
            let resumed_from = frame.checkpoint.iteration();
            let result = bound
                .resume(program.clone().with_source(seed), frame.checkpoint)
                .execute();
            let result = match result {
                Ok(run) => {
                    store.remove(ticket)?;
                    Ok(run)
                }
                Err(aborted) => Err(aborted.into_parts().0),
            };
            recovered.push(RecoveredQuery {
                ticket,
                seed,
                resumed_from,
                result,
            });
        }
        Ok(RecoveryReport { recovered, skipped })
    }
}

/// One durable checkpoint [`QueryPool::recover`] picked back up.
#[derive(Clone, Debug)]
pub struct RecoveredQuery<M: Copy> {
    /// The ticket the originating process spilled the checkpoint
    /// under.
    pub ticket: u64,
    /// The query's seed vertex, restored from the blob.
    pub seed: VertexId,
    /// The boundary iteration the resume continued from.
    pub resumed_from: u32,
    /// The completed run — bit-equal to an uninterrupted one — or the
    /// typed abort the *resume* hit (in which case the blob stays in
    /// the store).
    pub result: Result<RunResult<M>, SimdxError>,
}

/// Everything one [`QueryPool::recover`] scan produced.
#[derive(Clone, Debug)]
pub struct RecoveryReport<M: Copy> {
    /// One entry per decodable spilled ticket, ascending.
    pub recovered: Vec<RecoveredQuery<M>>,
    /// Blobs that failed to read or validate (ticket, typed error) —
    /// skipped and left in the store, never trusted.
    pub skipped: Vec<(u64, SimdxError)>,
}

impl<M: Copy> RecoveryReport<M> {
    /// Recovered queries that ran to completion.
    pub fn completed(&self) -> usize {
        self.recovered.iter().filter(|r| r.result.is_ok()).count()
    }
}

/// Spill bookkeeping shared by the serving threads.
#[derive(Default)]
struct SpillLog {
    spilled: Vec<u64>,
    failures: Vec<(u64, SimdxError)>,
}

/// One serving thread: drain up to `batch_max` requests per turn, run
/// them over a single scratch checkout, publish each outcome (spilling
/// final-failure checkpoints when durability is armed).
fn serve_loop<P: SourcedProgram>(
    bound: &BoundGraph<'_, '_>,
    program: &P,
    config: &ServiceConfig,
    shared: &SharedQueue,
    slots: &Mutex<Vec<Option<ServeOutcome<P::Meta>>>>,
    spills: &Mutex<SpillLog>,
    batches: &AtomicU64,
) where
    P::Meta: PersistMeta,
{
    let arm = config.arms_checkpoints();
    loop {
        let batch: Vec<Entry> = {
            let mut st = shared.lock();
            loop {
                if st.aborted {
                    // Abort-mode close: hand every still-queued entry
                    // back as a zero-progress cancellation instead of
                    // running it. In-flight peers abort on their own
                    // via the shutdown token.
                    let orphans: Vec<Entry> = st.queue.drain(..).collect();
                    drop(st);
                    shared.not_full.notify_all();
                    for entry in orphans {
                        publish(slots, entry.ticket, cancelled_unserved(&entry));
                    }
                    return;
                }
                if !st.queue.is_empty() {
                    let n = config.batch_max.min(st.queue.len());
                    break st.queue.drain(..n).collect();
                }
                if st.closed {
                    return;
                }
                st = shared
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.not_full.notify_all();
        let mut scratch = bound.checkout_scratch::<P::Meta>();
        for entry in batch {
            let mut outcome = serve_one(
                bound,
                program,
                &entry,
                &mut scratch,
                config.retry,
                arm,
                &shared.shutdown,
            );
            shared.breaker_record(matches!(
                outcome.result,
                Err(SimdxError::WorkerPanicked { .. })
            ));
            // Durable spill: a final failure that carries a boundary
            // checkpoint is persisted under its ticket so a later
            // process can resume it. The checkpoint travels through
            // the frame and back — no clone, and the submitter still
            // gets the in-memory copy whether or not the spill stuck.
            // A query cancelled through its *own* token was withdrawn
            // by its caller and is not spilled — recovery would
            // resurrect it; a shutdown cancellation (the pool's token)
            // is the crash-survival case and is.
            if let (Some(policy), Err(error)) = (&config.durability, &outcome.result) {
                let withdrawn = matches!(error, SimdxError::Cancelled { .. })
                    && entry
                        .request
                        .cancel
                        .as_ref()
                        .is_some_and(CancelToken::is_cancelled);
                if let Some(checkpoint) = outcome.checkpoint.take_if(|_| !withdrawn) {
                    let frame = DurableCheckpoint {
                        ticket: entry.ticket as u64,
                        seed: outcome.seed,
                        checkpoint,
                    };
                    let spill_result = persist::spill(policy.store(), &frame);
                    let mut log = spills.lock().unwrap_or_else(PoisonError::into_inner);
                    match spill_result {
                        Ok(()) => log.spilled.push(frame.ticket),
                        Err(error) => log.failures.push((frame.ticket, error)),
                    }
                    drop(log);
                    outcome.checkpoint = Some(frame.checkpoint);
                }
            }
            publish(slots, entry.ticket, outcome);
        }
        bound.checkin_scratch(scratch);
        // ORDERING: `batches` is a diagnostic counter aggregated into
        // the serve report after `thread::scope` has joined every
        // serving thread (a full synchronization point); the increments
        // guard no data, so Relaxed is sufficient.
        batches.fetch_add(1, Ordering::Relaxed);
    }
}

/// Lands one outcome in its ticket's slot.
fn publish<M: Copy>(
    slots: &Mutex<Vec<Option<ServeOutcome<M>>>>,
    ticket: usize,
    outcome: ServeOutcome<M>,
) {
    let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
    if slots.len() <= ticket {
        slots.resize_with(ticket + 1, || None);
    }
    slots[ticket] = Some(outcome);
}

/// The outcome of a queued query orphaned by an abort-mode close: a
/// zero-progress, zero-attempt cancellation — it never started, so
/// there is nothing to checkpoint.
fn cancelled_unserved<M: Copy>(entry: &Entry) -> ServeOutcome<M> {
    ServeOutcome {
        seed: entry.request.seed,
        result: Err(SimdxError::Cancelled {
            progress: RunProgress {
                iterations: 0,
                edges_examined: 0,
                elapsed: entry.submitted.elapsed(),
            },
        }),
        latency: entry.submitted.elapsed(),
        attempts: 0,
        checkpoint: None,
    }
}

/// Runs one query to its final outcome: up to `retry.max_attempts`
/// attempts over one checkpoint slot, so each attempt after the first
/// continues from the boundary the previous one left there (when `arm`
/// captured one).
fn serve_one<P: SourcedProgram>(
    bound: &BoundGraph<'_, '_>,
    program: &P,
    entry: &Entry,
    scratch: &mut IterScratch<P::Meta>,
    retry: RetryPolicy,
    arm: bool,
    shutdown: &CancelToken,
) -> ServeOutcome<P::Meta> {
    let request = &entry.request;
    let program = program.clone().with_source(request.seed);
    let mut slot: Option<RunCheckpoint<P::Meta>> = None;
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        // The deadline covers submit→completion on the first attempt:
        // shrink it by the queue wait (saturating to an immediate,
        // typed abort when the query waited its whole deadline out in
        // the queue). Retried attempts get the full allowance fresh
        // from their own start — otherwise a deadline-tripped query
        // would re-trip before resuming a single iteration. The cycle
        // budget needs no such care: the execute path grants it on top
        // of what the slot's checkpoint already spent.
        let deadline = request.deadline.map(|d| {
            if attempts == 1 {
                d.saturating_sub(entry.submitted.elapsed())
            } else {
                d
            }
        });
        let query = Query {
            source: Some(request.seed),
            cancel: request.cancel.clone(),
            deadline,
            cycle_budget: request.cycle_budget,
            shutdown: Some(shutdown.clone()),
            ..Query::default()
        };
        let result = bound.execute(&program, query, scratch, arm.then_some(&mut slot));
        match result {
            Ok(run) => {
                return ServeOutcome {
                    seed: entry.request.seed,
                    result: Ok(run),
                    latency: entry.submitted.elapsed(),
                    attempts,
                    checkpoint: None,
                }
            }
            Err(error) => {
                // Transient aborts retry; a cancellation is the
                // caller's decision (and an abort-mode shutdown's), and
                // an invalid query will never get better.
                let transient = matches!(
                    error,
                    SimdxError::WorkerPanicked { .. }
                        | SimdxError::DeadlineExceeded { .. }
                        | SimdxError::BudgetExhausted { .. }
                );
                if transient && attempts < retry.max_attempts && !shutdown.is_cancelled() {
                    if !retry.backoff.is_zero() {
                        std::thread::sleep(retry.backoff * 2u32.saturating_pow(attempts - 1));
                    }
                    continue;
                }
                return ServeOutcome {
                    seed: entry.request.seed,
                    result: Err(error),
                    latency: entry.submitted.elapsed(),
                    attempts,
                    checkpoint: slot,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_config_validates_and_composes() {
        let cfg = ServiceConfig::default()
            .workers(4)
            .queue_depth(16)
            .batch_max(2)
            .admission(AdmissionPolicy::Reject)
            .retry(
                RetryPolicy::default()
                    .max_attempts(3)
                    .backoff(Duration::from_millis(5)),
            )
            .breaker(2, Duration::from_millis(50))
            .checkpoint_aborts(true);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.queue_depth, 16);
        assert_eq!(cfg.batch_max, 2);
        assert_eq!(cfg.admission, AdmissionPolicy::Reject);
        assert_eq!(
            cfg.retry,
            RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_millis(5)
            }
        );
        assert_eq!(cfg.breaker_threshold, 2);
        assert_eq!(cfg.breaker_cooldown, Duration::from_millis(50));
        assert!(cfg.checkpoint_aborts);
        assert!(cfg.validate().is_ok());
        for broken in [
            ServiceConfig::default().workers(0),
            ServiceConfig::default().queue_depth(0),
            ServiceConfig::default().batch_max(0),
            ServiceConfig::default().retry(RetryPolicy::default().max_attempts(0)),
            ServiceConfig::default().breaker(1, Duration::ZERO),
        ] {
            assert!(matches!(
                broken.validate(),
                Err(SimdxError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn default_config_stays_on_the_zero_overhead_path() {
        let cfg = ServiceConfig::default();
        assert_eq!(cfg.retry, RetryPolicy::default());
        assert_eq!(cfg.retry.max_attempts, 1);
        assert_eq!(cfg.breaker_threshold, 0);
        assert!(!cfg.checkpoint_aborts);
        assert!(!cfg.arms_checkpoints());
        // Retries imply capture; so does an explicit request.
        assert!(ServiceConfig::default()
            .retry(RetryPolicy::default().max_attempts(2))
            .arms_checkpoints());
        assert!(ServiceConfig::default()
            .checkpoint_aborts(true)
            .arms_checkpoints());
    }

    #[test]
    fn breaker_opens_sheds_and_probes_back() {
        let shared = SharedQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                next_ticket: 0,
                closed: false,
                aborted: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: 4,
            admission: AdmissionPolicy::Reject,
            breaker: Some(Mutex::new(Breaker::new(2, Duration::from_millis(20)))),
            shutdown: CancelToken::new(),
        };
        // Healthy: admits freely; one panic is below threshold.
        assert!(shared.breaker_admit().is_ok());
        shared.breaker_record(true);
        assert!(shared.breaker_admit().is_ok());
        // Second consecutive panic trips the threshold: open, shedding
        // with a retry-after hint.
        shared.breaker_record(true);
        match shared.breaker_admit() {
            Err(SimdxError::Unavailable { retry_after }) => {
                assert!(retry_after <= Duration::from_millis(20));
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // A success between panics resets the consecutive count.
        std::thread::sleep(Duration::from_millis(25));
        // Cooldown elapsed: half-open admits exactly one probe...
        assert!(shared.breaker_admit().is_ok());
        // ...and sheds everything else while the probe is pending.
        assert!(matches!(
            shared.breaker_admit(),
            Err(SimdxError::Unavailable { .. })
        ));
        // Probe panicking reopens for a fresh cooldown.
        shared.breaker_record(true);
        assert!(matches!(
            shared.breaker_admit(),
            Err(SimdxError::Unavailable { .. })
        ));
        std::thread::sleep(Duration::from_millis(25));
        // Probe succeeding closes the breaker again.
        assert!(shared.breaker_admit().is_ok());
        shared.breaker_record(false);
        assert!(shared.breaker_admit().is_ok());
        shared.breaker_record(true);
        assert!(
            shared.breaker_admit().is_ok(),
            "count restarted after close"
        );
    }

    #[test]
    fn report_percentiles_use_nearest_rank() {
        let report = ServeReport::<u32> {
            outcomes: (1..=4u64)
                .map(|ms| ServeOutcome {
                    seed: 0,
                    result: Err(SimdxError::OnlineOverflow { iteration: 0 }),
                    latency: Duration::from_millis(ms),
                    attempts: 1,
                    checkpoint: None,
                })
                .collect(),
            batches: 1,
            elapsed: Duration::from_millis(10),
            spilled: Vec::new(),
            spill_failures: Vec::new(),
        };
        assert_eq!(report.latency_percentile(50.0), Duration::from_millis(2));
        assert_eq!(report.latency_percentile(99.0), Duration::from_millis(4));
        assert_eq!(report.latency_percentile(0.0), Duration::from_millis(1));
        assert_eq!(report.completed(), 0);
        assert!(report.queries_per_sec() > 0.0);
        let empty = ServeReport::<u32> {
            outcomes: Vec::new(),
            batches: 0,
            elapsed: Duration::ZERO,
            spilled: Vec::new(),
            spill_failures: Vec::new(),
        };
        assert_eq!(empty.latency_percentile(99.0), Duration::ZERO);
        assert_eq!(empty.queries_per_sec(), 0.0);
    }
}
