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
//!   independent queries over one shared bound graph — every thread
//!   checks one scratch arena out of the runtime's stash at its first
//!   ticket and keeps it until it exits, and checks a worker pool out
//!   per query, so queries never contend on engine state;
//! * **one ticket per turn**: a serving thread pops the oldest queued
//!   request, runs it to its final outcome and comes back for the next,
//!   so no thread holds queued work while a peer idles;
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
//! Every decision of the submission protocol (admission, which ticket
//! runs next, an abort's hand-back, the breaker, one outcome per
//! admitted ticket) lives in a pure, clock-free `Ledger`
//! (`service/ledger.rs`). This module is its shell: the ledger under
//! one mutex, a condvar each for blocked submitters and idle serving
//! threads, the scoped threads, the retry loop and the durable spill,
//! whose store I/O runs outside the lock.
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

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::acc::SourcedProgram;
use crate::checkpoint::RunCheckpoint;
use crate::error::SimdxError;
use crate::metrics::RunResult;
use crate::persist::{self, CheckpointStore, DurableCheckpoint, PersistMeta};
use crate::scratch::IterScratch;
use crate::session::{BoundGraph, Query};
use crate::supervise::CancelToken;
use simdx_graph::VertexId;

mod ledger;
use ledger::{Admission, Entry, Ledger, Turn};

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

    /// The wait before attempt `attempt` (≥ 2): `backoff ×
    /// 2^(attempt − 2)`, or `None` when that overflows a [`Duration`].
    /// Waits grow with the attempt, so the policy's longest is the one
    /// before attempt `max_attempts`.
    fn wait_before(&self, attempt: u32) -> Option<Duration> {
        (2..attempt).try_fold(self.backoff, |wait, _| wait.checked_mul(2))
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
    /// Two serving threads, a 64-deep queue, blocking admission; no
    /// retries, no breaker, no checkpointing.
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 64,
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
        if self.retry.max_attempts == 0 {
            return fail("retry max_attempts must be at least 1 (1 = no retries)".to_string());
        }
        if self.retry.wait_before(self.retry.max_attempts).is_none() {
            return fail(format!(
                "retry backoff {:?} doubled up to attempt {} overflows a Duration",
                self.retry.backoff, self.retry.max_attempts
            ));
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
    /// Serving-thread turns taken: one per ticket a serving thread ran
    /// (a queued ticket an abort-mode close hands back unserved takes
    /// none), so `outcomes.len() / batches` reads 1 whenever every
    /// admitted ticket ran.
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

/// The worker-panic circuit breaker as a standalone, explicitly-timed
/// state machine: closed (healthy) when `opened_at` is `None`; open
/// (shedding) while `opened_at` is within the cooldown; half-open (one
/// probe in flight) when `probing`.
///
/// [`QueryPool`] holds one inside its submission ledger, which passes
/// time in; every transition takes the clock as an argument, so this
/// module's `breaker_*_under_all_interleavings` tests drive the same
/// machine through enumerated schedules and synthetic clocks — no
/// wall-clock read hides inside a transition.
#[derive(Debug)]
pub(crate) struct Breaker {
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
    pub(crate) fn new(threshold: u32, cooldown: Duration) -> Self {
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
    pub(crate) fn admit(&mut self, now: Instant) -> Result<(), Duration> {
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
    pub(crate) fn record(&mut self, panicked: bool, now: Instant) {
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
    pub(crate) fn is_shedding(&self, now: Instant) -> bool {
        match self.opened_at {
            None => false,
            Some(opened) => now.saturating_duration_since(opened) < self.cooldown || self.probing,
        }
    }
}

/// The [`Ledger`] under the serving tier's one mutex, the condvars
/// blocked submitters and idle serving threads park on, and the
/// pool-wide shutdown token.
struct Shared<M: Copy> {
    ledger: Mutex<Ledger<M>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Cancelled by [`CloseMode::Abort`] and attached to every query's
    /// supervisor, so in-flight runs abort at their next supervision
    /// check.
    shutdown: CancelToken,
}

impl<M: Copy> Shared<M> {
    fn lock(&self) -> MutexGuard<'_, Ledger<M>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The producer's side of [`Shared`], with the metadata type erased so
/// [`QueryClient`] carries none.
trait Intake: Sync {
    fn submit(&self, request: QueryRequest) -> Result<QueryTicket, SimdxError>;
    fn queued(&self) -> usize;
    fn close(&self, mode: CloseMode);
}

impl<M: Copy + Send> Intake for Shared<M> {
    fn submit(&self, mut request: QueryRequest) -> Result<QueryTicket, SimdxError> {
        let mut ledger = self.lock();
        let ticket = loop {
            match ledger.submit(request, Instant::now()) {
                Admission::Admitted(ticket) => break ticket,
                Admission::Full(back) => {
                    request = back;
                    ledger = self
                        .not_full
                        .wait(ledger)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Admission::Refused(error) => return Err(error),
            }
        };
        drop(ledger);
        self.not_empty.notify_one();
        Ok(ticket)
    }

    fn queued(&self) -> usize {
        self.lock().queued()
    }

    fn close(&self, mode: CloseMode) {
        self.lock().close(mode);
        if mode == CloseMode::Abort {
            self.shutdown.cancel();
        }
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the pool as [`CloseMode::Drain`] on drop — on the producer's
/// return and on its unwind alike (see [`QueryPool::serve`]).
struct CloseOnDrop<'a>(QueryClient<'a>);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close(CloseMode::Drain);
    }
}

/// The producer's handle into a running [`QueryPool::serve`] call.
pub struct QueryClient<'a> {
    shared: &'a dyn Intake,
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
        self.shared.submit(request)
    }

    /// Requests currently admitted but not yet picked up.
    pub fn queued(&self) -> usize {
        self.shared.queued()
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
        self.shared.close(mode);
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
        let shared = Shared {
            ledger: Mutex::new(Ledger::new(&config)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            shutdown: CancelToken::new(),
        };
        let started = Instant::now();
        let produced = std::thread::scope(|scope| {
            // OS thread exhaustion is an operator problem, not a panic:
            // the producer never runs (nothing is admitted), the close
            // below lets any already-spawned workers drain out, and a
            // typed error surfaces.
            let spawned: Result<Vec<_>, SimdxError> = (0..config.workers)
                .map(|w| {
                    let (shared, program, config) = (&shared, &program, &config);
                    std::thread::Builder::new()
                        .name(format!("simdx-serve-{w}"))
                        .spawn_scoped(scope, move || serve_loop(bound, program, config, shared))
                        .map_err(|e| SimdxError::InvalidConfig {
                            reason: format!(
                                "cannot spawn serving thread {w} of {}: {e}",
                                config.workers
                            ),
                        })
                })
                .collect();
            let produced = {
                // Closes the queue when the producer returns *or
                // unwinds*: a panicking producer must still release the
                // serving threads parked on `not_empty`, or the scope
                // would wait on them forever instead of re-raising the
                // panic. Admitted queries drain either way.
                let client = CloseOnDrop(QueryClient { shared: &shared });
                spawned
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|_| producer(&client.0))
            };
            // Engine panics are contained inside the execute path, so a
            // serving thread only dies of a harness bug; don't swallow
            // that.
            for handle in spawned.into_iter().flatten() {
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
            }
            produced
        });
        produced?;
        let ledger = shared
            .ledger
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Ok(ledger.into_report(started.elapsed()))
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

/// One serving thread: take one request per turn and run it to its
/// final outcome over one scratch arena, checked out at the first
/// ticket and checked back in when the thread exits. The outcome is
/// published (and the breaker fed) before a durable spill's store I/O
/// starts; that I/O runs outside the lock.
fn serve_loop<P: SourcedProgram>(
    bound: &BoundGraph<'_, '_>,
    program: &P,
    config: &ServiceConfig,
    shared: &Shared<P::Meta>,
) where
    P::Meta: PersistMeta,
{
    let mut scratch = None;
    let mut ledger = shared.lock();
    loop {
        let entry = match ledger.next(Instant::now()) {
            Turn::Run(entry) => entry,
            Turn::Wait => {
                ledger = shared
                    .not_empty
                    .wait(ledger)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            Turn::Exit => break,
        };
        drop(ledger);
        shared.not_full.notify_all();
        let scratch = scratch.get_or_insert_with(|| bound.checkout_scratch());
        let mut outcome = serve_one(bound, program, &entry, scratch, config, &shared.shutdown);
        let frame = config
            .durability
            .as_ref()
            .and_then(|_| spill_frame(&entry, &mut outcome));
        ledger = shared.lock();
        ledger.finish(entry.ticket, outcome, Instant::now());
        if let (Some(policy), Some(frame)) = (&config.durability, frame) {
            drop(ledger);
            let result = persist::spill(&*policy.store, &frame);
            ledger = shared.lock();
            ledger.spilled(frame, result);
        }
    }
    drop(ledger);
    if let Some(scratch) = scratch {
        bound.checkin_scratch(scratch);
    }
}

/// The durable frame for a final failure that carries a boundary
/// checkpoint. The checkpoint moves into the frame and back through
/// [`Ledger::spilled`], so the submitter keeps the in-memory copy
/// whether or not the spill stuck. A query cancelled through its *own*
/// token was withdrawn by its caller and is not spilled (recovery would
/// resurrect it); a shutdown cancellation (the pool's token) is the
/// crash-survival case and is.
fn spill_frame<M: Copy>(
    entry: &Entry,
    outcome: &mut ServeOutcome<M>,
) -> Option<DurableCheckpoint<M>> {
    let withdrawn = matches!(outcome.result, Err(SimdxError::Cancelled { .. }))
        && entry
            .request
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
    Some(DurableCheckpoint {
        ticket: entry.ticket as u64,
        seed: outcome.seed,
        checkpoint: outcome.checkpoint.take_if(|_| !withdrawn)?,
    })
}

/// Runs one query to its final outcome: up to `retry.max_attempts`
/// attempts over one checkpoint slot, so each attempt after the first
/// continues from the boundary the previous one left there (when
/// [`ServiceConfig::arms_checkpoints`] captured one).
fn serve_one<P: SourcedProgram>(
    bound: &BoundGraph<'_, '_>,
    program: &P,
    entry: &Entry,
    scratch: &mut IterScratch,
    config: &ServiceConfig,
    shutdown: &CancelToken,
) -> ServeOutcome<P::Meta> {
    let (request, retry, arm) = (&entry.request, config.retry, config.arms_checkpoints());
    let program = program.clone().with_source(request.seed);
    let mut slot: Option<RunCheckpoint<P::Meta>> = None;
    let mut attempts = 0u32;
    let result = loop {
        attempts += 1;
        // The first attempt's deadline is shrunk by the queue wait
        // (to an immediate abort if it was all spent queued); a retry
        // gets the full allowance fresh, or it would re-trip before
        // resuming an iteration. The execute path grants the cycle
        // budget on top of what the slot's checkpoint already spent.
        let deadline = request.deadline.map(|d| match attempts {
            1 => d.saturating_sub(entry.submitted.elapsed()),
            _ => d,
        });
        let query = Query {
            source: Some(request.seed),
            cancel: request.cancel.clone(),
            deadline,
            cycle_budget: request.cycle_budget,
            shutdown: Some(shutdown.clone()),
            ..Query::default()
        };
        match bound.execute(&program, query, scratch, arm.then_some(&mut slot)) {
            // Transient aborts retry; a cancellation is the caller's
            // decision (and an abort-mode shutdown's), and an invalid
            // query will never get better. `ServiceConfig::validate`
            // rejected every policy whose wait overflows.
            Err(
                SimdxError::WorkerPanicked { .. }
                | SimdxError::DeadlineExceeded { .. }
                | SimdxError::BudgetExhausted { .. },
            ) if attempts < retry.max_attempts && !shutdown.is_cancelled() => {
                std::thread::sleep(retry.wait_before(attempts + 1).unwrap_or_default());
            }
            result => break result,
        }
    };
    ServeOutcome {
        seed: request.seed,
        checkpoint: slot.filter(|_| result.is_err()),
        result,
        latency: entry.submitted.elapsed(),
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_lint::model::Schedules;

    #[test]
    fn service_config_validates_and_composes() {
        let cfg = ServiceConfig::default()
            .workers(4)
            .queue_depth(16)
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
        // Attempt k waits backoff × 2^(k − 2).
        assert_eq!(cfg.retry.wait_before(2), Some(Duration::from_millis(5)));
        assert_eq!(cfg.retry.wait_before(3), Some(Duration::from_millis(10)));
        for broken in [
            ServiceConfig::default().workers(0),
            ServiceConfig::default().queue_depth(0),
            ServiceConfig::default().retry(RetryPolicy::default().max_attempts(0)),
            // 1 s × 2^98 before the 100th attempt overflows a Duration.
            ServiceConfig::default().retry(
                RetryPolicy::default()
                    .max_attempts(100)
                    .backoff(Duration::from_secs(1)),
            ),
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
        let mut ledger = Ledger::<u32>::new(
            &ServiceConfig::default()
                .queue_depth(4)
                .admission(AdmissionPolicy::Reject)
                .breaker(2, Duration::from_millis(20)),
        );
        let mut now = Instant::now();
        // Submits one query at `now`.
        let admit = |ledger: &mut Ledger<u32>, now| match ledger.submit(QueryRequest::new(0), now) {
            Admission::Admitted(ticket) => Ok(ticket),
            Admission::Refused(error) => Err(error),
            Admission::Full(_) => panic!("a Reject ledger never waits"),
        };
        // Serves the oldest admitted query to a final outcome at `now`.
        let record = |ledger: &mut Ledger<u32>, panicked: bool, now| {
            let Turn::Run(entry) = ledger.next(now) else {
                panic!("no admitted query to serve");
            };
            let error = if panicked {
                SimdxError::WorkerPanicked {
                    worker: 0,
                    payload: String::new(),
                }
            } else {
                SimdxError::OnlineOverflow { iteration: 0 }
            };
            let outcome = ServeOutcome {
                seed: 0,
                result: Err(error),
                latency: Duration::ZERO,
                attempts: 1,
                checkpoint: None,
            };
            ledger.finish(entry.ticket, outcome, now);
        };
        // Healthy: admits freely; one panic is below threshold.
        assert!(admit(&mut ledger, now).is_ok());
        record(&mut ledger, true, now);
        assert!(admit(&mut ledger, now).is_ok());
        // Second consecutive panic trips the threshold: open, shedding
        // with a retry-after hint.
        record(&mut ledger, true, now);
        match admit(&mut ledger, now) {
            Err(SimdxError::Unavailable { retry_after }) => {
                assert!(retry_after <= Duration::from_millis(20));
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        now += Duration::from_millis(25);
        // Cooldown elapsed: half-open admits exactly one probe...
        assert!(admit(&mut ledger, now).is_ok());
        // ...and sheds everything else while the probe is pending.
        assert!(matches!(
            admit(&mut ledger, now),
            Err(SimdxError::Unavailable { .. })
        ));
        // Probe panicking reopens for a fresh cooldown.
        record(&mut ledger, true, now);
        assert!(matches!(
            admit(&mut ledger, now),
            Err(SimdxError::Unavailable { .. })
        ));
        now += Duration::from_millis(25);
        // Probe succeeding closes the breaker again.
        assert!(admit(&mut ledger, now).is_ok());
        record(&mut ledger, false, now);
        assert!(admit(&mut ledger, now).is_ok());
        record(&mut ledger, true, now);
        assert!(
            admit(&mut ledger, now).is_ok(),
            "count restarted after close"
        );
        // A success between panics resets the consecutive count.
        record(&mut ledger, false, now);
        assert!(admit(&mut ledger, now).is_ok());
        record(&mut ledger, true, now);
        assert!(
            admit(&mut ledger, now).is_ok(),
            "panic, success, panic is not two in a row"
        );
    }

    /// One thread feeds worker-panic outcomes, the other submits. Under
    /// every interleaving each submission is admitted exactly while the
    /// threshold has not yet been reached.
    #[test]
    fn breaker_trips_exactly_at_threshold_under_all_interleavings() {
        const COUNTS: [usize; 2] = [2, 2]; // T0: record(panic) ×2, T1: admit ×2
        assert_eq!(Schedules::count(&COUNTS), 6);
        let cooldown = Duration::from_millis(100);
        let t0 = Instant::now();
        let mut schedules = 0;
        for schedule in Schedules::new(&COUNTS) {
            let mut breaker = Breaker::new(2, cooldown);
            let mut panics = 0;
            for &t in &schedule {
                if t == 0 {
                    breaker.record(true, t0);
                    panics += 1;
                } else {
                    assert_eq!(
                        breaker.admit(t0).is_ok(),
                        panics < 2,
                        "schedule {schedule:?}, {panics} panics in"
                    );
                }
            }
            assert!(breaker.is_shedding(t0), "threshold reached by drain time");
            assert!(
                !breaker.is_shedding(t0 + cooldown + Duration::from_millis(1)),
                "cooled down into half-open, which admits a probe"
            );
            schedules += 1;
        }
        assert_eq!(schedules, 6, "full enumeration, no early exit");
    }

    /// With the breaker open and cooled down, two submitters race. Under
    /// every interleaving exactly one is admitted as the probe, whose
    /// outcome then reopens (panic) or closes (success) the breaker.
    #[test]
    fn breaker_half_open_admits_exactly_one_probe_under_all_interleavings() {
        const COUNTS: [usize; 2] = [2, 2]; // two submitters, two attempts each
        assert_eq!(Schedules::count(&COUNTS), 6);
        let cooldown = Duration::from_millis(100);
        let t0 = Instant::now();
        let t1 = t0 + cooldown + Duration::from_millis(1);
        let mut schedules = 0;
        for (si, schedule) in Schedules::new(&COUNTS).enumerate() {
            let mut breaker = Breaker::new(2, cooldown);
            breaker.record(true, t0);
            breaker.record(true, t0); // open at t0
            assert!(breaker.is_shedding(t1 - Duration::from_millis(2)));
            let mut admitted = 0;
            for _ in &schedule {
                // Both submitters run the same step: only the count matters.
                if breaker.admit(t1).is_ok() {
                    admitted += 1;
                }
            }
            assert_eq!(admitted, 1, "exactly one probe (schedule {schedule:?})");
            // Alternate the probe's fate to cover both transitions.
            if si % 2 == 0 {
                breaker.record(false, t1);
                assert!(breaker.admit(t1).is_ok(), "closed breaker admits");
                assert!(!breaker.is_shedding(t1));
            } else {
                breaker.record(true, t1);
                assert!(breaker.admit(t1).is_err(), "reopened breaker sheds");
                assert!(breaker.is_shedding(t1 + Duration::from_millis(1)));
            }
            schedules += 1;
        }
        assert_eq!(schedules, 6, "full enumeration, no early exit");
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
