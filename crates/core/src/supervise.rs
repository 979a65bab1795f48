//! Run supervision: cancellation, deadlines and cycle budgets.
//!
//! The engine loop iterates until convergence — on adversarial or
//! misconfigured inputs that is an unbounded loop, which a service
//! answering concurrent queries cannot tolerate. This module provides
//! the bounds:
//!
//! * [`CancelToken`] — a shareable atomic flag. Hand a clone to the
//!   query (`RunBuilder::cancel_token`) and keep one; `cancel()` from
//!   any thread makes the run return [`SimdxError::Cancelled`] at the
//!   next supervision check.
//! * `RunBuilder::deadline(Duration)` — a wall-clock bound checked at
//!   iteration boundaries *and* every 256 tasks inside the
//!   compute sweeps, so a single huge iteration cannot run away.
//! * `RunBuilder::cycle_budget(u64)` — a bound on *simulated* device
//!   cycles, checked at iteration boundaries (the executor's cycle
//!   counter only advances between kernels).
//!
//! Every abort is a typed [`SimdxError`] carrying a [`RunProgress`]
//! summary (iterations completed, edges examined, wall-clock elapsed),
//! and an aborted run leaves the session fully reusable: scratch is
//! reset at the next `execute()` entry, so the following clean run is
//! bit-equal to a fresh engine (`tests/fault_injection.rs`,
//! `tests/properties.rs`).
//!
//! Supervision is entirely host-side: it never alters metadata,
//! activation logs or simulated cycle counts of a run that completes,
//! so the bit-equality contract is untouched. Its cost is bounded by
//! a deterministic meter rather than a wall-clock percentage:
//! `RunReport::supervision_checks` is at most five checks per
//! iteration plus one per 256 tasks, and 0 for an unarmed
//! run (`tests/golden_reports.rs`; the last wall-clock A/B is recorded,
//! dated and ungated, in the crate README).
//!
//! Under concurrent serving ([`crate::service::QueryPool`]) every
//! query gets its own `Supervisor`, built on the serving thread from
//! the submitter's token/deadline — so `CancelToken` must be usable
//! across threads and `Supervisor` shareable into pool workers; both
//! are `Sync` (asserted at the bottom of this module). A service
//! deadline is measured from *submission*: time spent queued shrinks
//! the in-engine allowance.

use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::Arc;

use crate::error::SimdxError;

/// How often the compute sweeps poll for cancellation/deadline: once
/// every this many tasks (frontier vertices), per worker. Coarse
/// enough that an `Instant::now()` call never shows up in a profile,
/// fine enough that a hub-dominated iteration is interrupted long
/// before it finishes.
pub(crate) const POLL_STRIDE: usize = 256;

/// A shareable cancellation flag for in-flight runs.
///
/// Cloning is cheap (an `Arc` bump) and every clone observes the same
/// flag; `cancel()` is sticky — a cancelled token stays cancelled, so
/// reuse a fresh token per query if you pool them.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Safe from any thread; the engine observes
    /// it at the next supervision check and returns
    /// [`SimdxError::Cancelled`].
    pub fn cancel(&self) {
        // ORDERING: the flag is a standalone control signal — no data
        // is published alongside it, so there is nothing for a stronger
        // ordering to sequence. Observers only need eventual visibility
        // (the next supervision check or the one after), and the store
        // is sticky/monotone, so Relaxed cannot lose or reorder a
        // cancellation. Validated under enumerated interleavings by
        // `tests/model_interleave.rs` (cancel_token scenarios).
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        // ORDERING: pairs with the Relaxed store in `cancel`; the flag
        // is monotone (false -> true once), so a stale read only delays
        // the abort by one poll interval — it can never un-cancel.
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before convergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// A [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline expired.
    DeadlineExceeded,
    /// The simulated-cycle budget was exhausted.
    BudgetExhausted,
    /// A worker panicked (the run may have been retried serially under
    /// [`crate::config::DegradePolicy::RetrySerial`]).
    WorkerPanic,
}

/// Partial-progress summary carried by every supervision abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunProgress {
    /// BSP iterations fully completed before the abort.
    pub iterations: u32,
    /// Host-side compute-kernel edge traversals performed so far (same
    /// meter as [`crate::metrics::RunReport::edges_examined`]).
    pub edges_examined: u64,
    /// Wall-clock time from `execute()` entry to the abort.
    pub elapsed: Duration,
}

/// Per-run supervision state: the limits a query was built with plus
/// the check counter. Shared by reference into every parallel worker
/// closure (all state is atomic or immutable).
#[derive(Debug)]
pub(crate) struct Supervisor {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    cycle_budget: Option<u64>,
    /// Pool-wide shutdown token ([`crate::service::CloseMode::Abort`]):
    /// observed exactly like `cancel`, but shared by every query of a
    /// closing `QueryPool` rather than owned by one submitter.
    shutdown: Option<CancelToken>,
    started: Instant,
    /// Supervision checks performed (boundary checks + in-sweep polls),
    /// reported as [`crate::metrics::RunReport::supervision_checks`].
    checks: AtomicU64,
}

impl Supervisor {
    /// Builds the supervisor for one query; `started` is now.
    pub(crate) fn new(
        cancel: Option<CancelToken>,
        deadline: Option<Duration>,
        cycle_budget: Option<u64>,
    ) -> Self {
        let started = Instant::now();
        Self {
            cancel,
            deadline: deadline.map(|d| started + d),
            cycle_budget,
            shutdown: None,
            started,
            checks: AtomicU64::new(0),
        }
    }

    /// Attaches a pool-wide shutdown token: once cancelled (from any
    /// thread), this run aborts at its next supervision check with
    /// [`SimdxError::Cancelled`] — indistinguishable from a per-query
    /// cancellation, which is the point: an abort-mode pool shutdown
    /// reuses the whole cancellation path, checkpoints included.
    pub(crate) fn with_shutdown(mut self, token: CancelToken) -> Self {
        self.shutdown = Some(token);
        self
    }

    /// A supervisor with no limits: every check is a cheap early-out.
    #[cfg(test)]
    pub(crate) fn unlimited() -> Self {
        Self::new(None, None, None)
    }

    /// Whether any in-sweep-pollable limit (token, shutdown or
    /// deadline) is set.
    #[inline]
    fn polls(&self) -> bool {
        self.cancel.is_some() || self.shutdown.is_some() || self.deadline.is_some()
    }

    /// In-sweep poll: `true` means the sweep should stop early (the
    /// iteration-boundary check will surface the typed error). Called
    /// every [`POLL_STRIDE`] tasks from the compute loops — including
    /// from pool workers — so it must stay cheap: with no token and no
    /// deadline it is a two-branch early-out.
    #[inline]
    pub(crate) fn poll(&self) -> bool {
        if !self.polls() {
            return false;
        }
        // ORDERING: `checks` is a diagnostic counter summed into the
        // run report after the run has joined all workers; it guards no
        // data, so Relaxed increments are sufficient (and keep the
        // in-sweep poll off the coherence critical path).
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return true;
        }
        if self
            .shutdown
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return true;
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Full boundary check (token, deadline, then cycle budget against
    /// `cycles`). `None` means keep running.
    pub(crate) fn check_boundary(&self, cycles: u64) -> Option<AbortReason> {
        if !self.polls() && self.cycle_budget.is_none() {
            return None;
        }
        // ORDERING: diagnostic counter; see `poll`.
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(AbortReason::Cancelled);
        }
        if self
            .shutdown
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return Some(AbortReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(AbortReason::DeadlineExceeded);
        }
        if self.cycle_budget.is_some_and(|b| cycles >= b) {
            return Some(AbortReason::BudgetExhausted);
        }
        None
    }

    /// Mid-iteration re-check: token, shutdown and deadline only. The
    /// simulated-cycle budget is deliberately excluded — it is enforced
    /// at iteration boundaries only, so a budget abort always coincides
    /// with a resumable boundary snapshot and a resumed run (whose
    /// budget is granted on top of the checkpoint's spent cycles) is
    /// guaranteed to clear the iteration it re-executes instead of
    /// re-tripping mid-sweep at the same cycle count forever.
    pub(crate) fn check_mid_iteration(&self) -> Option<AbortReason> {
        if !self.polls() {
            return None;
        }
        // ORDERING: diagnostic counter; see `poll`.
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(AbortReason::Cancelled);
        }
        if self
            .shutdown
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
        {
            return Some(AbortReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(AbortReason::DeadlineExceeded);
        }
        None
    }

    /// Supervision checks performed so far.
    pub(crate) fn checks(&self) -> u64 {
        // ORDERING: read after the run's workers have been joined (or
        // from the owning thread mid-run for a monotone lower bound);
        // a diagnostic counter needs no synchronization.
        self.checks.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the query started.
    pub(crate) fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The typed error for an abort observed at a supervision check.
    pub(crate) fn abort_error(
        &self,
        reason: AbortReason,
        iterations: u32,
        edges_examined: u64,
    ) -> SimdxError {
        let progress = RunProgress {
            iterations,
            edges_examined,
            elapsed: self.elapsed(),
        };
        match reason {
            AbortReason::Cancelled => SimdxError::Cancelled { progress },
            AbortReason::DeadlineExceeded => SimdxError::DeadlineExceeded { progress },
            AbortReason::BudgetExhausted => SimdxError::BudgetExhausted {
                budget: self.cycle_budget.unwrap_or(0),
                progress,
            },
            // Panics are surfaced by the pool, not by a supervision
            // check; mapping one here would lose the worker index.
            AbortReason::WorkerPanic => unreachable!("worker panics carry their own error"),
        }
    }
}

// A `CancelToken` is cancelled from submitter threads while serving
// threads poll it, and a `Supervisor` is shared by reference into
// every pool worker of its query — both must stay `Send + Sync` for
// `crate::service` to compile at all; the assertion pins the contract
// where the types live.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CancelToken>();
    assert_send_sync::<Supervisor>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_is_shared_and_sticky() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled(), "cancel is idempotent");
    }

    #[test]
    fn unlimited_supervisor_never_trips_and_never_counts() {
        let sup = Supervisor::unlimited();
        assert!(!sup.poll());
        assert_eq!(sup.check_boundary(u64::MAX), None);
        assert_eq!(sup.checks(), 0, "inactive supervision costs nothing");
    }

    #[test]
    fn cancel_trips_poll_and_boundary() {
        let token = CancelToken::new();
        let sup = Supervisor::new(Some(token.clone()), None, None);
        assert!(!sup.poll());
        assert_eq!(sup.check_boundary(0), None);
        token.cancel();
        assert!(sup.poll());
        assert_eq!(sup.check_boundary(0), Some(AbortReason::Cancelled));
        assert!(sup.checks() >= 4);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let sup = Supervisor::new(None, Some(Duration::ZERO), None);
        assert!(sup.poll());
        assert_eq!(sup.check_boundary(0), Some(AbortReason::DeadlineExceeded));
    }

    #[test]
    fn budget_checked_only_at_boundaries() {
        let sup = Supervisor::new(None, None, Some(100));
        assert!(!sup.poll(), "budget is not in-sweep pollable");
        assert_eq!(sup.check_boundary(99), None);
        assert_eq!(sup.check_boundary(100), Some(AbortReason::BudgetExhausted));
        let err = sup.abort_error(AbortReason::BudgetExhausted, 7, 42);
        match err {
            SimdxError::BudgetExhausted { budget, progress } => {
                assert_eq!(budget, 100);
                assert_eq!(progress.iterations, 7);
                assert_eq!(progress.edges_examined, 42);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn shutdown_token_trips_like_cancellation() {
        let shutdown = CancelToken::new();
        let sup = Supervisor::new(None, None, None).with_shutdown(shutdown.clone());
        assert!(!sup.poll());
        assert_eq!(sup.check_boundary(0), None);
        shutdown.cancel();
        assert!(sup.poll());
        assert_eq!(sup.check_boundary(0), Some(AbortReason::Cancelled));
    }

    #[test]
    fn cancel_takes_priority_over_deadline_and_budget() {
        let token = CancelToken::new();
        token.cancel();
        let sup = Supervisor::new(Some(token), Some(Duration::ZERO), Some(0));
        assert_eq!(sup.check_boundary(u64::MAX), Some(AbortReason::Cancelled));
    }
}
