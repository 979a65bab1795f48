//! Run-level reports returned by the engine.

use crate::jit::ActivationLog;
use crate::supervise::AbortReason;
use simdx_gpu::executor::ExecutorStats;
use std::time::Duration;

/// Everything the evaluation harness needs from one engine run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Algorithm name.
    pub algorithm: String,
    /// Device name.
    pub device: &'static str,
    /// BSP iterations executed.
    pub iterations: u32,
    /// Simulated wall time in milliseconds.
    pub elapsed_ms: f64,
    /// Raw executor statistics (cycles, launches, barriers, traffic).
    pub stats: ExecutorStats,
    /// *Host-side* edge traversals performed by the compute kernels:
    /// every edge a push scatter or pull gather actually touched,
    /// summed over workers. Unlike `stats`, this is **not** covered by
    /// the bit-equality contract — it is the work-optimality meter:
    /// a push iteration charges the frontier degree sum exactly once
    /// for every thread count (`tests/parallel_equivalence.rs` pins
    /// it).
    /// Classification and candidate marking walk degrees/neighbor
    /// lists too but are not counted here; the counter meters compute
    /// work only.
    pub edges_examined: u64,
    /// Per-iteration activation log (Fig. 8 data).
    pub log: ActivationLog,
    /// *Host* wall-clock time of the run, measured from `execute()`
    /// entry. Like `edges_examined`, host-side and outside the
    /// bit-equality contract (the simulated time is `elapsed_ms`).
    pub elapsed: Duration,
    /// `None` for a run that converged normally. `Some(WorkerPanic)`
    /// when the result came from a successful serial retry under
    /// [`crate::config::DegradePolicy::RetrySerial`] — the answer is
    /// still bit-exact, but the parallel attempt was abandoned.
    pub aborted: Option<AbortReason>,
    /// Supervision checks performed (iteration-boundary checks plus
    /// in-sweep polls): the overhead meter for the supervision layer —
    /// at most five per iteration plus one per 256 tasks
    /// (`tests/golden_reports.rs`). 0 when the run sets no token,
    /// deadline or budget.
    pub supervision_checks: u64,
}

impl RunReport {
    /// Kernel launches charged during the run.
    pub fn kernel_launches(&self) -> u64 {
        self.stats.kernel_launches
    }

    /// Global-barrier passes charged during the run.
    pub fn barrier_passes(&self) -> u64 {
        self.stats.barrier_passes
    }

    /// Total simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.stats.total_cycles
    }

    /// Iterations that used the ballot filter.
    pub fn ballot_iterations(&self) -> u32 {
        self.log.ballot_iterations()
    }
}

/// A finished run: final metadata plus its report.
#[derive(Clone, Debug)]
pub struct RunResult<M> {
    /// Final per-vertex metadata (the "distance array" of Fig. 1).
    pub meta: Vec<M>,
    /// Performance and behaviour report.
    pub report: RunReport,
}
