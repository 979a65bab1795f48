//! Reusable per-iteration buffers for the engine loop.
//!
//! The seed engine allocated fresh `Vec`s for worklists, candidate
//! lists and the changed list on every iteration —
//! on iteration-heavy graphs (road networks, long paths) the allocator
//! dominated the host profile. [`IterScratch`] owns all of those
//! buffers for the lifetime of one engine run; every iteration clears
//! in place and refills, and the parallel ballot scan's per-worker
//! outputs live in [`WorkerScratch`] so the hot path performs no
//! allocation in steady state in either exec mode.
//! No buffer holds per-task costs: the sweeps feed the simulator's
//! streaming [`KernelCharge`] accumulators (the submitter's and one per
//! worker, owned here for their slot vectors) as they go.
//!
//! No buffer holds metadata either, so one arena serves every metadata
//! type.
//!
//! Across runs, the session API pools arenas: a `Runtime` keeps a
//! capped stash of idle [`IterScratch`] values that every graph bound
//! to it draws on (each run's reset fits the two bitmaps to its graph),
//! so concurrent queries each check out their own arena and
//! steady-state serving allocates nothing. This is why the arena must
//! be `Send` (see the compile-time assertion at the bottom of this
//! module) — it travels between serving threads through the stash,
//! though never *shared*: exactly one query owns an arena at a time.

use crate::frontier::{ChangedSet, FrontierBitmap, ThreadBins, Worklists};
use simdx_gpu::KernelCharge;
use simdx_graph::VertexId;

/// Per-worker private buffers for the parallel ballot scan.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    /// This worker's scan output (active vertices, ascending), merged
    /// in worker order.
    pub(crate) active: Vec<VertexId>,
    /// This worker's part of the open kernel charge: opened at its
    /// first chunk (`KernelCharge::begin_part`), fed a cost per chunk,
    /// absorbed into [`IterScratch::charge`] by the submitter — `u64`
    /// slot sums, so the absorb order is immaterial.
    pub(crate) charge: KernelCharge,
}

/// All buffers the engine loop reuses across iterations.
#[derive(Debug)]
pub(crate) struct IterScratch {
    /// The iteration's three worklists.
    pub(crate) lists: Worklists,
    /// Pull-mode candidate list.
    pub(crate) cands: Vec<VertexId>,
    /// The accumulator of the kernel invocation being charged: opened
    /// (`GpuExecutor::begin`) with the sweep's task count, fed as the
    /// sweep goes, committed after it. Every `begin` zeroes it, so an
    /// aborted sweep leaves nothing for the next one.
    pub(crate) charge: KernelCharge,
    /// Vertices whose metadata changed this iteration: first-change
    /// dedup, the ballot scan's occupancy and the publish worklist.
    /// Sized for the graph at each run's reset; empty at every
    /// iteration boundary.
    pub(crate) changed: ChangedSet,
    /// Aggregation-pull candidate dedup, sized with `changed`; drained
    /// into the sorted candidate list each aggregation-pull iteration.
    pub(crate) cand_bits: FrontierBitmap,
    /// Online-filter thread bins (persistent, reshaped in place).
    pub(crate) bins: ThreadBins,
    /// Next-frontier buffer, swapped with the live frontier each
    /// iteration.
    pub(crate) next: Vec<VertexId>,
    /// Per-worker ballot-scan outputs (len = worker count; 1 in serial
    /// mode).
    pub(crate) workers: Vec<WorkerScratch>,
}

impl IterScratch {
    /// Creates scratch for `threads` workers over a graph of
    /// `num_vertices` vertices.
    pub(crate) fn new(threads: usize, num_vertices: usize) -> Self {
        Self {
            lists: Worklists::default(),
            cands: Vec::new(),
            charge: KernelCharge::default(),
            changed: ChangedSet::new(num_vertices),
            cand_bits: FrontierBitmap::new(num_vertices),
            bins: ThreadBins::new(1, 0),
            next: Vec::new(),
            workers: (0..threads.max(1))
                .map(|_| WorkerScratch::default())
                .collect(),
        }
    }

    /// The vertex count the two bitmaps cover: that of the graph the
    /// arena last ran on (or was created for).
    pub(crate) fn num_vertices(&self) -> usize {
        self.changed.num_vertices()
    }

    /// Clears every buffer a previous run could have left *observable*
    /// state in, so a reused session run starts from exactly the logical
    /// state a fresh engine allocates (allocations are kept — that is
    /// the point of the session API).
    ///
    /// The kernel-charge accumulators are deliberately untouched:
    /// opening one zeroes it.
    ///
    /// The two bitmaps are empty after every completed iteration; a
    /// run aborted mid-iteration can leave bits behind, and this is the
    /// one place that clears them — and shapes them for the run's
    /// graph of `num_vertices` vertices, so an arena serves graphs of
    /// any size in turn (reusing its words; it allocates only to grow).
    ///
    /// The per-worker ballot outputs are cleared here too. The scan
    /// clears each before writing it, so for a run that completes this
    /// is redundant — but a run aborted mid-scan (a contained worker
    /// panic) leaves partial per-worker output behind. Clearing
    /// everything at the next `execute()` entry makes aborted runs
    /// indistinguishable from fresh engines.
    pub(crate) fn reset_for_run(&mut self, num_vertices: usize) {
        self.lists.clear();
        self.cands.clear();
        self.changed.reset(num_vertices);
        self.cand_bits.reset(num_vertices);
        self.bins.clear();
        self.next.clear();
        for ws in &mut self.workers {
            ws.active.clear();
        }
    }

    /// Debug-asserts that no per-run transient buffer carries state —
    /// the session-reuse invariant checked at every `execute()` entry.
    /// [`Self::reset_for_run`] establishes it; this guards against a
    /// future scratch field being added without a matching reset (which
    /// would let one query observe a previous query's state).
    pub(crate) fn debug_assert_clean(&self) {
        debug_assert!(self.lists.is_empty(), "worklists carry stale entries");
        debug_assert!(
            self.cands.is_empty(),
            "candidate list carries stale entries"
        );
        debug_assert!(self.changed.is_empty(), "changed set not published");
        debug_assert!(self.cand_bits.is_empty(), "candidate bitmap not drained");
        debug_assert_eq!(self.bins.total_recorded(), 0, "thread bins carry entries");
        debug_assert!(!self.bins.overflowed(), "thread-bin overflow flag stuck");
        debug_assert!(self.next.is_empty(), "next-frontier buffer not cleared");
        for (w, ws) in self.workers.iter().enumerate() {
            debug_assert!(ws.active.is_empty(), "worker {w} ballot output not cleared");
        }
    }
}

// The runtime's arena stash moves `IterScratch` between serving
// threads (checkout on one, check-in possibly on another); `Send` is
// what makes that hand-off sound. Removing any auto-trait here is an
// API break for `crate::session` — fail the build rather than letting
// it regress silently.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<IterScratch>();
};
