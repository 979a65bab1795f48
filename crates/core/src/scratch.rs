//! Reusable per-iteration buffers for the engine loop.
//!
//! The seed engine allocated fresh `Vec`s for worklists, candidate
//! lists and the changed list on every iteration —
//! on iteration-heavy graphs (road networks, long paths) the allocator
//! dominated the host profile. [`IterScratch`] owns all of those
//! buffers for the lifetime of one engine run; every iteration clears
//! in place and refills, and the parallel backend's per-worker
//! partitions live in [`WorkerScratch`] so the hot path performs no
//! allocation in steady state in either exec mode.
//! No buffer holds per-task costs: the sweeps feed the simulator's
//! streaming [`KernelCharge`] accumulators (the submitter's and one per
//! worker, owned here for their slot vectors) as they go.
//!
//! Across runs, the session API pools arenas: a `BoundGraph` keeps a
//! capped per-metadata-type inventory of idle [`IterScratch`] values
//! (`crate::pool::ArenaPool`), so concurrent queries each check out
//! their own arena and steady-state serving allocates nothing. This is
//! why the arena must be `Send` whenever the metadata type is (see the
//! compile-time assertion at the bottom of this module) — it travels
//! between serving threads through the pool, though never *shared*:
//! exactly one query owns an arena at a time.

use crate::frontier::{ChangedSet, FrontierBitmap, ThreadBins, Worklists, WORD_BITS};
use simdx_gpu::KernelCharge;
use simdx_graph::csr::Csr;
use simdx_graph::VertexId;

/// Destination-shard fences for parallel push, computed from the
/// pull-orientation degrees once per graph at `Runtime::bind` time.
#[derive(Clone, Debug)]
pub(crate) struct PushFences {
    /// Vertex fences over `metadata_curr` (`threads + 1` entries); the
    /// inner fences are word (64) multiples, so every shard covers
    /// whole words of the changed set's bitmap.
    pub(crate) verts: Vec<u32>,
    /// The matching word fences over that bitmap's backing words.
    pub(crate) words: Vec<u32>,
}

impl PushFences {
    /// Destination-shard fences over `rev_csr` (the transpose of the
    /// push scan direction): contiguous vertex ranges balanced by
    /// incoming-edge volume, so push workers see comparable apply load.
    ///
    /// The inner fences are rounded down to word (64) multiples — like
    /// the ballot scan's warp alignment, one level up — so every shard
    /// owns whole words of the changed set's bitmap. Destination
    /// sharding is exact for *any* fence positions (each destination's
    /// update sequence is independent of them), so the rounding cannot
    /// affect results.
    pub(crate) fn compute(rev_csr: &Csr, parts: usize) -> Self {
        let n = rev_csr.num_vertices();
        // +1 per vertex keeps zero-degree stretches from collapsing
        // every shard boundary onto the hubs.
        let total: u64 = rev_csr.num_edges() + n as u64;
        let mut verts = Vec::with_capacity(parts + 1);
        verts.push(0u32);
        let mut acc = 0u64;
        let mut v = 0u32;
        for p in 1..parts as u64 {
            let target = total * p / parts as u64;
            while v < n && acc < target {
                acc += rev_csr.degree(v) as u64 + 1;
                v += 1;
            }
            verts.push(v - v % WORD_BITS as u32);
        }
        verts.push(n);
        let mut words: Vec<u32> = verts.iter().map(|&f| f / WORD_BITS as u32).collect();
        words[parts] = (n as usize).div_ceil(WORD_BITS) as u32;
        PushFences { verts, words }
    }
}

/// One online-filter activation record, deferred by a parallel worker
/// and replayed into [`ThreadBins`] in deterministic order.
///
/// `key` is `(global task index, edge offset within the task)` — the
/// exact order in which the serial engine calls `ThreadBins::record`,
/// so sorting by `key` and replaying reproduces the serial bins (and
/// therefore the same overflow behaviour and the same concatenated
/// next-frontier) bit for bit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RecordEntry {
    /// (task counter, edge offset) sort key.
    pub(crate) key: (u64, u32),
    /// Simulated-thread bin slot (`ThreadBins::record`'s first arg).
    pub(crate) slot: usize,
    /// Recorded vertex.
    pub(crate) v: VertexId,
}

/// Per-worker private buffers for one parallel region.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch<M> {
    /// Classification output (merged in worker order).
    pub(crate) lists: Worklists,
    /// Pull-candidate output (merged in worker order).
    pub(crate) cands: Vec<VertexId>,
    /// This worker's part of the open kernel charge: opened at its
    /// first task (`KernelCharge::begin_part`), fed a cost per task,
    /// absorbed into [`IterScratch::charge`] by the submitter — `u64`
    /// slot sums, so the absorb order is immaterial.
    pub(crate) charge: KernelCharge,
    /// Vertices this worker marked changed this iteration (its bits
    /// are set in the shared [`ChangedSet`]'s window; the list is
    /// appended at merge).
    pub(crate) changed: Vec<VertexId>,
    /// Deferred online-filter records.
    pub(crate) records: Vec<RecordEntry>,
    /// Push mode: this destination shard's successful-apply counts
    /// `(task, applied)`, summed into [`IterScratch::applied`].
    pub(crate) applied: Vec<(u32, u32)>,
    /// Pull mode: deferred metadata writes (disjoint vertices).
    pub(crate) writebacks: Vec<(VertexId, M)>,
    /// Ballot-scan partition output (active vertices, ascending).
    pub(crate) active: Vec<VertexId>,
    /// Degree-sum partial.
    pub(crate) degree_sum: u64,
    /// Host edge traversals this worker performed in the last compute
    /// region (assigned per region, summed into
    /// [`crate::metrics::RunReport::edges_examined`]).
    pub(crate) edges_examined: u64,
}

/// All buffers the engine loop reuses across iterations.
#[derive(Debug)]
pub(crate) struct IterScratch<M> {
    /// The iteration's three worklists.
    pub(crate) lists: Worklists,
    /// Pull-mode candidate list.
    pub(crate) cands: Vec<VertexId>,
    /// The accumulator of the kernel invocation being charged: opened
    /// (`GpuExecutor::begin`) with the sweep's task count, fed as the
    /// sweep goes, committed after it. Every `begin` zeroes it, so an
    /// aborted sweep leaves nothing for the next one.
    pub(crate) charge: KernelCharge,
    /// Parallel push: applies per task, summed over the destination
    /// shards. A task's cycles are `ceil(raw / width)` — not linear in
    /// its writes — so it is charged only once this total is known (4
    /// bytes a task; a final pass streams `push_cost(degree, applied)`).
    pub(crate) applied: Vec<u32>,
    /// Vertices whose metadata changed this iteration: first-change
    /// dedup, the ballot scan's occupancy and the publish worklist.
    /// Sized once, at arena creation; empty at every iteration
    /// boundary.
    pub(crate) changed: ChangedSet,
    /// Aggregation-pull candidate dedup, sized with `changed`; drained
    /// into the sorted candidate list each aggregation-pull iteration.
    pub(crate) cand_bits: FrontierBitmap,
    /// Merged record list (sort + replay buffer).
    pub(crate) records: Vec<RecordEntry>,
    /// Online-filter thread bins (persistent, reshaped in place).
    pub(crate) bins: ThreadBins,
    /// Next-frontier buffer, swapped with the live frontier each
    /// iteration.
    pub(crate) next: Vec<VertexId>,
    /// Per-worker partitions (len = worker count; 1 in serial mode).
    pub(crate) workers: Vec<WorkerScratch<M>>,
}

impl<M> IterScratch<M> {
    /// Creates scratch for `threads` workers over a graph of
    /// `num_vertices` vertices; the arena lives in that graph's
    /// `BoundGraph` pool, so the bitmaps never need reshaping.
    pub(crate) fn new(threads: usize, num_vertices: usize) -> Self {
        Self {
            lists: Worklists::default(),
            cands: Vec::new(),
            charge: KernelCharge::default(),
            applied: Vec::new(),
            changed: ChangedSet::new(num_vertices),
            cand_bits: FrontierBitmap::new(num_vertices),
            records: Vec::new(),
            bins: ThreadBins::new(1, 0),
            next: Vec::new(),
            workers: (0..threads.max(1))
                .map(|_| WorkerScratch {
                    lists: Worklists::default(),
                    cands: Vec::new(),
                    charge: KernelCharge::default(),
                    changed: Vec::new(),
                    records: Vec::new(),
                    applied: Vec::new(),
                    writebacks: Vec::new(),
                    active: Vec::new(),
                    degree_sum: 0,
                    edges_examined: 0,
                })
                .collect(),
        }
    }

    /// Clears every buffer a previous run could have left *observable*
    /// state in, so a reused session run starts from exactly the logical
    /// state a fresh engine allocates (allocations are kept — that is
    /// the point of the session API).
    ///
    /// The kernel-charge accumulators are deliberately untouched:
    /// opening one zeroes it.
    ///
    /// (The push destination fences live on the `BoundGraph`, not
    /// here: `Runtime::bind` computes them once per graph for every
    /// parallel runtime.)
    ///
    /// The two bitmaps are empty after every completed iteration; a
    /// run aborted mid-iteration can leave bits behind, and this is the
    /// one place that clears them.
    ///
    /// The per-worker partitions are cleared here too. Every parallel
    /// region clears the fields it uses before writing them, so for a
    /// run that completes this is redundant — but a run aborted
    /// mid-region (cancellation, deadline, contained worker panic)
    /// leaves partial per-worker output behind. Clearing everything at
    /// the next `execute()` entry makes aborted runs indistinguishable
    /// from fresh engines.
    pub(crate) fn reset_for_run(&mut self) {
        self.lists.clear();
        self.cands.clear();
        self.applied.clear();
        self.changed.clear();
        self.cand_bits.clear_all();
        self.records.clear();
        self.bins.clear();
        self.next.clear();
        for ws in &mut self.workers {
            ws.lists.clear();
            ws.cands.clear();
            ws.changed.clear();
            ws.records.clear();
            ws.applied.clear();
            ws.writebacks.clear();
            ws.active.clear();
            ws.degree_sum = 0;
            ws.edges_examined = 0;
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
        debug_assert!(self.applied.is_empty(), "applied counts not cleared");
        debug_assert!(self.changed.is_empty(), "changed set not published");
        debug_assert!(self.cand_bits.is_empty(), "candidate bitmap not drained");
        debug_assert!(self.records.is_empty(), "deferred records not replayed");
        debug_assert_eq!(self.bins.total_recorded(), 0, "thread bins carry entries");
        debug_assert!(!self.bins.overflowed(), "thread-bin overflow flag stuck");
        debug_assert!(self.next.is_empty(), "next-frontier buffer not cleared");
        for (w, ws) in self.workers.iter().enumerate() {
            debug_assert!(ws.lists.is_empty(), "worker {w} worklists not cleared");
            debug_assert!(ws.cands.is_empty(), "worker {w} candidates not cleared");
            debug_assert!(ws.changed.is_empty(), "worker {w} changed list not cleared");
            debug_assert!(ws.records.is_empty(), "worker {w} records not cleared");
            debug_assert!(
                ws.applied.is_empty(),
                "worker {w} applied counts not cleared"
            );
            debug_assert!(
                ws.writebacks.is_empty(),
                "worker {w} writebacks not cleared"
            );
            debug_assert!(ws.active.is_empty(), "worker {w} ballot output not cleared");
            debug_assert_eq!(ws.degree_sum, 0, "worker {w} degree sum not cleared");
            debug_assert_eq!(ws.edges_examined, 0, "worker {w} edge meter not cleared");
        }
    }
}

// The session arena pool moves `IterScratch` between serving threads
// (checkout on one, check-in possibly on another); `Send` for any
// sendable metadata type is what makes that hand-off sound. Removing
// any auto-trait here is an API break for `crate::session` — fail the
// build rather than letting it regress silently.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<IterScratch<u32>>();
    assert_send::<WorkerScratch<u32>>();
};
