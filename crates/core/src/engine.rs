//! The SIMD-X BSP engine (Fig. 4(b)).
//!
//! [`Engine::run_session`] is the driver: [`Run::init`] starts from
//! the caller's checkpoint slot or from `program.init`, and each
//! iteration is a sequence of phases over that one [`Run`] —
//! [`Run::capture`] (armed runs: overwrite the slot with this
//! boundary), [`Run::limits`] (iteration cap, supervision boundary),
//! then the paper's steps:
//!
//! 1. [`Run::direction`] decides the scan direction (program hint, then
//!    the frontier-volume heuristic);
//! 2. [`Run::worklists`] classifies active tasks into small/med/large
//!    worklists (§4 step I);
//! 3. [`Run::compute`] runs the Thread, Warp and CTA compute kernels
//!    over their lists (§4 step II), performing real
//!    Compute/Combine/apply work while the online filter records
//!    updated vertices into bounded thread bins,
//! 4. and passes the software global barrier (fused modes);
//! 5. [`Run::filter`] is task management: concatenate bins (online) or
//!    ballot-scan the metadata (ballot), under JIT control, and the
//!    barrier again;
//! 6. [`Run::publish`] publishes `metadata_prev` and logs the
//!    iteration; loop until the frontier is empty or the program
//!    reports convergence.
//!
//! All metadata updates are performed exactly (the result is bit-equal
//! to a sequential reference); the executor charges simulated cycles for
//! every step so the report reflects the paper's cost structure.
//!
//! # Host execution backends
//!
//! [`crate::config::ExecMode`] selects how the *host* computes an
//! iteration. `Serial` is the single-threaded reference; `Parallel`
//! hands the run a [`WorkerPool`] while producing **bit-equal
//! reports** — identical metadata, logs and simulated cycle counts.
//! The strategies (documented in `crates/core/README.md`):
//!
//! * *Every step but the ballot scan runs the serial code.* Degree
//!   sum, classification, candidate sweeps and the push and pull
//!   kernels ([`Engine::serial_unit`]) run on the submitting thread in
//!   both modes, so they are the reference by construction — host edge
//!   meter ([`RunReport::edges_examined`]) included.
//! * *The ballot scan is partitioned.* Under `Parallel` the |V|-wide
//!   scan of [`Run::filter`] runs on the pool, one range of whole
//!   occupancy words per worker; the workers' actives concatenated in
//!   worker order are the serial scan's list.
//! * *Costs are streamed, and the sums commute.* No sweep stores a
//!   per-task [`Cost`]: before a sweep the engine opens the arena's
//!   [`KernelCharge`] with the sweep's task count
//!   ([`GpuExecutor::begin`]), the sweep feeds it one cost per task as
//!   it goes (or one closed-form `uniform` run for identical tasks),
//!   and [`GpuExecutor::commit`] folds it into the statistics. Task `i`
//!   lands on slot `i % active_slots` and everything accumulated is a
//!   `u64` sum, so a ballot worker that owns chunks `[t0, t1)` charges
//!   its own accumulator opened at `t0` and the submitter adds the
//!   parts in — no ordering argument needed.
//!
//! # The changed set
//!
//! Which vertices' metadata diverged from the iteration-start snapshot
//! is one structure, [`ChangedSet`] (a bitmap *and* the list of marked
//! vertices), owned by `frontier.rs`; the engine only calls it. Every
//! compute kernel asks it `is_first(v)` before an apply and `mark(v)`s
//! after a first change. At the end of the iteration the ballot filter
//! (when it runs)
//! skips the set's all-zero occupancy words unless the iteration was
//! dense, and `publish` copies the changed cells into `metadata_prev`
//! by list walk or word sweep — both choices read nothing but the
//! changed count and `|V|`, so serial, parallel and resumed runs pick
//! alike. Aggregation-pull candidates are deduplicated through a second
//! bitmap whose drain *is* the sorted candidate list; on a dense
//! iteration that bitmap holds the frontier instead, and a sweep over
//! every vertex's in-edges finds the same list in the same order.
//!
//! # Metadata sweeps
//!
//! `metadata_prev`/`metadata_curr` are plain `Vec<M>`s. The sweeps that
//! touch every vertex — the ballot scan
//! ([`ballot::scan_range_chunked`]) and the pull-vote candidate sweep
//! ([`Engine::vote_candidates`]) — walk them in 32-vertex chunks (one
//! warp of ballot lanes, half a bitmap word) through fixed-width lane
//! loops the compiler can vectorize, finishing a partial tail scalar;
//! the parallel ballot scan's partitions fall on occupancy-word
//! boundaries, so no worker ever splits a chunk. The candidate sweep
//! classifies each candidate into its worklist as it finds it.

use crate::acc::{AccProgram, CombineKind, DirectionCtx};
use crate::checkpoint::{RunCheckpoint, RunState};
use crate::config::{DirectionPolicy, EngineConfig};
use crate::error::SimdxError;
use crate::filters::{ballot, online, FilterKind};
use crate::frontier::{ChangedSet, ThreadBins, WORD_BITS};
use crate::fusion::{FusionPlan, KernelRole};
use crate::jit::{IterationRecord, JitController};
use crate::metrics::{RunReport, RunResult};
use crate::par::{chunk_range_aligned, WorkerPool};
use crate::scratch::IterScratch;
use crate::supervise::{Supervisor, POLL_STRIDE};
use simdx_gpu::{Cost, GpuExecutor, KernelCharge, SchedUnit, WARP_SIZE};
use simdx_graph::csr::{Csr, Direction};
use simdx_graph::{Graph, VertexId, Weight};

/// Borrowed per-run resources handed to [`Engine::run_session`].
///
/// The session API ([`crate::session::Runtime`] and
/// [`crate::session::BoundGraph`]) owns these across queries — the pool
/// outlives runs and the scratch arenas are reused.
pub(crate) struct SessionCtx<'a, 'o, M: Copy + 'static> {
    /// The `ExecMode::Parallel` backend, a worker pool checked out for
    /// the query (`None` = serial path).
    pub(crate) pool: Option<&'a WorkerPool>,
    /// Reusable scratch arenas, with at least one worker slot per pool
    /// thread.
    pub(crate) scratch: &'a mut IterScratch,
    /// Per-run iteration cap (the run builder can override the
    /// config's).
    pub(crate) max_iterations: u32,
    /// Per-iteration observer, called right after each iteration's
    /// record is appended to the activation log.
    pub(crate) observer: Option<&'a mut (dyn FnMut(&IterationRecord) + 'o)>,
    /// Run supervision (cancellation, deadline, cycle budget). An
    /// unlimited supervisor makes every check a cheap early-out, so
    /// unsupervised runs pay nothing measurable.
    pub(crate) supervisor: &'a Supervisor,
    /// The caller's checkpoint slot (`None` = unarmed), see
    /// [`crate::checkpoint`]: occupied at entry means "continue from
    /// this boundary", and the top of every iteration overwrites it in
    /// place.
    pub(crate) checkpoint: Option<&'a mut Option<RunCheckpoint<M>>>,
}

/// Frontier out-degree volume per vertex from which serial aggregation
/// pull finds its candidates bottom-up. The top-down walk tests every
/// out-edge of the frontier; the bottom-up sweep visits every vertex
/// and stops at its first in-neighbour in the frontier, so it wins by
/// far on an all-active frontier and, on R-MAT-17 PageRank, could not
/// be told from the walk at 1 to 6 out-edges per vertex. 1 keeps the
/// first iteration of a sparse graph (a road grid, 4 per vertex)
/// bottom-up. The choice reads only the logged `degree_sum` and `|V|`,
/// and both ways find the same candidates in the same order, so the
/// device model and a resumed run cannot tell them apart.
const BOTTOM_UP_VOLUME: u64 = 1;

/// The SIMD-X engine: the loop driver and the kernels, as associated
/// functions over one ACC program type. The loop's phases are the
/// methods of [`Run`].
pub(crate) struct Engine<P>(std::marker::PhantomData<P>);

/// One run in flight: the boundary record plus what a boundary does not
/// need — the `metadata_prev` snapshot (equal to `state.meta` whenever
/// no iteration is in progress), the simulated device, and the session
/// resources the phases borrow.
struct Run<'a, 'o, P: AccProgram> {
    program: &'a P,
    graph: &'a Graph,
    config: &'a EngineConfig,
    ctx: SessionCtx<'a, 'o, P::Meta>,
    /// Pool width; 1 on the serial path.
    threads: usize,
    executor: GpuExecutor,
    plan: FusionPlan,
    jit: JitController,
    /// `state.meta` is `metadata_curr`.
    state: RunState<P::Meta>,
    prev: Vec<P::Meta>,
}

/// What [`Run::direction`] decides for one iteration and the later
/// phases read.
struct IterFacts {
    dir: Direction,
    degree_sum: u64,
    /// Simulated cycles at the top of the iteration.
    cycles_before: u64,
}

impl<P: AccProgram> Engine<P> {
    /// One engine run over borrowed session resources — the core of the
    /// session API's [`crate::session::RunBuilder::execute`]; the
    /// module docs walk through the phases.
    pub(crate) fn run_session(
        program: &P,
        graph: &Graph,
        config: &EngineConfig,
        ctx: SessionCtx<'_, '_, P::Meta>,
    ) -> Result<RunResult<P::Meta>, SimdxError> {
        let mut run = Run::init(program, graph, config, ctx);
        loop {
            let (state, frontier_len) = (&run.state, run.state.frontier.len() as u64);
            if frontier_len == 0 || program.converged(state.iteration, frontier_len, &state.meta) {
                break;
            }
            // Capture comes *before* the limit and supervision checks,
            // at every boundary including the first after a restore, so
            // every abort that can fire this iteration — limit, cancel,
            // deadline, budget, or a panic mid-sweep — leaves the slot
            // resumable from here.
            run.capture();
            run.limits()?;
            let it = run.direction();
            run.worklists(&it);
            run.compute(&it)?;
            let filter = run.filter(&it)?;
            run.publish(&it, filter);
        }
        let Run {
            state,
            executor,
            ctx,
            ..
        } = run;
        Ok(RunResult {
            meta: state.meta,
            report: RunReport {
                algorithm: program.name().to_string(),
                device: executor.device().name,
                iterations: state.iteration,
                elapsed_ms: executor.elapsed_ms(),
                stats: executor.stats().clone(),
                edges_examined: state.edges_examined,
                log: state.log,
                elapsed: ctx.supervisor.elapsed(),
                supervision_checks: ctx.supervisor.checks(),
            },
        })
    }
}

impl<'a, 'o, P: AccProgram> Run<'a, 'o, P> {
    /// Init-or-restore: the simulated device, a reset scratch arena and
    /// the boundary record the run starts from — a copy of the caller's
    /// slot's when that is occupied (so the continuation is bit-equal
    /// to the uninterrupted run), else `program.init`'s.
    fn init(
        program: &'a P,
        graph: &'a Graph,
        config: &'a EngineConfig,
        ctx: SessionCtx<'a, 'o, P::Meta>,
    ) -> Self {
        let n = graph.num_vertices() as usize;
        let mut executor = GpuExecutor::new(config.device.clone());
        executor.set_scale(config.parallelism_scale);
        let mut plan = FusionPlan::new(config.fusion, config.threads_per_cta);
        let threads = ctx.pool.map_or(1, WorkerPool::threads);
        let scratch = &mut *ctx.scratch;
        debug_assert_eq!(
            scratch.workers.len(),
            threads,
            "scratch sized for another worker count"
        );
        // Session-reuse invariant: a reused scratch must be logically
        // indistinguishable from a fresh allocation — clear every
        // transient buffer, then assert nothing survived (so a future
        // scratch field without a matching reset is caught here, not as
        // cross-query state leakage).
        scratch.reset_for_run(n);
        scratch.debug_assert_clean();
        let state = match ctx.checkpoint.as_deref() {
            Some(Some(cp)) => {
                // The execute path validated the slot against this
                // graph and program before the attempt.
                debug_assert_eq!(cp.num_vertices() as usize, n);
                let state = cp.restore();
                executor.restore_stats(state.stats.clone());
                plan.restore_launch_state(state.fusion.0, state.fusion.1);
                state
            }
            _ => {
                let (meta, frontier) = program.init(graph);
                assert_eq!(meta.len(), n, "init must produce one metadata per vertex");
                RunState::new(meta, frontier)
            }
        };
        Run {
            program,
            graph,
            config,
            ctx,
            threads,
            executor,
            plan,
            jit: JitController::new(config.filter),
            prev: state.meta.clone(),
            state,
        }
    }

    /// Boundary capture (armed runs only): syncs the executor's
    /// counters and the plan's launch residency into the record, then
    /// overwrites the caller's slot with a copy of it. After the first
    /// capture this reuses the slot's buffers — a few memcpys, and an
    /// allocator call only when the frontier or the activation log
    /// outgrows the capacity it doubled to last time.
    fn capture(&mut self) {
        let Some(slot) = self.ctx.checkpoint.as_deref_mut() else {
            return;
        };
        self.state.stats.clone_from(self.executor.stats());
        self.state.fusion = self.plan.launch_state();
        RunCheckpoint::capture(slot, self.program.name(), &self.state);
    }

    /// The iteration cap, then the supervision boundary: the full check
    /// (token, deadline, simulated-cycle budget) runs once per
    /// iteration, here; the in-sweep polls only watch the token and
    /// deadline.
    fn limits(&self) -> Result<(), SimdxError> {
        let (state, sup) = (&self.state, self.ctx.supervisor);
        let max_iterations = self.ctx.max_iterations;
        if state.iteration >= max_iterations {
            return Err(SimdxError::IterationLimit { max_iterations });
        }
        match sup.check_boundary(self.executor.stats().total_cycles) {
            Some(reason) => Err(sup.abort_error(reason, state.iteration, state.edges_examined)),
            None => Ok(()),
        }
    }

    /// Step 1: the frontier's out-degree volume, then the program's
    /// hint or the heuristic.
    fn direction(&self) -> IterFacts {
        let state = &self.state;
        let out_csr = self.graph.out();
        let frontier = &state.frontier;
        let degree_sum: u64 = frontier.iter().map(|&v| out_csr.degree(v) as u64).sum();
        let ctx = DirectionCtx {
            iteration: state.iteration,
            frontier_len: frontier.len() as u64,
            frontier_degree_sum: degree_sum,
            num_vertices: self.graph.num_vertices() as u64,
            num_edges: self.graph.num_edges(),
            previous: state.prev_dir,
        };
        let dir = self
            .program
            .direction(&ctx)
            .unwrap_or_else(|| Engine::heuristic_direction(self.program, self.config, &ctx));
        IterFacts {
            dir,
            degree_sum,
            cycles_before: self.executor.stats().total_cycles,
        }
    }

    /// Step 2. Push mode expands the frontier itself; pull mode
    /// recomputes every candidate vertex.
    fn worklists(&mut self, it: &IterFacts) {
        let program = self.program;
        let thresholds = self.config.thresholds;
        let IterScratch {
            lists,
            cands,
            charge,
            cand_bits,
            ..
        } = &mut *self.ctx.scratch;
        let (frontier, curr) = (&self.state.frontier, self.state.meta.as_slice());
        let scan_csr = self.graph.csr(it.dir);
        if it.dir == Direction::Push {
            lists.classify_into(frontier, scan_csr, thresholds);
            return;
        }
        let n = curr.len();
        let k = self.plan.kernel(it.dir, KernelRole::TaskMgmt);
        match program.combine_kind() {
            // Voting programs sweep every candidate (bottom-up BFS
            // scans all unvisited vertices and terminates each scan
            // early).
            CombineKind::Vote => {
                // One sweep finds and classifies: each candidate goes
                // straight into its worklist, no candidate list in
                // between.
                lists.clear();
                Engine::vote_candidates(program, curr, |v| {
                    lists.classify_one(v, scan_csr, thresholds)
                });
                // Candidate scan: a coalesced metadata sweep of
                // |V| / 32 identical warp tasks, charged in closed
                // form.
                let chunks = n.div_ceil(WARP_SIZE);
                self.executor.begin(charge, k, SchedUnit::Warp, chunks);
                charge.uniform(&Engine::<P>::vote_scan_cost(), chunks as u64);
                self.executor.commit(charge, false);
            }
            // Aggregation programs must visit every in-edge of a
            // recomputed vertex, so task management restricts
            // recomputation to vertices with at least one active
            // in-neighbor — a skipped vertex would recompute its
            // existing value.
            CombineKind::Aggregation => {
                let out_csr = self.graph.out();
                cands.clear();
                // One mark task per frontier entry, charged as the
                // sweep visits it.
                self.executor
                    .begin(charge, k, SchedUnit::Warp, frontier.len());
                if it.degree_sum >= BOTTOM_UP_VOLUME * n as u64 {
                    // Bottom-up: the frontier goes into the bitmap and
                    // every candidate with an in-neighbour there is
                    // classified as the sweep finds it — the drained
                    // top-down set, in the same ascending order, with
                    // no out-edge walk. The device model still marks
                    // top-down, so each entry is charged as below.
                    for &v in frontier {
                        cand_bits.set(v);
                        charge.task(&Engine::<P>::mark_cost(out_csr.degree(v) as usize));
                    }
                    lists.clear();
                    for (u, m) in curr.iter().enumerate() {
                        let u = u as VertexId;
                        if program.pull_candidate(u, m)
                            && scan_csr.neighbors(u).iter().any(|&w| cand_bits.test(w))
                        {
                            lists.classify_one(u, scan_csr, thresholds);
                        }
                    }
                    cand_bits.clear_all();
                    self.executor.commit(charge, false);
                    return;
                }
                // Candidate dedup is a bit test, and draining the
                // bitmap yields the sorted candidate list with no sort.
                for &v in frontier {
                    let nbrs = out_csr.neighbors(v);
                    for &u in nbrs {
                        if !cand_bits.test(u) && program.pull_candidate(u, &curr[u as usize]) {
                            cand_bits.set(u);
                        }
                    }
                    charge.task(&Engine::<P>::mark_cost(nbrs.len()));
                }
                cand_bits.drain_into(cands);
                self.executor.commit(charge, false);
                lists.classify_into(cands, scan_csr, thresholds);
            }
        }
    }

    /// Steps 3–4: the three compute kernels, each charged as its sweep
    /// runs — one task per list entry — then the barrier.
    fn compute(&mut self, it: &IterFacts) -> Result<(), SimdxError> {
        let (program, dir, config) = (self.program, it.dir, self.config);
        let (sup, prev) = (self.ctx.supervisor, self.prev.as_slice());
        let RunState {
            meta: curr,
            edges_examined,
            iteration,
            log,
            ..
        } = &mut self.state;
        let IterScratch {
            lists,
            charge,
            changed,
            bins,
            ..
        } = &mut *self.ctx.scratch;
        let scan_csr = self.graph.csr(dir);
        // An ascending frontier (the first one, or a ballot filter's):
        // push tasks read their source coalesced.
        let frontier_sorted = log
            .records
            .last()
            .is_none_or(|r| r.filter == FilterKind::Ballot);
        let record = self.jit.records_bins();
        // Thread bins for the online filter, sized by the Thread
        // kernel's (scaled) slot count; the bins (and their inner
        // allocations) persist across iterations.
        let thread_kernel = self
            .plan
            .kernel(dir, KernelRole::Compute(SchedUnit::Thread));
        let bin_count = self.executor.slots_for(thread_kernel, SchedUnit::Thread) as usize;
        bins.reset_to(bin_count, config.overflow_threshold);

        let mut task_base = 0u64;
        for unit in [SchedUnit::Thread, SchedUnit::Warp, SchedUnit::Cta] {
            let list = lists.list(unit);
            let launch = self.plan.needs_launch(dir);
            let kernel = self.plan.kernel(dir, KernelRole::Compute(unit));
            let width = unit.threads(config.threads_per_cta) as u64;
            self.executor.begin(charge, kernel, unit, list.len());
            Engine::serial_unit(
                program,
                dir,
                list,
                scan_csr,
                prev,
                curr,
                bins,
                changed,
                charge,
                record,
                width,
                task_base,
                frontier_sorted,
                edges_examined,
                sup,
            );
            self.executor.commit(charge, launch);
            task_base += list.len() as u64;
        }
        if self.plan.uses_global_barrier() {
            self.executor.charge_barrier();
        }
        // Second supervision boundary: the compute sweeps poll the
        // token/deadline and bail out mid-list, so re-checking here
        // turns an in-sweep trip into the typed abort before the filter
        // stage consumes the partial bins. The cycle budget is *not*
        // re-checked mid-iteration: budget aborts fire only at the
        // top-of-iteration boundary, where the capture just ran, so a
        // resumed run always clears the iteration it replays before the
        // budget can re-trip.
        match sup.check_mid_iteration() {
            Some(reason) => Err(sup.abort_error(reason, *iteration, *edges_examined)),
            None => Ok(()),
        }
    }

    /// Step 5, into `scratch.next`; then the barrier again.
    fn filter(&mut self, it: &IterFacts) -> Result<FilterKind, SimdxError> {
        let (program, pool, threads) = (self.program, self.ctx.pool, self.threads);
        let IterScratch {
            charge,
            changed,
            bins,
            next,
            workers,
            ..
        } = &mut *self.ctx.scratch;
        let decision = self.jit.decide(bins, self.state.iteration)?;
        let tm_launch = self.plan.needs_launch(it.dir);
        let tm_kernel = self.plan.kernel(it.dir, KernelRole::TaskMgmt);
        match decision {
            FilterKind::Online => {
                bins.concatenate_into(next);
                online::charge_concatenation(
                    bins,
                    &mut self.executor,
                    tm_kernel,
                    tm_launch,
                    charge,
                );
            }
            FilterKind::Ballot => {
                // One scan task per warp chunk of the metadata arrays,
                // charged as the chunk is scanned. Unless the iteration
                // was dense, the changed set is the scan's occupancy:
                // all-zero words (64 untouched vertices) are charged
                // without loading metadata.
                let (curr, prev) = (self.state.meta.as_slice(), self.prev.as_slice());
                let n = curr.len();
                self.executor
                    .begin(charge, tm_kernel, SchedUnit::Warp, n.div_ceil(WARP_SIZE));
                next.clear();
                let occ = changed.sparse_occupancy();
                let scan = |lo, hi, active: &mut Vec<VertexId>, part: &mut KernelCharge| {
                    let mut sink = |c: Cost| part.task(&c);
                    match occ {
                        Some(occ) => ballot::scan_range_sparse(
                            program, curr, prev, lo, hi, occ, active, &mut sink,
                        ),
                        None => ballot::scan_range_chunked(
                            program, curr, prev, lo, hi, active, &mut sink,
                        ),
                    }
                };
                match pool {
                    None => scan(0, n, next, charge),
                    Some(pool) => {
                        let whole = &*charge;
                        // The one step `Parallel` runs on the pool.
                        // Partition on occupancy-word (64) boundaries,
                        // so every worker's range covers whole words
                        // and whole warp chunks.
                        pool.try_for_each_worker(workers, |w, ws| {
                            let (lo, hi) = chunk_range_aligned(n, threads, w, WORD_BITS);
                            ws.active.clear();
                            ws.charge.begin_part(whole, lo / WARP_SIZE);
                            scan(lo, hi, &mut ws.active, &mut ws.charge);
                        })?;
                        for ws in workers.iter() {
                            next.extend_from_slice(&ws.active);
                            charge.absorb(&ws.charge);
                        }
                    }
                }
                self.executor.commit(charge, tm_launch);
            }
        };
        if self.plan.uses_global_barrier() {
            self.executor.charge_barrier();
        }
        Ok(decision)
    }

    /// Step 6, then the log record, and the record steps to the next
    /// boundary.
    fn publish(&mut self, it: &IterFacts, filter: FilterKind) {
        let (scratch, state) = (&mut *self.ctx.scratch, &mut self.state);
        scratch.changed.publish(&mut self.prev, &state.meta);
        let record = IterationRecord {
            iteration: state.iteration,
            direction: it.dir,
            frontier_len: scratch.lists.len(),
            degree_sum: it.degree_sum,
            filter,
            overflowed: scratch.bins.overflowed(),
            cycles: self.executor.stats().total_cycles - it.cycles_before,
        };
        state.log.records.push(record);
        if let Some(obs) = self.ctx.observer.as_mut() {
            obs(&record);
        }
        // The old frontier buffer becomes next iteration's output
        // scratch (cleared before reuse) — no per-iteration frontier
        // allocation.
        std::mem::swap(&mut state.frontier, &mut scratch.next);
        state.prev_dir = it.dir;
        state.iteration += 1;
    }
}

impl<P: AccProgram> Engine<P> {
    /// Hands the pull-vote candidates of the metadata sweep to `found`,
    /// in ascending order: full 32-vertex chunks go through `[M; 32]`
    /// windows with a fixed-width lane loop (the candidate-scan
    /// analogue of [`ballot::scan_range_chunked`]), the partial tail is
    /// finished scalar.
    fn vote_candidates(program: &P, curr: &[P::Meta], mut found: impl FnMut(VertexId)) {
        let mut base = 0;
        let mut rest = curr;
        while let Some((chunk, tail)) = rest.split_first_chunk::<WARP_SIZE>() {
            for (lane, m) in chunk.iter().enumerate() {
                let v = (base + lane) as VertexId;
                if program.pull_candidate(v, m) {
                    found(v);
                }
            }
            base += WARP_SIZE;
            rest = tail;
        }
        for (i, m) in rest.iter().enumerate() {
            let v = (base + i) as VertexId;
            if program.pull_candidate(v, m) {
                found(v);
            }
        }
    }

    /// The serial compute-kernel loop over one worklist. Each task's
    /// cost goes to `charge` the moment the task is done.
    #[allow(clippy::too_many_arguments)]
    fn serial_unit(
        program: &P,
        dir: Direction,
        list: &[VertexId],
        csr: &Csr,
        prev: &[P::Meta],
        curr: &mut [P::Meta],
        bins: &mut ThreadBins,
        chg: &mut ChangedSet,
        charge: &mut KernelCharge,
        record: bool,
        width: u64,
        task_base: u64,
        frontier_sorted: bool,
        examined: &mut u64,
        sup: &Supervisor,
    ) {
        for (t, &v) in list.iter().enumerate() {
            // In-sweep supervision: a tripped token or deadline bails
            // out of the task list mid-sweep; the iteration's second
            // boundary check converts the trip into the typed abort.
            if t % POLL_STRIDE == 0 && sup.poll() {
                break;
            }
            let task_counter = task_base + t as u64;
            let cost = match dir {
                Direction::Push => Self::push_task(
                    program,
                    v,
                    csr,
                    prev,
                    curr,
                    bins,
                    chg,
                    record,
                    width,
                    task_counter,
                    frontier_sorted,
                    examined,
                ),
                Direction::Pull => Self::pull_task(
                    program,
                    v,
                    csr,
                    prev,
                    curr,
                    bins,
                    chg,
                    record,
                    width,
                    task_counter,
                    examined,
                ),
            };
            charge.task(&cost);
        }
    }

    /// Frontier-volume direction heuristic (Beamer-style): pull when the
    /// frontier's out-degree volume exceeds `|E| / alpha`.
    ///
    /// The divisor only applies to voting programs, whose pull
    /// iterations terminate early at the first useful parent (§3.3's
    /// collaborative early termination makes a pull sweep much cheaper
    /// than |E|). Aggregation programs must visit every in-edge of every
    /// candidate, so pull can only win once the push volume exceeds the
    /// full sweep itself.
    fn heuristic_direction(program: &P, config: &EngineConfig, ctx: &DirectionCtx) -> Direction {
        match config.direction {
            DirectionPolicy::FixedPush => Direction::Push,
            DirectionPolicy::FixedPull => Direction::Pull,
            DirectionPolicy::Adaptive { alpha } => {
                let alpha = match program.combine_kind() {
                    CombineKind::Vote => alpha,
                    CombineKind::Aggregation => 1,
                };
                if ctx.frontier_degree_sum.saturating_mul(alpha) > ctx.num_edges {
                    Direction::Pull
                } else {
                    Direction::Push
                }
            }
        }
    }

    /// One warp's share of the pull-vote candidate scan: a coalesced
    /// sweep of 32 metadata words with the compacted candidate append.
    fn vote_scan_cost() -> Cost {
        Cost {
            compute_ops: 64,
            coalesced_reads: 32,
            writes: 4,
            width: 32,
            ..Cost::default()
        }
    }

    /// Cost of the aggregation-pull dirty-marking task for a frontier
    /// vertex with `nbrs` out-neighbors.
    fn mark_cost(nbrs: usize) -> Cost {
        Cost {
            compute_ops: nbrs as u64 + 1,
            coalesced_reads: 1 + nbrs as u64,
            writes: nbrs as u64,
            width: 32,
            ..Cost::default()
        }
    }

    /// Slot-scaled cost of one push task of degree `d`.
    fn push_cost(d: u64, applied: u64, width: u64, frontier_sorted: bool) -> Cost {
        Cost {
            compute_ops: 2 * d + 2 + Self::tree_ops(width),
            coalesced_reads: d + if frontier_sorted { 1 } else { 0 },
            random_reads: d + if frontier_sorted { 0 } else { 1 },
            writes: applied,
            width,
            ..Cost::default()
        }
    }

    /// Slot-scaled cost of one pull task that scanned `scanned` in-edges.
    fn pull_cost(scanned: u64, applied: u64, width: u64) -> Cost {
        Cost {
            compute_ops: 2 * scanned + 2 + Self::tree_ops(width),
            coalesced_reads: 1 + scanned,
            random_reads: scanned,
            writes: applied,
            width,
            ..Cost::default()
        }
    }

    /// Processes one push-mode task (active vertex `v` scatters along
    /// its out-edges), returning the slot-scaled cost.
    ///
    /// BSP semantics: source metadata is read from the iteration-start
    /// snapshot (`prev`), destination metadata is read from and written
    /// to `curr` — in-iteration updates accumulate at destinations but
    /// never propagate transitively within an iteration, matching the
    /// synchronization of Fig. 4(b).
    #[allow(clippy::too_many_arguments)]
    fn push_task(
        program: &P,
        v: VertexId,
        csr: &Csr,
        prev: &[P::Meta],
        curr: &mut [P::Meta],
        bins: &mut ThreadBins,
        chg: &mut ChangedSet,
        record: bool,
        width: u64,
        task_counter: u64,
        frontier_sorted: bool,
        examined: &mut u64,
    ) -> Cost {
        let (lo, hi) = csr.range(v);
        let d = (hi - lo) as u64;
        *examined += d;
        let targets = &csr.targets()[lo..hi];
        // Weighted/unweighted split once per task, so the inner loop
        // carries no per-edge branch on the weights option.
        let applied = match csr.weights() {
            None => Self::push_task_edges(
                program,
                v,
                targets,
                |_| 1,
                prev,
                curr,
                bins,
                chg,
                record,
                width,
                task_counter,
            ),
            Some(ws) => {
                let ws = &ws[lo..hi];
                Self::push_task_edges(
                    program,
                    v,
                    targets,
                    |k| ws[k],
                    prev,
                    curr,
                    bins,
                    chg,
                    record,
                    width,
                    task_counter,
                )
            }
        };
        Self::push_cost(d, applied, width, frontier_sorted)
    }

    /// The serial push edge loop, monomorphized per weight provider.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn push_task_edges(
        program: &P,
        v: VertexId,
        targets: &[VertexId],
        weight: impl Fn(usize) -> Weight,
        prev: &[P::Meta],
        curr: &mut [P::Meta],
        bins: &mut ThreadBins,
        chg: &mut ChangedSet,
        record: bool,
        width: u64,
        task_counter: u64,
    ) -> u64 {
        let m_src = prev[v as usize];
        let bin_base = (task_counter * width) as usize;
        // Edge `k`'s lane is `k % width`: a mask for the power-of-two
        // widths every default-config task has.
        let lane_mask = width.is_power_of_two().then_some(width as usize - 1);
        let mut applied = 0u64;
        for (k, &u) in targets.iter().enumerate() {
            let w = weight(k);
            if let Some(up) = program.compute(v, u, w, &m_src, &curr[u as usize]) {
                // First-change detection: a vertex is enqueued exactly
                // once per iteration even when several sources update it
                // (duplicate frontier entries would double-apply
                // non-idempotent aggregations like k-Core's decrements).
                let first_change = chg.is_first(u);
                if let Some(new) = program.apply(u, &curr[u as usize], up) {
                    curr[u as usize] = new;
                    applied += 1;
                    if first_change {
                        chg.mark(u);
                        // An overflowed iteration's bins are never read.
                        if record && !bins.overflowed() && program.activates(u, &new) {
                            let lane = match lane_mask {
                                Some(mask) => k & mask,
                                None => k % width as usize,
                            };
                            bins.record(bin_base + lane, u);
                        }
                    }
                }
            }
        }
        applied
    }

    /// Processes one pull-mode task (candidate vertex `v` gathers along
    /// its in-edges, combining updates warp-locally before a single
    /// non-atomic write — Fig. 4(b) lines 1-8).
    #[allow(clippy::too_many_arguments)]
    fn pull_task(
        program: &P,
        v: VertexId,
        csr: &Csr,
        prev: &[P::Meta],
        curr: &mut [P::Meta],
        bins: &mut ThreadBins,
        chg: &mut ChangedSet,
        record: bool,
        width: u64,
        task_counter: u64,
        examined: &mut u64,
    ) -> Cost {
        let (lo, hi) = csr.range(v);
        let targets = &csr.targets()[lo..hi];
        // Weighted/unweighted split once per task (the per-edge
        // weights-option branch is hoisted out of the gather loop).
        let (scanned, acc) = match csr.weights() {
            None => Self::pull_gather_edges(program, v, targets, |_| 1, prev, curr),
            Some(ws) => {
                let ws = &ws[lo..hi];
                Self::pull_gather_edges(program, v, targets, |k| ws[k], prev, curr)
            }
        };
        *examined += scanned;
        let mut applied = 0u64;
        if let Some(up) = acc {
            let first_change = chg.is_first(v);
            if let Some(new) = program.apply(v, &curr[v as usize], up) {
                curr[v as usize] = new;
                applied = 1;
                if first_change {
                    chg.mark(v);
                    if record && !bins.overflowed() && program.activates(v, &new) {
                        bins.record((task_counter * width) as usize, v);
                    }
                }
            }
        }
        Self::pull_cost(scanned, applied, width)
    }

    /// The gather loop of a pull task, monomorphized per weight
    /// provider: scans `v`'s in-edges combining updates, with
    /// collaborative early termination for voting combines. Returns
    /// (edges scanned, combined update).
    #[inline]
    fn pull_gather_edges(
        program: &P,
        v: VertexId,
        targets: &[VertexId],
        weight: impl Fn(usize) -> Weight,
        prev: &[P::Meta],
        curr: &[P::Meta],
    ) -> (u64, Option<P::Update>) {
        let m_dst = curr[v as usize];
        let vote = program.combine_kind() == CombineKind::Vote;
        let mut acc: Option<P::Update> = None;
        let mut scanned = 0u64;
        for (k, &u) in targets.iter().enumerate() {
            scanned += 1;
            let w = weight(k);
            if let Some(up) = program.compute(u, v, w, &prev[u as usize], &m_dst) {
                acc = Some(match acc {
                    None => up,
                    Some(a) => program.combine(a, up),
                });
                if vote {
                    // Collaborative early termination: for voting
                    // combines any single update decides the vertex.
                    break;
                }
            }
        }
        (scanned, acc)
    }

    /// ALU cost of the cross-lane Combine tree: `log2(width)` shuffle
    /// steps per lane (Fig. 4(b) line 5's cross-warp Combine).
    fn tree_ops(width: u64) -> u64 {
        if width <= 1 {
            0
        } else {
            (64 - u64::leading_zeros(width) as u64) * width / 8
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::CombineKind;
    use crate::config::{ExecMode, FilterPolicy};
    use crate::fusion::FusionStrategy;
    use crate::session::Runtime;
    use simdx_graph::{EdgeList, Weight};

    /// BFS-like vote program over levels, used to exercise the engine
    /// end to end without depending on `simdx-algos`.
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
            if *m_src == u32::MAX || *m_dst != u32::MAX {
                return None;
            }
            Some(m_src + 1)
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

    fn path_graph(n: u32) -> Graph {
        Graph::undirected_from_edges(EdgeList::from_pairs(
            (0..n - 1).map(|i| (i, i + 1)).collect(),
        ))
    }

    fn run_levels(g: &Graph, config: EngineConfig) -> RunResult<u32> {
        Runtime::new(config)
            .expect("runtime")
            .bind(g)
            .run(Levels { src: 0 })
            .execute()
            .expect("engine run")
    }

    fn run_levels_err(g: &Graph, config: EngineConfig) -> SimdxError {
        Runtime::new(config)
            .expect("runtime")
            .bind(g)
            .run(Levels { src: 0 })
            .execute()
            .expect_err("run should fail")
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path_graph(10);
        let r = run_levels(&g, EngineConfig::unscaled());
        assert_eq!(r.meta, (0..10).collect::<Vec<u32>>());
        // Nine discovery levels plus the final empty-frontier iteration.
        assert_eq!(r.report.iterations, 10);
        assert!(r.report.elapsed_ms > 0.0);
    }

    #[test]
    fn all_filter_policies_agree_on_result() {
        let g = path_graph(64);
        let base = run_levels(&g, EngineConfig::unscaled()).meta;
        for policy in [
            FilterPolicy::Jit,
            FilterPolicy::BallotOnly,
            FilterPolicy::OnlineOnly,
        ] {
            let r = run_levels(&g, EngineConfig::unscaled().with_filter(policy));
            assert_eq!(r.meta, base, "policy {policy:?} diverged");
        }
    }

    #[test]
    fn all_fusion_strategies_agree_on_result() {
        let g = path_graph(64);
        let base = run_levels(&g, EngineConfig::unscaled()).meta;
        for fusion in [
            FusionStrategy::None,
            FusionStrategy::All,
            FusionStrategy::PushPull,
        ] {
            let r = run_levels(&g, EngineConfig::unscaled().with_fusion(fusion));
            assert_eq!(r.meta, base, "fusion {fusion:?} diverged");
        }
    }

    #[test]
    fn fusion_reduces_kernel_launches() {
        let g = path_graph(200);
        let none = run_levels(
            &g,
            EngineConfig::unscaled().with_fusion(FusionStrategy::None),
        );
        let pp = run_levels(
            &g,
            EngineConfig::unscaled().with_fusion(FusionStrategy::PushPull),
        );
        let all = run_levels(
            &g,
            EngineConfig::unscaled().with_fusion(FusionStrategy::All),
        );
        // Unfused: 4 launches per iteration. Fused: a handful total.
        assert!(none.report.kernel_launches() >= 4 * none.report.iterations as u64);
        assert!(pp.report.kernel_launches() <= 6);
        assert_eq!(all.report.kernel_launches(), 1);
        // Fused strategies pay barriers instead.
        assert_eq!(none.report.barrier_passes(), 0);
        assert!(pp.report.barrier_passes() >= 2 * pp.report.iterations as u64);
    }

    #[test]
    fn non_fused_is_slower_on_iteration_heavy_graphs() {
        // A long path = thousands of tiny iterations: launch overhead
        // dominates, fusion wins (the §7.2 BFS-on-ER effect).
        let g = path_graph(400);
        let none = run_levels(
            &g,
            EngineConfig::unscaled().with_fusion(FusionStrategy::None),
        );
        let pp = run_levels(
            &g,
            EngineConfig::unscaled().with_fusion(FusionStrategy::PushPull),
        );
        assert!(
            none.report.elapsed_ms > pp.report.elapsed_ms * 2.0,
            "non-fused {} vs push-pull {}",
            none.report.elapsed_ms,
            pp.report.elapsed_ms
        );
    }

    #[test]
    fn online_only_overflows_on_wide_fanout() {
        // A star graph: one CTA task activates every leaf at once, far
        // over its lanes' bin thresholds (the Twitter hub effect of §4).
        let leaves = 10_000u32;
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            (1..=leaves).map(|i| (0, i)).collect(),
        ));
        let cfg = EngineConfig::unscaled()
            .with_filter(FilterPolicy::OnlineOnly)
            .with_direction(DirectionPolicy::FixedPush);
        let err = run_levels_err(&g, cfg);
        assert!(matches!(err, SimdxError::OnlineOverflow { iteration: 0 }));

        // JIT handles the same graph by switching to ballot.
        let cfg = EngineConfig::unscaled()
            .with_filter(FilterPolicy::Jit)
            .with_direction(DirectionPolicy::FixedPush);
        let r = run_levels(&g, cfg);
        assert_eq!(r.report.log.records[0].filter, FilterKind::Ballot);
        assert!(r.report.log.records[0].overflowed);
        assert_eq!(r.meta[1], 1);
    }

    #[test]
    fn ballot_only_charges_scan_every_iteration() {
        // A long path at the twin device scale: tiny frontiers, many
        // iterations — the V-proportional scan makes ballot-only slower
        // (the Fig. 12 road-graph effect).
        let g = path_graph(2048);
        let cfg = EngineConfig {
            max_iterations: 10_000,
            ..EngineConfig::default()
        };
        let jit = run_levels(&g, cfg.clone());
        let ballot = run_levels(&g, cfg.with_filter(FilterPolicy::BallotOnly));
        assert!(
            ballot.report.elapsed_ms > jit.report.elapsed_ms,
            "ballot {} <= jit {}",
            ballot.report.elapsed_ms,
            jit.report.elapsed_ms
        );
        assert_eq!(ballot.report.ballot_iterations(), ballot.report.iterations);
        assert_eq!(jit.report.ballot_iterations(), 0);
    }

    #[test]
    fn direction_switches_to_pull_mid_bfs() {
        // A dense-ish random graph so the mid frontier carries most of
        // the edge volume.
        let mut edges = Vec::new();
        let n = 256u32;
        for v in 0..n {
            for k in 1..=8 {
                edges.push((v, (v * 7 + k * 13) % n));
            }
        }
        let g = Graph::directed_from_edges(EdgeList::from_pairs(edges));
        let r = run_levels(&g, EngineConfig::unscaled());
        let dirs: Vec<Direction> = r.report.log.records.iter().map(|x| x.direction).collect();
        assert_eq!(dirs.first(), Some(&Direction::Push), "starts pushing");
        assert!(
            dirs.contains(&Direction::Pull),
            "high-volume frontier should trigger pull, got {dirs:?}"
        );
    }

    #[test]
    fn iteration_limit_enforced() {
        let g = path_graph(50);
        let mut cfg = EngineConfig::unscaled();
        cfg.max_iterations = 3;
        let err = run_levels_err(&g, cfg);
        assert_eq!(err, SimdxError::IterationLimit { max_iterations: 3 });
    }

    #[test]
    fn isolated_source_terminates_immediately() {
        let mut el = EdgeList::new(4);
        el.push(1, 2);
        let g = Graph::directed_from_edges(el);
        let r = run_levels(&g, EngineConfig::unscaled());
        // Source 0 has no out-edges: one iteration processes it and
        // activates nothing.
        assert_eq!(r.meta[0], 0);
        assert_eq!(r.meta[2], u32::MAX);
        assert!(r.report.iterations <= 1);
    }

    #[test]
    fn activation_log_is_complete() {
        let g = path_graph(20);
        let r = run_levels(
            &g,
            EngineConfig::unscaled().with_direction(DirectionPolicy::FixedPush),
        );
        assert_eq!(r.report.log.iterations(), r.report.iterations);
        for (i, rec) in r.report.log.records.iter().enumerate() {
            assert_eq!(rec.iteration, i as u32);
            assert!(rec.cycles > 0);
            assert_eq!(rec.frontier_len, 1);
        }
    }

    /// Asserts every Parallel×{2, 3, 5} run is bit-equal to the Serial
    /// reference: same metadata, same log, same simulated cycles.
    fn assert_matrix_matches(g: &Graph, cfg: EngineConfig) {
        let base = run_levels(g, cfg.clone().with_exec(ExecMode::Serial));
        for threads in [2usize, 3, 5] {
            let r = run_levels(g, cfg.clone().parallel(threads));
            assert_eq!(r.meta, base.meta, "{threads} threads: metadata");
            assert_eq!(r.report.log, base.report.log, "{threads} threads: log");
            assert_eq!(
                r.report.stats, base.report.stats,
                "{threads} threads: stats"
            );
        }
    }

    #[test]
    fn matrix_is_bit_equal_on_path() {
        // 300 % 32 != 0: the chunk-shaped sweeps finish a partial tail.
        assert_matrix_matches(&path_graph(300), EngineConfig::unscaled());
    }

    #[test]
    fn matrix_is_bit_equal_with_direction_switches() {
        let mut edges = Vec::new();
        let n = 256u32;
        for v in 0..n {
            for k in 1..=8 {
                edges.push((v, (v * 7 + k * 13) % n));
            }
        }
        let g = Graph::directed_from_edges(EdgeList::from_pairs(edges));
        assert_matrix_matches(&g, EngineConfig::unscaled());
        assert_matrix_matches(&g, EngineConfig::default());
    }

    #[test]
    fn parallel_online_only_overflow_error_matches() {
        let g = Graph::directed_from_edges(EdgeList::from_pairs(
            (1..=10_000u32).map(|i| (0, i)).collect(),
        ));
        let cfg = EngineConfig::unscaled()
            .with_filter(FilterPolicy::OnlineOnly)
            .with_direction(DirectionPolicy::FixedPush);
        let serial = run_levels_err(&g, cfg.clone());
        let par = run_levels_err(&g, cfg.parallel(4));
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_zero_threads_resolves_to_auto() {
        let g = path_graph(64);
        let serial = run_levels(&g, EngineConfig::unscaled());
        let auto = run_levels(&g, EngineConfig::unscaled().parallel(0));
        assert_eq!(serial.meta, auto.meta);
        assert_eq!(serial.report.stats, auto.report.stats);
    }
}
