//! The simulated executor: schedules kernel work over the device and
//! accumulates simulated time.
//!
//! A kernel invocation is a sequence of per-task [`Cost`]s, one per
//! scheduling unit (thread / warp / CTA, per §4's thread-assignment
//! step). The executor:
//!
//! 1. derives the parallel slot count from the kernel's occupancy
//!    (Equation 1) and the scheduling granularity,
//! 2. assigns tasks to slots statically and cyclically — the same
//!    oblivious assignment a grid-stride CUDA loop performs — so skewed
//!    task costs produce exactly the load imbalance the paper's
//!    Thread/Warp/CTA classification exists to fight,
//! 3. takes the kernel's elapsed time as the slowest slot's cycle sum,
//!    floored by the device's aggregate memory bandwidth,
//! 4. adds the launch overhead if this invocation was an actual kernel
//!    launch (fused kernels pay a barrier instead; see §5).
//!
//! Charging is *streamed*: [`GpuExecutor::begin`] opens a
//! [`KernelCharge`] for a kernel of a known task count, the producer of
//! the work feeds it one [`KernelCharge::task`] (or one closed-form
//! [`KernelCharge::uniform`] run) at a time while it computes, and
//! [`GpuExecutor::commit`] folds the result into the statistics. No
//! per-task cost is ever stored, and a reused accumulator allocates
//! nothing. [`GpuExecutor::run_kernel`] is the slice-shaped wrapper
//! for callers that already hold their costs in a vector.

use crate::cost::{Cost, CostModel, CycleCount};
use crate::device::DeviceSpec;
use crate::kernel::{KernelDesc, SchedUnit};
use crate::memory::TrafficCounter;
use crate::occupancy::occupancy;

/// Outcome of one simulated kernel invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelReport {
    /// Scheduling granularity used.
    pub(crate) unit: SchedUnit,
    /// Number of tasks charged.
    pub(crate) tasks: u64,
    /// Parallel slots available at this granularity.
    pub(crate) slots: u64,
    /// Slowest-slot cycles (load imbalance shows up here).
    pub(crate) makespan_cycles: CycleCount,
    /// Bandwidth-floor cycles (total bytes / device bytes-per-cycle).
    pub(crate) bandwidth_floor_cycles: CycleCount,
    /// Final elapsed cycles charged, including launch overhead.
    pub(crate) elapsed_cycles: CycleCount,
    /// Whether a host-side launch overhead was charged.
    pub(crate) launched: bool,
}

/// Cumulative statistics across an executor's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Total simulated cycles.
    pub total_cycles: CycleCount,
    /// Number of kernel launches charged.
    pub kernel_launches: u64,
    /// Number of global-barrier passes charged.
    pub barrier_passes: u64,
    /// Number of kernel invocations (launched or fused-in).
    pub kernel_invocations: u64,
    /// Aggregate memory traffic.
    pub traffic: TrafficCounter,
}

/// The streaming accumulator of one kernel invocation's charge.
///
/// Task `i` of the invocation's logical task sequence runs on slot
/// `i % active_slots` (`active_slots = min(slots, num_tasks)`, at least
/// one). The accumulator keeps one cycle sum per active slot plus the
/// traffic totals, and walks the slots with a wrapping cursor.
/// Charging a task is inlined into the caller's loop: one
/// `CostModel::cycles` (a shift for a power-of-two width, a division
/// otherwise), seven adds and a cursor step. Bytes are linear in the
/// counters, so [`GpuExecutor::commit`] derives the byte total from the
/// summed counters once, not per task. Every quantity is a `u64`
/// sum, hence order-free: a worker that owns tasks `[t0, t1)` of the
/// sequence can charge them into its own accumulator opened with
/// [`Self::begin_part`] at `t0`, and [`Self::absorb`]ing the parts into
/// the whole yields exactly what streaming the whole sequence through
/// one accumulator would.
///
/// An accumulator must be opened ([`GpuExecutor::begin`] or
/// [`Self::begin_part`]) before it is fed — a default one has no slots
/// and feeding it panics (debug builds say "charge not opened"). A
/// reused accumulator keeps its slot vector's allocation. Streaming fewer tasks than `begin` announced is legal
/// (an aborted sweep); the next `begin` starts clean.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelCharge {
    model: CostModel,
    unit: SchedUnit,
    slots: u64,
    /// Fraction of peak bandwidth the kernel's occupancy reaches.
    saturation: f64,
    slot_cycles: Vec<CycleCount>,
    cursor: usize,
    tasks: u64,
    /// Coalesced elements read: `traffic` counts them in 32-element
    /// transactions, and their bytes are per element.
    coalesced_elems: u64,
    traffic: TrafficCounter,
}

impl Default for KernelCharge {
    fn default() -> Self {
        Self {
            model: CostModel::default(),
            unit: SchedUnit::Thread,
            slots: 1,
            saturation: 1.0,
            slot_cycles: Vec::new(),
            cursor: 0,
            tasks: 0,
            coalesced_elems: 0,
            traffic: TrafficCounter::default(),
        }
    }
}

impl KernelCharge {
    /// Zeroes the sums over `active_slots` slots and places the cursor
    /// on the slot of task `first_task`.
    fn open(&mut self, active_slots: usize, first_task: usize) {
        self.slot_cycles.clear();
        self.slot_cycles.resize(active_slots, 0);
        self.cursor = first_task % active_slots;
        self.tasks = 0;
        self.coalesced_elems = 0;
        self.traffic = TrafficCounter::default();
    }

    /// Opens this accumulator as one worker's share of `whole`: same
    /// kernel shape, empty sums, cursor on the slot of task
    /// `first_task` of the whole sequence.
    pub fn begin_part(&mut self, whole: &KernelCharge, first_task: usize) {
        debug_assert!(!whole.slot_cycles.is_empty(), "whole charge not opened");
        self.model = whole.model;
        self.unit = whole.unit;
        self.slots = whole.slots;
        self.saturation = whole.saturation;
        self.open(whole.slot_cycles.len(), first_task);
    }

    /// Adds `cycles` to the cursor's slot and advances it, wrapping.
    #[inline]
    fn bump(&mut self, cycles: CycleCount) {
        debug_assert!(!self.slot_cycles.is_empty(), "charge not opened");
        self.slot_cycles[self.cursor] += cycles;
        self.cursor += 1;
        if self.cursor == self.slot_cycles.len() {
            self.cursor = 0;
        }
    }

    /// Charges the next task of the sequence.
    #[inline]
    pub fn task(&mut self, cost: &Cost) {
        self.bump(self.model.cycles(cost));
        self.tasks += 1;
        self.coalesced_elems += cost.coalesced_reads;
        self.traffic.coalesced_reads += cost.coalesced_reads.div_ceil(32);
        self.traffic.random_reads += cost.random_reads;
        self.traffic.writes += cost.writes;
        self.traffic.atomics += cost.atomics;
    }

    /// Charges the next `count` tasks, all costing `cost`, in closed
    /// form — identical to `count` calls of [`Self::task`] at
    /// O(`active_slots`) instead of O(`count`): every slot takes the
    /// full rounds, the remainder lands on the slots from the cursor
    /// on.
    pub fn uniform(&mut self, cost: &Cost, count: u64) {
        debug_assert!(!self.slot_cycles.is_empty(), "charge not opened");
        let active = self.slot_cycles.len() as u64;
        let cycles = self.model.cycles(cost);
        let rounds = count / active;
        if rounds > 0 {
            for slot in &mut self.slot_cycles {
                *slot += rounds * cycles;
            }
        }
        for _ in 0..count % active {
            self.bump(cycles);
        }
        self.tasks += count;
        self.coalesced_elems += cost.coalesced_reads * count;
        self.traffic.coalesced_reads += cost.coalesced_reads.div_ceil(32) * count;
        self.traffic.random_reads += cost.random_reads * count;
        self.traffic.writes += cost.writes * count;
        self.traffic.atomics += cost.atomics * count;
    }

    /// Adds a worker's part (opened with [`Self::begin_part`] on this
    /// accumulator) into the whole, slot by slot.
    pub fn absorb(&mut self, part: &KernelCharge) {
        debug_assert_eq!(
            part.slot_cycles.len(),
            self.slot_cycles.len(),
            "part opened against a different kernel shape"
        );
        for (slot, p) in self.slot_cycles.iter_mut().zip(&part.slot_cycles) {
            *slot += p;
        }
        self.tasks += part.tasks;
        self.coalesced_elems += part.coalesced_elems;
        self.traffic.add(&part.traffic);
    }

    /// Bytes the charged tasks move: [`Cost::bytes`] of the summed
    /// counters, which is the sum of the tasks' bytes.
    fn bytes(&self) -> u64 {
        Cost {
            coalesced_reads: self.coalesced_elems,
            random_reads: self.traffic.random_reads,
            writes: self.traffic.writes,
            atomics: self.traffic.atomics,
            ..Cost::default()
        }
        .bytes()
    }
}

/// The simulated GPU executor.
#[derive(Clone, Debug)]
pub struct GpuExecutor {
    device: DeviceSpec,
    model: CostModel,
    stats: ExecutorStats,
    scale: u32,
    /// [`Self::run_kernel`]'s reused accumulator.
    charge: KernelCharge,
}

impl GpuExecutor {
    /// Creates an executor with the default cost model.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_model(device, CostModel::default())
    }

    /// Creates an executor with a custom cost model.
    pub fn with_model(device: DeviceSpec, model: CostModel) -> Self {
        Self {
            device,
            model,
            stats: ExecutorStats::default(),
            scale: 1,
            charge: KernelCharge::default(),
        }
    }

    /// Sets the *device scale divisor* for scaled-down dataset twins.
    ///
    /// Running a 1/64-scale graph against a full-size device would
    /// distort every ratio the evaluation depends on (fixed launch and
    /// barrier costs vs per-iteration work, bin capacity vs frontier
    /// volume, scan cost vs compute). Dividing the device's parallel
    /// slot count and aggregate bandwidth by the dataset scale factor
    /// restores the paper-scale ratios while preserving all *relative*
    /// occupancy effects between kernels (register pressure, fusion).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn set_scale(&mut self, scale: u32) {
        assert!(scale > 0, "scale divisor must be positive");
        self.scale = scale;
    }

    /// Parallel slots available to `kernel` at granularity `unit`,
    /// after occupancy and device scaling.
    pub fn slots_for(&self, kernel: &KernelDesc, unit: SchedUnit) -> u64 {
        self.slots_of(
            occupancy(&self.device, kernel).resident_threads,
            kernel,
            unit,
        )
    }

    fn slots_of(&self, resident_threads: u64, kernel: &KernelDesc, unit: SchedUnit) -> u64 {
        let unit_threads = unit.threads(kernel.threads_per_cta) as u64;
        (resident_threads / unit_threads / self.scale as u64).max(1)
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> &ExecutorStats {
        &self.stats
    }

    /// Resets the statistics, keeping device and model.
    pub fn reset(&mut self) {
        self.stats = ExecutorStats::default();
    }

    /// Restores a previously captured statistics snapshot, as if every
    /// recorded charge had been made on this executor. The engine's
    /// checkpoint/resume path uses this to keep simulated-cycle
    /// accounting continuous across an abort: a resumed run charges on
    /// top of the restored counters and stays bit-equal to the
    /// uninterrupted run.
    pub fn restore_stats(&mut self, stats: ExecutorStats) {
        self.stats = stats;
    }

    /// Total simulated milliseconds so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.device.cycles_to_ms(self.stats.total_cycles)
    }

    /// Charges one software-global-barrier pass.
    pub fn charge_barrier(&mut self) {
        self.stats.barrier_passes += 1;
        self.stats.total_cycles += self.device.barrier_cycles;
    }

    /// Opens `charge` for one invocation of `kernel` at granularity
    /// `unit` over `num_tasks` tasks: sizes the slot vector to
    /// `min(slots, num_tasks)` (at least one) and zeroes every sum.
    /// Feed it [`KernelCharge::task`] / [`KernelCharge::uniform`] in
    /// task order, then [`Self::commit`] it.
    pub fn begin(
        &self,
        charge: &mut KernelCharge,
        kernel: &KernelDesc,
        unit: SchedUnit,
        num_tasks: usize,
    ) {
        let resident_threads = occupancy(&self.device, kernel).resident_threads;
        charge.model = self.model;
        charge.unit = unit;
        charge.slots = self.slots_of(resident_threads, kernel, unit);
        // Bandwidth saturation: a kernel resident below the device's
        // latency-hiding threshold reaches only a fraction of peak.
        charge.saturation =
            (resident_threads as f64 / self.device.saturation_threads.max(1) as f64).min(1.0);
        // Static cyclic assignment: task i runs on slot i % active.
        let active_slots = charge.slots.min(num_tasks as u64).max(1) as usize;
        charge.open(active_slots, 0);
    }

    /// Folds a streamed charge into the statistics. `launch` selects
    /// whether a host launch overhead is paid (true for unfused
    /// kernels; false for work executed inside an already-running
    /// fused kernel).
    pub fn commit(&mut self, charge: &KernelCharge, launch: bool) -> KernelReport {
        let makespan = charge.slot_cycles.iter().copied().max().unwrap_or(0);
        let bandwidth_floor = (charge.bytes() as f64 * self.scale as f64
            / (self.device.bytes_per_cycle as f64 * charge.saturation))
            as u64;
        let mut elapsed = makespan.max(bandwidth_floor);
        if launch {
            elapsed += self.device.kernel_launch_cycles;
            self.stats.kernel_launches += 1;
        }

        self.stats.kernel_invocations += 1;
        self.stats.total_cycles += elapsed;
        self.stats.traffic.add(&charge.traffic);

        KernelReport {
            unit: charge.unit,
            tasks: charge.tasks,
            slots: charge.slots,
            makespan_cycles: makespan,
            bandwidth_floor_cycles: bandwidth_floor,
            elapsed_cycles: elapsed,
            launched: launch,
        }
    }

    /// Runs one kernel invocation over `tasks`, one cost per scheduling
    /// unit: [`Self::begin`], one [`KernelCharge::task`] per entry,
    /// [`Self::commit`] — through the executor's own reused
    /// accumulator.
    pub fn run_kernel(
        &mut self,
        kernel: &KernelDesc,
        unit: SchedUnit,
        tasks: &[Cost],
        launch: bool,
    ) -> KernelReport {
        let mut charge = std::mem::take(&mut self.charge);
        self.begin(&mut charge, kernel, unit, tasks.len());
        for cost in tasks {
            charge.task(cost);
        }
        let report = self.commit(&charge, launch);
        self.charge = charge;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn executor() -> GpuExecutor {
        GpuExecutor::new(DeviceSpec::k40())
    }

    fn kernel() -> KernelDesc {
        KernelDesc::new("test", 32)
    }

    #[test]
    fn empty_kernel_costs_only_launch() {
        let mut ex = executor();
        let r = ex.run_kernel(&kernel(), SchedUnit::Thread, &[], true);
        assert_eq!(r.elapsed_cycles, ex.device().kernel_launch_cycles);
        assert_eq!(ex.stats().kernel_launches, 1);
    }

    #[test]
    fn fused_invocation_skips_launch_overhead() {
        let mut ex = executor();
        let tasks = vec![Cost::compute(100); 10];
        let launched = ex.run_kernel(&kernel(), SchedUnit::Thread, &tasks, true);
        ex.reset();
        let fused = ex.run_kernel(&kernel(), SchedUnit::Thread, &tasks, false);
        assert_eq!(
            launched.elapsed_cycles,
            fused.elapsed_cycles + ex.device().kernel_launch_cycles
        );
        assert_eq!(ex.stats().kernel_launches, 0);
    }

    #[test]
    fn skewed_tasks_dominate_makespan() {
        let mut ex = executor();
        let mut tasks = vec![Cost::compute(1); 1000];
        tasks[0] = Cost::compute(1_000_000);
        let r = ex.run_kernel(&kernel(), SchedUnit::Thread, &tasks, false);
        assert!(r.makespan_cycles >= 1_000_000);

        // The same aggregate work spread evenly is far faster.
        ex.reset();
        let even = vec![Cost::compute(1_001); 1000];
        let r2 = ex.run_kernel(&kernel(), SchedUnit::Thread, &even, false);
        assert!(r2.makespan_cycles * 100 < r.makespan_cycles);
    }

    #[test]
    fn more_tasks_than_slots_serialize() {
        let mut ex = executor();
        let occ = occupancy(ex.device(), &kernel());
        let slots = occ.resident_threads;
        let tasks = vec![Cost::compute(10); (slots * 4) as usize];
        let r = ex.run_kernel(&kernel(), SchedUnit::Thread, &tasks, false);
        assert_eq!(r.makespan_cycles, 40);
    }

    #[test]
    fn warp_unit_has_fewer_slots_than_thread_unit() {
        let mut ex = executor();
        let tasks = vec![Cost::compute(1); 10];
        let t = ex.run_kernel(&kernel(), SchedUnit::Thread, &tasks, false);
        let w = ex.run_kernel(&kernel(), SchedUnit::Warp, &tasks, false);
        assert_eq!(t.slots, w.slots * 32);
    }

    #[test]
    fn bandwidth_floor_applies_to_streaming_kernels() {
        let mut ex = executor();
        // One slot-task per resident thread, each streaming lots of data
        // with almost no compute: the floor should dominate.
        let tasks = vec![
            Cost {
                coalesced_reads: 100_000,
                ..Default::default()
            };
            64
        ];
        let r = ex.run_kernel(&kernel(), SchedUnit::Thread, &tasks, false);
        assert!(r.bandwidth_floor_cycles > 0);
        assert!(r.elapsed_cycles >= r.bandwidth_floor_cycles);
    }

    /// The charging loop as it stood before charging was streamed (the
    /// engine's old `run_kernel_parts`): materialised cost slices, a
    /// fresh slot vector, `i % active_slots`. Kept as the oracle the
    /// streamed accumulator must reproduce bit for bit.
    fn run_kernel_parts_oracle(
        ex: &mut GpuExecutor,
        kernel: &KernelDesc,
        unit: SchedUnit,
        parts: &[&[Cost]],
        launch: bool,
    ) -> KernelReport {
        let num_tasks: usize = parts.iter().map(|p| p.len()).sum();
        let slots = ex.slots_for(kernel, unit);
        let occ = occupancy(&ex.device, kernel);
        let saturation =
            (occ.resident_threads as f64 / ex.device.saturation_threads.max(1) as f64).min(1.0);
        let active_slots = slots.min(num_tasks as u64).max(1) as usize;
        let mut slot_cycles = vec![0u64; active_slots];
        let mut traffic = TrafficCounter::default();
        let mut total_bytes = 0u64;
        for (i, cost) in parts.iter().flat_map(|p| p.iter()).enumerate() {
            slot_cycles[i % active_slots] += ex.model.cycles(cost);
            total_bytes += cost.bytes();
            traffic.coalesced_reads += cost.coalesced_reads.div_ceil(32);
            traffic.random_reads += cost.random_reads;
            traffic.writes += cost.writes;
            traffic.atomics += cost.atomics;
        }
        let makespan = slot_cycles.iter().copied().max().unwrap_or(0);
        let bandwidth_floor = (total_bytes as f64 * ex.scale as f64
            / (ex.device.bytes_per_cycle as f64 * saturation)) as u64;
        let mut elapsed = makespan.max(bandwidth_floor);
        if launch {
            elapsed += ex.device.kernel_launch_cycles;
            ex.stats.kernel_launches += 1;
        }
        ex.stats.kernel_invocations += 1;
        ex.stats.total_cycles += elapsed;
        ex.stats.traffic.add(&traffic);
        KernelReport {
            unit,
            tasks: num_tasks as u64,
            slots,
            makespan_cycles: makespan,
            bandwidth_floor_cycles: bandwidth_floor,
            elapsed_cycles: elapsed,
            launched: launch,
        }
    }

    /// A random cost of any width the engine uses (thread, warp, CTA).
    fn arb_cost(rng: &mut SampleRng) -> Cost {
        Cost {
            compute_ops: rng.next_u64() % 500,
            coalesced_reads: rng.next_u64() % 200,
            random_reads: rng.next_u64() % 100,
            writes: rng.next_u64() % 40,
            atomics: rng.next_u64() % 4,
            atomic_conflicts: rng.next_u64() % 3,
            width: [1, 32, 128, 96][(rng.next_u64() % 4) as usize],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Streaming a task sequence — whole, or as per-worker parts
        /// opened at `t0 % active_slots` and absorbed in any order —
        /// leaves the statistics and the report exactly where the old
        /// materialise-then-walk loop left them. Slot counts range
        /// from 3 (CTA unit, scale 512) to 30 720 (thread unit,
        /// unscaled), so `num_tasks < slots`, `== slots` and `> slots`
        /// all occur; cut points repeat, so empty parts do too.
        #[test]
        fn streamed_charge_matches_the_materialised_loop(
            n in 0usize..700,
            scale in prop::sample::select(vec![1u32, 64, 512]),
            unit in prop::sample::select(vec![SchedUnit::Thread, SchedUnit::Warp, SchedUnit::Cta]),
            cuts in proptest::collection::vec(0u64..1 << 32, 0..6),
            seed in 0u64..u64::MAX,
            launch in prop::sample::select(vec![false, true]),
        ) {
            let mut rng = SampleRng::new(seed);
            let tasks: Vec<Cost> = (0..n).map(|_| arb_cost(&mut rng)).collect();
            let mut fences: Vec<usize> = cuts.iter().map(|c| *c as usize % (n + 1)).collect();
            fences.extend([0, n]);
            fences.sort_unstable();
            let parts: Vec<&[Cost]> = fences.windows(2).map(|w| &tasks[w[0]..w[1]]).collect();

            let mut want = executor();
            want.set_scale(scale);
            let want_report = run_kernel_parts_oracle(&mut want, &kernel(), unit, &parts, launch);

            // One stream.
            let mut whole = executor();
            whole.set_scale(scale);
            prop_assert_eq!(whole.run_kernel(&kernel(), unit, &tasks, launch), want_report);
            prop_assert_eq!(whole.stats(), want.stats());

            // Per-worker parts, absorbed last worker first.
            let mut split = executor();
            split.set_scale(scale);
            let mut charge = KernelCharge::default();
            split.begin(&mut charge, &kernel(), unit, n);
            let workers: Vec<KernelCharge> = fences
                .windows(2)
                .map(|w| {
                    let mut part = KernelCharge::default();
                    part.begin_part(&charge, w[0]);
                    for cost in &tasks[w[0]..w[1]] {
                        part.task(cost);
                    }
                    part
                })
                .collect();
            for part in workers.iter().rev() {
                charge.absorb(part);
            }
            prop_assert_eq!(split.commit(&charge, launch), want_report);
            prop_assert_eq!(split.stats(), want.stats());
        }

        /// `uniform(cost, m)` is `m` calls of `task(cost)`, from any
        /// cursor position, leaving the cursor where they would.
        #[test]
        fn uniform_run_equals_repeated_tasks(
            n in 1usize..2000,
            lead in 0usize..50,
            m in 0u64..1500,
            scale in prop::sample::select(vec![64u32, 512]),
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SampleRng::new(seed);
            let mut ex = executor();
            ex.set_scale(scale);
            let mut looped = KernelCharge::default();
            ex.begin(&mut looped, &kernel(), SchedUnit::Warp, n);
            for _ in 0..lead {
                looped.task(&arb_cost(&mut rng));
            }
            let mut closed = looped.clone();
            let cost = arb_cost(&mut rng);
            for _ in 0..m {
                looped.task(&cost);
            }
            closed.uniform(&cost, m);
            prop_assert_eq!(&closed, &looped);
            // The cursor agrees too: the next task lands on the same slot.
            let next = arb_cost(&mut rng);
            looped.task(&next);
            closed.task(&next);
            prop_assert_eq!(closed, looped);
        }
    }

    #[test]
    fn an_abandoned_stream_leaves_nothing_behind() {
        // An aborted sweep charges fewer tasks than it announced and is
        // never committed; the next begin starts from zero.
        let ex = executor();
        let mut charge = KernelCharge::default();
        ex.begin(&mut charge, &kernel(), SchedUnit::Thread, 1000);
        for _ in 0..10 {
            charge.task(&Cost::compute(77));
        }
        ex.begin(&mut charge, &kernel(), SchedUnit::Thread, 5);
        let mut fresh = KernelCharge::default();
        ex.begin(&mut fresh, &kernel(), SchedUnit::Thread, 5);
        assert_eq!(charge, fresh);
        assert_eq!(ex.stats(), &ExecutorStats::default());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut ex = executor();
        ex.run_kernel(&kernel(), SchedUnit::Thread, &[Cost::compute(5)], true);
        ex.charge_barrier();
        assert_eq!(ex.stats().kernel_invocations, 1);
        assert_eq!(ex.stats().barrier_passes, 1);
        assert!(ex.stats().total_cycles > 0);
        assert!(ex.elapsed_ms() > 0.0);
        ex.reset();
        assert_eq!(ex.stats(), &ExecutorStats::default());
    }

    #[test]
    fn p100_is_faster_than_k20_on_same_work() {
        let tasks = vec![Cost::compute(1_000); 100_000];
        let mut k20 = GpuExecutor::new(DeviceSpec::k20());
        let mut p100 = GpuExecutor::new(DeviceSpec::p100());
        k20.run_kernel(&kernel(), SchedUnit::Thread, &tasks, true);
        p100.run_kernel(&kernel(), SchedUnit::Thread, &tasks, true);
        // P100 has more resident threads -> smaller makespan, and a
        // higher clock -> less wall time per cycle.
        assert!(p100.elapsed_ms() < k20.elapsed_ms());
    }
}

#[cfg(test)]
mod scale_tests {
    use super::*;

    #[test]
    fn scale_divides_slots_and_keeps_ratios() {
        let mut ex = GpuExecutor::new(DeviceSpec::k40());
        let light = KernelDesc::new("light", 48);
        let heavy = KernelDesc::new("heavy", 110);
        let l1 = ex.slots_for(&light, SchedUnit::Thread);
        let h1 = ex.slots_for(&heavy, SchedUnit::Thread);
        ex.set_scale(64);
        let l64 = ex.slots_for(&light, SchedUnit::Thread);
        let h64 = ex.slots_for(&heavy, SchedUnit::Thread);
        assert_eq!(l64, l1 / 64);
        assert_eq!(h64, h1 / 64);
        // Relative occupancy advantage of the lighter kernel survives.
        assert!(l64 > h64 * 2);
    }

    #[test]
    fn scaled_makespan_grows_proportionally() {
        let kernel = KernelDesc::new("k", 32);
        let tasks = vec![Cost::compute(8); 100_000];
        let mut full = GpuExecutor::new(DeviceSpec::k40());
        let mut scaled = GpuExecutor::new(DeviceSpec::k40());
        scaled.set_scale(64);
        let rf = full.run_kernel(&kernel, SchedUnit::Thread, &tasks, false);
        let rs = scaled.run_kernel(&kernel, SchedUnit::Thread, &tasks, false);
        assert!(rs.makespan_cycles > rf.makespan_cycles * 32);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        GpuExecutor::new(DeviceSpec::k40()).set_scale(0);
    }
}
