//! The online filter's task-management step (§4).
//!
//! Recording happens *during* computation (the engine pushes updated
//! vertices into [`ThreadBins`]); what remains for task management is
//! the "simple prefix-scan based concatenation of all thread bins"
//! (Fig. 4(b) line 20). The resulting list may be unsorted and contain
//! duplicates — both documented properties the evaluation measures.

use crate::frontier::ThreadBins;
use simdx_gpu::{Cost, GpuExecutor, KernelCharge, KernelDesc, SchedUnit};
use simdx_graph::VertexId;

/// One warp's share of the exclusive scan over the bin sizes.
fn scan_warp_cost() -> Cost {
    Cost {
        compute_ops: 96,
        coalesced_reads: 32,
        width: 32,
        ..Cost::default()
    }
}

/// One warp's coalesced copy of 32 recorded vertices to their offsets.
fn copy_warp_cost() -> Cost {
    Cost {
        compute_ops: 32,
        coalesced_reads: 32,
        writes: 32,
        width: 32,
        ..Cost::default()
    }
}

/// Concatenates all thread bins into the next active list, charging the
/// prefix-scan + copy kernel to `executor`.
pub fn concatenate(
    bins: &ThreadBins,
    executor: &mut GpuExecutor,
    kernel: &KernelDesc,
    launch: bool,
) -> Vec<VertexId> {
    charge_concatenation(bins, executor, kernel, launch, &mut KernelCharge::default());
    bins.concatenate()
}

/// Charges the concatenation kernel: the cost depends only on the bin
/// count and the recorded total, so the engine — which concatenates
/// into a reused buffer ([`ThreadBins::concatenate_into`]) — pays for
/// task management here. [`concatenate`] charges through this function,
/// so the two cannot drift apart.
///
/// The kernel is a warp-cooperative exclusive scan over the bin sizes
/// followed by a coalesced copy of every recorded vertex to its offset:
/// two runs of identical warp tasks, charged in closed form
/// ([`KernelCharge::uniform`]) — no per-warp loop, no cost vector.
pub fn charge_concatenation(
    bins: &ThreadBins,
    executor: &mut GpuExecutor,
    kernel: &KernelDesc,
    launch: bool,
    charge: &mut KernelCharge,
) {
    let scan_warps = (bins.num_threads() as u64).div_ceil(32);
    let copy_warps = bins.total_recorded().div_ceil(32);
    executor.begin(
        charge,
        kernel,
        SchedUnit::Warp,
        (scan_warps + copy_warps) as usize,
    );
    charge.uniform(&scan_warp_cost(), scan_warps);
    charge.uniform(&copy_warp_cost(), copy_warps);
    executor.commit(charge, launch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_gpu::DeviceSpec;

    fn setup() -> (GpuExecutor, KernelDesc) {
        (
            GpuExecutor::new(DeviceSpec::k40()),
            KernelDesc::new("taskmgmt", 24),
        )
    }

    #[test]
    fn concatenation_matches_bins() {
        let (mut ex, k) = setup();
        let mut bins = ThreadBins::new(3, 8);
        bins.record(0, 5);
        bins.record(2, 9);
        bins.record(0, 5); // duplicate kept
        let list = concatenate(&bins, &mut ex, &k, true);
        assert_eq!(list, vec![5, 5, 9]);
        assert_eq!(ex.stats().kernel_launches, 1);
    }

    #[test]
    fn cost_scales_with_recorded_count() {
        let (mut ex, k) = setup();
        let mut small = ThreadBins::new(64, 1024);
        let mut large = ThreadBins::new(64, 1024);
        for i in 0..10u32 {
            small.record(i as usize, i);
        }
        for i in 0..10_000u32 {
            large.record(i as usize % 64, i % 999);
        }
        concatenate(&small, &mut ex, &k, false);
        let small_cycles = ex.stats().total_cycles;
        ex.reset();
        concatenate(&large, &mut ex, &k, false);
        assert!(ex.stats().total_cycles > small_cycles);
    }

    #[test]
    fn empty_bins_produce_empty_list() {
        let (mut ex, k) = setup();
        let bins = ThreadBins::new(4, 8);
        assert!(concatenate(&bins, &mut ex, &k, false).is_empty());
    }

    #[test]
    fn charge_without_materializing_costs_the_same() {
        let mut bins = ThreadBins::new(16, 64);
        for i in 0..500u32 {
            bins.record(i as usize % 16, i % 97);
        }
        let (mut ex_full, k) = setup();
        concatenate(&bins, &mut ex_full, &k, true);
        let (mut ex_charge, _) = setup();
        charge_concatenation(
            &bins,
            &mut ex_charge,
            &k,
            true,
            &mut KernelCharge::default(),
        );
        assert_eq!(ex_charge.stats(), ex_full.stats());
    }

    #[test]
    fn closed_form_charge_equals_the_per_warp_cost_list() {
        // The kernel's logical task sequence, spelled out: one scan
        // task per 32 bins, then one copy task per 32 recorded
        // vertices. Bin counts above and below the slot count, totals
        // that do and do not fill their last warp.
        for (num_bins, recorded, scale) in [
            (300usize, 7usize, 64),
            (300, 4_000, 64),
            (19_200, 100_000, 1),
        ] {
            let mut bins = ThreadBins::new(num_bins, 1 << 20);
            for i in 0..recorded {
                bins.record(i, i as u32);
            }
            let mut tasks = vec![scan_warp_cost(); num_bins.div_ceil(32)];
            tasks.resize(tasks.len() + recorded.div_ceil(32), copy_warp_cost());
            let (mut listed, k) = setup();
            listed.set_scale(scale);
            listed.run_kernel(&k, SchedUnit::Warp, &tasks, false);
            let (mut streamed, _) = setup();
            streamed.set_scale(scale);
            charge_concatenation(
                &bins,
                &mut streamed,
                &k,
                false,
                &mut KernelCharge::default(),
            );
            assert_eq!(
                streamed.stats(),
                listed.stats(),
                "{num_bins} bins, {recorded} records"
            );
        }
    }
}
