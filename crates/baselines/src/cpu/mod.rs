//! CPU baselines on a simulated dual-socket Xeon host.
//!
//! The paper's evaluation machine is "two Intel Xeon E5-2683 CPUs (14
//! physical cores with 28 hyperthreads) and 512 GB main memory" (§7).
//! `host_device` models it with the same [`DeviceSpec`] machinery the
//! GPU uses: 28 cores × 2 hyperthreads = 56 scheduling slots, ~120 GB/s
//! of aggregate memory bandwidth, microsecond-class parallel-for spawn
//! and barrier costs. `host_cost_model` reprices the cost units for a
//! cache-hierarchy machine (cheap sequential access, DRAM-latency
//! random access, moderately cheap atomics).
//!
//! The functional work in [`ligra`] runs with *real* `std::thread::scope`
//! threads and atomic metadata — results are deterministic because
//! every parallel update is a monotonic min/sub on an atomic integer
//! (confluent operations), while simulated time comes from the cost
//! model, not the wall clock.

pub mod galois;
pub mod ligra;

use simdx_gpu::cost::CostModel;
use simdx_gpu::{DeviceSpec, GpuExecutor, KernelDesc};

/// The simulated evaluation host: 2× Intel Xeon E5-2683 v3.
pub(crate) fn host_device() -> DeviceSpec {
    DeviceSpec {
        name: "2x Xeon E5-2683",
        // One "SM" per physical core.
        sm_count: 28,
        // Register files are not a residency constraint on CPUs.
        registers_per_sm: 1 << 20,
        // Two hyperthreads per core.
        max_threads_per_sm: 2,
        max_ctas_per_sm: 2,
        shared_mem_per_sm: 35 * 1024 * 1024, // L3 slice, unused
        clock_mhz: 2_000,
        // ~60 GB/s effective over two sockets at 2 GHz (NUMA-discounted
        // STREAM-class bandwidth of the Haswell-EP era).
        bytes_per_cycle: 30,
        // parallel_for spawn ≈ 2 µs.
        kernel_launch_cycles: 4_000,
        // Centralized barrier ≈ 1 µs.
        barrier_cycles: 2_000,
        global_mem_bytes: 512 * 1024 * 1024 * 1024,
        // A couple of cores' worth of outstanding misses saturates DRAM.
        saturation_threads: 1,
    }
}

/// Cost model for the host: sequential traffic rides the prefetcher,
/// random traffic pays DRAM latency (partially hidden by out-of-order
/// execution), atomics are cheaper than on the GPU but contended ones
/// still serialize.
pub(crate) fn host_cost_model() -> CostModel {
    CostModel {
        cycles_per_op: 1,
        cycles_per_coalesced_elem: 1,
        cycles_per_random_elem: 40,
        cycles_per_write: 4,
        cycles_per_atomic: 30,
        cycles_per_atomic_conflict: 30,
    }
}

/// An executor for the host device at the given twin scale.
pub(crate) fn host_executor(parallelism_scale: u32) -> GpuExecutor {
    let mut ex = GpuExecutor::with_model(host_device(), host_cost_model());
    ex.set_scale(parallelism_scale);
    ex
}

/// The kernel descriptor standing in for a host parallel-for region
/// (one thread per slot; registers are not a constraint).
pub(crate) fn host_kernel(name: &str) -> KernelDesc {
    KernelDesc::new(name, 0).with_threads_per_cta(1)
}

/// Number of real worker threads for the functional computation.
pub(crate) fn real_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(28)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_gpu::SchedUnit;

    #[test]
    fn host_has_56_slots() {
        let ex = host_executor(1);
        assert_eq!(ex.slots_for(&host_kernel("t"), SchedUnit::Thread), 56);
    }

    #[test]
    fn host_is_weaker_in_parallelism_than_k40() {
        let gpu = GpuExecutor::new(DeviceSpec::k40());
        let k = KernelDesc::new("k", 32);
        let host = host_executor(1);
        assert!(
            gpu.slots_for(&k, SchedUnit::Thread)
                > 100 * host.slots_for(&host_kernel("t"), SchedUnit::Thread)
        );
    }

    #[test]
    fn host_bandwidth_below_gpu() {
        assert!(host_device().bytes_per_cycle < DeviceSpec::k40().bytes_per_cycle);
    }
}
