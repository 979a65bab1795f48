//! Occupancy: how many CTAs can be simultaneously resident.
//!
//! This is the paper's Equation 1 (§5):
//!
//! ```text
//! #CTA = floor(#registersPerSMX / (#registersPerThread · #threadsPerCTA)) · #SMX
//! ```
//!
//! plus the hardware's independent per-SM limits on threads, CTA slots
//! and shared memory. The result feeds two consumers: the executor's
//! parallelism bound, and the deadlock-free software barrier, which must
//! never launch more CTAs than can be resident at once.

use crate::device::DeviceSpec;
use crate::kernel::{KernelDesc, LaunchConfig};

/// Residency analysis of a kernel on a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occupancy {
    /// Resident CTAs per SM.
    pub(crate) ctas_per_sm: u32,
    /// Resident CTAs across the device (`ctas_per_sm * sm_count`).
    pub resident_ctas: u32,
    /// Resident threads across the device.
    pub resident_threads: u64,
    /// Which resource limits residency.
    pub(crate) limiter: Limiter,
}

/// The resource that bounds occupancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Limiter {
    /// Register file (the paper's Eq. 1 term).
    Registers,
    /// Per-SM thread ceiling.
    Threads,
    /// Per-SM CTA-slot ceiling.
    CtaSlots,
    /// Per-SM shared memory.
    SharedMem,
}

/// Computes the occupancy of `kernel` on `device`, or `None` if the
/// kernel cannot be resident at all: a single CTA exceeds the register
/// file, the thread ceiling or shared memory (or has no threads) — such
/// a kernel fails to launch on real hardware too.
pub fn try_occupancy(device: &DeviceSpec, kernel: &KernelDesc) -> Option<Occupancy> {
    let by_regs = (device.registers_per_sm as u64)
        .checked_div(kernel.registers_per_cta())
        .map_or(device.max_ctas_per_sm, |ctas| ctas as u32);
    let by_threads = device
        .max_threads_per_sm
        .checked_div(kernel.threads_per_cta)
        .unwrap_or(0);
    let by_slots = device.max_ctas_per_sm;
    let by_shmem = device
        .shared_mem_per_sm
        .checked_div(kernel.shared_mem_per_cta)
        .unwrap_or(device.max_ctas_per_sm);

    let ctas_per_sm = by_regs.min(by_threads).min(by_slots).min(by_shmem);
    if ctas_per_sm == 0 {
        return None;
    }

    let limiter = if ctas_per_sm == by_regs {
        Limiter::Registers
    } else if ctas_per_sm == by_threads {
        Limiter::Threads
    } else if ctas_per_sm == by_slots {
        Limiter::CtaSlots
    } else {
        Limiter::SharedMem
    };

    let resident_ctas = ctas_per_sm * device.sm_count;
    Some(Occupancy {
        ctas_per_sm,
        resident_ctas,
        resident_threads: resident_ctas as u64 * kernel.threads_per_cta as u64,
        limiter,
    })
}

/// [`try_occupancy`] for a kernel known to fit.
///
/// # Panics
///
/// Panics if the kernel cannot be resident at all. `EngineConfig`
/// validation rejects a configuration with such a kernel up front.
pub fn occupancy(device: &DeviceSpec, kernel: &KernelDesc) -> Occupancy {
    try_occupancy(device, kernel).unwrap_or_else(|| {
        panic!(
            "kernel `{}` cannot be resident: {} regs/CTA, {} B shmem/CTA",
            kernel.name,
            kernel.registers_per_cta(),
            kernel.shared_mem_per_cta
        )
    })
}

/// The deadlock-free launch configuration for a *fused, persistent*
/// kernel that synchronizes through the software global barrier: exactly
/// the resident-CTA bound, so every CTA is guaranteed hardware resources
/// (§5, "Compiler-based deadlock free barrier").
pub fn deadlock_free_launch(device: &DeviceSpec, kernel: &KernelDesc) -> LaunchConfig {
    let occ = occupancy(device, kernel);
    LaunchConfig {
        ctas: occ.resident_ctas,
        threads_per_cta: kernel.threads_per_cta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from §5: 110 regs/thread, 128 threads/CTA on a
    /// K40 (15 SMX, 65,536 regs) → floor(65536 / (110·128)) · 15 = 60.
    #[test]
    fn paper_equation_one_example() {
        let k40 = DeviceSpec::k40();
        let kernel = KernelDesc::new("all-fusion", 110);
        let lc = deadlock_free_launch(&k40, &kernel);
        assert_eq!(lc.ctas, 60);
        assert_eq!(lc.threads_per_cta, 128);
    }

    #[test]
    fn fewer_registers_mean_more_ctas() {
        let k40 = DeviceSpec::k40();
        let heavy = occupancy(&k40, &KernelDesc::new("heavy", 110));
        let light = occupancy(&k40, &KernelDesc::new("light", 48));
        assert!(light.resident_ctas > heavy.resident_ctas);
        // §5: halving registers roughly doubles configurable threads.
        assert!(light.resident_threads >= heavy.resident_threads * 2);
    }

    #[test]
    fn thread_ceiling_limits_tiny_kernels() {
        let k40 = DeviceSpec::k40();
        let tiny = KernelDesc::new("tiny", 8); // regs would allow 64 CTAs
        let occ = occupancy(&k40, &tiny);
        // 2048 threads / 128 per CTA = 16 CTAs; also the CTA-slot limit.
        assert_eq!(occ.ctas_per_sm, 16);
        assert_ne!(occ.limiter, Limiter::Registers);
    }

    #[test]
    fn shared_memory_can_be_the_limiter() {
        let k40 = DeviceSpec::k40();
        let k = KernelDesc::new("shmem-hungry", 32).with_shared_mem(24 * 1024);
        let occ = occupancy(&k40, &k);
        assert_eq!(occ.ctas_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::SharedMem);
    }

    #[test]
    fn impossible_kernels_are_none() {
        let k40 = DeviceSpec::k40();
        // 48 regs * 4096 threads: over the register file and the
        // 2048-thread ceiling alike.
        let wide = KernelDesc::new("wide", 48).with_threads_per_cta(4096);
        assert_eq!(try_occupancy(&k40, &wide), None);
        let empty = KernelDesc::new("empty", 48).with_threads_per_cta(0);
        assert_eq!(try_occupancy(&k40, &empty), None);
        let fits = KernelDesc::new("fits", 50).with_threads_per_cta(1024);
        assert_eq!(try_occupancy(&k40, &fits).map(|o| o.ctas_per_sm), Some(1));
    }

    #[test]
    #[should_panic(expected = "cannot be resident")]
    fn impossible_kernel_panics() {
        let k40 = DeviceSpec::k40();
        // 600 regs * 128 threads = 76,800 > 65,536 per SM.
        occupancy(&k40, &KernelDesc::new("monster", 600));
    }

    #[test]
    fn k20_smaller_register_file_halves_residency() {
        let kernel = KernelDesc::new("push", 48);
        let on_k40 = occupancy(&DeviceSpec::k40(), &kernel);
        let on_k20 = occupancy(&DeviceSpec::k20(), &kernel);
        assert!(on_k20.ctas_per_sm < on_k40.ctas_per_sm);
    }

    #[test]
    fn p100_has_most_resident_threads() {
        let kernel = KernelDesc::new("push", 48);
        let p = occupancy(&DeviceSpec::p100(), &kernel);
        let k = occupancy(&DeviceSpec::k40(), &kernel);
        assert!(p.resident_threads > k.resident_threads * 3);
    }
}
