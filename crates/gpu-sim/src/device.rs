//! Device specifications for the GPUs used in the paper's evaluation.
//!
//! Register-file sizes follow the paper's own numbers (§5: "65,536
//! registers of NVIDIA K40 GPUs and 32,768 from K20 GPUs"); the rest are
//! the public datasheet values for each card. All timing-relevant
//! constants feed the cost model in [`crate::cost`].

/// Static description of a simulated GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name ("Tesla K40").
    pub name: &'static str,
    /// Number of streaming multiprocessors (SMX / SM).
    pub sm_count: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Core clock in MHz (used only to convert cycles to milliseconds
    /// for reporting).
    pub clock_mhz: u32,
    /// Global-memory bandwidth in bytes per core cycle, aggregated over
    /// the device. Derived from datasheet GB/s divided by clock.
    pub bytes_per_cycle: u32,
    /// Fixed cost of a kernel launch from the host, in cycles. Around
    /// 5 µs of driver/runtime latency on the Kepler-era stack.
    pub kernel_launch_cycles: u64,
    /// Cost of one pass through the software global barrier, in cycles.
    pub barrier_cycles: u64,
    /// On-board global memory in bytes. Used for the out-of-memory
    /// feasibility checks behind Table 4's blank cells (checked against
    /// the *paper-scale* dataset sizes by `simdx_baselines::feasibility`).
    pub global_mem_bytes: u64,
    /// Resident threads needed to saturate the memory system through
    /// latency hiding. Kernels whose occupancy sits below this reach a
    /// proportionally smaller fraction of peak bandwidth — the §5
    /// penalty aggressive fusion pays for its register pressure.
    pub saturation_threads: u32,
}

impl DeviceSpec {
    /// NVIDIA Tesla K20 (Kepler GK110, 13 SMX).
    pub fn k20() -> Self {
        Self {
            name: "Tesla K20",
            sm_count: 13,
            // The paper's number (§5). The datasheet says 65,536; we keep
            // the paper's value because Eq. 1 examples rely on it.
            registers_per_sm: 32_768,
            max_threads_per_sm: 2_048,
            max_ctas_per_sm: 16,
            shared_mem_per_sm: 48 * 1024,
            clock_mhz: 706,
            // 208 GB/s / 0.706 GHz ≈ 295 B/cycle.
            bytes_per_cycle: 295,
            kernel_launch_cycles: 3_500,
            barrier_cycles: 600,
            global_mem_bytes: 5 * 1024 * 1024 * 1024,
            saturation_threads: 12_288,
        }
    }

    /// NVIDIA Tesla K40 (Kepler GK110B, 15 SMX) — the paper's default.
    pub fn k40() -> Self {
        Self {
            name: "Tesla K40",
            sm_count: 15,
            registers_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            max_ctas_per_sm: 16,
            shared_mem_per_sm: 48 * 1024,
            clock_mhz: 745,
            // 288 GB/s / 0.745 GHz ≈ 386 B/cycle.
            bytes_per_cycle: 386,
            kernel_launch_cycles: 3_700,
            barrier_cycles: 600,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            saturation_threads: 12_288,
        }
    }

    /// NVIDIA Tesla P100 (Pascal GP100, 56 SMs).
    pub fn p100() -> Self {
        Self {
            name: "Tesla P100",
            sm_count: 56,
            registers_per_sm: 65_536,
            max_threads_per_sm: 2_048,
            max_ctas_per_sm: 32,
            shared_mem_per_sm: 64 * 1024,
            clock_mhz: 1_328,
            // 732 GB/s / 1.328 GHz ≈ 551 B/cycle.
            bytes_per_cycle: 551,
            kernel_launch_cycles: 6_600,
            barrier_cycles: 500,
            global_mem_bytes: 16 * 1024 * 1024 * 1024,
            // HBM2 wants deeper memory-level parallelism than GDDR5.
            saturation_threads: 24_576,
        }
    }

    /// Converts simulated cycles to simulated milliseconds at this
    /// device's clock.
    pub(crate) fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_capability() {
        let (k20, k40, p100) = (DeviceSpec::k20(), DeviceSpec::k40(), DeviceSpec::p100());
        let registers = |d: &DeviceSpec| u64::from(d.sm_count) * u64::from(d.registers_per_sm);
        assert!(registers(&k20) < registers(&k40));
        assert!(registers(&k40) < registers(&p100));
        assert!(k20.bytes_per_cycle < k40.bytes_per_cycle);
        assert!(k40.bytes_per_cycle < p100.bytes_per_cycle);
        assert!(k20.sm_count < k40.sm_count && k40.sm_count < p100.sm_count);
    }

    #[test]
    fn paper_register_counts() {
        // §5 quotes these two numbers explicitly.
        assert_eq!(DeviceSpec::k40().registers_per_sm, 65_536);
        assert_eq!(DeviceSpec::k20().registers_per_sm, 32_768);
    }

    #[test]
    fn cycles_to_ms_roundtrip() {
        let k40 = DeviceSpec::k40();
        // 745 MHz → 745k cycles per ms.
        assert!((k40.cycles_to_ms(745_000) - 1.0).abs() < 1e-9);
    }
}
