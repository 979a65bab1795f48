//! Kernel descriptors and launch configurations.
//!
//! A [`KernelDesc`] is the simulator's stand-in for a compiled CUDA
//! kernel: its register consumption per thread (what `nvcc -Xptxas -v`
//! reports, the input to Table 2) and its CTA shape. The launch
//! configuration derived from it via [`crate::occupancy`] determines how
//! many CTAs can be simultaneously resident — the quantity the
//! deadlock-free barrier depends on.

/// Scheduling granularity for a worklist, per §4's step II: "a single
/// thread per small task, a warp per medium task and a CTA per large
/// task".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedUnit {
    /// One thread per task (small list).
    Thread,
    /// One 32-lane warp per task (medium list).
    Warp,
    /// One CTA per task (large list).
    Cta,
}

impl SchedUnit {
    /// Threads consumed by one scheduling unit given the CTA width.
    pub fn threads(self, threads_per_cta: u32) -> u32 {
        match self {
            Self::Thread => 1,
            Self::Warp => crate::WARP_SIZE as u32,
            Self::Cta => threads_per_cta,
        }
    }
}

/// A compiled kernel's resource footprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelDesc {
    /// Kernel name for reports.
    pub name: String,
    /// Registers per thread (`-Xptxas -v` output; Table 2 row).
    pub registers_per_thread: u32,
    /// Threads per CTA. The paper's default is 128 (§5).
    pub threads_per_cta: u32,
    /// Shared memory per CTA in bytes.
    pub(crate) shared_mem_per_cta: u32,
}

impl KernelDesc {
    /// Creates a descriptor with the default 128-thread CTA and no
    /// shared-memory demand.
    pub fn new(name: impl Into<String>, registers_per_thread: u32) -> Self {
        Self {
            name: name.into(),
            registers_per_thread,
            threads_per_cta: 128,
            shared_mem_per_cta: 0,
        }
    }

    /// Builder: overrides the CTA width.
    pub fn with_threads_per_cta(mut self, t: u32) -> Self {
        self.threads_per_cta = t;
        self
    }

    /// Builder: overrides shared-memory use.
    #[cfg(test)]
    pub(crate) fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_per_cta = bytes;
        self
    }

    /// Registers consumed by one CTA of this kernel.
    pub fn registers_per_cta(&self) -> u64 {
        self.registers_per_thread as u64 * self.threads_per_cta as u64
    }
}

/// A concrete launch: how many CTAs of a kernel run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of CTAs launched.
    pub ctas: u32,
    /// Threads per CTA.
    pub threads_per_cta: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_unit_thread_counts() {
        assert_eq!(SchedUnit::Thread.threads(128), 1);
        assert_eq!(SchedUnit::Warp.threads(128), 32);
        assert_eq!(SchedUnit::Cta.threads(128), 128);
        assert_eq!(SchedUnit::Cta.threads(256), 256);
    }

    #[test]
    fn registers_per_cta() {
        let k = KernelDesc::new("push", 48);
        assert_eq!(k.registers_per_cta(), 48 * 128);
        let k = k.with_threads_per_cta(256);
        assert_eq!(k.registers_per_cta(), 48 * 256);
    }
}
