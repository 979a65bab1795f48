//! Engine configuration.

use crate::error::SimdxError;
// Defined beside the worklists it classifies into; named here, where
// `EngineConfig::thresholds` uses it.
pub use crate::frontier::ClassifyThresholds;
use crate::fusion::{FusionPlan, FusionStrategy};
use simdx_gpu::occupancy::try_occupancy;
use simdx_gpu::DeviceSpec;

/// Which frontier-filter strategy the engine uses each iteration (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterPolicy {
    /// Just-in-time control: online filter until a thread bin overflows,
    /// ballot filter for that iteration, back to online when bins fit.
    /// This is SIMD-X's default.
    Jit,
    /// Always use the ballot filter (the Fig. 12 "Ballot" baseline).
    BallotOnly,
    /// Always use the online filter; a bin overflow aborts the run (the
    /// Fig. 12 "Online" baseline, which "cannot work for many graphs").
    OnlineOnly,
}

/// Host execution backend for the engine's per-iteration hot path.
///
/// Both modes produce **bit-equal results**: identical metadata,
/// identical iteration logs and identical simulated cycle counts (the
/// determinism contract in `crates/core/README.md`). `Parallel` only
/// changes how fast the host computes them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded reference path.
    #[default]
    Serial,
    /// The serial path with the ballot filter's |V|-wide metadata scan
    /// partitioned over a persistent worker pool.
    Parallel {
        /// Worker count; `0` resolves to the machine's available
        /// parallelism at run time.
        threads: usize,
    },
}

impl ExecMode {
    /// Resolved worker count: `Serial` is 1, `Parallel { threads: 0 }`
    /// asks the OS.
    pub(crate) fn worker_count(&self) -> usize {
        match *self {
            Self::Serial => 1,
            Self::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Self::Parallel { threads } => threads,
        }
    }

    /// Short label for reports and bench artifacts.
    pub fn label(&self) -> String {
        match *self {
            Self::Serial => "serial".to_string(),
            Self::Parallel { threads: 0 } => "parallel/auto".to_string(),
            Self::Parallel { threads } => format!("parallel/{threads}"),
        }
    }
}

/// Push/pull direction selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectionPolicy {
    /// Frontier-volume heuristic: pull when the frontier's out-degree
    /// sum exceeds `|E| / alpha`, push otherwise (Beamer-style; the
    /// engine consults [`crate::acc::AccProgram::direction`] first).
    Adaptive {
        /// Volume divisor; the paper-era conventional value is 20.
        alpha: u64,
    },
    /// Always push.
    FixedPush,
    /// Always pull.
    FixedPull,
}

impl Default for DirectionPolicy {
    fn default() -> Self {
        Self::Adaptive { alpha: 20 }
    }
}

/// Full engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Simulated device.
    pub device: DeviceSpec,
    /// Kernel-fusion strategy (§5).
    pub fusion: FusionStrategy,
    /// Frontier filter policy (§4).
    pub filter: FilterPolicy,
    /// Online-filter per-thread bin capacity. §4 selects 64.
    pub overflow_threshold: usize,
    /// Worklist degree thresholds. §4 defaults to 32 / 128.
    pub thresholds: ClassifyThresholds,
    /// Threads per CTA for every kernel. §5 default is 128.
    pub threads_per_cta: u32,
    /// Device scale divisor matching the dataset twin scale (see
    /// [`simdx_gpu::GpuExecutor::set_scale`]). Default 64, the twin
    /// shrink factor of `simdx-graph::datasets`.
    pub parallelism_scale: u32,
    /// Direction policy.
    pub direction: DirectionPolicy,
    /// Hard iteration cap (defense against non-converging programs).
    pub max_iterations: u32,
    /// Host execution backend (serial reference vs worker pool).
    pub exec: ExecMode,
}

impl Default for EngineConfig {
    /// Paper defaults on the serial backend.
    fn default() -> Self {
        Self {
            device: DeviceSpec::k40(),
            fusion: FusionStrategy::PushPull,
            filter: FilterPolicy::Jit,
            overflow_threshold: 64,
            thresholds: ClassifyThresholds::default(),
            threads_per_cta: 128,
            parallelism_scale: 64,
            direction: DirectionPolicy::default(),
            max_iterations: 100_000,
            exec: ExecMode::Serial,
        }
    }
}

impl EngineConfig {
    /// Checks the configuration for internal consistency; the session
    /// API ([`crate::session::Runtime::new`]) rejects broken configs up
    /// front instead of letting the engine panic mid-run.
    pub(crate) fn validate(&self) -> Result<(), SimdxError> {
        let fail = |reason: String| Err(SimdxError::InvalidConfig { reason });
        if self.threads_per_cta == 0 {
            return fail("threads_per_cta must be at least 1".to_string());
        }
        if self.parallelism_scale == 0 {
            return fail("parallelism_scale must be at least 1".to_string());
        }
        if self.thresholds.small_max > self.thresholds.med_max {
            return fail(format!(
                "worklist thresholds inverted: small_max {} > med_max {}",
                self.thresholds.small_max, self.thresholds.med_max
            ));
        }
        if let DirectionPolicy::Adaptive { alpha: 0 } = self.direction {
            return fail("adaptive direction alpha must be at least 1".to_string());
        }
        // Every kernel the run can launch must fit on the device at this
        // CTA width; the engine sizes its slots from that occupancy.
        let plan = FusionPlan::new(self.fusion, self.threads_per_cta);
        if let Some(k) = plan
            .kernels()
            .find(|k| try_occupancy(&self.device, k).is_none())
        {
            return fail(format!(
                "kernel `{}` cannot be resident on the {}: {} regs/CTA at {} threads/CTA",
                k.name,
                self.device.name,
                k.registers_per_cta(),
                self.threads_per_cta
            ));
        }
        Ok(())
    }

    /// A configuration for unscaled micro-tests: tiny graphs against an
    /// unscaled device with deterministic defaults.
    pub fn unscaled() -> Self {
        Self {
            parallelism_scale: 1,
            ..Self::default()
        }
    }

    /// Builder: set the filter policy.
    pub fn with_filter(mut self, filter: FilterPolicy) -> Self {
        self.filter = filter;
        self
    }

    /// Builder: set the fusion strategy.
    pub fn with_fusion(mut self, fusion: FusionStrategy) -> Self {
        self.fusion = fusion;
        self
    }

    /// Builder: set the device.
    pub fn with_device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Builder: set the online-filter overflow threshold (Fig. 9(a)
    /// sweeps this).
    pub fn with_overflow_threshold(mut self, threshold: usize) -> Self {
        self.overflow_threshold = threshold;
        self
    }

    /// Builder: set the direction policy.
    pub fn with_direction(mut self, direction: DirectionPolicy) -> Self {
        self.direction = direction;
        self
    }

    /// Builder: set the host execution backend.
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Builder: parallel host execution with `threads` workers (0 =
    /// available parallelism).
    pub fn parallel(self, threads: usize) -> Self {
        self.with_exec(ExecMode::Parallel { threads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.overflow_threshold, 64);
        assert_eq!(c.threads_per_cta, 128);
        assert_eq!(c.thresholds.small_max, 32);
        assert_eq!(c.thresholds.med_max, 128);
        assert_eq!(c.filter, FilterPolicy::Jit);
        assert_eq!(c.fusion, FusionStrategy::PushPull);
        assert_eq!(c.device.name, "Tesla K40");
        assert_eq!(c.exec, ExecMode::Serial);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::unscaled()
            .with_filter(FilterPolicy::BallotOnly)
            .with_fusion(FusionStrategy::None)
            .with_overflow_threshold(8)
            .parallel(2);
        assert_eq!(c.parallelism_scale, 1);
        assert_eq!(c.filter, FilterPolicy::BallotOnly);
        assert_eq!(c.fusion, FusionStrategy::None);
        assert_eq!(c.overflow_threshold, 8);
        assert_eq!(c.exec, ExecMode::Parallel { threads: 2 });
        let c = c.with_exec(ExecMode::Serial);
        assert_eq!(c.exec, ExecMode::Serial);
    }

    #[test]
    fn exec_mode_resolution_and_labels() {
        assert_eq!(ExecMode::Serial.worker_count(), 1);
        assert_eq!(ExecMode::Parallel { threads: 4 }.worker_count(), 4);
        assert!(ExecMode::Parallel { threads: 0 }.worker_count() >= 1);
        assert_eq!(ExecMode::Serial.label(), "serial");
        assert_eq!(ExecMode::Parallel { threads: 4 }.label(), "parallel/4");
    }

    #[test]
    fn validate_rejects_broken_configs() {
        let cfg = EngineConfig {
            threads_per_cta: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(SimdxError::InvalidConfig { .. })
        ));
        let cfg = EngineConfig {
            parallelism_scale: 0,
            ..EngineConfig::default()
        };
        assert!(cfg.validate().is_err());
        let mut cfg = EngineConfig::default();
        cfg.thresholds.small_max = cfg.thresholds.med_max + 1;
        assert!(cfg.validate().is_err());
        let cfg = EngineConfig {
            direction: DirectionPolicy::Adaptive { alpha: 0 },
            ..EngineConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_cta_width_no_kernel_fits() {
        let reason = |cfg: EngineConfig| match cfg.validate() {
            Err(SimdxError::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let wide = EngineConfig {
            threads_per_cta: 4096,
            ..EngineConfig::default()
        };
        let msg = reason(wide);
        assert!(
            msg.contains("`fused-push`") && msg.contains("196608 regs/CTA"),
            "{msg}"
        );
        assert!(msg.contains("Tesla K40"), "{msg}");
        let all = EngineConfig {
            threads_per_cta: 1024,
            ..EngineConfig::default()
        }
        .with_fusion(FusionStrategy::All);
        assert!(reason(all).contains("`all-fused`"));
        // 50 regs * 1024 threads still fits one CTA per SM.
        let push_pull = EngineConfig {
            threads_per_cta: 1024,
            ..EngineConfig::default()
        };
        assert_eq!(push_pull.validate(), Ok(()));
    }
}
