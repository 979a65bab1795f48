//! Engine configuration.

use crate::error::SimdxError;
use crate::frontier::ClassifyThresholds;
use crate::fusion::FusionStrategy;
use simdx_gpu::DeviceSpec;

/// The one read of `SIMDX_FRONTIER`, cached per process at the first
/// `FrontierRepr::default()`: benches call `EngineConfig::default()`
/// inside timed regions, and an env lookup per construction would leak
/// into wall-clock numbers. `Default` has no error channel, so the
/// *fallible* parse result is cached: `Default` hands out `List` on a
/// bad value (never a panic) and [`EngineConfig::validate`] — which
/// every session construction calls — reports it typed. A value set
/// after the first read is invisible for the rest of the process.
fn cached_frontier_knob() -> Result<FrontierRepr, SimdxError> {
    static CACHE: std::sync::OnceLock<Result<FrontierRepr, SimdxError>> =
        std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| FrontierRepr::try_from_raw(std::env::var("SIMDX_FRONTIER").ok()))
        .clone()
}

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
    /// Multi-threaded path over a persistent worker pool.
    Parallel {
        /// Worker count; `0` resolves to the machine's available
        /// parallelism at run time.
        threads: usize,
    },
}

impl ExecMode {
    /// Resolved worker count: `Serial` is 1, `Parallel { threads: 0 }`
    /// asks the OS.
    pub fn worker_count(&self) -> usize {
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

/// How the engine represents set-shaped frontier state.
///
/// Orthogonal to [`ExecMode`], and under the same contract: `Bitmap`
/// is **bit-equal** to `List` — identical metadata, activation logs
/// and simulated cycle counts (`tests/frontier_equivalence.rs`
/// enforces the full algorithm × exec-mode matrix). Only host-side
/// data structures change:
///
/// * `List` keeps every frontier artifact as a `Vec<VertexId>`
///   worklist (the seed behaviour) — cheapest for sparse push
///   frontiers.
/// * `Bitmap` uses [`crate::frontier::FrontierBitmap`] (one `u64`
///   word per 64 vertices, two warp chunks) for the changed-vertex
///   set, pull-candidate dedup and the ballot scan's occupancy, so
///   membership tests are single-bit loads and all-zero words are
///   skipped 64 vertices at a time — wins on dense frontiers and
///   pull-heavy phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrontierRepr {
    /// Sorted/concatenated vertex worklists (seed behaviour).
    List,
    /// Word-per-64-vertices bitmaps for set-shaped frontier state.
    Bitmap,
}

impl FrontierRepr {
    /// Parses a raw `SIMDX_FRONTIER` value — the one environment knob
    /// (the bitmap CI job flips the whole suite with it). Unset or
    /// empty selects `List`; values match case-insensitively; anything
    /// else is an [`SimdxError::InvalidKnob`], so a CI typo can never
    /// silently fall back to the default configuration. Pure, so tests
    /// exercise parsing and rejection without mutating the process
    /// environment (libc `setenv` racing concurrent `getenv` from
    /// parallel tests is undefined behavior).
    pub(crate) fn try_from_raw(raw: Option<String>) -> Result<Self, SimdxError> {
        let Some(raw) = raw else {
            return Ok(Self::List);
        };
        match raw.to_ascii_lowercase().as_str() {
            "" | "list" => Ok(Self::List),
            "bitmap" => Ok(Self::Bitmap),
            _ => Err(SimdxError::InvalidKnob {
                var: "SIMDX_FRONTIER",
                expected: "'list' or 'bitmap'",
                value: raw,
            }),
        }
    }

    /// Short label for reports and bench artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            Self::List => "list",
            Self::Bitmap => "bitmap",
        }
    }
}

impl Default for FrontierRepr {
    /// Defers to the cached `SIMDX_FRONTIER` read so
    /// `SIMDX_FRONTIER=bitmap` flips the default for a whole
    /// test/bench process.
    fn default() -> Self {
        cached_frontier_knob().unwrap_or(Self::List)
    }
}

/// What a session does when a parallel run fails with a contained
/// worker panic ([`crate::error::SimdxError::WorkerPanicked`]).
///
/// Either way the pool is poisoned and transparently rebuilt before
/// the next run; the policy only decides whether the *failed query*
/// comes back as an error or is retried. The retry is safe to offer
/// because the serial path is the bit-equality reference: a successful
/// retry returns exactly what the parallel run would have.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradePolicy {
    /// Surface the typed error to the caller (default).
    #[default]
    Fail,
    /// Retry the failed query once in [`ExecMode::Serial`] — graceful
    /// degradation instead of a failed query. A successful retry is
    /// flagged via [`crate::metrics::RunReport::aborted`] with
    /// [`crate::supervise::AbortReason::WorkerPanic`].
    RetrySerial,
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
    /// Frontier representation (vertex worklists vs bitmaps).
    pub frontier: FrontierRepr,
    /// Reaction to a contained worker panic (fail the query vs retry
    /// it once serially).
    pub degrade: DegradePolicy,
}

impl Default for EngineConfig {
    /// Paper defaults on the serial backend, with the frontier
    /// representation from the cached `SIMDX_FRONTIER` read; an
    /// unparsable value selects `List` here and is reported as a typed
    /// error by [`Self::validate`] (which every session construction
    /// calls).
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
            frontier: FrontierRepr::default(),
            degrade: DegradePolicy::Fail,
        }
    }
}

impl EngineConfig {
    /// Checks the configuration for internal consistency; the session
    /// API ([`crate::session::Runtime::new`]) rejects broken configs up
    /// front instead of letting the engine panic mid-run.
    pub fn validate(&self) -> Result<(), SimdxError> {
        // `FrontierRepr::default()` swallows a malformed
        // SIMDX_FRONTIER into `List` (Default has no error channel);
        // surface it here so every session construction fails typed
        // instead of silently running the fallback configuration.
        if let Err(err) = cached_frontier_knob() {
            return Err(SimdxError::InvalidConfig {
                reason: format!("cached knob default is invalid: {err}"),
            });
        }
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

    /// Builder: set the frontier representation.
    pub fn with_frontier(mut self, frontier: FrontierRepr) -> Self {
        self.frontier = frontier;
        self
    }

    /// Builder: bitmap frontier representation.
    pub fn bitmap(self) -> Self {
        self.with_frontier(FrontierRepr::Bitmap)
    }

    /// Builder: set the worker-panic degradation policy.
    pub fn with_degrade(mut self, degrade: DegradePolicy) -> Self {
        self.degrade = degrade;
        self
    }

    /// Builder: retry panicked parallel queries once serially.
    pub fn degrade_serial(self) -> Self {
        self.with_degrade(DegradePolicy::RetrySerial)
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
        assert_eq!(c.degrade, DegradePolicy::Fail);
    }

    #[test]
    fn default_is_serial_list_in_a_clean_environment() {
        let c = EngineConfig::default();
        // No environment variable selects the backend.
        assert_eq!(c.exec, ExecMode::Serial);
        // SIMDX_FRONTIER is the one knob: unset everywhere except the
        // bitmap CI job, which flips the whole suite with it.
        assert_eq!(FrontierRepr::try_from_raw(None), Ok(FrontierRepr::List));
        let raw = std::env::var("SIMDX_FRONTIER").ok();
        assert_eq!(Ok(c.frontier), FrontierRepr::try_from_raw(raw));
        // The cached read parsed cleanly, so validate() does not
        // reject on its account.
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::unscaled()
            .with_filter(FilterPolicy::BallotOnly)
            .with_fusion(FusionStrategy::None)
            .with_overflow_threshold(8)
            .parallel(2)
            .bitmap()
            .degrade_serial();
        assert_eq!(c.parallelism_scale, 1);
        assert_eq!(c.filter, FilterPolicy::BallotOnly);
        assert_eq!(c.fusion, FusionStrategy::None);
        assert_eq!(c.overflow_threshold, 8);
        assert_eq!(c.exec, ExecMode::Parallel { threads: 2 });
        assert_eq!(c.frontier, FrontierRepr::Bitmap);
        assert_eq!(c.degrade, DegradePolicy::RetrySerial);
        let c = c
            .with_exec(ExecMode::Serial)
            .with_frontier(FrontierRepr::List)
            .with_degrade(DegradePolicy::Fail);
        assert_eq!(c.exec, ExecMode::Serial);
        assert_eq!(c.frontier, FrontierRepr::List);
        assert_eq!(c.degrade, DegradePolicy::Fail);
    }

    #[test]
    fn exec_mode_resolution_and_labels() {
        assert_eq!(ExecMode::Serial.worker_count(), 1);
        assert_eq!(ExecMode::Parallel { threads: 4 }.worker_count(), 4);
        assert!(ExecMode::Parallel { threads: 0 }.worker_count() >= 1);
        assert_eq!(ExecMode::Serial.label(), "serial");
        assert_eq!(ExecMode::Parallel { threads: 4 }.label(), "parallel/4");
        assert_eq!(FrontierRepr::List.label(), "list");
        assert_eq!(FrontierRepr::Bitmap.label(), "bitmap");
    }

    #[test]
    fn frontier_knob_reports_typos_as_typed_errors() {
        // The pure parser is driven directly — no process-environment
        // mutation, which would race concurrent `getenv` from the
        // other tests in this binary.
        let parse = |v: &str| FrontierRepr::try_from_raw(Some(v.to_string()));
        let err = parse("Bitmp").unwrap_err();
        assert_eq!(
            err,
            SimdxError::InvalidKnob {
                var: "SIMDX_FRONTIER",
                expected: "'list' or 'bitmap'",
                value: "Bitmp".to_string(),
            }
        );
        assert_eq!(
            err.to_string(),
            "SIMDX_FRONTIER must be 'list' or 'bitmap', got 'Bitmp'"
        );
        // Case-insensitive accept, empty-selects-default.
        assert_eq!(parse("BITMAP"), Ok(FrontierRepr::Bitmap));
        assert_eq!(parse("list"), Ok(FrontierRepr::List));
        assert_eq!(parse(""), Ok(FrontierRepr::List));
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
}
