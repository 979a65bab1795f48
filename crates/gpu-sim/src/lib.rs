//! Deterministic GPU execution-model simulator.
//!
//! This crate substitutes for the CUDA hardware the paper evaluates on
//! (NVIDIA K20/K40/P100). It provides two things:
//!
//! 1. **Warp vote semantics** — [`warp`] implements `__ballot` and
//!    `__popc` with CUDA's lane semantics; the ballot filter in
//!    `simdx-core` builds its coalesced metadata scan from them.
//! 2. **An architectural cost model** — `device`, [`occupancy`],
//!    [`memory`], [`cost`] and [`executor`] charge simulated cycles for
//!    compute, coalesced/uncoalesced memory transactions, atomics,
//!    kernel launches and global barriers, with parallelism bounded by
//!    the register-file occupancy formula the paper gives as Equation 1.
//!
//! The [`barrier`] module models the software global barrier of §5,
//! including the deadlock that occurs when more CTAs are launched than
//! can be simultaneously resident — the failure mode SIMD-X's
//! compiler-based configuration provably avoids.
//!
//! Absolute cycle counts are calibration constants, not measurements;
//! the model's purpose is preserving *relative* behaviour (who wins,
//! where crossovers fall); the [`cost`] module doc names the ratios the
//! constants are chosen to keep.

#![forbid(unsafe_code)]

pub mod barrier;
pub mod cost;
pub(crate) mod device;
pub mod executor;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod warp;

pub use cost::{Cost, CycleCount};
pub use device::DeviceSpec;
pub use executor::{GpuExecutor, KernelCharge, KernelReport};
pub use kernel::{KernelDesc, LaunchConfig, SchedUnit};

/// Number of lanes in a warp. Fixed at 32 on every NVIDIA architecture
/// the paper uses.
pub const WARP_SIZE: usize = 32;
