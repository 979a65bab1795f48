//! The software global barrier and its deadlock analysis.
//!
//! GPUs have no device-wide synchronization primitive, so fused kernels
//! synchronize with a *software* barrier: worker CTAs mark arrival in a
//! `lock` array and spin until a monitor CTA flips every slot to
//! "departure" (§5, Fig. 10). The failure mode the paper identifies:
//! if more CTAs are launched than can be simultaneously resident, the
//! resident workers spin while the CTAs that would let the barrier
//! complete (including, under some schedulers, the monitor) can never be
//! scheduled — deadlock.
//!
//! The simulator models CTA residency explicitly. [`GlobalBarrier::sync`]
//! returns [`BarrierError::Deadlock`] instead of hanging, which lets the
//! test suite *prove* the claim: any launch wider than the occupancy
//! bound deadlocks, and every launch within it completes.

use crate::kernel::LaunchConfig;
use crate::occupancy::Occupancy;

/// Arrival/departure state of one CTA's lock slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Initial state.
    Idle,
    /// Worker marked arrival.
    Arrived,
    /// Monitor released the worker.
    Departed,
}

/// Why a barrier pass failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierError {
    /// More CTAs launched than can be resident: non-resident CTAs can
    /// never arrive, resident ones spin forever.
    Deadlock {
        /// CTAs in the launch.
        launched: u32,
        /// Maximum simultaneously-resident CTAs.
        resident: u32,
    },
}

impl std::fmt::Display for BarrierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadlock { launched, resident } => write!(
                f,
                "software barrier deadlock: {launched} CTAs launched but only \
                 {resident} can be resident"
            ),
        }
    }
}

impl std::error::Error for BarrierError {}

/// Statistics from one successful barrier pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Scheduling rounds the simulation took (1 when every CTA is
    /// resident, which is always the case for deadlock-free configs).
    pub(crate) rounds: u32,
    /// Total lock-array stores performed (one arrival per worker plus
    /// one departure flip per worker by the monitor).
    pub(crate) lock_stores: u64,
}

/// A software global barrier over a launch.
#[derive(Clone, Debug)]
pub struct GlobalBarrier {
    launch: LaunchConfig,
    resident_limit: u32,
    slots: Vec<Slot>,
}

impl GlobalBarrier {
    /// Creates a barrier for a launch whose residency bound comes from
    /// the occupancy analysis of the fused kernel.
    pub fn new(launch: LaunchConfig, occupancy: &Occupancy) -> Self {
        Self {
            launch,
            resident_limit: occupancy.resident_ctas,
            slots: vec![Slot::Idle; launch.ctas as usize],
        }
    }

    /// Creates a barrier with an explicit residency limit.
    #[cfg(test)]
    pub(crate) fn with_resident_limit(launch: LaunchConfig, resident_limit: u32) -> Self {
        Self {
            launch,
            resident_limit,
            slots: vec![Slot::Idle; launch.ctas as usize],
        }
    }

    /// Simulates one barrier pass.
    ///
    /// CTA 0 is the monitor. The hardware scheduler is modeled as: the
    /// first `resident_limit` not-yet-finished CTAs occupy the SMs; a
    /// CTA only vacates its SM when the whole fused kernel ends — which
    /// is *after* this barrier — so if any CTA is non-resident when the
    /// residents reach the barrier, nothing can make progress.
    pub fn sync(&mut self) -> Result<BarrierStats, BarrierError> {
        let launched = self.launch.ctas;
        if launched == 0 {
            return Ok(BarrierStats::default());
        }
        if launched > self.resident_limit {
            // The residents spin in `Arrived`; the rest never get an SM.
            for slot in self.slots.iter_mut().take(self.resident_limit as usize) {
                *slot = Slot::Arrived;
            }
            return Err(BarrierError::Deadlock {
                launched,
                resident: self.resident_limit,
            });
        }

        // Every CTA is resident: workers arrive...
        let mut lock_stores = 0u64;
        for slot in self.slots.iter_mut() {
            *slot = Slot::Arrived;
            lock_stores += 1;
        }
        // ...the monitor observes all arrivals and flips them to departed.
        debug_assert!(self.slots.iter().all(|&s| s == Slot::Arrived));
        for slot in self.slots.iter_mut() {
            *slot = Slot::Departed;
            lock_stores += 1;
        }
        // Reset for the next pass (the real barrier alternates sense).
        for slot in self.slots.iter_mut() {
            *slot = Slot::Idle;
        }
        Ok(BarrierStats {
            rounds: 1,
            lock_stores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::KernelDesc;
    use crate::occupancy::{deadlock_free_launch, occupancy};

    fn launch(ctas: u32) -> LaunchConfig {
        LaunchConfig {
            ctas,
            threads_per_cta: 128,
        }
    }

    #[test]
    fn within_residency_completes() {
        let mut b = GlobalBarrier::with_resident_limit(launch(60), 60);
        let stats = b.sync().expect("no deadlock");
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.lock_stores, 120);
    }

    #[test]
    fn oversubscription_deadlocks() {
        let mut b = GlobalBarrier::with_resident_limit(launch(61), 60);
        assert_eq!(
            b.sync(),
            Err(BarrierError::Deadlock {
                launched: 61,
                resident: 60
            })
        );
    }

    #[test]
    fn empty_launch_is_trivially_fine() {
        let mut b = GlobalBarrier::with_resident_limit(launch(0), 60);
        assert!(b.sync().is_ok());
    }

    #[test]
    fn equation_one_config_never_deadlocks() {
        // The §5 example: 110-register kernel on a K40 → 60 CTAs. Any
        // launch derived from `deadlock_free_launch` must sync repeatedly.
        let k40 = DeviceSpec::k40();
        let kernel = KernelDesc::new("fused", 110);
        let lc = deadlock_free_launch(&k40, &kernel);
        let occ = occupancy(&k40, &kernel);
        let mut b = GlobalBarrier::new(lc, &occ);
        for _ in 0..100 {
            b.sync()
                .expect("deadlock-free configuration must not deadlock");
        }
    }

    #[test]
    fn one_extra_cta_over_equation_one_deadlocks() {
        let k40 = DeviceSpec::k40();
        let kernel = KernelDesc::new("fused", 110);
        let occ = occupancy(&k40, &kernel);
        let lc = LaunchConfig {
            ctas: occ.resident_ctas + 1,
            threads_per_cta: 128,
        };
        let mut b = GlobalBarrier::new(lc, &occ);
        assert!(matches!(b.sync(), Err(BarrierError::Deadlock { .. })));
    }

    #[test]
    fn barrier_is_reusable_across_iterations() {
        let mut b = GlobalBarrier::with_resident_limit(launch(8), 16);
        for _ in 0..1000 {
            assert!(b.sync().is_ok());
        }
    }
}
