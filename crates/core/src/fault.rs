//! Deterministic fault injection for the supervision test harness.
//!
//! Compiled to a no-op unless the `fault-inject` feature is on: the
//! default build's [`hit`] is an empty `#[inline(always)]` function, so
//! production binaries carry zero overhead and no global state.
//!
//! With the feature enabled, [`install`] arms a [`FaultPlan`] that
//! fires panics or delays at named [`FaultSite`]s the engine passes
//! through ([`hit`] calls are baked into the ballot filter, the push
//! and pull sweeps, the bind-time grid build, the scratch reset, and
//! the checkpoint capture/restore path).
//! Panics fired inside pool workers exercise the containment path in
//! `par.rs`; panics fired on the submitter thread exercise the
//! `catch_unwind` in `session.rs`. `tests/fault_injection.rs` drives
//! the differential matrix with this.
//!
//! A plan is built in code, through [`FaultPlan`]'s typed builder
//! (`panic_at`, `delay_every`, `disturb_at`, …) — there is no string
//! grammar and no environment variable, so an ordinary run cannot be
//! disturbed from outside the process. The `persist` site additionally
//! accepts the storage disturbances of [`PersistDisturbance`], consumed
//! by the durable-checkpoint write path through [`persist_disturbance`].

#![allow(dead_code)] // the no-op build only uses `hit`

use std::time::Duration;

/// Named engine locations where faults can fire. The set mirrors the
/// phases of one BSP iteration plus the two bind/reuse paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// The ballot filter (serial scan or per-worker vote scan).
    Ballot,
    /// The push compute sweep (serial unit or per-worker replay shard).
    Push,
    /// The pull compute sweep (serial unit or per-worker task chunk).
    Pull,
    /// The bind-time destination-bucketed grid build (pool workers).
    GridBuild,
    /// `IterScratch::reset_for_run` at `execute()` entry.
    ScratchReset,
    /// The boundary checkpoint capture in the engine loop.
    Capture,
    /// The checkpoint restore at resumed-run initialization.
    Restore,
    /// The durable-checkpoint write path
    /// ([`crate::persist::DirStore::put`]); the only site that also
    /// accepts the storage disturbances ([`PersistDisturbance`]).
    Persist,
}

/// Number of distinct [`FaultSite`]s (per-site hit counters).
const NUM_SITES: usize = 8;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            Self::Ballot => 0,
            Self::Push => 1,
            Self::Pull => 2,
            Self::GridBuild => 3,
            Self::ScratchReset => 4,
            Self::Capture => 5,
            Self::Restore => 6,
            Self::Persist => 7,
        }
    }

    /// The spelling used in panic payloads (`injected fault at <label>`).
    pub fn label(self) -> &'static str {
        match self {
            Self::Ballot => "ballot",
            Self::Push => "push",
            Self::Pull => "pull",
            Self::GridBuild => "grid-build",
            Self::ScratchReset => "scratch-reset",
            Self::Capture => "capture",
            Self::Restore => "restore",
            Self::Persist => "persist",
        }
    }
}

/// A storage fault the durable-checkpoint write path injects on itself
/// ([`FaultSite::Persist`] only): each models one way real disks lose
/// data, and each must surface as a typed [`crate::error::SimdxError`]
/// with the store still usable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistDisturbance {
    /// Drop the tail of the blob before it reaches the file — a crash
    /// mid-write that the atomic temp+rename protocol turns into a
    /// detectably-truncated checkpoint.
    TornWrite,
    /// Flip one bit of the blob — silent media corruption the CRCs
    /// must catch at decode time.
    Corrupt,
    /// Fail the operation outright with a synthetic I/O error
    /// ([`crate::error::SimdxError::CheckpointIo`]).
    IoErr,
}

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// `panic!` with an `injected fault at <site>` payload.
    Panic,
    /// Sleep for the given duration (models a straggler worker).
    Delay(Duration),
    /// Hand a storage disturbance to the persist layer
    /// ([`FaultSite::Persist`] only; other sites ignore it).
    Disturb(PersistDisturbance),
}

/// No-op hook for the default build: optimizes to nothing.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn hit(_site: FaultSite) {}

/// No-op persist hook for the default build: the write path is never
/// disturbed.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub fn persist_disturbance() -> Option<PersistDisturbance> {
    None
}

#[cfg(feature = "fault-inject")]
pub use enabled::{hit, install, persist_disturbance, FaultGuard, FaultPlan};

#[cfg(feature = "fault-inject")]
mod enabled {
    use super::{FaultAction, FaultSite, PersistDisturbance, NUM_SITES};
    use crate::sync::atomic::{AtomicU64, Ordering};
    use crate::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
    use std::time::Duration;

    /// One armed fault: fires `action` at `site`. `nth == 0` fires on
    /// every hit (delays only — an every-hit panic would re-fire during
    /// the recovery run the tests perform); `nth == k` fires exactly on
    /// the k-th hit of that site since [`install`].
    #[derive(Clone, Debug)]
    struct Fault {
        site: FaultSite,
        action: FaultAction,
        nth: u64,
    }

    /// A set of armed faults plus per-site hit counters.
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        faults: Vec<Fault>,
        counts: [AtomicU64; NUM_SITES],
    }

    impl FaultPlan {
        /// An empty plan (no faults armed; counters still advance).
        pub fn new() -> Self {
            Self::default()
        }

        /// Arms a panic on the `nth` hit of `site` (1-based).
        pub fn panic_at(mut self, site: FaultSite, nth: u64) -> Self {
            assert!(nth >= 1, "panics fire once; nth is 1-based");
            self.faults.push(Fault {
                site,
                action: FaultAction::Panic,
                nth,
            });
            self
        }

        /// Arms a panic on the first hit of `site`.
        pub fn panic_on(self, site: FaultSite) -> Self {
            self.panic_at(site, 1)
        }

        /// Arms a delay on every hit of `site`.
        pub fn delay_every(mut self, site: FaultSite, delay: Duration) -> Self {
            self.faults.push(Fault {
                site,
                action: FaultAction::Delay(delay),
                nth: 0,
            });
            self
        }

        /// Arms a delay on the `nth` hit of `site` (1-based).
        pub fn delay_at(mut self, site: FaultSite, delay: Duration, nth: u64) -> Self {
            assert!(nth >= 1, "nth is 1-based; use delay_every for every hit");
            self.faults.push(Fault {
                site,
                action: FaultAction::Delay(delay),
                nth,
            });
            self
        }

        /// Arms a storage disturbance on the `nth` durable-checkpoint
        /// write (1-based).
        pub fn disturb_at(mut self, disturbance: PersistDisturbance, nth: u64) -> Self {
            assert!(
                nth >= 1,
                "nth is 1-based; use disturb_every for every write"
            );
            self.faults.push(Fault {
                site: FaultSite::Persist,
                action: FaultAction::Disturb(disturbance),
                nth,
            });
            self
        }

        /// Arms a storage disturbance on every durable-checkpoint
        /// write.
        pub fn disturb_every(mut self, disturbance: PersistDisturbance) -> Self {
            self.faults.push(Fault {
                site: FaultSite::Persist,
                action: FaultAction::Disturb(disturbance),
                nth: 0,
            });
            self
        }
    }

    /// The armed plan, if any. `RwLock` so the hot [`hit`] path takes a
    /// read lock only; panics under a *read* guard do not poison.
    fn active() -> &'static RwLock<Option<Arc<FaultPlan>>> {
        static ACTIVE: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
        ACTIVE.get_or_init(|| RwLock::new(None))
    }

    /// Serializes tests that install plans: fault state is global, so
    /// two concurrently-running fault tests would observe each other's
    /// plans. Held by the [`FaultGuard`].
    fn gate() -> &'static Mutex<()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
    }

    /// Keeps a plan armed; disarms on drop and releases the test gate.
    pub struct FaultGuard {
        _gate: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *active()
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }
    }

    /// Arms `plan` globally until the returned guard drops. Blocks while
    /// another guard is alive (tests serialize on the plan).
    pub fn install(plan: FaultPlan) -> FaultGuard {
        // A previous test body may have panicked while holding the gate
        // (e.g. asserting around an injected panic); the () payload is
        // trivially consistent, so clear the poison and continue.
        let gate = gate()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *active()
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::new(plan));
        FaultGuard { _gate: gate }
    }

    /// Fault hook: fires any armed fault for `site`. Called from engine
    /// workers and the submitter thread alike.
    pub fn hit(site: FaultSite) {
        let plan = {
            let slot = active()
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match &*slot {
                Some(p) => Arc::clone(p),
                None => return,
            }
        };
        // ORDERING: per-site hit counters only need atomicity, not
        // ordering: each worker's increment must be counted exactly
        // once so the `nth` trigger fires deterministically, but no
        // other data is published under the counter. The harness
        // inspects counts only after the run has joined its workers.
        let count = plan.counts[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        for fault in plan.faults.iter().filter(|f| f.site == site) {
            let fires = fault.nth == 0 || fault.nth == count;
            if !fires {
                continue;
            }
            match fault.action {
                FaultAction::Panic => panic!("injected fault at {}", site.label()),
                FaultAction::Delay(d) => std::thread::sleep(d),
                // Storage disturbances only fire through
                // `persist_disturbance` — the engine sites have no
                // write path to disturb.
                FaultAction::Disturb(_) => {}
            }
        }
    }

    /// Persist-layer fault hook: advances the [`FaultSite::Persist`]
    /// counter and returns the armed storage disturbance for this
    /// write, if any. Armed panics and delays at the persist site fire
    /// here too (the write path calls this *instead of* [`hit`], so
    /// the hit counter advances exactly once per write).
    pub fn persist_disturbance() -> Option<PersistDisturbance> {
        let plan = {
            let slot = active()
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match &*slot {
                Some(p) => Arc::clone(p),
                None => return None,
            }
        };
        // ORDERING: same contract as `hit` — the per-write counter
        // only needs atomicity so the `nth` trigger fires exactly
        // once; nothing else is published under it.
        let site = FaultSite::Persist;
        let count = plan.counts[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let mut disturbance = None;
        for fault in plan.faults.iter().filter(|f| f.site == site) {
            let fires = fault.nth == 0 || fault.nth == count;
            if !fires {
                continue;
            }
            match fault.action {
                FaultAction::Panic => panic!("injected fault at {}", site.label()),
                FaultAction::Delay(d) => std::thread::sleep(d),
                FaultAction::Disturb(d) => disturbance = Some(d),
            }
        }
        disturbance
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn persist_disturbance_fires_on_the_armed_nth_write() {
            let _guard = install(FaultPlan::new().disturb_at(PersistDisturbance::Corrupt, 2));
            assert_eq!(persist_disturbance(), None, "first write is clean");
            assert_eq!(
                persist_disturbance(),
                Some(PersistDisturbance::Corrupt),
                "second write is disturbed"
            );
            assert_eq!(persist_disturbance(), None, "third write is clean again");
            // `hit` ignores disturbance actions: an engine-loop hit at
            // the persist site never injects storage faults.
            hit(FaultSite::Persist);
        }

        #[test]
        fn uninstalled_persist_writes_are_clean() {
            assert_eq!(persist_disturbance(), None);
        }

        #[test]
        fn hit_fires_only_on_the_armed_nth() {
            let _guard = install(FaultPlan::new().panic_at(FaultSite::Ballot, 3));
            hit(FaultSite::Ballot);
            hit(FaultSite::Push); // other sites unaffected
            hit(FaultSite::Ballot);
            let caught = std::panic::catch_unwind(|| hit(FaultSite::Ballot));
            assert!(caught.is_err(), "third ballot hit fires");
            hit(FaultSite::Ballot); // fourth hit: fired already, inert
        }

        #[test]
        fn uninstalled_hits_are_inert() {
            hit(FaultSite::ScratchReset);
            hit(FaultSite::GridBuild);
        }
    }
}
