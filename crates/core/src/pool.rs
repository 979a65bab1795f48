//! The poison-safe worker-pool stash backing concurrent query serving.
//!
//! [`PoolStash`] is a mutex-guarded stash of idle [`WorkerPool`]s of
//! one width, which makes [`crate::session::Runtime`] `Sync`: every
//! query checks a pool out for its duration, so two concurrent queries
//! never share one pool (a pool runs exactly one parallel region at a
//! time — `WorkerPool::try_run` asserts it). Poison safety falls out of
//! the protocol: a pool poisoned by a contained worker panic is
//! *discarded* at check-in instead of returned, so the next checkout
//! spawns a fresh pool and in-flight peers — each holding their own
//! pool — never observe the fault.
//!
//! The stash caps its *idle* inventory ([`MAX_IDLE_POOLS`]): a burst of
//! concurrency spawns freely, but the steady state retains only a
//! bounded set, so a long-lived service cannot accumulate dead pools.
//! The runtime's scratch-arena stash (`crate::session`) follows the
//! same protocol without the poison rule: an arena holds no state
//! across runs.
//!
//! Lock discipline: the stash holds its mutex only to push/pop — never
//! across a spawn or a run — so it cannot deadlock against the pool's
//! own state lock, and lock poisoning from a panicking *holder* is
//! impossible by construction (we still recover defensively via
//! [`PoisonError::into_inner`]).

use std::ops::Deref;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::par::WorkerPool;

/// Idle worker pools retained per [`PoolStash`]. Checkouts beyond this
/// still succeed (they spawn), but check-ins beyond it drop the pool —
/// a burst of concurrent queries does not permanently pin its
/// high-water mark of OS threads.
pub(crate) const MAX_IDLE_POOLS: usize = 8;

/// A stash of idle [`WorkerPool`]s of one width; see the module docs.
pub(crate) struct PoolStash {
    width: usize,
    idle: Mutex<Vec<WorkerPool>>,
}

impl std::fmt::Debug for PoolStash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolStash")
            .field("width", &self.width)
            .field("idle", &self.lock().len())
            .finish()
    }
}

impl PoolStash {
    /// A stash handing out pools presenting `width` workers each. A
    /// width of 1 is the serial runtime: [`Self::checkout`] returns
    /// `None` and no OS thread is ever spawned.
    pub(crate) fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The worker count of every pool this stash hands out.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    fn lock(&self) -> MutexGuard<'_, Vec<WorkerPool>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks a pool out for one query: pops
    /// an idle pool or spawns a fresh one of the stash width. `None`
    /// iff this is a serial (width 1) stash. Dropping the lease checks
    /// the pool back in; a poisoned pool is discarded there.
    pub(crate) fn checkout(&self) -> Option<PoolLease<'_>> {
        if self.width <= 1 {
            return None;
        }
        let pool = self
            .lock()
            .pop()
            .unwrap_or_else(|| WorkerPool::new(self.width));
        Some(PoolLease {
            stash: self,
            pool: Some(pool),
        })
    }

    /// Idle (checked-in) pools currently retained.
    #[cfg(test)]
    pub(crate) fn idle_pools(&self) -> usize {
        self.lock().len()
    }
}

/// A checked-out [`WorkerPool`]; derefs to the pool and checks it back
/// in on drop (unless poisoned — then the pool is dropped, joining its
/// threads, and the next checkout spawns a replacement).
pub(crate) struct PoolLease<'a> {
    stash: &'a PoolStash,
    pool: Option<WorkerPool>,
}

impl Deref for PoolLease<'_> {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        self.pool.as_ref().expect("pool present until drop")
    }
}

impl Drop for PoolLease<'_> {
    fn drop(&mut self) {
        let pool = self.pool.take().expect("pool present until drop");
        if !pool.is_poisoned() {
            let mut idle = self.stash.lock();
            if idle.len() < MAX_IDLE_POOLS {
                idle.push(pool);
            }
        }
    }
}

// The whole point of the stash: it is shareable across serving
// threads. (Its pools are `Send`; the mutex provides the
// synchronization.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PoolStash>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use simdx_lint::model::Schedules;

    #[test]
    fn serial_stash_never_hands_out_pools() {
        let stash = PoolStash::new(1);
        assert!(stash.checkout().is_none());
        assert_eq!(stash.idle_pools(), 0);
        let stash = PoolStash::new(0);
        assert_eq!(stash.width(), 1, "width clamps to 1");
        assert!(stash.checkout().is_none());
    }

    #[test]
    fn checkout_reuses_checked_in_pools() {
        let stash = PoolStash::new(2);
        let a = stash.checkout().expect("parallel stash");
        assert_eq!(a.threads(), 2);
        drop(a);
        assert_eq!(stash.idle_pools(), 1);
        let b = stash.checkout().expect("parallel stash");
        assert_eq!(stash.idle_pools(), 0, "idle pool was reused, not respawned");
        drop(b);
        assert_eq!(stash.idle_pools(), 1);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_pools() {
        let stash = PoolStash::new(2);
        let a = stash.checkout().expect("first");
        let b = stash.checkout().expect("second");
        // Both pools are live and independent: run disjoint regions.
        a.run(&|_| {});
        b.run(&|_| {});
        drop(a);
        drop(b);
        assert_eq!(stash.idle_pools(), 2);
    }

    #[test]
    fn poisoned_pools_are_discarded_at_checkin() {
        let stash = PoolStash::new(2);
        let lease = stash.checkout().expect("parallel stash");
        let res = lease.try_run(&|w| {
            if w == 1 {
                panic!("injected");
            }
        });
        assert!(res.is_err() && lease.is_poisoned());
        drop(lease);
        assert_eq!(stash.idle_pools(), 0, "poisoned pool discarded");
        let fresh = stash.checkout().expect("replacement spawned");
        assert!(!fresh.is_poisoned());
        fresh.run(&|_| {});
    }

    /// One thread checks a pool out, poisons it (a contained worker
    /// panic) and returns it; two others check out and return healthy
    /// pools. Under every interleaving of those steps no checkout sees a
    /// poisoned pool and the idle inventory keeps at most the two
    /// healthy ones.
    #[test]
    fn pool_stash_never_hands_out_poison_under_all_interleavings() {
        // T0: checkout, poison, drop. T1 and T2: checkout, drop.
        const COUNTS: [usize; 3] = [3, 2, 2];
        assert_eq!(Schedules::count(&COUNTS), 210);
        let mut schedules = 0;
        for schedule in Schedules::new(&COUNTS) {
            let stash = PoolStash::new(2);
            let mut pc = [0usize; 3];
            let mut leases: [Option<PoolLease<'_>>; 3] = [None, None, None];
            for &t in &schedule {
                let step = pc[t];
                pc[t] += 1;
                match (t, step) {
                    (_, 0) => {
                        let lease = stash.checkout().expect("width-2 stash always leases");
                        assert!(
                            !lease.is_poisoned(),
                            "a poisoned pool was handed out (schedule {schedule:?})"
                        );
                        leases[t] = Some(lease);
                    }
                    (0, 1) => {
                        let lease = leases[0].as_ref().expect("T0 checked out in step 0");
                        assert!(lease.try_run(&|_| panic!("injected")).is_err());
                        assert!(lease.is_poisoned(), "the panic poisons the pool");
                    }
                    // Drop = check-in, or discard if poisoned.
                    (0, 2) | (1, 1) | (2, 1) => leases[t] = None,
                    _ => unreachable!("schedule exceeds a thread's step budget"),
                }
            }
            // From 0 idle (everyone reused the one pool T0 then poisoned)
            // to 2 (three distinct pools, one discarded); never the
            // poisoned one.
            let idle = stash.idle_pools();
            assert!(idle <= 2, "schedule {schedule:?} left {idle} idle");
            let again = stash.checkout().expect("width-2 stash always leases");
            assert!(!again.is_poisoned());
            schedules += 1;
        }
        assert_eq!(schedules, 210, "full enumeration, no early exit");
    }

    #[test]
    fn idle_pool_inventory_is_capped() {
        let stash = PoolStash::new(2);
        let burst: Vec<_> = (0..MAX_IDLE_POOLS + 3)
            .map(|_| stash.checkout().expect("burst checkout"))
            .collect();
        drop(burst);
        assert_eq!(stash.idle_pools(), MAX_IDLE_POOLS);
    }
}
