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

use crate::sync::{Mutex, MutexGuard, PoisonError};

use crate::par::WorkerPool;

/// Idle worker pools retained per [`PoolStash`]. Checkouts beyond this
/// still succeed (they spawn), but check-ins beyond it drop the pool —
/// a burst of concurrent queries does not permanently pin its
/// high-water mark of OS threads.
pub const MAX_IDLE_POOLS: usize = 8;

/// A stash of idle [`WorkerPool`]s of one width; see the module docs.
pub struct PoolStash {
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
    pub fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The worker count of every pool this stash hands out.
    pub fn width(&self) -> usize {
        self.width
    }

    fn lock(&self) -> MutexGuard<'_, Vec<WorkerPool>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks a pool out for one query: pops
    /// an idle pool or spawns a fresh one of the stash width. `None`
    /// iff this is a serial (width 1) stash. Dropping the lease checks
    /// the pool back in; a poisoned pool is discarded there.
    pub fn checkout(&self) -> Option<PoolLease<'_>> {
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
    // Exercised by this module's tests and (via the `model` re-export)
    // the workspace interleaving harness; unused in production builds.
    #[cfg_attr(not(feature = "model"), allow(dead_code))]
    pub fn idle_pools(&self) -> usize {
        self.lock().len()
    }
}

/// A checked-out [`WorkerPool`]; derefs to the pool and checks it back
/// in on drop (unless poisoned — then the pool is dropped, joining its
/// threads, and the next checkout spawns a replacement).
pub struct PoolLease<'a> {
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
