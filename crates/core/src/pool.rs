//! Shared, poison-safe resource pools backing concurrent query serving.
//!
//! The session API (PR 4) kept its two mutable resources — the
//! [`WorkerPool`] and the per-metadata-type scratch arenas — in
//! `RefCell`s, which made [`crate::session::Runtime`] and
//! [`crate::session::BoundGraph`] accidentally `!Sync`: only one query
//! could ever be in flight per bound graph. This module replaces both
//! cells with check-out/check-in pools that are `Sync` by construction:
//!
//! * [`PoolStash`] — a mutex-guarded stash of idle [`WorkerPool`]s of
//!   one width. Every query checks a pool out for its duration, so two
//!   concurrent queries never share one pool (a pool runs exactly one
//!   parallel region at a time — `WorkerPool::try_run` asserts it).
//!   Poison safety falls out of the protocol: a pool poisoned by a
//!   contained worker panic is *discarded* at check-in instead of
//!   returned, so the next checkout spawns a fresh pool and in-flight
//!   peers — each holding their own pool — never observe the fault.
//! * [`ArenaPool`] — a mutex-guarded stash of idle scratch arenas keyed
//!   by the program's metadata [`TypeId`]. Queries check an arena out
//!   (or create one on a dry stash) and return it at completion, so `N`
//!   concurrent queries cost at most `N` live arenas per metadata type
//!   while a lone sequential caller reuses a single arena forever —
//!   the PR 4 amortization, minus the thread confinement.
//!
//! Both stashes cap their *idle* inventory ([`MAX_IDLE_POOLS`],
//! [`ArenaPool::cap_per_type`]): a burst of concurrency allocates
//! freely, but the steady state retains only a bounded set, so a
//! long-lived service cannot accumulate dead pools or arenas.
//!
//! Lock discipline: each stash holds its mutex only to push/pop — never
//! across a spawn, a run or an arena reset — so the stashes cannot
//! deadlock against each other or the pool's own state lock, and lock
//! poisoning from a panicking *holder* is impossible by construction
//! (we still recover defensively via [`PoisonError::into_inner`]).

use std::any::{Any, TypeId};
use std::collections::HashMap;
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

    /// Checks a pool out for one query (or one bind-time build): pops
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

/// A stash of idle scratch arenas keyed by metadata [`TypeId`]; see the
/// module docs. Arenas are type-erased as `Box<dyn Any + Send>`
/// (`AccProgram::Meta: Send + 'static` makes every
/// `IterScratch<P::Meta>` satisfy that), so one pool serves interleaved
/// BFS (`u32`) and PageRank (`f32`) queries without mixing their
/// buffers.
#[derive(Debug)]
pub(crate) struct ArenaPool {
    idle: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
    cap_per_type: usize,
}

impl ArenaPool {
    /// An empty pool retaining at most `cap_per_type` idle arenas per
    /// metadata type.
    pub(crate) fn new(cap_per_type: usize) -> Self {
        Self {
            idle: Mutex::new(HashMap::new()),
            cap_per_type: cap_per_type.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<TypeId, Vec<Box<dyn Any + Send>>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pops an idle arena of type `T`, or `None` when the caller should
    /// create one (the pool itself cannot: construction needs the
    /// session's worker count and bitmap pre-sizing).
    pub(crate) fn checkout<T: Any + Send>(&self) -> Option<T> {
        let boxed = self.lock().get_mut(&TypeId::of::<T>())?.pop()?;
        Some(*boxed.downcast::<T>().expect("arena stash keyed by TypeId"))
    }

    /// Returns an arena to the stash; beyond [`Self::cap_per_type`]
    /// idle entries of its type, it is dropped instead.
    pub(crate) fn checkin<T: Any + Send>(&self, arena: T) {
        let mut idle = self.lock();
        let slot = idle.entry(TypeId::of::<T>()).or_default();
        if slot.len() < self.cap_per_type {
            slot.push(Box::new(arena));
        }
    }

    /// Total idle arenas across every metadata type.
    pub(crate) fn idle_count(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }
}

// The whole point of these pools: both are shareable across serving
// threads. (Their contents are `Send`; the stash mutexes provide the
// synchronization.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PoolStash>();
    assert_send_sync::<ArenaPool>();
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

    #[test]
    fn arena_pool_roundtrips_by_type() {
        let pool = ArenaPool::new(4);
        assert_eq!(pool.checkout::<Vec<u32>>(), None, "dry stash");
        pool.checkin(vec![1u32, 2, 3]);
        pool.checkin(vec![0.5f32]);
        assert_eq!(pool.idle_count(), 2);
        assert_eq!(pool.checkout::<Vec<u32>>(), Some(vec![1u32, 2, 3]));
        assert_eq!(pool.checkout::<Vec<u32>>(), None, "u32 arena checked out");
        assert_eq!(pool.checkout::<Vec<f32>>(), Some(vec![0.5f32]));
    }

    #[test]
    fn arena_pool_caps_idle_inventory_per_type() {
        let pool = ArenaPool::new(2);
        for i in 0..5u32 {
            pool.checkin(vec![i]);
        }
        assert_eq!(pool.idle_count(), 2, "per-type cap holds");
        pool.checkin(vec![0.0f32]);
        assert_eq!(pool.idle_count(), 3, "cap is per type, not global");
    }
}
