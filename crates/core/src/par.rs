//! Deterministic host-side parallel runtime for the engine.
//!
//! The engine's per-iteration hot path (worklist classification, the
//! three compute-kernel task loops, the pull-candidate sweeps and the
//! warp-chunked ballot scan) is data-parallel, but the *report* must be
//! bit-equal to the serial engine: identical metadata, identical bins,
//! identical simulated cycle counts. The runtime here provides the two
//! building blocks that make that possible:
//!
//! * [`WorkerPool`] — a persistent pool of OS threads executing one
//!   shared closure per parallel region, indexed by worker id. The
//!   submitting thread participates as worker 0, so `threads = N` means
//!   `N` CPUs busy, and the pool is reused across all iterations of a
//!   run (no per-region spawn cost).
//! * `chunk_range` — the static, contiguous partition both modes use.
//!   Contiguous chunks concatenated in worker order reproduce the serial
//!   processing order exactly; every parallel stage in the engine merges
//!   its per-worker output that way (or replays it in an explicit
//!   deterministic sort order, for the online-filter bin records).
//!
//! Worker closures are `Fn(usize) + Sync` borrowed for the duration of
//! one [`WorkerPool::run`] call. Mutable state is handed out through
//! `SliceShards`, which splits a slice into disjoint per-worker
//! ranges; the pool's "one invocation per worker index per region"
//! guarantee makes that aliasing-free.
//!
//! Only [`WorkerPool::new`] / [`WorkerPool::run`] and [`WorkerPanic`]
//! are public API (plus [`WorkerPool::try_run`] and
//! [`WorkerPool::is_poisoned`], which the interleaving harness drives);
//! the engine's sharded regions, the partition helpers and
//! `SliceShards` are crate-internal.

//! Worker panics are *contained*: [`WorkerPool::try_run`] catches a
//! panic on any worker (including the submitting thread), still drains
//! the epoch so no worker is left touching the borrowed job, and
//! returns a [`WorkerPanic`] describing the first failure. The pool is
//! then **poisoned** — the sharding invariants of the aborted region
//! may not hold, so every subsequent `try_run` refuses with the stored
//! panic until the pool is rebuilt (the session's pool stash discards
//! a poisoned pool at lease check-in and spawns a replacement at the
//! next checkout). The panicking [`WorkerPool::run`] wrapper keeps the
//! fail-fast behaviour for callers without an error path.
//!
//! # Sharing model
//!
//! `WorkerPool` is `Send + Sync` (asserted at the bottom of this
//! module), but a pool runs **one region at a time**: `run` hands the
//! single shared job slot to every worker and blocks until the epoch
//! drains, so two overlapping regions on one pool would serialize at
//! best and interleave worker indices at worst. Concurrent queries
//! therefore never share a pool — `crate::pool::PoolStash` leases each
//! query its own pool for the query's duration, which also confines
//! poisoning to the query that caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use crate::sync::{Arc, Condvar, Mutex};

/// A contained panic from one pool worker: the typed form of what used
/// to be a process abort. Converts into
/// [`crate::error::SimdxError::WorkerPanicked`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Worker index that panicked (0 is the submitting thread).
    pub worker: usize,
    /// The panic payload, stringified.
    pub payload: String,
}

/// Best-effort stringification of a panic payload (`&str` and `String`
/// payloads — i.e. everything `panic!` produces — round-trip exactly).
pub(crate) fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Contiguous chunk `[start, end)` of `len` items for worker `w` of
/// `parts`: the canonical deterministic partition.
pub(crate) fn chunk_range(len: usize, parts: usize, w: usize) -> (usize, usize) {
    debug_assert!(w < parts);
    let chunk = len.div_ceil(parts.max(1)).max(1);
    ((w * chunk).min(len), ((w + 1) * chunk).min(len))
}

/// [`chunk_range`] with boundaries rounded to `align` multiples (the
/// final fence clamps to `len`): partitions `ceil(len / align)` whole
/// units, so no worker range ever splits a unit. The engine uses this
/// to keep ballot-scan and candidate-sweep partitions on 32-vertex
/// warp chunks and bitmap partitions on 64-vertex words.
pub(crate) fn chunk_range_aligned(
    len: usize,
    parts: usize,
    w: usize,
    align: usize,
) -> (usize, usize) {
    debug_assert!(align > 0);
    let (u0, u1) = chunk_range(len.div_ceil(align), parts, w);
    let lo = u0 * align;
    let hi = (u1 * align).min(len);
    if lo >= hi {
        // Worker past the end of a short range: canonicalize to an
        // empty range whose bound is still aligned *and* in bounds, so
        // callers can both slice it and assert alignment.
        let floor = len - len % align;
        (floor, floor)
    } else {
        (lo, hi)
    }
}

type Job<'a> = &'a (dyn Fn(usize) + Sync);

struct PoolState {
    /// Borrowed job pointer, lifetime-erased; valid exactly while
    /// `remaining > 0` for the current epoch (the submitter blocks in
    /// [`WorkerPool::run`] until every worker has finished with it).
    job: Option<Job<'static>>,
    epoch: u64,
    remaining: usize,
    /// First worker panic of the current epoch, if any.
    epoch_panic: Option<WorkerPanic>,
    /// Sticky: set when any region panicked; the pool refuses further
    /// regions until rebuilt.
    poisoned: Option<WorkerPanic>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Persistent worker pool; see the module docs.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// `[0, 1, ..., threads]` — unit fences for per-worker slot shards.
    unit_fences: Vec<u32>,
}

impl WorkerPool {
    /// Creates a pool presenting `threads` workers. Worker 0 is the
    /// submitting thread itself, so only `threads - 1` OS threads are
    /// spawned; `threads <= 1` spawns none and `run` degenerates to an
    /// inline call.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                remaining: 0,
                epoch_panic: None,
                poisoned: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("simdx-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn engine worker")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
            unit_fences: (0..=threads as u32).collect(),
        }
    }

    /// Runs `f(w, &mut workers[w])` on every worker concurrently
    /// (`workers.len()` must equal [`Self::threads`]). A contained
    /// worker panic comes back as `Err`.
    pub(crate) fn try_for_each_worker<T: Send>(
        &self,
        workers: &mut [T],
        f: impl Fn(usize, &mut T) + Sync,
    ) -> Result<(), WorkerPanic> {
        assert_eq!(workers.len(), self.threads, "one scratch slot per worker");
        let slots = SliceShards::new(workers, &self.unit_fences);
        self.try_run(&|w| {
            // SAFETY: each worker index runs exactly once per region.
            let (_, slot) = unsafe { slots.shard(w) };
            f(w, &mut slot[0]);
        })
    }

    /// Runs `f(w, &mut workers[w], off, shard, off2, shard2)` on every
    /// worker concurrently, where `shard` is the `[bounds[w],
    /// bounds[w+1])` range of `data` and `shard2` the `[bounds2[w],
    /// bounds2[w+1])` range of `data2` — the destination-sharded form
    /// the push kernel uses: each worker gets its vertex range of
    /// `metadata_curr` and the matching word-aligned window of the
    /// changed set's bitmap, so first-change dedup is an atomic-free
    /// bit test. Each `bounds` must be a monotone fence list with
    /// `threads + 1` entries covering its slice. A worker panic is
    /// contained and returned, as in [`Self::try_for_each_worker`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_for_each_worker_sharded2<T: Send, U: Send, V: Send>(
        &self,
        workers: &mut [T],
        data: &mut [U],
        bounds: &[u32],
        data2: &mut [V],
        bounds2: &[u32],
        f: impl Fn(usize, &mut T, usize, &mut [U], usize, &mut [V]) + Sync,
    ) -> Result<(), WorkerPanic> {
        assert_eq!(workers.len(), self.threads, "one scratch slot per worker");
        assert_eq!(bounds.len(), self.threads + 1, "one shard per worker");
        assert_eq!(bounds2.len(), self.threads + 1, "one shard per worker");
        let slots = SliceShards::new(workers, &self.unit_fences);
        let shards = SliceShards::new(data, bounds);
        let shards2 = SliceShards::new(data2, bounds2);
        self.try_run(&|w| {
            // SAFETY: each worker index runs exactly once per region.
            let (_, slot) = unsafe { slots.shard(w) };
            // SAFETY: same claim, second shard set.
            let (off, shard) = unsafe { shards.shard(w) };
            // SAFETY: same claim, third shard set.
            let (off2, shard2) = unsafe { shards2.shard(w) };
            f(w, &mut slot[0], off, shard, off2, shard2);
        })
    }

    /// Number of workers (including the submitting thread).
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a region panicked since construction. A poisoned pool
    /// refuses further regions; rebuild it (the session `Runtime` does
    /// so transparently before the next run).
    pub fn is_poisoned(&self) -> bool {
        self.shared
            .state
            .lock()
            .expect("pool lock")
            .poisoned
            .is_some()
    }

    /// Runs `job(w)` once for every worker index `w in 0..threads`,
    /// returning when all invocations completed — even on failure, so
    /// the borrowed job is never left referenced. Returns the first
    /// [`WorkerPanic`] if any worker (including the submitter, worker 0)
    /// panicked; the pool is then poisoned and every later call returns
    /// that same panic without running.
    pub fn try_run(&self, job: &(dyn Fn(usize) + Sync)) -> Result<(), WorkerPanic> {
        if self.threads == 1 {
            if let Some(p) = &self.shared.state.lock().expect("pool lock").poisoned {
                return Err(p.clone());
            }
            return match catch_unwind(AssertUnwindSafe(|| job(0))) {
                Ok(()) => Ok(()),
                Err(payload) => {
                    let panic = WorkerPanic {
                        worker: 0,
                        payload: payload_string(&*payload),
                    };
                    self.shared.state.lock().expect("pool lock").poisoned = Some(panic.clone());
                    Err(panic)
                }
            };
        }
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            if let Some(p) = &state.poisoned {
                return Err(p.clone());
            }
            debug_assert!(state.remaining == 0, "overlapping pool regions");
            // SAFETY: lifetime erasure only — the 'static is a lie the
            // epoch protocol makes unobservable. The erased pointer is
            // dereferenced exclusively by workers between this store
            // and the completion wait below, and this function does not
            // return (not even by panic: the submitter's own panic is
            // caught and deferred) before `remaining == 0` and the slot
            // is cleared, so no worker can still hold the reference
            // when the borrow of `job` ends.
            state.job = Some(unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) });
            state.epoch += 1;
            state.remaining = self.threads - 1;
            state.epoch_panic = None;
            self.shared.work_cv.notify_all();
        }
        // The submitter is worker 0. Defer its panic until the other
        // workers are done with the borrowed job (drain the epoch).
        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.remaining > 0 {
            state = self.shared.done_cv.wait(state).expect("pool wait");
        }
        state.job = None;
        // A submitter panic wins the report (lowest worker index); any
        // concurrent worker panic still poisons identically.
        let panic = match mine {
            Err(payload) => Some(WorkerPanic {
                worker: 0,
                payload: payload_string(&*payload),
            }),
            Ok(()) => state.epoch_panic.take(),
        };
        match panic {
            Some(p) => {
                state.poisoned = Some(p.clone());
                Err(p)
            }
            None => Ok(()),
        }
    }

    /// Panicking wrapper over [`Self::try_run`] for callers without an
    /// error path (tests, benches).
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        if let Err(p) = self.try_run(job) {
            panic!("engine worker {} panicked: {}", p.worker, p.payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break state.job.expect("job set for new epoch");
                }
                state = shared.work_cv.wait(state).expect("pool wait");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(w)));
        let mut state = shared.state.lock().expect("pool lock");
        if let Err(payload) = outcome {
            // First panic of the epoch wins the report; the rest are
            // dropped (they are almost always the same root cause).
            state.epoch_panic.get_or_insert_with(|| WorkerPanic {
                worker: w,
                payload: payload_string(&*payload),
            });
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Disjoint mutable shards of one slice, one per worker.
///
/// Construction records the shard boundaries; [`SliceShards::shard`]
/// hands out `&mut` views. Safety rests on the boundaries being
/// non-overlapping (checked at construction) and on each worker taking
/// only its own shard (the pool invokes each worker index exactly once
/// per region).
pub(crate) struct SliceShards<'a, T> {
    ptr: *mut T,
    len: usize,
    bounds: &'a [u32],
    /// Debug-build misuse detector: bit `w` set once shard `w` has been
    /// handed out. A second claim of the same index would alias a
    /// `&mut` — [`Self::shard`] asserts against it in debug builds
    /// (release builds keep the zero-cost contract).
    #[cfg(debug_assertions)]
    claimed: crate::sync::atomic::AtomicU64,
}

// SAFETY: shards are disjoint; cross-thread handoff of &mut T ranges is
// sound for T: Send.
unsafe impl<T: Send> Sync for SliceShards<'_, T> {}

impl<'a, T> SliceShards<'a, T> {
    /// Splits `slice` at `bounds` (a monotone fence list of `parts + 1`
    /// entries starting at 0 and ending at `slice.len()`).
    pub(crate) fn new(slice: &'a mut [T], bounds: &'a [u32]) -> Self {
        assert!(bounds.len() >= 2, "need at least one shard");
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().expect("non-empty") as usize, slice.len());
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "bounds monotone");
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            bounds,
            #[cfg(debug_assertions)]
            claimed: crate::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Shard `[bounds[w], bounds[w+1])` as a mutable slice, plus its
    /// starting offset in the underlying slice.
    ///
    /// # Safety
    ///
    /// The returned `&mut` aliases nothing only if the caller upholds
    /// both of:
    ///
    /// * `w` is a valid worker index: `w + 1 < bounds.len()` as passed
    ///   to [`SliceShards::new`] (out of range panics on the bounds
    ///   lookup — it never yields a wild slice — but is still a
    ///   contract violation);
    /// * each worker index is claimed **at most once** per
    ///   `SliceShards` instance, by exactly one thread — the
    ///   [`WorkerPool::run`] contract ("one invocation per worker index
    ///   per region"). Claiming the same `w` twice would hand out two
    ///   live `&mut` views of the same range.
    ///
    /// Debug builds enforce both with assertions (a claim ledger
    /// catches double handouts for the first 64 worker indices, which
    /// covers every pool width the engine constructs); release builds
    /// rely on the caller.
    // SAFETY: declared unsafe to push the two `# Safety` obligations
    // above onto the caller; the body itself only materializes the
    // `&mut` after the debug guards run.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn shard(&self, w: usize) -> (usize, &mut [T]) {
        debug_assert!(
            w + 1 < self.bounds.len(),
            "worker index {w} out of range for {} shards",
            self.bounds.len() - 1
        );
        #[cfg(debug_assertions)]
        if w < 64 {
            // ORDERING: the ledger is a debug-only misuse detector; the
            // fetch_or is already atomic read-modify-write, so two
            // racing claims of the same index cannot both observe a
            // clear bit regardless of memory ordering.
            let prev = self
                .claimed
                .fetch_or(1 << w, crate::sync::atomic::Ordering::Relaxed);
            debug_assert!(
                prev & (1 << w) == 0,
                "shard {w} handed out twice from one SliceShards"
            );
        }
        let lo = self.bounds[w] as usize;
        let hi = self.bounds[w + 1] as usize;
        debug_assert!(lo <= hi && hi <= self.len);
        (
            lo,
            std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo),
        )
    }
}

// The session's pool stash moves pools between querying threads, so
// `WorkerPool` must stay `Send + Sync` (it is, automatically: the job
// slot holds `&(dyn Fn(usize) + Sync)`, which is both). The assertion
// turns an accidental `!Send` field into a build failure instead of a
// distant type error inside `crate::pool`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorkerPool>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn chunk_ranges_cover_and_preserve_order() {
        for len in [0usize, 1, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8] {
                let mut got = Vec::new();
                for w in 0..parts {
                    let (lo, hi) = chunk_range(len, parts, w);
                    got.extend(lo..hi);
                }
                assert_eq!(got, (0..len).collect::<Vec<_>>(), "len={len} parts={parts}");
            }
        }
    }

    #[test]
    fn aligned_chunk_ranges_cover_without_splitting_units() {
        for len in [0usize, 1, 31, 32, 97, 1000] {
            for parts in [1usize, 2, 3, 8] {
                for align in [1usize, 32, 64] {
                    let mut got = Vec::new();
                    for w in 0..parts {
                        let (lo, hi) = chunk_range_aligned(len, parts, w, align);
                        assert!(lo <= hi && hi <= len, "range out of bounds");
                        assert!(lo % align == 0, "lo splits a unit");
                        assert!(hi % align == 0 || hi == len, "hi splits a unit");
                        got.extend(lo..hi);
                    }
                    assert_eq!(
                        got,
                        (0..len).collect::<Vec<_>>(),
                        "len={len} parts={parts} align={align}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_runs_every_worker_every_region() {
        let pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(&|w| {
                hits.fetch_add(1 << (8 * w), Ordering::Relaxed);
            });
        }
        // 100 (= 0x64) hits per worker, one byte lane each.
        assert_eq!(hits.load(Ordering::Relaxed), 0x6464_6464);
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let calls = AtomicU64::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_borrows_stack_data() {
        let data: Vec<u64> = (0..1000).collect();
        let partial = Mutex::new(vec![0u64; 4]);
        let pool = WorkerPool::new(4);
        pool.run(&|w| {
            let (lo, hi) = chunk_range(data.len(), 4, w);
            let sum: u64 = data[lo..hi].iter().sum();
            partial.lock().expect("lock")[w] = sum;
        });
        let total: u64 = partial.lock().expect("lock").iter().sum();
        assert_eq!(total, 999 * 1000 / 2);
    }

    #[test]
    fn worker_panic_is_contained_and_poisons() {
        let pool = WorkerPool::new(3);
        let err = pool
            .try_run(&|w| {
                if w == 2 {
                    panic!("worker boom");
                }
            })
            .expect_err("panic contained");
        assert_eq!(err.worker, 2);
        assert_eq!(err.payload, "worker boom");
        assert!(pool.is_poisoned());
        // Poisoned: further regions refuse with the same panic, without
        // running the job.
        let hits = AtomicU64::new(0);
        let again = pool.try_run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again, Err(err));
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn submitter_panic_is_contained_too() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run(&|w| {
                if w == 0 {
                    panic!("submitter boom");
                }
            })
            .expect_err("panic contained");
        assert_eq!(err.worker, 0);
        assert_eq!(err.payload, "submitter boom");
        assert!(pool.is_poisoned());
    }

    #[test]
    fn run_wrapper_panics_on_contained_panic() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 1 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn poisoned_pool_rebuilds_and_matches_serial() {
        // The recovery path the session Runtime uses: poison a pool,
        // rebuild it with the same width, and check the rebuilt pool's
        // deterministic merge order matches the serial result bit-for-bit.
        let data: Vec<u64> = (0..4096).map(|i| i * 2654435761 % 97).collect();
        let serial_sum: u64 = data.iter().sum();

        let pool = WorkerPool::new(4);
        assert!(pool
            .try_run(&|w| {
                if w == 3 {
                    panic!("injected");
                }
            })
            .is_err());
        assert!(pool.is_poisoned());

        let rebuilt = WorkerPool::new(pool.threads());
        drop(pool);
        let mut partial = vec![0u64; 4];
        rebuilt
            .try_for_each_worker(&mut partial, |w, slot| {
                let (lo, hi) = chunk_range(data.len(), 4, w);
                *slot = data[lo..hi].iter().sum();
            })
            .expect("rebuilt pool is clean");
        assert!(!rebuilt.is_poisoned());
        assert_eq!(partial.iter().sum::<u64>(), serial_sum);
    }

    #[test]
    fn pool_of_one_contains_panics() {
        let pool = WorkerPool::new(1);
        let err = pool
            .try_run(&|_| panic!("inline boom"))
            .expect_err("contained");
        assert_eq!(err.worker, 0);
        assert!(pool.is_poisoned());
        assert!(pool.try_run(&|_| {}).is_err(), "stays poisoned");
    }

    #[test]
    fn string_payloads_are_captured() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run(&|w| {
                if w == 1 {
                    panic!("formatted {}", 42);
                }
            })
            .expect_err("contained");
        assert_eq!(err.payload, "formatted 42");
    }

    #[test]
    fn sharded2_hands_out_both_slices() {
        let pool = WorkerPool::new(2);
        let mut scratch = vec![0usize; 2];
        let mut verts = vec![0u32; 10];
        let vbounds = [0u32, 6, 10];
        let mut words = vec![0u64; 3];
        let wbounds = [0u32, 1, 3];
        pool.try_for_each_worker_sharded2(
            &mut scratch,
            &mut verts,
            &vbounds,
            &mut words,
            &wbounds,
            |w, slot, off, shard, woff, wshard| {
                *slot = w + 1;
                for (i, x) in shard.iter_mut().enumerate() {
                    *x = (off + i) as u32;
                }
                for word in wshard.iter_mut() {
                    *word = woff as u64 + 1;
                }
            },
        )
        .expect("no worker panics");
        assert_eq!(scratch, vec![1, 2]);
        assert_eq!(verts, (0..10).collect::<Vec<u32>>());
        assert_eq!(words, vec![1, 2, 2]);
    }

    #[test]
    fn shards_are_disjoint_and_offset() {
        let mut data = vec![0u32; 10];
        let bounds = [0u32, 3, 3, 10];
        let shards = SliceShards::new(&mut data, &bounds);
        let pool = WorkerPool::new(3);
        pool.run(&|w| {
            // SAFETY: one claim per worker index per region.
            let (off, shard) = unsafe { shards.shard(w) };
            for (i, x) in shard.iter_mut().enumerate() {
                *x = (off + i) as u32 + 100 * (w as u32 + 1);
            }
        });
        assert_eq!(data, vec![100, 101, 102, 303, 304, 305, 306, 307, 308, 309]);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn shard_double_handout_trips_the_debug_ledger() {
        let mut data = vec![0u32; 4];
        let bounds = [0u32, 2, 4];
        let shards = SliceShards::new(&mut data, &bounds);
        // SAFETY: indices 0 and 1 are each claimed once, per contract.
        let _a = unsafe { shards.shard(0) };
        // SAFETY: as above — a distinct index, claimed once.
        let _b = unsafe { shards.shard(1) };
        // The ledger assertion fires *before* the aliasing view would
        // be materialized, so this misuse is caught, not UB.
        let again = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: deliberate contract violation; the debug ledger
            // panics before any slice is formed.
            let _ = unsafe { shards.shard(0) };
        }));
        assert!(again.is_err(), "double handout must panic in debug");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn shard_out_of_range_worker_trips_the_debug_assert() {
        let mut data = vec![0u32; 4];
        let bounds = [0u32, 2, 4];
        let shards = SliceShards::new(&mut data, &bounds);
        let oob = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: deliberate contract violation; the bounds
            // assertion panics before any slice is formed.
            let _ = unsafe { shards.shard(2) };
        }));
        assert!(oob.is_err(), "out-of-range worker index must panic");
    }
}
