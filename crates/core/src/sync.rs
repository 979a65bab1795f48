//! The crate-wide synchronization facade.
//!
//! Every module in `simdx_core` that needs a lock, a condvar or an
//! atomic imports it from here instead of `std::sync` directly (the
//! `simdx-lint` `atomic-facade` rule enforces this for atomics). In the
//! default build the facade is a zero-cost re-export of `std::sync`.
//!
//! Under the `model` feature the atomic types are replaced by thin
//! instrumented shims with the same API: every atomic operation
//! delegates to `std` *and* reports to [`model`] — a global operation
//! counter plus an optional yield hook. The deterministic interleaving
//! harness (`tests/model_interleave.rs` at the workspace root, run via
//! `cargo test --features model`) uses that to observe how many atomic
//! transitions a scenario performs and to inject schedule points, so
//! the `Ordering::Relaxed` choices documented at each `// ORDERING:`
//! site are exercised under explicitly enumerated interleavings rather
//! than whatever the test machine happens to produce.
//!
//! The shims intentionally preserve the caller-requested memory
//! ordering when delegating (they never silently upgrade to `SeqCst`),
//! so a protocol bug that only an ordering could mask is not hidden by
//! the instrumentation.

// Lock types are never shimmed: the model harness drives its scenarios
// cooperatively (one step at a time on one OS thread), so `std`'s
// mutexes and condvars behave identically under it.
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Atomic types and memory orderings; `std::sync::atomic` by default,
/// instrumented shims under the `model` feature.
#[cfg(not(feature = "model"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

/// Instrumentation surface for the `model` feature: a process-global
/// atomic-operation counter and an optional yield hook invoked before
/// every shimmed atomic operation.
#[cfg(feature = "model")]
pub mod model {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    static OPS: AtomicU64 = AtomicU64::new(0);
    /// The yield hook as a `fn()` pointer (0 = none). Stored as a
    /// `usize` so registration itself is lock-free and cannot deadlock
    /// against the operations it instruments.
    static HOOK: AtomicUsize = AtomicUsize::new(0);

    /// Atomic operations performed through the facade since the last
    /// [`reset_ops`], process-wide.
    pub fn op_count() -> u64 {
        // ORDERING: a monotone diagnostic counter read by assertions
        // after the scenario has fully quiesced; Relaxed suffices.
        OPS.load(Ordering::Relaxed)
    }

    /// Resets the operation counter to zero.
    pub fn reset_ops() {
        // ORDERING: see `op_count` — diagnostic counter only.
        OPS.store(0, Ordering::Relaxed)
    }

    /// Registers (or clears, with `None`) a hook invoked before every
    /// shimmed atomic operation. The hook must not itself perform
    /// facade atomics, or it recurses.
    pub fn set_yield_hook(hook: Option<fn()>) {
        // ORDERING: the hook is installed before a scenario starts and
        // cleared after it ends, always from the single harness thread;
        // Relaxed publication is sufficient for that protocol.
        HOOK.store(hook.map_or(0, |f| f as usize), Ordering::Relaxed);
    }

    /// Called by every shim operation: bumps the counter, fires the
    /// hook if one is installed.
    pub(super) fn trace() {
        // ORDERING: diagnostic counter; no data is published under it.
        OPS.fetch_add(1, Ordering::Relaxed);
        // ORDERING: paired with the Relaxed store in `set_yield_hook`
        // (single-installer protocol; see there).
        let raw = HOOK.load(Ordering::Relaxed);
        if raw != 0 {
            // SAFETY: the only non-zero values ever stored into HOOK
            // are `fn()` pointers cast in `set_yield_hook`, and `fn()`
            // pointers round-trip losslessly through `usize` on every
            // supported platform.
            let hook: fn() = unsafe { std::mem::transmute::<usize, fn()>(raw) };
            hook();
        }
    }
}

#[cfg(feature = "model")]
pub mod atomic {
    //! Instrumented drop-in replacements for the `std::sync::atomic`
    //! types the crate uses. Only the method surface `simdx_core`
    //! actually calls is provided — extend it as call sites appear.
    pub use std::sync::atomic::Ordering;

    macro_rules! shim_atomic {
        ($name:ident, $inner:path, $value:ty) => {
            /// Instrumented shim over the `std` atomic of the same
            /// name; see the module docs.
            #[derive(Debug, Default)]
            pub struct $name($inner);

            impl $name {
                pub const fn new(v: $value) -> Self {
                    Self(<$inner>::new(v))
                }

                pub fn load(&self, order: Ordering) -> $value {
                    super::model::trace();
                    self.0.load(order)
                }

                pub fn store(&self, v: $value, order: Ordering) {
                    super::model::trace();
                    self.0.store(v, order)
                }

                pub fn swap(&self, v: $value, order: Ordering) -> $value {
                    super::model::trace();
                    self.0.swap(v, order)
                }

                // Not traced: consuming the atomic is not a concurrent
                // operation (exclusive ownership is proof of quiescence).
                pub fn into_inner(self) -> $value {
                    self.0.into_inner()
                }

                pub fn compare_exchange(
                    &self,
                    current: $value,
                    new: $value,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$value, $value> {
                    super::model::trace();
                    self.0.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    macro_rules! shim_fetch_ops {
        ($name:ident, $value:ty) => {
            impl $name {
                pub fn fetch_add(&self, v: $value, order: Ordering) -> $value {
                    super::model::trace();
                    self.0.fetch_add(v, order)
                }

                pub fn fetch_sub(&self, v: $value, order: Ordering) -> $value {
                    super::model::trace();
                    self.0.fetch_sub(v, order)
                }

                pub fn fetch_or(&self, v: $value, order: Ordering) -> $value {
                    super::model::trace();
                    self.0.fetch_or(v, order)
                }
            }
        };
    }

    shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    shim_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    shim_fetch_ops!(AtomicU32, u32);
    shim_fetch_ops!(AtomicU64, u64);
    shim_fetch_ops!(AtomicUsize, usize);
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_atomics_roundtrip() {
        use super::atomic::{AtomicBool, AtomicU64, Ordering};
        let flag = AtomicBool::new(false);
        // ORDERING: single-threaded unit test; any ordering is correct.
        assert!(!flag.swap(true, Ordering::Relaxed));
        assert!(flag.load(Ordering::Relaxed));
        let n = AtomicU64::new(40);
        assert_eq!(n.fetch_add(2, Ordering::Relaxed), 40);
        assert_eq!(n.load(Ordering::Relaxed), 42);
    }

    #[cfg(feature = "model")]
    #[test]
    fn model_shims_count_operations() {
        use super::atomic::{AtomicU64, Ordering};
        let before = super::model::op_count();
        let n = AtomicU64::new(0);
        // ORDERING: single-threaded unit test; any ordering is correct.
        n.fetch_add(1, Ordering::Relaxed);
        n.load(Ordering::Relaxed);
        n.store(7, Ordering::Relaxed);
        assert!(super::model::op_count() >= before + 3);
    }
}
