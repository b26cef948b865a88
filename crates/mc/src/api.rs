//! The shim trait family: the sync surface a ported structure is
//! allowed to use.
//!
//! A structure that wants model-checking coverage becomes generic over
//! [`Shims`] instead of naming `std::sync` types directly. Production
//! code instantiates it with [`crate::StdShims`] — every method is an
//! `#[inline(always)]` delegation to the `std` primitive, so the
//! monomorphized result is the direct code (the benchmark's saturating
//! workloads, compared run against run, gate this). Model tests
//! instantiate [`crate::McShims`], which routes every access through
//! the cooperative scheduler and the happens-before checker.
//!
//! The surface is deliberately the *subset* the ported structures
//! need, not all of `std::sync` — a smaller surface is easier to give
//! faithful model semantics. Its atomics are relaxed `u64` cells: a
//! cell publishes nothing but its own value, so anything that must
//! publish other memory goes through [`Shims::Mutex`].

use std::ops::DerefMut;

/// Shim for `std::sync::atomic::AtomicU64`, every access `Relaxed`.
/// A signed value is stored bit-cast (`v as u64`); two's-complement
/// wrapping add in `u64` space is `i64` add.
pub trait AtomicU64Api: Send + Sync + 'static {
    /// New cell holding `v`.
    fn new(v: u64) -> Self;
    /// Relaxed load.
    fn load(&self) -> u64;
    /// Relaxed store.
    fn store(&self, v: u64);
    /// Relaxed wrapping add; returns the previous value.
    fn fetch_add(&self, v: u64) -> u64;
    /// Relaxed max; returns the previous value.
    fn fetch_max(&self, v: u64) -> u64;
    /// Relaxed min; returns the previous value.
    fn fetch_min(&self, v: u64) -> u64;
}

/// Shim for `std::sync::Mutex`.
///
/// Only `lock_clean` (the poison-tolerant lock the daemon code uses —
/// recover the guard from a poisoned mutex instead of cascading the
/// panic) is exposed: under the model there is no poisoning, and
/// exposing plain `lock().unwrap()` would let ported code reintroduce
/// the cascade-kill bug PR 5 fixed.
pub trait MutexApi<T: Send>: Send + Sync + 'static {
    /// The guard type; derefs to the protected value.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;
    /// New mutex around `t`.
    #[track_caller]
    fn new(t: T) -> Self;
    /// Lock, recovering from poisoning (std) / never poisoned (mc).
    #[track_caller]
    fn lock_clean(&self) -> Self::Guard<'_>;
}

/// Shim for `std::sync::Condvar`. Waits and notifies go through
/// [`Shims::cv_wait`] / [`Shims::cv_notify_all`] because the
/// mc implementation needs engine context the condvar alone lacks.
pub trait CondvarApi: Send + Sync + 'static {
    /// New condition variable.
    #[track_caller]
    fn new() -> Self;
}

/// Shim for `std::thread::JoinHandle<()>`.
pub trait JoinApi {
    /// Join the thread; propagates model aborts under mc.
    #[track_caller]
    fn join(self);
}

/// The full shim family. See the module docs; production code uses
/// `StdShims`, model tests use `McShims`.
pub trait Shims: Sized + Send + Sync + 'static {
    /// Relaxed `AtomicU64` shim.
    type AtomicU64: AtomicU64Api;
    /// `Mutex` shim.
    type Mutex<T: Send + 'static>: MutexApi<T>;
    /// `Condvar` shim.
    type Condvar: CondvarApi;
    /// Thread join handle.
    type JoinHandle: JoinApi;

    /// Spawn a thread (a model thread under mc).
    #[track_caller]
    fn spawn<F: FnOnce() + Send + 'static>(f: F) -> Self::JoinHandle;

    /// Wait on `cv` with `guard`'s mutex released until notified (or,
    /// under std, woken spuriously); returns the reacquired guard. There
    /// is no timed wait: under mc a thread waiting here that nobody can
    /// notify is part of a deadlock.
    #[track_caller]
    fn cv_wait<'a, T: Send + 'static>(
        cv: &Self::Condvar,
        guard: <Self::Mutex<T> as MutexApi<T>>::Guard<'a>,
    ) -> <Self::Mutex<T> as MutexApi<T>>::Guard<'a>
    where
        Self::Mutex<T>: 'a;

    /// Wake all waiters on `cv`.
    #[track_caller]
    fn cv_notify_all(cv: &Self::Condvar);
}
