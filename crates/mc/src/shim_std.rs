//! `StdShims`: the production instantiation. Every method is an
//! `#[inline(always)]` delegation to the `std` primitive, so a
//! structure generic over [`Shims`](crate::Shims) monomorphizes to
//! exactly the code it replaced. The benchmark's saturating workloads,
//! compared run against run, gate on this staying true.

use crate::api::{AtomicU64Api, CondvarApi, JoinApi, MutexApi, Shims};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The zero-cost production shim family (plain `std::sync` types).
#[derive(Debug)]
pub struct StdShims;

// ordering: Relaxed — every shim atomic is a relaxed cell by
// definition (`AtomicU64Api`): a counter, gauge or histogram field that
// publishes nothing but its own value and is read exact at quiescence.
// Whatever must publish other memory goes through `S::Mutex`.
const RELAXED: Ordering = Ordering::Relaxed;

impl AtomicU64Api for AtomicU64 {
    #[inline(always)]
    fn new(v: u64) -> Self {
        AtomicU64::new(v)
    }
    #[inline(always)]
    fn load(&self) -> u64 {
        AtomicU64::load(self, RELAXED)
    }
    #[inline(always)]
    fn store(&self, v: u64) {
        AtomicU64::store(self, v, RELAXED)
    }
    #[inline(always)]
    fn fetch_add(&self, v: u64) -> u64 {
        AtomicU64::fetch_add(self, v, RELAXED)
    }
    #[inline(always)]
    fn fetch_max(&self, v: u64) -> u64 {
        AtomicU64::fetch_max(self, v, RELAXED)
    }
    #[inline(always)]
    fn fetch_min(&self, v: u64) -> u64 {
        AtomicU64::fetch_min(self, v, RELAXED)
    }
}

impl<T: Send + 'static> MutexApi<T> for Mutex<T> {
    type Guard<'a>
        = MutexGuard<'a, T>
    where
        T: 'a;
    #[inline(always)]
    fn new(t: T) -> Self {
        Mutex::new(t)
    }
    #[inline(always)]
    fn lock_clean(&self) -> MutexGuard<'_, T> {
        // A poisoned registry/ring/queue mutex means a panicking
        // holder elsewhere; the data is a plain value, so recover the
        // guard instead of cascading the panic (the PR 5 fix).
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl CondvarApi for Condvar {
    #[inline(always)]
    fn new() -> Self {
        Condvar::new()
    }
}

impl JoinApi for std::thread::JoinHandle<()> {
    #[inline(always)]
    fn join(self) {
        // Worker panics already poisoned/aborted whatever they were
        // doing; joining is best-effort cleanup, so swallow the payload
        // rather than re-panic in the joiner.
        let _ = std::thread::JoinHandle::join(self);
    }
}

impl Shims for StdShims {
    type AtomicU64 = AtomicU64;
    type Mutex<T: Send + 'static> = Mutex<T>;
    type Condvar = Condvar;
    type JoinHandle = std::thread::JoinHandle<()>;

    #[inline(always)]
    fn spawn<F: FnOnce() + Send + 'static>(f: F) -> Self::JoinHandle {
        std::thread::spawn(f)
    }

    #[inline(always)]
    fn cv_wait_timeout<'a, T: Send + 'static>(
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool)
    where
        Mutex<T>: 'a,
    {
        let (guard, res) = cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
        (guard, res.timed_out())
    }

    #[inline(always)]
    fn cv_notify_all(cv: &Condvar) {
        cv.notify_all()
    }
}
