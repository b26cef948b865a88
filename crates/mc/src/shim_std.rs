//! `StdShims`: the production instantiation. Every method is an
//! `#[inline(always)]` delegation to the `std` primitive, so a
//! structure generic over [`Shims`](crate::Shims) monomorphizes to
//! exactly the code it replaced. The benchmark's saturating workloads,
//! compared run against run, gate on this staying true.

use crate::api::{AtomicI64Api, AtomicU64Api, CondvarApi, DataApi, JoinApi, MutexApi, Shims};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The zero-cost production shim family (plain `std::sync` types).
#[derive(Debug)]
pub struct StdShims;

impl AtomicU64Api for AtomicU64 {
    #[inline(always)]
    fn new(v: u64) -> Self {
        AtomicU64::new(v)
    }
    #[inline(always)]
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }
    #[inline(always)]
    fn store(&self, v: u64, order: Ordering) {
        AtomicU64::store(self, v, order)
    }
    #[inline(always)]
    fn fetch_add(&self, v: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_add(self, v, order)
    }
    #[inline(always)]
    fn fetch_max(&self, v: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_max(self, v, order)
    }
    #[inline(always)]
    fn fetch_min(&self, v: u64, order: Ordering) -> u64 {
        AtomicU64::fetch_min(self, v, order)
    }
}

impl AtomicI64Api for AtomicI64 {
    #[inline(always)]
    fn new(v: i64) -> Self {
        AtomicI64::new(v)
    }
    #[inline(always)]
    fn load(&self, order: Ordering) -> i64 {
        AtomicI64::load(self, order)
    }
    #[inline(always)]
    fn store(&self, v: i64, order: Ordering) {
        AtomicI64::store(self, v, order)
    }
    #[inline(always)]
    fn fetch_add(&self, v: i64, order: Ordering) -> i64 {
        AtomicI64::fetch_add(self, v, order)
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

/// Safe mutex-backed plain cell; only models use `Data`, so this is
/// never on a production hot path.
#[derive(Debug)]
pub struct StdData<T>(Mutex<T>);

impl<T: Copy + Send + 'static> DataApi<T> for StdData<T> {
    #[inline(always)]
    fn new(v: T) -> Self {
        StdData(Mutex::new(v))
    }
    #[inline(always)]
    fn get(&self) -> T {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
    #[inline(always)]
    fn set(&self, v: T) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = v;
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
    type AtomicI64 = AtomicI64;
    type Mutex<T: Send + 'static> = Mutex<T>;
    type Condvar = Condvar;
    type Data<T: Copy + Send + 'static> = StdData<T>;
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
