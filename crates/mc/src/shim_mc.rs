//! `McShims`: the model-checking instantiation. Every cell is an id
//! into the engine's location tables; every operation is a visible op
//! with a schedule point and happens-before bookkeeping. The blocking
//! entry points (lock, wait, join) are `#[track_caller]` (via the trait
//! declarations), so a deadlock finding points at the line *inside the
//! ported structure* where each thread blocked.
//!
//! This module owns all the crate's `unsafe`: the `UnsafeCell` payload
//! of `McMutex`, safe because the engine serializes model threads
//! (exactly one ever runs) and tracks which one owns the lock.

use crate::api::{AtomicU64Api, CondvarApi, JoinApi, MutexApi, Shims};
use crate::engine::{self, RmwKind};
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::time::Duration;

/// The model-checking shim family; only usable inside
/// [`Checker::check`](crate::Checker::check).
#[derive(Debug)]
pub struct McShims;

/// Engine-backed relaxed `AtomicU64`.
#[derive(Debug)]
pub struct McAtomicU64 {
    id: usize,
}

impl AtomicU64Api for McAtomicU64 {
    fn new(v: u64) -> Self {
        McAtomicU64 { id: engine::alloc_atomic(v) }
    }
    fn load(&self) -> u64 {
        engine::atomic_load(self.id)
    }
    fn store(&self, v: u64) {
        engine::atomic_store(self.id, v)
    }
    fn fetch_add(&self, v: u64) -> u64 {
        engine::atomic_rmw(self.id, RmwKind::Add, v)
    }
    fn fetch_max(&self, v: u64) -> u64 {
        engine::atomic_rmw(self.id, RmwKind::Max, v)
    }
    fn fetch_min(&self, v: u64) -> u64 {
        engine::atomic_rmw(self.id, RmwKind::Min, v)
    }
}

/// Engine-backed mutex. The payload lives here; the engine only tracks
/// ownership and the hand-off clock.
#[derive(Debug)]
pub struct McMutex<T> {
    mid: usize,
    cell: UnsafeCell<T>,
}

// Safety: the engine guarantees at most one model thread holds the
// lock (so at most one `McMutexGuard` derefs the cell), and model
// threads are serialized by the engine mutex, which also carries the
// memory fence between real OS threads.
unsafe impl<T: Send> Send for McMutex<T> {}
unsafe impl<T: Send> Sync for McMutex<T> {}

/// Guard for [`McMutex`]; unlocks (as a visible op) on drop.
pub struct McMutexGuard<'a, T: Send + 'static> {
    mx: &'a McMutex<T>,
}

impl<T: Send + 'static> Deref for McMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // Safety: guard existence == engine-tracked ownership.
        unsafe { &*self.mx.cell.get() }
    }
}

impl<T: Send + 'static> DerefMut for McMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: as for deref; `&mut self` gives uniqueness.
        unsafe { &mut *self.mx.cell.get() }
    }
}

impl<T: Send + 'static> Drop for McMutexGuard<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Unwinding (model assertion or engine abort): release
            // ownership without a schedule point — a schedule point
            // could itself unwind, and a double panic aborts the
            // whole test process.
            engine::mutex_unlock_quiet(self.mx.mid);
        } else {
            engine::mutex_unlock(self.mx.mid);
        }
    }
}

impl<T: Send + 'static> MutexApi<T> for McMutex<T> {
    type Guard<'a>
        = McMutexGuard<'a, T>
    where
        T: 'a;
    fn new(t: T) -> Self {
        McMutex { mid: engine::alloc_mutex(), cell: UnsafeCell::new(t) }
    }
    fn lock_clean(&self) -> McMutexGuard<'_, T> {
        engine::mutex_lock(self.mid, Location::caller());
        McMutexGuard { mx: self }
    }
}

/// Engine-backed condvar.
#[derive(Debug)]
pub struct McCondvar {
    cid: usize,
}

impl CondvarApi for McCondvar {
    fn new() -> Self {
        McCondvar { cid: engine::alloc_cv() }
    }
}

/// Handle to a model thread; `join` is a visible op.
#[derive(Debug)]
pub struct McJoinHandle {
    target: usize,
}

impl JoinApi for McJoinHandle {
    fn join(self) {
        engine::join_thread(self.target, Location::caller());
    }
}

impl Shims for McShims {
    type AtomicU64 = McAtomicU64;
    type Mutex<T: Send + 'static> = McMutex<T>;
    type Condvar = McCondvar;
    type JoinHandle = McJoinHandle;

    fn spawn<F: FnOnce() + Send + 'static>(f: F) -> McJoinHandle {
        McJoinHandle { target: engine::spawn_thread(Box::new(f)) }
    }

    fn cv_wait_timeout<'a, T: Send + 'static>(
        cv: &McCondvar,
        guard: McMutexGuard<'a, T>,
        _timeout: Duration,
    ) -> (McMutexGuard<'a, T>, bool)
    where
        McMutex<T>: 'a,
    {
        // The engine's wait releases and reacquires the mutex itself;
        // forget the guard (skipping its unlock-on-drop) and mint a
        // fresh one for the reacquired lock.
        let mx = guard.mx;
        std::mem::forget(guard);
        let timed_out = engine::cv_wait(cv.cid, mx.mid, Location::caller());
        (McMutexGuard { mx }, timed_out)
    }

    fn cv_notify_all(cv: &McCondvar) {
        engine::cv_notify_all(cv.cid);
    }
}
