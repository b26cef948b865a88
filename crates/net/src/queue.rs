//! The bounded per-peer send queue: a small MPSC channel with
//! `try_send` producers and a blocking consumer, built on the
//! [`gcs_mc::Shims`] sync surface so the exact structure the transport
//! ships is the one the gcs-mc model checker explores
//! (crates/net/tests/mc_queue.rs; see docs/CONCURRENCY.md).
//!
//! Semantics are the subset the writer loop needs:
//!
//! - `try_send` never blocks: a full queue or a dead receiver is an
//!   error the caller counts as a drop (the paper's fire-and-forget
//!   send contract — the protocol recovers via its timers).
//! - `wake` tells the receiver to look at the world outside the queue
//!   (shutdown, a severed or kicked link, a heal). It is a sticky flag
//!   beside the queue, not an entry in it, so a full queue never loses
//!   one, and any number of wakes before the receiver looks are one.
//! - `recv` blocks with no timeout: it returns queued values first,
//!   then `Woken` once per raised flag, then `Disconnected` once every
//!   sender is gone. The transport holds no clock of its own; every
//!   timer is the protocol's.
//! - Dropping the receiver (writer death) turns every later `try_send`
//!   into `Disconnected`; dropping the last sender wakes the receiver
//!   so it can observe `Disconnected` instead of sleeping forever.
//!
//! All state sits behind one mutex, locked with the poison-tolerant
//! `lock_clean` discipline: a sender that panicked elsewhere must not
//! cascade-kill the writer loop (a dead writer looks exactly like a
//! partition).

use gcs_mc::{CondvarApi, MutexApi, Shims, StdShims};
use std::collections::VecDeque;
use std::sync::Arc;

/// `try_send` failure: the value comes back to the caller either way.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity.
    Full(T),
    /// The receiver is gone (writer death).
    Disconnected(T),
}

/// `recv` failure.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvError {
    /// The queue is drained and a sender called [`QueueSender::wake`]
    /// since the last `Woken`.
    Woken,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

struct Inner<T> {
    queue: VecDeque<T>,
    /// Raised by `wake`, cleared by the `recv` that reports it.
    woken: bool,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T: Send + 'static, S: Shims> {
    inner: S::Mutex<Inner<T>>,
    recv_cv: S::Condvar,
    cap: usize,
}

/// The producer half. Clone freely; the receiver learns `Disconnected`
/// when the last clone drops.
pub struct QueueSender<T: Send + 'static, S: Shims = StdShims> {
    shared: Arc<Shared<T, S>>,
}

/// The consumer half (single consumer). Dropping it fails all later
/// sends with `Disconnected`.
pub struct QueueReceiver<T: Send + 'static, S: Shims = StdShims> {
    shared: Arc<Shared<T, S>>,
}

/// A bounded queue holding at most `cap` values (minimum 1).
pub fn bounded<T: Send + 'static, S: Shims>(
    cap: usize,
) -> (QueueSender<T, S>, QueueReceiver<T, S>) {
    let shared = Arc::new(Shared {
        inner: S::Mutex::new(Inner {
            queue: VecDeque::new(),
            woken: false,
            senders: 1,
            receiver_alive: true,
        }),
        recv_cv: S::Condvar::new(),
        cap: cap.max(1),
    });
    (QueueSender { shared: Arc::clone(&shared) }, QueueReceiver { shared })
}

impl<T: Send + 'static, S: Shims> QueueSender<T, S> {
    /// Enqueues without blocking. Full and dead-receiver queues return
    /// the value so the caller can count the drop.
    pub fn try_send(&self, t: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.shared.inner.lock_clean();
        if !inner.receiver_alive {
            return Err(TrySendError::Disconnected(t));
        }
        if inner.queue.len() >= self.shared.cap {
            return Err(TrySendError::Full(t));
        }
        inner.queue.push_back(t);
        drop(inner);
        S::cv_notify_all(&self.shared.recv_cv);
        Ok(())
    }

    /// Makes the receiver's next `recv` that finds the queue drained
    /// return `Woken`. Outside the capacity check: a full queue still
    /// takes a wake.
    pub fn wake(&self) {
        self.shared.inner.lock_clean().woken = true;
        S::cv_notify_all(&self.shared.recv_cv);
    }
}

impl<T: Send + 'static, S: Shims> Clone for QueueSender<T, S> {
    fn clone(&self) -> Self {
        self.shared.inner.lock_clean().senders += 1;
        QueueSender { shared: Arc::clone(&self.shared) }
    }
}

impl<T: Send + 'static, S: Shims> Drop for QueueSender<T, S> {
    fn drop(&mut self) {
        let last = {
            let mut inner = self.shared.inner.lock_clean();
            inner.senders -= 1;
            inner.senders == 0
        };
        if last {
            // Wake a receiver parked in recv so it observes
            // Disconnected instead of sleeping forever.
            S::cv_notify_all(&self.shared.recv_cv);
        }
    }
}

impl<T: Send + 'static, S: Shims> QueueReceiver<T, S> {
    /// Blocks until a value, a wake or the last sender's drop arrives,
    /// and reports them in that order.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.inner.lock_clean();
        loop {
            if let Some(t) = inner.queue.pop_front() {
                return Ok(t);
            }
            if std::mem::take(&mut inner.woken) {
                return Err(RecvError::Woken);
            }
            if inner.senders == 0 {
                return Err(RecvError::Disconnected);
            }
            inner = S::cv_wait(&self.shared.recv_cv, inner);
        }
    }

    /// Dequeues a value without blocking, if one is queued.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.inner.lock_clean().queue.pop_front()
    }

    /// Number of values currently queued.
    pub fn len(&self) -> usize {
        self.shared.inner.lock_clean().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send + 'static, S: Shims> Drop for QueueReceiver<T, S> {
    fn drop(&mut self) {
        self.shared.inner.lock_clean().receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(cap: usize) -> (QueueSender<u64>, QueueReceiver<u64>) {
        bounded::<u64, StdShims>(cap)
    }

    #[test]
    fn values_pass_in_order() {
        let (tx, rx) = chan(8);
        for v in 0..5 {
            tx.try_send(v).unwrap();
        }
        for v in 0..5 {
            assert_eq!(rx.recv(), Ok(v));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let (tx, rx) = chan(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.len(), 2);
    }

    #[test]
    fn receiver_death_disconnects_senders() {
        let (tx, rx) = chan(4);
        drop(rx);
        assert_eq!(tx.try_send(7), Err(TrySendError::Disconnected(7)));
    }

    #[test]
    fn sender_death_wakes_and_disconnects_receiver() {
        let (tx, rx) = chan(4);
        tx.try_send(5).unwrap();
        let t = std::thread::spawn(move || drop(tx));
        // Queued value first, then Disconnected.
        assert_eq!(rx.recv(), Ok(5));
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        t.join().unwrap();
    }

    #[test]
    fn a_wake_into_a_full_queue_comes_after_its_values_once() {
        let (tx, rx) = chan(1);
        tx.try_send(1).unwrap();
        tx.wake();
        tx.wake();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError::Woken));
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn cross_thread_handoff() {
        let (tx, rx) = chan(64);
        let t = std::thread::spawn(move || {
            for v in 0..100 {
                while tx.try_send(v).is_err() {
                    std::thread::yield_now();
                }
            }
        });
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<u64>>());
    }
}
