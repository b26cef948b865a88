//! A bounded structured event-tracing ring buffer.
//!
//! One mutex guards the whole ring: the event deque, the next sequence
//! number, the eviction count and the manual clock. `record` and
//! `record_many` stamp and push under that lock, so the buffered events
//! are always one contiguous, seq-ordered run — every snapshot is a
//! prefix-closed window onto one total order, and a `snapshot_since`
//! cursor never skips an event another thread is still recording. When
//! the ring is full the oldest event is evicted and counted; the
//! eviction counter lets a consumer distinguish "complete record" from
//! "window onto a longer run".
//!
//! Events carry a `(t_ms, seq)` stamp from the buffer's own epoch — the
//! shape the [`crate::monitor`] bound monitors consume.
//!
//! The ring is generic over the [`gcs_mc::Shims`] sync surface:
//! production code uses the zero-cost `StdShims` default, and the
//! gcs-mc models in `tests/mc_ring.rs` instantiate `McShims` to
//! exhaustively check the record/snapshot protocol under every
//! bounded interleaving (see docs/CONCURRENCY.md).

use gcs_mc::{MutexApi, Shims, StdShims};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Events a ring reserves when it is created; it grows from there to its
/// capacity as events arrive. This is the block each of the eight
/// shards of the earlier sharded ring reserved, and the size matters
/// through glibc's dynamic mmap threshold, which rises to the largest
/// mapped block freed: reserving the whole default capacity up front
/// cost the benchmark's open-loop workloads 40 % more resident memory
/// per operation, and reserving nothing lowered its saturating
/// throughput.
const INITIAL_EVENTS: usize = 8192;

/// Why an outbound frame was dropped at the transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The peer is administratively blocked (emulated partition).
    Blocked,
    /// The bounded per-peer send queue was full.
    QueueFull,
    /// No link exists to the destination.
    NoLink,
    /// The socket write failed mid-frame (frame lost on reconnect).
    WriteError,
}

/// Which fault-injection operation was applied to a link or node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Traffic blocked in both directions (partition).
    Sever,
    /// Partition ended.
    Heal,
    /// Live sockets killed without blocking (reconnect exercise).
    Kick,
    /// A node crashed (volatile state lost; stable storage survives).
    Crash,
    /// A crashed node restarted from stable storage.
    Restart,
    /// A node stopped processing events (slow-consumer pause).
    Stall,
    /// A stalled node resumed processing.
    Resume,
    /// Traffic slowed (delivery delays stretched) without being blocked.
    Slow,
}

/// A typed observability event. Node/processor identifiers are plain
/// `u32`s so this crate stays dependency-free.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A node installed a view.
    ViewChange {
        /// The installing node.
        node: u32,
        /// The view identifier's epoch component.
        epoch: u64,
        /// Number of members in the view.
        size: u32,
    },
    /// A client value was submitted at a node (`bcast`).
    Bcast {
        /// The submitting node.
        node: u32,
        /// The value (as u64, 0 if unrepresentable).
        value: u64,
    },
    /// A node delivered a value to its client (`brcv`).
    Brcv {
        /// The delivering node.
        node: u32,
        /// The value's original sender.
        src: u32,
        /// The value.
        value: u64,
    },
    /// A protocol frame was written to a peer socket.
    Send {
        /// The sending node.
        from: u32,
        /// The destination node.
        to: u32,
    },
    /// A protocol frame was received and handed to the node runtime.
    Recv {
        /// The receiving node.
        node: u32,
        /// The sending node.
        from: u32,
    },
    /// An outbound frame was dropped before reaching the wire.
    Drop {
        /// The would-be sender.
        node: u32,
        /// The destination.
        to: u32,
        /// Why.
        reason: DropReason,
    },
    /// An inbound frame was rejected (blocked peer or stale connection
    /// generation).
    Reject {
        /// The rejecting node.
        node: u32,
        /// The frame's sender.
        from: u32,
    },
    /// An outbound link was (re-)established.
    LinkUp {
        /// The connecting node.
        node: u32,
        /// The peer.
        peer: u32,
        /// The new connection generation.
        generation: u64,
    },
    /// An outbound link went down (socket closed or write failed).
    LinkDown {
        /// The node that lost the link.
        node: u32,
        /// The peer.
        peer: u32,
    },
    /// A fault-injection operation was applied.
    Fault {
        /// The node the operation was applied at.
        node: u32,
        /// The affected peer.
        peer: u32,
        /// The operation.
        kind: FaultKind,
    },
    /// An adaptive failure detector published a new effective delay
    /// bound. The b/d monitors re-derive their windows from the running
    /// maximum of these, so an adaptive run is judged against the
    /// deadlines the detector actually enforced.
    DetectorBound {
        /// The reporting node.
        node: u32,
        /// Effective per-hop delay bound `δ̂` in milliseconds.
        delta_hat_ms: u64,
    },
}

/// One recorded event with its stamp.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsEvent {
    /// Milliseconds since the trace buffer's epoch.
    pub t_ms: u64,
    /// Sequence number (the ring's total order).
    pub seq: u64,
    /// The event.
    pub kind: EventKind,
}

/// Everything the ring's one lock guards.
struct Ring {
    /// `(t_ms, kind)` of the buffered events, oldest first. Their
    /// sequence numbers are not stored: they are consecutive, ending
    /// just below `next_seq`.
    events: VecDeque<(u64, EventKind)>,
    /// The sequence number the next recorded event gets.
    next_seq: u64,
    evicted: u64,
    /// When present, the buffer is on a *manual* (virtual) clock:
    /// events are stamped from this register instead of the wall clock,
    /// so a deterministic simulation can feed the monitors virtual-time
    /// streams. Advanced via [`TraceBuf::set_now_ms`].
    manual_ms: Option<u64>,
}

struct TraceInner<S: Shims> {
    epoch: Instant,
    capacity: usize,
    ring: S::Mutex<Ring>,
}

impl Ring {
    /// The buffered events with `seq >= next`, with their stamps.
    fn since(&self, next: u64) -> Vec<ObsEvent> {
        let first = self.next_seq - self.events.len() as u64;
        let next = next.clamp(first, self.next_seq);
        self.events
            .range((next - first) as usize..)
            .zip(next..)
            .map(|((t_ms, kind), seq)| ObsEvent { t_ms: *t_ms, seq, kind: kind.clone() })
            .collect()
    }
}

impl<S: Shims> TraceInner<S> {
    fn now_ms(&self, ring: &Ring) -> u64 {
        ring.manual_ms.unwrap_or_else(|| self.epoch.elapsed().as_millis() as u64)
    }
}

/// The bounded tracing ring. Cloning shares the buffer.
///
/// Generic over the sync shims: `TraceBuf` (the default) is the
/// production wall-clock/std form; `TraceBuf<McShims>` is the same
/// structure under the gcs-mc model checker.
pub struct TraceBuf<S: Shims = StdShims> {
    inner: Arc<TraceInner<S>>,
}

impl<S: Shims> Clone for TraceBuf<S> {
    fn clone(&self) -> Self {
        TraceBuf { inner: Arc::clone(&self.inner) }
    }
}

impl<S: Shims> std::fmt::Debug for TraceBuf<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuf")
            .field("len", &self.len())
            .field("evicted", &self.evicted())
            .finish()
    }
}

impl<S: Shims> Default for TraceBuf<S> {
    fn default() -> Self {
        TraceBuf::new()
    }
}

impl<S: Shims> TraceBuf<S> {
    /// A ring with the default capacity (65536 events).
    pub fn new() -> Self {
        TraceBuf::with_capacity(1 << 16)
    }

    /// A ring holding up to `capacity` events (at least one). The ring
    /// grows on demand: a generous capacity costs memory only once that
    /// many events are recorded.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuf::build(capacity, None)
    }

    /// A ring on a *manual* clock: events are stamped from a virtual-time
    /// register (starting at 0) advanced with [`TraceBuf::set_now_ms`],
    /// instead of the wall clock. Deterministic simulations use this so
    /// the [`crate::monitor`] bound monitors see virtual milliseconds.
    pub fn with_manual_clock(capacity: usize) -> Self {
        TraceBuf::build(capacity, Some(0))
    }

    fn build(capacity: usize, manual_ms: Option<u64>) -> Self {
        let capacity = capacity.max(1);
        let events = VecDeque::with_capacity(capacity.min(INITIAL_EVENTS));
        let ring = Ring { events, next_seq: 0, evicted: 0, manual_ms };
        let inner = TraceInner { epoch: Instant::now(), capacity, ring: S::Mutex::new(ring) };
        TraceBuf { inner: Arc::new(inner) }
    }

    /// Milliseconds since this buffer's epoch (the stamp `record` uses):
    /// wall-clock elapsed time, or the manual register for a buffer
    /// created with [`TraceBuf::with_manual_clock`].
    pub fn now_ms(&self) -> u64 {
        self.inner.now_ms(&self.inner.ring.lock_clean())
    }

    /// Advances the manual clock to `t_ms` (no-op on a wall-clock
    /// buffer). The register is monotone: moving backwards is ignored.
    pub fn set_now_ms(&self, t_ms: u64) {
        if let Some(m) = &mut self.inner.ring.lock_clean().manual_ms {
            *m = (*m).max(t_ms);
        }
    }

    /// Records an event, stamped with the current time and the next
    /// sequence number. Evicts the oldest event when full.
    pub fn record(&self, kind: EventKind) {
        self.record_many(std::iter::once(kind));
    }

    /// Records a batch of events under one lock and one clock read: the
    /// batch holds consecutive sequence numbers in submission order.
    pub fn record_many<I>(&self, kinds: I)
    where
        I: IntoIterator<Item = EventKind>,
        I::IntoIter: ExactSizeIterator,
    {
        let kinds = kinds.into_iter();
        if kinds.len() == 0 {
            return;
        }
        let mut guard = self.inner.ring.lock_clean();
        let ring = &mut *guard;
        let t_ms = self.inner.now_ms(ring);
        for kind in kinds {
            if ring.events.len() >= self.inner.capacity {
                ring.events.pop_front();
                ring.evicted += 1;
            }
            ring.events.push_back((t_ms, kind));
            ring.next_seq += 1;
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.ring.lock_clean().events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted by ring overflow. Zero means the
    /// snapshot is a complete record of everything ever recorded.
    pub fn evicted(&self) -> u64 {
        self.inner.ring.lock_clean().evicted
    }

    /// Total events ever recorded (buffered + evicted): the sequence
    /// number the next event gets.
    pub fn recorded(&self) -> u64 {
        self.inner.ring.lock_clean().next_seq
    }

    /// Every buffered event, in sequence order.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.inner.ring.lock_clean().since(0)
    }

    /// The buffered events with `seq >= next`, in sequence order; for
    /// incremental online consumption. Start the cursor at 0 and move
    /// it to one past the last event returned: each poll then continues
    /// exactly where the previous one ended.
    pub fn snapshot_since(&self, next: u64) -> Vec<ObsEvent> {
        self.inner.ring.lock_clean().since(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_sequence_order() {
        let t: TraceBuf = TraceBuf::new();
        for i in 0..100 {
            t.record(EventKind::Bcast { node: 0, value: i });
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 100);
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(t.evicted(), 0);
        assert_eq!(t.recorded(), 100);
    }

    #[test]
    fn manual_clock_stamps_virtual_time() {
        let t: TraceBuf = TraceBuf::with_manual_clock(64);
        t.record(EventKind::Bcast { node: 0, value: 1 });
        t.set_now_ms(250);
        t.record(EventKind::Brcv { node: 1, src: 0, value: 1 });
        t.set_now_ms(100); // backwards: ignored
        t.record(EventKind::Bcast { node: 0, value: 2 });
        let snap = t.snapshot();
        assert_eq!(snap.iter().map(|e| e.t_ms).collect::<Vec<_>>(), vec![0, 250, 250]);
        assert_eq!(t.now_ms(), 250);
    }

    #[test]
    fn overflow_evicts_and_counts() {
        let t: TraceBuf = TraceBuf::with_capacity(8);
        for i in 0..100 {
            t.record(EventKind::Bcast { node: 0, value: i });
        }
        assert_eq!(t.len(), 8);
        assert_eq!(t.evicted(), 92);
        assert_eq!(t.recorded(), 100);
        // The newest events survive, still in sequence order.
        assert_eq!(
            t.snapshot().iter().map(|e| e.seq).collect::<Vec<_>>(),
            (92..100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_since_is_incremental() {
        let t: TraceBuf = TraceBuf::new();
        for i in 0..10 {
            t.record(EventKind::Bcast { node: 0, value: i });
        }
        let first = t.snapshot();
        let last_seq = first.last().unwrap().seq;
        for i in 10..15 {
            t.record(EventKind::Bcast { node: 0, value: i });
        }
        let rest = t.snapshot_since(last_seq + 1);
        assert_eq!(rest.len(), 5);
        assert!(rest.iter().all(|e| e.seq > last_seq));
        // A cursor past the end, or behind an evicted prefix, is clamped.
        assert!(t.snapshot_since(15).is_empty());
        let small: TraceBuf = TraceBuf::with_capacity(4);
        for i in 0..10 {
            small.record(EventKind::Bcast { node: 0, value: i });
        }
        assert_eq!(small.snapshot_since(0), small.snapshot());
    }

    #[test]
    fn polling_cursor_sees_every_event_exactly_once() {
        let t: TraceBuf = TraceBuf::new();
        let mut next = 0u64;
        let mut polled = Vec::new();
        let mut poll = |t: &TraceBuf| {
            let fresh = t.snapshot_since(next);
            if let Some(last) = fresh.last() {
                next = last.seq + 1;
            }
            polled.extend(fresh);
        };
        poll(&t);
        t.record(EventKind::Bcast { node: 0, value: 0 });
        poll(&t);
        t.record_many([EventKind::Send { from: 0, to: 1 }, EventKind::Send { from: 0, to: 2 }]);
        t.record(EventKind::Recv { node: 1, from: 0 });
        poll(&t);
        poll(&t);
        t.record_many([EventKind::Brcv { node: 1, src: 0, value: 0 }]);
        t.record_many(Vec::new());
        poll(&t);
        assert_eq!(polled.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(polled, t.snapshot());
    }

    #[test]
    fn concurrent_writers_interleave_consistently() {
        let t: TraceBuf = TraceBuf::new();
        std::thread::scope(|s| {
            for n in 0..4u32 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        t.record(EventKind::Send { from: n, to: i % 5 });
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.len(), 4000);
        // Sequence numbers are unique and sorted.
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}
