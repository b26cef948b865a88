//! A bounded, lock-light structured event-tracing ring buffer.
//!
//! Writers are expected to be long-lived threads (transport writer and
//! reader loops, node runtimes). Each thread is pinned to one of a small
//! fixed set of ring shards, so its shard mutex is effectively
//! uncontended — the only cross-thread traffic on the record path is a
//! single fetch-add for the global sequence number. When a shard
//! overflows, its oldest event is evicted and counted; the eviction
//! counter lets a consumer distinguish "complete record" from "window
//! onto a longer run".
//!
//! Events carry a `(t_ms, seq)` stamp from the buffer's own epoch, so a
//! snapshot merged across shards is one globally ordered stream — the
//! shape the [`crate::monitor`] bound monitors consume.
//!
//! The ring is generic over the [`gcs_mc::Shims`] sync surface:
//! production code uses the zero-cost `StdShims` default, and the
//! gcs-mc models in `tests/mc_ring.rs` instantiate `McShims` to
//! exhaustively check the record/snapshot protocol under every
//! bounded interleaving (see docs/CONCURRENCY.md).

use gcs_mc::{AtomicU64Api, MutexApi, Shims, StdShims};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const N_SHARDS: usize = 8;

/// The seq-counter publish ordering. The Release half is load-bearing:
/// it is what makes `recorded()` a safe high-water cursor (see the
/// `// ordering:` comment at the fetch_add in [`TraceBuf::record`]).
// ordering: AcqRel — paired with the Acquire load in recorded();
// checked by the `ring_seeded_relaxed_bug` gcs-mc model, which proves
// the Relaxed downgrade below is caught as a vacuous acquire.
#[cfg(not(feature = "mc-seeded-bug"))]
const SEQ_PUBLISH: Ordering = Ordering::AcqRel;
/// Seeded-bug build: deliberately downgraded so the mc meta-test can
/// assert the happens-before checker reports the broken publish pair
/// with correct file:line on both sides. Never enabled in production
/// profiles; ci.sh only passes the feature to the meta-test target.
// ordering: Relaxed — the injected bug under test (see above).
#[cfg(feature = "mc-seeded-bug")]
const SEQ_PUBLISH: Ordering = Ordering::Relaxed;

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
    /// Global sequence number (total order across shards).
    pub seq: u64,
    /// The event.
    pub kind: EventKind,
}

struct TraceInner<S: Shims> {
    epoch: Instant,
    /// When present, the buffer is on a *manual* (virtual) clock:
    /// `record` stamps events from this register instead of the wall
    /// clock, so a deterministic simulation can feed the monitors
    /// virtual-time streams. Advanced via [`TraceBuf::set_now_ms`].
    manual_ms: Option<S::AtomicU64>,
    seq: S::AtomicU64,
    shards: Vec<S::Mutex<VecDeque<ObsEvent>>>,
    cap_per_shard: usize,
    evicted: S::AtomicU64,
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

/// Threads are pinned to shards by their dense per-thread ordinal
/// (round-robin over shards). Under `StdShims` the ordinal is a global
/// ticket, so assignment balances across every `TraceBuf`; under
/// `McShims` it is the model thread id, so shard choice is a
/// deterministic function of the schedule.
fn my_shard<S: Shims>() -> usize {
    S::thread_ordinal() % N_SHARDS
}

impl<S: Shims> TraceBuf<S> {
    /// A ring with the default capacity (65536 events).
    pub fn new() -> Self {
        TraceBuf::with_capacity(1 << 16)
    }

    /// A ring holding up to `capacity` events in total (split evenly
    /// across the internal shards; at least one event per shard).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceBuf::build(capacity, false)
    }

    /// A ring on a *manual* clock: events are stamped from a virtual-time
    /// register (starting at 0) advanced with [`TraceBuf::set_now_ms`],
    /// instead of the wall clock. Deterministic simulations use this so
    /// the [`crate::monitor`] bound monitors see virtual milliseconds.
    pub fn with_manual_clock(capacity: usize) -> Self {
        TraceBuf::build(capacity, true)
    }

    fn build(capacity: usize, manual: bool) -> Self {
        let cap_per_shard = (capacity / N_SHARDS).max(1);
        TraceBuf {
            inner: Arc::new(TraceInner {
                epoch: Instant::now(),
                manual_ms: manual.then(|| S::AtomicU64::new(0)),
                seq: S::AtomicU64::new(0),
                shards: (0..N_SHARDS)
                    .map(|_| S::Mutex::new(VecDeque::with_capacity(cap_per_shard)))
                    .collect(),
                cap_per_shard,
                evicted: S::AtomicU64::new(0),
            }),
        }
    }

    /// Milliseconds since this buffer's epoch (the stamp `record` uses):
    /// wall-clock elapsed time, or the manual register for a buffer
    /// created with [`TraceBuf::with_manual_clock`].
    pub fn now_ms(&self) -> u64 {
        match &self.inner.manual_ms {
            // ordering: Relaxed — monotone virtual-time register with no
            // dependent data; stamps are advisory and snapshots re-sort
            // by seq.
            Some(m) => m.load(Ordering::Relaxed),
            None => self.inner.epoch.elapsed().as_millis() as u64,
        }
    }

    /// Advances the manual clock to `t_ms` (no-op on a wall-clock
    /// buffer). The register is monotone: moving backwards is ignored.
    pub fn set_now_ms(&self, t_ms: u64) {
        if let Some(m) = &self.inner.manual_ms {
            // ordering: Relaxed — fetch_max keeps the register monotone
            // by itself; nothing is published under this store.
            m.fetch_max(t_ms, Ordering::Relaxed);
        }
    }

    /// Records an event, stamped with the current time and the next
    /// global sequence number. Evicts the oldest event in this thread's
    /// shard when full.
    pub fn record(&self, kind: EventKind) {
        let t_ms = self.now_ms();
        // ordering: AcqRel (via SEQ_PUBLISH) — the Release half pairs
        // with the Acquire load in recorded(): a reader that observes
        // seq >= n also observes every write the recording thread made
        // before claiming sequence n-1, so `recorded()` is a safe
        // high-water cursor for `snapshot_since` polling loops. (The
        // claimed event itself is published under the shard mutex
        // below; an in-flight writer may still be between the two —
        // the `ring_snapshot_since_gap` gcs-mc model pins down exactly
        // what that can and cannot cause.)
        let seq = self.inner.seq.fetch_add(1, SEQ_PUBLISH);
        let mut shard = self.inner.shards[my_shard::<S>()].lock_clean();
        if shard.len() >= self.inner.cap_per_shard {
            shard.pop_front();
            // ordering: Relaxed — eviction counter; read only by the
            // advisory evicted() accessor, merged at quiescence.
            self.inner.evicted.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(ObsEvent { t_ms, seq, kind });
    }

    /// Records a batch of events with one clock read, one claimed
    /// sequence block, and one shard lock — the hot-path form of
    /// [`TraceBuf::record`] for recorders that flush events in bursts
    /// (e.g. every delivery a batched token round produced at once). The
    /// block is claimed before the caller's effects propagate anywhere,
    /// so causally later recordings still claim later sequence numbers;
    /// concurrent unrelated recorders are merely coarsened to batch
    /// granularity, which the merged order never promised to refine.
    pub fn record_many<I>(&self, kinds: I)
    where
        I: IntoIterator<Item = EventKind>,
        I::IntoIter: ExactSizeIterator,
    {
        let kinds = kinds.into_iter();
        let n = kinds.len() as u64;
        if n == 0 {
            return;
        }
        let t_ms = self.now_ms();
        // ordering: AcqRel (via SEQ_PUBLISH) — same publication
        // contract as record().
        let seq0 = self.inner.seq.fetch_add(n, SEQ_PUBLISH);
        let mut shard = self.inner.shards[my_shard::<S>()].lock_clean();
        for (i, kind) in kinds.enumerate() {
            if shard.len() >= self.inner.cap_per_shard {
                shard.pop_front();
                // ordering: Relaxed — advisory eviction counter, as in
                // record().
                self.inner.evicted.fetch_add(1, Ordering::Relaxed);
            }
            shard.push_back(ObsEvent { t_ms, seq: seq0 + i as u64, kind });
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock_clean().len()).sum()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events evicted by ring overflow. Zero means the
    /// snapshot is a complete record of everything ever recorded.
    pub fn evicted(&self) -> u64 {
        // ordering: Relaxed — advisory counter, meaningful at quiescence.
        self.inner.evicted.load(Ordering::Relaxed)
    }

    /// Total events ever recorded (buffered + evicted).
    pub fn recorded(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel fetch_add in
        // record(): observing seq >= n here happens-after everything the
        // thread that claimed n-1 did first, making this a safe
        // high-water mark for snapshot_since polling.
        self.inner.seq.load(Ordering::Acquire)
    }

    /// A merged snapshot of every shard, ordered by sequence number.
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        let mut all: Vec<ObsEvent> = Vec::with_capacity(self.len());
        for s in &self.inner.shards {
            all.extend(s.lock_clean().iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Like [`TraceBuf::snapshot`], but only events with `seq > after`;
    /// for incremental online consumption.
    ///
    /// A writer that has claimed a sequence number but not yet pushed
    /// into its shard is invisible to this call, so one poll may see
    /// seq `n+1` without `n`; a later poll (same `after`) fills the
    /// gap, and at quiescence the record is complete. The
    /// `ring_snapshot_since_gap` gcs-mc model (crates/obs/tests/
    /// mc_ring.rs) explores every bounded interleaving of this
    /// protocol: it witnesses the transient gap and proves it is the
    /// *only* anomaly — no event is lost, duplicated, or reordered
    /// past [`TraceBuf::recorded`], and quiescent snapshots are always
    /// a complete, seq-unique prefix.
    pub fn snapshot_since(&self, after: u64) -> Vec<ObsEvent> {
        let mut all: Vec<ObsEvent> = Vec::new();
        for s in &self.inner.shards {
            all.extend(s.lock_clean().iter().filter(|e| e.seq > after).cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
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
        let t: TraceBuf = TraceBuf::with_capacity(8); // 1 slot per shard
        for i in 0..100 {
            t.record(EventKind::Bcast { node: 0, value: i });
        }
        assert!(t.len() <= 8);
        assert_eq!(t.evicted() + t.len() as u64, 100);
        assert_eq!(t.recorded(), 100);
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
        let rest = t.snapshot_since(last_seq);
        assert_eq!(rest.len(), 5);
        assert!(rest.iter().all(|e| e.seq > last_seq));
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
