//! gcs-mc models for the trace ring: concurrent `record`,
//! `record_many` and snapshots under the ring's one lock. Every
//! snapshot, mid-flight or quiescent, is a contiguous run of sequence
//! numbers, so a `snapshot_since` cursor never skips an event another
//! thread is still recording.

use gcs_mc::{Checker, JoinApi, McShims, Shims};
use gcs_obs::trace::{EventKind, ObsEvent, TraceBuf};

type McTraceBuf = TraceBuf<McShims>;

fn seqs(events: &[ObsEvent]) -> Vec<u64> {
    events.iter().map(|e| e.seq).collect()
}

#[test]
fn ring_concurrent_record_snapshot_is_clean() {
    let report = Checker::new("ring-record-snapshot").check(|| {
        let buf: McTraceBuf = TraceBuf::with_manual_clock(64);
        let mut joins = Vec::new();
        for n in 0..2u32 {
            let b = buf.clone();
            joins.push(McShims::spawn(move || {
                b.record(EventKind::Bcast { node: n, value: n as u64 });
            }));
        }
        // Poll mid-flight, as an online consumer would: whatever is
        // visible is already a gap-free prefix of the sequence.
        let mid = buf.snapshot();
        assert_eq!(seqs(&mid), (0..mid.len() as u64).collect::<Vec<_>>());
        for j in joins {
            j.join();
        }
        // Quiescence: a complete record.
        let fin = buf.snapshot();
        assert_eq!(seqs(&fin), vec![0, 1]);
        assert_eq!(buf.recorded(), 2);
        assert_eq!(buf.evicted(), 0);
    });
    report.assert_ok();
}

#[test]
fn ring_record_many_blocks_are_contiguous() {
    let report = Checker::new("ring-record-many").check(|| {
        let buf: McTraceBuf = TraceBuf::with_manual_clock(64);
        let b = buf.clone();
        let t = McShims::spawn(move || {
            b.record_many([EventKind::Send { from: 0, to: 1 }, EventKind::Send { from: 0, to: 2 }]);
        });
        buf.record(EventKind::Bcast { node: 1, value: 7 });
        t.join();
        let fin = buf.snapshot();
        assert_eq!(seqs(&fin), vec![0, 1, 2]);
        // The batch's two events hold adjacent sequence numbers in
        // submission order regardless of how the single record lands.
        let batch: Vec<u64> = fin
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { .. }))
            .map(|e| e.seq)
            .collect();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[1], batch[0] + 1, "batch split: {batch:?}");
        assert_eq!(buf.recorded(), 3);
    });
    report.assert_ok();
}

/// An online consumer polling with a cursor (the first unseen seq)
/// while a writer records: every poll returns exactly the contiguous
/// range `cursor..cursor + len`, so advancing the cursor past the last
/// returned event never skips one, and the polls concatenated are the
/// whole record.
#[test]
fn ring_snapshot_since_polls_are_contiguous() {
    let report = Checker::new("ring-snapshot-since").check(|| {
        let buf: McTraceBuf = TraceBuf::with_manual_clock(64);
        let b = buf.clone();
        let t = McShims::spawn(move || {
            b.record(EventKind::Send { from: 0, to: 1 });
            b.record_many([
                EventKind::Recv { node: 1, from: 0 },
                EventKind::Recv { node: 2, from: 0 },
            ]);
        });
        buf.record(EventKind::Send { from: 1, to: 0 });
        let mut next = 0u64;
        let mut polled = Vec::new();
        for _ in 0..2 {
            let fresh = buf.snapshot_since(next);
            assert_eq!(seqs(&fresh), (next..next + fresh.len() as u64).collect::<Vec<_>>());
            next += fresh.len() as u64;
            polled.extend(fresh);
        }
        t.join();
        polled.extend(buf.snapshot_since(next));
        assert_eq!(seqs(&polled), vec![0, 1, 2, 3]);
        assert_eq!(polled, buf.snapshot());
    });
    report.assert_ok();
}

/// Overflow evicts the oldest events ring-wide: capacity is the exact
/// total, whichever threads recorded.
#[test]
fn ring_overflow_accounting_balances() {
    let report = Checker::new("ring-overflow").check(|| {
        let buf: McTraceBuf = TraceBuf::with_manual_clock(2);
        let b = buf.clone();
        let t = McShims::spawn(move || {
            b.record(EventKind::Bcast { node: 1, value: 1 });
            b.record(EventKind::Bcast { node: 1, value: 2 });
        });
        buf.record(EventKind::Bcast { node: 0, value: 0 });
        t.join();
        assert_eq!(buf.recorded(), 3);
        assert_eq!(buf.evicted(), 1);
        assert_eq!(buf.len(), 2);
        assert_eq!(seqs(&buf.snapshot()), vec![1, 2]);
    });
    report.assert_ok();
}
