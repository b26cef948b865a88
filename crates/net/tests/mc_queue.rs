//! gcs-mc models for the bounded per-peer send queue: value hand-off,
//! the queue-full drop path, writer death (receiver gone), sender
//! death, and a wake into a full queue, under every interleaving
//! within the preemption bound. `recv` has no timeout, so a receiver
//! left parked with nothing to wake it is a `Deadlock` finding.

use gcs_mc::{Checker, JoinApi, McShims, Shims};
use gcs_net::queue::{bounded, RecvError, TrySendError};

#[test]
fn queue_hands_off_values_in_order() {
    let report = Checker::new("queue-handoff").check(|| {
        let (tx, rx) = bounded::<u64, McShims>(4);
        let t = McShims::spawn(move || {
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
        });
        // Values come before the Disconnected of the sender's exit.
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join();
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    });
    report.assert_ok();
}

#[test]
fn queue_full_drops_exactly_the_overflow() {
    let report = Checker::new("queue-full").preemption_bound(2).check(|| {
        let (tx, rx) = bounded::<u64, McShims>(1);
        let tx2 = tx.clone();
        let t = McShims::spawn(move || {
            let _ = tx2.try_send(7);
        });
        let _ = tx.try_send(8);
        t.join();
        // Capacity 1, nothing drained: whichever sender locked first
        // landed its value, the other got Full — never both, never
        // neither, never a block.
        assert_eq!(rx.len(), 1, "exactly one send fits a full queue");
        drop(tx);
    });
    report.assert_ok();
}

#[test]
fn writer_death_disconnects_concurrent_senders() {
    let report = Checker::new("queue-writer-death").preemption_bound(2).check(|| {
        let (tx, rx) = bounded::<u64, McShims>(4);
        // The writer dies (the transport's writer_loop returning drops
        // its receiver) while a sender races it.
        let t = McShims::spawn(move || drop(rx));
        let first = tx.try_send(9);
        // Racing the death, the send either lands or reports
        // Disconnected — it must never block or claim Full.
        assert!(
            matches!(first, Ok(()) | Err(TrySendError::Disconnected(9))),
            "unexpected: {first:?}"
        );
        t.join();
        // After the join edge the death is visible: deterministic
        // Disconnected, with the value handed back for drop counting.
        assert_eq!(tx.try_send(10), Err(TrySendError::Disconnected(10)));
    });
    report.assert_ok();
}

#[test]
fn sender_death_wakes_the_parked_receiver() {
    let report = Checker::new("queue-sender-death").check(|| {
        let (tx, rx) = bounded::<u64, McShims>(2);
        let t = McShims::spawn(move || drop(tx));
        // Whatever the interleaving, the parked receiver is woken by
        // the last sender's drop: never a value, never a deadlock.
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        t.join();
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
    });
    report.assert_ok();
}

#[test]
fn a_wake_into_a_full_queue_reaches_the_parked_receiver() {
    let report = Checker::new("queue-wake-full").check(|| {
        let (tx, rx) = bounded::<u64, McShims>(1);
        tx.try_send(1).unwrap();
        // The writer drains the queue and parks; the wake may land
        // before the drain (queue full) or after the park. The sender
        // stays alive, so a lost wake leaves the receiver parked with
        // nothing to wake it: a Deadlock.
        let t = McShims::spawn(move || {
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError::Woken));
        });
        tx.wake();
        t.join();
        drop(tx);
    });
    report.assert_ok();
}
