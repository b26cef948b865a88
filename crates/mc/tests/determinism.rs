//! Schedule determinism: the repro contract. Same model + same
//! schedule string ⇒ the identical execution (digest-for-digest);
//! failing schedules replay to the same failure.

use gcs_mc::{AtomicU64Api, Checker, FailureKind, JoinApi, McShims, MutexApi, Schedule, Shims};
use std::sync::Arc;

type McAtomicU64 = <McShims as Shims>::AtomicU64;
type McMutex<T> = <McShims as Shims>::Mutex<T>;

/// A small but branchy clean model: three threads, RMW chains, a
/// mutex, and weak loads (so schedules have real decisions in them).
fn busy_model() {
    let c = Arc::new(McAtomicU64::new(0));
    let m = Arc::new(McMutex::new(0u64));
    let mut joins = Vec::new();
    for _ in 0..2 {
        let (c2, m2) = (Arc::clone(&c), Arc::clone(&m));
        joins.push(McShims::spawn(move || {
            c2.fetch_add(1);
            *m2.lock_clean() += 1;
            // A stale-readable observation point, so the read-from
            // choice branches.
            let _ = c2.load();
        }));
    }
    for j in joins {
        j.join();
    }
    assert_eq!(c.load(), 2);
    assert_eq!(*m.lock_clean(), 2);
}

#[test]
fn exhaustive_exploration_is_repeatable() {
    let a = Checker::new("det-dfs-a").preemption_bound(1).check(busy_model);
    let b = Checker::new("det-dfs-b").preemption_bound(1).check(busy_model);
    a.assert_ok();
    b.assert_ok();
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.digest, b.digest);
}

#[test]
fn failing_schedule_replays_to_the_same_failure() {
    // The lost update: a relaxed load followed by a store, in each of
    // two threads; the weak read of the stale value fails at bound 0.
    let lost_update = || {
        let c = Arc::new(McAtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = McShims::spawn(move || {
            let v = c2.load();
            c2.store(v + 1);
        });
        let v = c.load();
        c.store(v + 1);
        t.join();
        assert_eq!(c.load(), 2);
    };
    let found = Checker::new("det-replay-src").preemption_bound(0).check(lost_update);
    let f = found.expect_failure();
    assert!(matches!(f.kind, FailureKind::Panic { .. }), "expected Panic, got {}", f.kind);
    let hex = f.schedule.to_hex();
    // Round-trip through the artifact text form, as a user would.
    let schedule = Schedule::from_hex(&hex).expect("hex round-trip");
    for i in 0..3 {
        let r = Checker::new("det-replay").replay(lost_update, &schedule);
        let rf = r.expect_failure();
        assert!(
            matches!(rf.kind, FailureKind::Panic { .. }),
            "replay {i}: expected Panic, got {}",
            rf.kind
        );
        assert_eq!(rf.digest, f.digest, "replay {i} diverged");
    }
}

#[test]
fn edited_schedule_reports_divergence_not_garbage() {
    let model = busy_model;
    let found = Checker::new("det-diverge-src").preemption_bound(1).check(model);
    found.assert_ok();
    // A hand-mangled schedule must fail loudly as diverged (or pick a
    // different valid path), never panic the harness.
    let mangled = Schedule(vec![0xee, 0xee, 0xee, 0xee]);
    let r = Checker::new("det-diverge").replay(model, &mangled);
    let f = r.expect_failure();
    assert!(
        matches!(f.kind, FailureKind::ScheduleDiverged),
        "expected ScheduleDiverged, got {}",
        f.kind
    );
}
