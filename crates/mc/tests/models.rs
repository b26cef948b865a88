//! Engine self-tests: small models with known-good and known-bad
//! concurrency, checking that the checker's verdicts (and reported
//! sites) match.

use gcs_mc::{AtomicU64Api, Checker, CondvarApi, FailureKind, JoinApi, McShims, MutexApi, Shims};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type McAtomicU64 = <McShims as Shims>::AtomicU64;
type McMutex<T> = <McShims as Shims>::Mutex<T>;
type McCondvar = <McShims as Shims>::Condvar;

/// Two threads each do a non-atomic read-modify-write (load; store)
/// on one cell, then assert that both increments landed.
fn lost_update() {
    let c = Arc::new(McAtomicU64::new(0));
    let c2 = Arc::clone(&c);
    let t = McShims::spawn(move || {
        let v = c2.load();
        c2.store(v + 1);
    });
    let v = c.load();
    c.store(v + 1);
    t.join();
    // The join edge makes both stores visible.
    assert_eq!(c.load(), 2);
}

#[test]
fn mutex_hand_off_bounds_weak_reads() {
    // Thread 1 stores into a relaxed cell, then sets a flag under the
    // mutex; thread 0, seeing the flag under the same mutex, must not
    // read the cell's stale initial value. The registry scrape relies
    // on exactly this edge.
    let flag_seen = Arc::new(AtomicBool::new(false));
    let witness = Arc::clone(&flag_seen);
    let report = Checker::new("mutex-hand-off").preemption_bound(2).check(move || {
        let cell = Arc::new(McAtomicU64::new(0));
        let flag = Arc::new(McMutex::new(false));
        let (c2, f2) = (Arc::clone(&cell), Arc::clone(&flag));
        let t = McShims::spawn(move || {
            c2.store(1);
            *f2.lock_clean() = true;
        });
        if *flag.lock_clean() {
            witness.store(true, Ordering::Relaxed);
            assert_eq!(cell.load(), 1);
        }
        t.join();
    });
    report.assert_ok();
    assert!(flag_seen.load(Ordering::Relaxed), "no schedule saw the flag set");
}

#[test]
fn mutex_protected_data_is_clean_and_counts() {
    let report = Checker::new("mutex-count").preemption_bound(1).check(|| {
        let cell = Arc::new(McMutex::new(0u64));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let c = Arc::clone(&cell);
            joins.push(McShims::spawn(move || {
                *c.lock_clean() += 1;
            }));
        }
        for j in joins {
            j.join();
        }
        assert_eq!(*cell.lock_clean(), 2);
    });
    report.assert_ok();
}

#[test]
fn lost_update_is_found_without_preemptions_via_weak_reads() {
    // Even with zero preemptions the weak-memory read-from choice lets
    // the second thread read the stale initial value — the lost update
    // is found at bound 0.
    let report = Checker::new("lost-update").preemption_bound(0).check(lost_update);
    let f = report.expect_failure();
    assert!(
        matches!(&f.kind, FailureKind::Panic { .. }),
        "expected assertion Panic, got {}",
        f.kind
    );
}

#[test]
fn rmw_counter_is_exact() {
    let report = Checker::new("rmw-counter").preemption_bound(1).check(|| {
        let c = Arc::new(McAtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..3 {
            let c2 = Arc::clone(&c);
            joins.push(McShims::spawn(move || {
                c2.fetch_add(1);
            }));
        }
        for j in joins {
            j.join();
        }
        // RMW atomicity is the point: no increment is lost.
        assert_eq!(c.load(), 3);
    });
    report.assert_ok();
}

#[test]
fn ab_ba_deadlock_needs_one_preemption() {
    let model = || {
        let a = Arc::new(McMutex::new(()));
        let b = Arc::new(McMutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = McShims::spawn(move || {
            let _ga = a2.lock_clean();
            let _gb = b2.lock_clean();
        });
        {
            let _gb = b.lock_clean();
            let _ga = a.lock_clean();
        }
        t.join();
    };
    let clean = Checker::new("ab-ba-bound0").preemption_bound(0).check(model);
    clean.assert_ok();
    let report = Checker::new("ab-ba-bound1").preemption_bound(1).check(model);
    let f = report.expect_failure();
    match &f.kind {
        FailureKind::Deadlock { blocked } => {
            assert_eq!(blocked.len(), 2, "both threads blocked: {:?}", f.kind);
            for (_, site) in blocked {
                assert!(site.file.ends_with("models.rs"), "site: {site}");
            }
        }
        other => panic!("expected Deadlock, got {other}"),
    }
    // The failing schedule must replay to the same deadlock.
    let replayed = Checker::new("ab-ba-replay").replay(model, &f.schedule);
    let rf = replayed.expect_failure();
    assert!(matches!(rf.kind, FailureKind::Deadlock { .. }), "{}", rf.kind);
    assert_eq!(rf.digest, f.digest, "replay reaches the same execution");
}

#[test]
fn condvar_timeout_fires_only_when_all_blocked() {
    let report = Checker::new("cv-timeout").preemption_bound(1).check(|| {
        let mx = Arc::new(McMutex::new(false));
        let cv = Arc::new(McCondvar::new());
        let guard = mx.lock_clean();
        // Nobody will ever notify: the timed wait must come back as a
        // timeout (all live threads blocked) instead of deadlocking.
        let (guard, timed_out) = McShims::cv_wait_timeout(&cv, guard, Duration::from_millis(50));
        assert!(timed_out);
        assert!(!*guard);
    });
    report.assert_ok();
}

#[test]
fn condvar_notify_wakes_waiter() {
    let report = Checker::new("cv-notify").preemption_bound(1).check(|| {
        let mx = Arc::new(McMutex::new(false));
        let cv = Arc::new(McCondvar::new());
        let (mx2, cv2) = (Arc::clone(&mx), Arc::clone(&cv));
        let t = McShims::spawn(move || {
            *mx2.lock_clean() = true;
            McShims::cv_notify_all(&cv2);
        });
        let mut guard = mx.lock_clean();
        let mut timed = false;
        while !*guard {
            let (g, to) = McShims::cv_wait_timeout(&cv, guard, Duration::from_millis(50));
            guard = g;
            timed = to;
        }
        drop(guard);
        t.join();
        // Whether the wait timed out depends on the interleaving; the
        // loop exiting with the flag set is the contract.
        let _ = timed;
    });
    report.assert_ok();
}

#[test]
fn artifact_is_written_for_failures() {
    let dir = std::env::temp_dir().join("gcs-mc-artifacts");
    let report = Checker::new("artifact-check").preemption_bound(0).check(lost_update);
    let f = report.expect_failure();
    let path = report.artifact.as_ref().expect("artifact written");
    assert!(path.starts_with(&dir) || std::env::var("GCS_MC_ARTIFACT_DIR").is_ok());
    let body = std::fs::read_to_string(path).expect("artifact readable");
    assert!(body.contains("model: artifact-check"), "{body}");
    assert!(body.contains(&format!("schedule: {}", f.schedule)), "{body}");
}
