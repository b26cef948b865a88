//! Engine self-tests: small models with known-good and known-bad
//! concurrency, checking that the checker's verdicts (and reported
//! sites) match.

use gcs_mc::{
    AtomicU64Api, Checker, CondvarApi, DataApi, FailureKind, JoinApi, McShims, MutexApi, Shims,
};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

type McAtomicU64 = <McShims as Shims>::AtomicU64;
type McMutex<T> = <McShims as Shims>::Mutex<T>;
type McData<T> = <McShims as Shims>::Data<T>;
type McCondvar = <McShims as Shims>::Condvar;

#[test]
fn release_acquire_message_passing_is_clean() {
    let report = Checker::new("mp-rel-acq").preemption_bound(2).check(|| {
        let data = Arc::new(McData::<u64>::new(0));
        let flag = Arc::new(McAtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = McShims::spawn(move || {
            d2.set(42);
            // ordering: Release — publishes the Data write to the
            // acquiring reader below.
            f2.store(1, Ordering::Release);
        });
        // ordering: Acquire — pairs with the Release store above; the
        // Data read is only reached when the flag is observed set.
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.get(), 42);
        }
        t.join();
    });
    report.assert_ok();
    // 2 threads, a handful of ops: exploration must stay tiny.
    assert!(report.executions < 200, "explored {}", report.executions);
}

#[test]
fn relaxed_message_passing_races() {
    let report = Checker::new("mp-relaxed").preemption_bound(2).check(|| {
        let data = Arc::new(McData::<u64>::new(0));
        let flag = Arc::new(McAtomicU64::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = McShims::spawn(move || {
            d2.set(42);
            // ordering: Relaxed — the bug under test: the flag no
            // longer publishes the Data write.
            f2.store(1, Ordering::Relaxed);
        });
        // ordering: Relaxed — reading the flag relaxed on purpose.
        if flag.load(Ordering::Relaxed) == 1 {
            let _ = data.get();
        }
        t.join();
    });
    let f = report.expect_failure();
    match &f.kind {
        FailureKind::Race { first, second } => {
            assert!(first.file.ends_with("models.rs"), "first site: {first}");
            assert!(second.file.ends_with("models.rs"), "second site: {second}");
            assert_ne!((first.file, first.line), (second.file, second.line));
        }
        other => panic!("expected Race, got {other}"),
    }
    assert!(!f.schedule.0.is_empty() || f.schedule.to_hex().is_empty());
}

#[test]
fn vacuous_acquire_is_reported_with_both_sites() {
    let report = Checker::new("vacuous-acquire").preemption_bound(1).check(|| {
        let flag = Arc::new(McAtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let t = McShims::spawn(move || {
            // ordering: Relaxed — deliberately NOT Release; the
            // acquire load below claims an edge this store never
            // provides.
            f2.store(1, Ordering::Relaxed);
        });
        // ordering: Acquire — the vacuous half of the broken pair.
        let _ = flag.load(Ordering::Acquire);
        t.join();
    });
    let f = report.expect_failure();
    match &f.kind {
        FailureKind::VacuousAcquire { store, load } => {
            assert!(store.file.ends_with("models.rs"), "store site: {store}");
            assert!(load.file.ends_with("models.rs"), "load site: {load}");
        }
        other => panic!("expected VacuousAcquire, got {other}"),
    }
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
    // Two threads each do a non-atomic read-modify-write (load; store).
    // Even with zero preemptions the weak-memory read-from choice lets
    // the second thread read the stale initial value — the lost update
    // is found at bound 0.
    let report = Checker::new("lost-update").preemption_bound(0).check(|| {
        let c = Arc::new(McAtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = McShims::spawn(move || {
            // ordering: Relaxed — the bug under test (should be a
            // single atomic RMW).
            let v = c2.load(Ordering::Relaxed);
            c2.store(v + 1, Ordering::Relaxed);
        });
        // ordering: Relaxed — as above.
        let v = c.load(Ordering::Relaxed);
        c.store(v + 1, Ordering::Relaxed);
        t.join();
        // ordering: Relaxed — final observation; the join edge makes
        // both stores visible.
        assert_eq!(c.load(Ordering::Relaxed), 2);
    });
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
                // ordering: AcqRel — RMW atomicity is the point; the
                // release half chains the increments.
                c2.fetch_add(1, Ordering::AcqRel);
            }));
        }
        for j in joins {
            j.join();
        }
        // ordering: Acquire — reads the last RMW in the release chain.
        assert_eq!(c.load(Ordering::Acquire), 3);
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
    let report = Checker::new("artifact-check").preemption_bound(1).check(|| {
        let d = Arc::new(McData::<u64>::new(0));
        let d2 = Arc::clone(&d);
        let t = McShims::spawn(move || d2.set(1));
        d.set(2);
        t.join();
    });
    let f = report.expect_failure();
    let path = report.artifact.as_ref().expect("artifact written");
    assert!(path.starts_with(&dir) || std::env::var("GCS_MC_ARTIFACT_DIR").is_ok());
    let body = std::fs::read_to_string(path).expect("artifact readable");
    assert!(body.contains("model: artifact-check"), "{body}");
    assert!(body.contains(&format!("schedule: {}", f.schedule)), "{body}");
}
