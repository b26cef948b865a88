//! gcs-mc models for the metrics registry: concurrent registration
//! must converge on one shared cell, scrapes racing writers must be
//! exact at quiescence (the "merge-under-write" surface), and the
//! histogram's all-Relaxed recording protocol must lose nothing.

use gcs_mc::{Checker, JoinApi, McShims, Shims};
use gcs_obs::{Histogram, MetricValue, Registry};

#[test]
fn registry_concurrent_registration_shares_one_cell() {
    let report = Checker::new("registry-register").check(|| {
        let r: Registry<McShims> = Registry::new();
        let r2 = r.clone();
        let t = McShims::spawn(move || {
            r2.counter("ops").inc();
        });
        r.counter("ops").inc();
        t.join();
        // Both registrations resolved to the same cell: the join edge
        // makes both RMW increments visible.
        assert_eq!(r.counter("ops").get(), 2);
    });
    report.assert_ok();
}

#[test]
fn registry_scrape_under_write_is_exact_at_quiescence() {
    let report = Checker::new("registry-scrape").check(|| {
        let r: Registry<McShims> = Registry::new();
        let c = r.counter("events");
        let g = r.gauge("depth");
        let (c2, g2) = (c.clone(), g.clone());
        let t = McShims::spawn(move || {
            c2.add(2);
            g2.add(1);
        });
        c.inc();
        g.add(-3);
        // A scrape racing the writer: not a consistent cut, but every
        // value it reports must be one the cell actually held.
        let mid = r.snapshot();
        assert!(mid.counter_value("events", &[]) <= 3);
        t.join();
        // Quiescent scrape: exact totals (counter RMWs never lose an
        // increment; the gauge sums both signed adds).
        let fin = r.snapshot();
        assert_eq!(fin.counter_value("events", &[]), 3);
        assert_eq!(fin.get("depth", &[]), Some(&MetricValue::Gauge(-2)));
    });
    report.assert_ok();
}

#[test]
fn histogram_concurrent_recording_loses_nothing() {
    let report = Checker::new("hist-record").check(|| {
        let h: Histogram<McShims> = Histogram::new();
        let h2 = h.clone();
        let t = McShims::spawn(move || {
            h2.record(10);
        });
        h.record(30);
        t.join();
        // All-Relaxed recording: every cell is still individually
        // exact once the join edge orders the writers.
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.sum(), 40);
        assert_eq!(snap.min(), 10);
        assert_eq!(snap.max(), 30);
        assert_eq!(snap.percentile(100.0), 30);
    });
    report.assert_ok();
}

#[test]
fn registry_histogram_handles_share_buckets() {
    let report = Checker::new("registry-hist-share").check(|| {
        let r: Registry<McShims> = Registry::new();
        let r2 = r.clone();
        let t = McShims::spawn(move || {
            r2.histogram("lat").record(5);
        });
        r.histogram("lat").record(7);
        t.join();
        match r.snapshot().get("lat", &[]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.sum(), 12);
            }
            other => panic!("lat missing: {other:?}"),
        }
    });
    report.assert_ok();
}
