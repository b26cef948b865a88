//! The metrics registry: named counters, gauges, and log-scale
//! histograms with snapshot/merge and Prometheus-style text exposition.
//!
//! Handles are looked up (or created) once and then operate on plain
//! atomics — the registry's one lock is touched only at registration
//! and snapshot time, never on the hot increment path.
//!
//! The registry is generic over the [`gcs_mc::Shims`] sync surface:
//! `Registry` (the `StdShims` default) is the zero-cost production
//! form, and `Registry<McShims>` runs the identical code under the
//! gcs-mc model checker — the registration and scrape-under-write
//! protocols are exhaustively checked in crates/obs/tests/
//! mc_registry.rs (see docs/CONCURRENCY.md).

use crate::hist::{HistCore, HistSnapshot, Histogram};
use gcs_mc::{AtomicI64Api, AtomicU64Api, MutexApi, Shims, StdShims};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

type A64<S> = <S as Shims>::AtomicU64;
type AI64<S> = <S as Shims>::AtomicI64;

/// A monotonically increasing counter. Cloning shares the cell.
pub struct Counter<S: Shims = StdShims> {
    cell: Arc<A64<S>>,
}

impl<S: Shims> Clone for Counter<S> {
    fn clone(&self) -> Self {
        Counter { cell: Arc::clone(&self.cell) }
    }
}

impl<S: Shims> fmt::Debug for Counter<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter").finish_non_exhaustive()
    }
}

impl<S: Shims> Counter<S> {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — pure event counter; hot-path increments
        // synchronize nothing, readers merge at scrape time.
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — advisory scrape read.
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways. Cloning shares the cell.
pub struct Gauge<S: Shims = StdShims> {
    cell: Arc<AI64<S>>,
}

impl<S: Shims> Clone for Gauge<S> {
    fn clone(&self) -> Self {
        Gauge { cell: Arc::clone(&self.cell) }
    }
}

impl<S: Shims> fmt::Debug for Gauge<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauge").finish_non_exhaustive()
    }
}

impl<S: Shims> Gauge<S> {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        // ordering: Relaxed — last-writer-wins gauge cell; no data is
        // published under it.
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        // ordering: Relaxed — atomic RMW keeps the sum exact; ordering
        // against other metrics is not required.
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        // ordering: Relaxed — advisory scrape read.
        self.cell.load(Ordering::Relaxed)
    }
}

/// A metric identity: name plus ordered label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// The metric name (e.g. `net_frames_sent_total`).
    pub name: String,
    /// Ordered `(key, value)` label pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Renders as `name` or `name{k="v",...}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            self.name.clone()
        } else {
            let mut s = format!("{}{{", self.name);
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{k}=\"{v}\"");
            }
            s.push('}');
            s
        }
    }
}

enum Slot<S: Shims> {
    Counter(Arc<A64<S>>),
    Gauge(Arc<AI64<S>>),
    Histogram(Arc<HistCore<S>>),
}

impl<S: Shims> Clone for Slot<S> {
    fn clone(&self) -> Self {
        match self {
            Slot::Counter(c) => Slot::Counter(Arc::clone(c)),
            Slot::Gauge(g) => Slot::Gauge(Arc::clone(g)),
            Slot::Histogram(h) => Slot::Histogram(Arc::clone(h)),
        }
    }
}

/// The registry. Cloning shares the underlying metric store.
pub struct Registry<S: Shims = StdShims> {
    slots: Arc<S::Mutex<BTreeMap<MetricKey, Slot<S>>>>,
}

impl<S: Shims> Clone for Registry<S> {
    fn clone(&self) -> Self {
        Registry { slots: Arc::clone(&self.slots) }
    }
}

impl<S: Shims> fmt::Debug for Registry<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

impl<S: Shims> Default for Registry<S> {
    fn default() -> Self {
        Registry::new()
    }
}

fn key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    MetricKey {
        name: name.to_string(),
        labels: labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
    }
}

impl<S: Shims> Registry<S> {
    /// An empty registry.
    pub fn new() -> Self {
        Registry { slots: Arc::new(S::Mutex::new(BTreeMap::new())) }
    }

    /// The counter `name` with no labels, created on first use.
    pub fn counter(&self, name: &str) -> Counter<S> {
        self.counter_labeled(name, &[])
    }

    /// The counter `name` with the given label pairs, created on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if the same name+labels was registered as a different
    /// metric type.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter<S> {
        let k = key(name, labels);
        let mut slots = self.slots.lock_clean();
        let slot = slots.entry(k).or_insert_with(|| Slot::Counter(Arc::new(A64::<S>::new(0))));
        match slot {
            Slot::Counter(c) => Counter { cell: c.clone() },
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The gauge `name` with no labels, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge<S> {
        self.gauge_labeled(name, &[])
    }

    /// The gauge `name` with the given label pairs, created on first use.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type conflict.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge<S> {
        let k = key(name, labels);
        let mut slots = self.slots.lock_clean();
        let slot = slots.entry(k).or_insert_with(|| Slot::Gauge(Arc::new(AI64::<S>::new(0))));
        match slot {
            Slot::Gauge(g) => Gauge { cell: g.clone() },
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// The histogram `name` with no labels, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram<S> {
        self.histogram_labeled(name, &[])
    }

    /// The histogram `name` with the given label pairs, created on first
    /// use.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type conflict.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Histogram<S> {
        let k = key(name, labels);
        let mut slots = self.slots.lock_clean();
        let slot =
            slots.entry(k).or_insert_with(|| Slot::Histogram(Histogram::new().core().clone()));
        match slot {
            Slot::Histogram(h) => Histogram::from_core(h.clone()),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// A frozen, ordered copy of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self
            .slots
            .lock_clean()
            .iter()
            .map(|(k, slot)| {
                let value = match slot {
                    // ordering: Relaxed — scrape-time reads; a snapshot
                    // is not a consistent cut across metrics (the
                    // `registry_scrape_under_write` gcs-mc model pins
                    // down what that does and does not permit).
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                    Slot::Histogram(h) => {
                        MetricValue::Histogram(Histogram::from_core(h.clone()).snapshot())
                    }
                };
                (k.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }

    /// Prometheus-style text exposition of the current state.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// One snapshotted metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram state.
    Histogram(HistSnapshot),
}

/// A frozen, mergeable copy of a registry's contents, ordered by metric
/// name and labels.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    entries: BTreeMap<MetricKey, MetricValue>,
}

impl Snapshot {
    /// Iterates over `(rendered_name, value)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (String, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.render(), v))
    }

    /// The value of the exact metric `name` with `labels`, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&key(name, labels))
    }

    /// The counter `name` with `labels`, or 0 if absent.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The sum of counter `name` across every label set.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise, metrics unique to either side are kept.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.entries {
            match (self.entries.get_mut(k), v) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => *a += b,
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a += b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(_), _) => {} // type conflict across snapshots: keep ours
                (None, _) => {
                    self.entries.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Prometheus-style text exposition: `# TYPE` comments, one sample
    /// per line, histograms as `_bucket{le=..}`/`_sum`/`_count` series.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for (k, v) in &self.entries {
            let type_str = match v {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            if last_name != Some(k.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", k.name, type_str);
                last_name = Some(k.name.as_str());
            }
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{} {}", k.render(), c);
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", k.render(), g);
                }
                MetricValue::Histogram(h) => {
                    for (le, cum) in h.cumulative_buckets() {
                        let mut lk = k.clone();
                        lk.labels.push(("le".to_string(), le.to_string()));
                        let _ = writeln!(out, "{}_bucket{} {}", k.name, strip_name(&lk), cum);
                    }
                    let mut ik = k.clone();
                    ik.labels.push(("le".to_string(), "+Inf".to_string()));
                    let _ = writeln!(out, "{}_bucket{} {}", k.name, strip_name(&ik), h.count());
                    let _ = writeln!(out, "{}_sum{} {}", k.name, strip_name(k), h.sum());
                    let _ = writeln!(out, "{}_count{} {}", k.name, strip_name(k), h.count());
                }
            }
        }
        out
    }
}

/// The `{labels}` part of a rendered key (empty string when unlabeled).
fn strip_name(k: &MetricKey) -> String {
    let r = k.render();
    r[k.name.len()..].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r: Registry = Registry::new();
        let c = r.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Looking the same name up again shares the cell.
        assert_eq!(r.counter("requests_total").get(), 5);

        let g = r.gauge("queue_depth");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn labels_distinguish_series() {
        let r: Registry = Registry::new();
        r.counter_labeled("sent", &[("node", "0")]).add(10);
        r.counter_labeled("sent", &[("node", "1")]).add(20);
        let s = r.snapshot();
        assert_eq!(s.counter_value("sent", &[("node", "0")]), 10);
        assert_eq!(s.counter_value("sent", &[("node", "1")]), 20);
        assert_eq!(s.counter_total("sent"), 30);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_conflicts_panic() {
        let r: Registry = Registry::new();
        r.counter("x").inc();
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshots_merge() {
        let a: Registry = Registry::new();
        let b: Registry = Registry::new();
        a.counter("ops").add(3);
        b.counter("ops").add(4);
        b.counter("only_b").add(1);
        a.gauge("depth").set(5);
        b.gauge("depth").set(7);
        a.histogram("lat").record(10);
        b.histogram("lat").record(30);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter_value("ops", &[]), 7);
        assert_eq!(m.counter_value("only_b", &[]), 1);
        assert_eq!(m.get("depth", &[]), Some(&MetricValue::Gauge(12)));
        match m.get("lat", &[]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.max(), 30);
            }
            other => panic!("lat missing: {other:?}"),
        }
    }

    #[test]
    fn text_exposition_shape() {
        let r: Registry = Registry::new();
        r.counter_labeled("frames_sent_total", &[("node", "0")]).add(42);
        r.gauge("links_up").set(3);
        r.histogram("latency_us").record(100);
        let text = r.render_text();
        assert!(text.contains("# TYPE frames_sent_total counter"), "{text}");
        assert!(text.contains("frames_sent_total{node=\"0\"} 42"), "{text}");
        assert!(text.contains("# TYPE links_up gauge"), "{text}");
        assert!(text.contains("links_up 3"), "{text}");
        assert!(text.contains("latency_us_count 1"), "{text}");
        assert!(text.contains("latency_us_sum 100"), "{text}");
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 1"), "{text}");
    }

    #[test]
    fn sharded_registration_is_thread_safe() {
        let r: Registry = Registry::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        r.counter_labeled(&format!("m{}", i % 10), &[("t", &t.to_string())]).inc();
                    }
                });
            }
        });
        let snap = r.snapshot();
        let total: u64 = (0..10).map(|i| snap.counter_total(&format!("m{i}"))).sum();
        assert_eq!(total, 800);
    }
}
