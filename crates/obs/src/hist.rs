//! A fixed-bucket log-scale histogram with lock-free recording.
//!
//! Buckets are laid out HdrHistogram-style: values below `2^SUB_BITS`
//! get one exact bucket each, and every octave above that is split into
//! `2^SUB_BITS` sub-buckets, so the relative quantization error is at
//! most `2^-SUB_BITS` (12.5% with the 3 sub-bits used here, halved on
//! average by the in-bucket interpolation). The bucket count is fixed at
//! compile time, so a histogram is a flat array of atomics: recording is
//! a handful of relaxed atomic adds, snapshots are a plain copy, and two
//! histograms merge by adding buckets.
//!
//! Percentile estimation interpolates linearly inside the target bucket
//! and clamps the bucket's edges to the *observed* minimum and maximum.
//! The clamp is what keeps the top bucket honest: without it, a p99/p100
//! query landing in the highest occupied bucket reports the bucket's
//! upper edge — up to 12.5% above any value ever recorded (and for the
//! final overflow bucket, `u64::MAX`). With it, `percentile(100.0)` is
//! exactly the recorded maximum.
//!
//! Like the rest of the crate's concurrent core, the histogram is
//! generic over the [`gcs_mc::Shims`] sync surface: `StdShims` (the
//! default) in production, `McShims` under the model checker (see
//! crates/obs/tests/mc_registry.rs and docs/CONCURRENCY.md).

use gcs_mc::{AtomicU64Api, Shims, StdShims};
use std::fmt;
use std::sync::Arc;

type A64<S> = <S as Shims>::AtomicU64;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count for the full `u64` range.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let base = (msb - SUB_BITS + 1) as usize * SUB;
        let sub = ((v >> (msb - SUB_BITS)) as usize) - SUB;
        base + sub
    }
}

/// The smallest value mapping to bucket `i`.
#[inline]
fn lower_bound(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let octave = (i / SUB) as u32; // = msb - SUB_BITS + 1
        let sub = (i % SUB) as u64;
        (SUB as u64 + sub) << (octave - 1)
    }
}

/// The largest value mapping to bucket `i`.
#[inline]
fn upper_bound(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        lower_bound(i + 1) - 1
    }
}

/// The shared histogram core: a flat array of atomic bucket counts plus
/// count/sum/min/max. All methods take `&self`; recording is wait-free.
pub(crate) struct HistCore<S: Shims = StdShims> {
    buckets: Vec<A64<S>>,
    count: A64<S>,
    sum: A64<S>,
    min: A64<S>,
    max: A64<S>,
}

impl<S: Shims> fmt::Debug for HistCore<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistCore").finish_non_exhaustive()
    }
}

impl<S: Shims> HistCore<S> {
    fn new() -> Self {
        HistCore {
            buckets: (0..NUM_BUCKETS).map(|_| A64::<S>::new(0)).collect(),
            count: A64::<S>::new(0),
            sum: A64::<S>::new(0),
            min: A64::<S>::new(u64::MAX),
            max: A64::<S>::new(0),
        }
    }

    fn record(&self, v: u64) {
        // Independent counters, no cross-field consistency claimed: the
        // `registry_scrape_under_write` gcs-mc model checks per-cell
        // exactness at quiescence, torn cuts tolerated.
        self.buckets[bucket_index(v)].fetch_add(1);
        self.count.fetch_add(1);
        self.sum.fetch_add(v);
        self.min.fetch_min(v);
        self.max.fetch_max(v);
    }

    fn snapshot(&self) -> HistSnapshot {
        // Taken concurrently with record() it may see count without sum
        // (or vice versa); see the HistSnapshot docs.
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load()).collect(),
            count: self.count.load(),
            sum: self.sum.load(),
            min: self.min.load(),
            max: self.max.load(),
        }
    }
}

/// A concurrently recordable log-scale histogram handle. Cloning shares
/// the underlying buckets.
pub struct Histogram<S: Shims = StdShims> {
    core: Arc<HistCore<S>>,
}

impl<S: Shims> Clone for Histogram<S> {
    fn clone(&self) -> Self {
        Histogram { core: Arc::clone(&self.core) }
    }
}

impl<S: Shims> fmt::Debug for Histogram<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram").finish_non_exhaustive()
    }
}

impl<S: Shims> Default for Histogram<S> {
    fn default() -> Self {
        Histogram::new()
    }
}

impl<S: Shims> Histogram<S> {
    /// A fresh standalone histogram (registry-managed histograms come
    /// from [`crate::Registry::histogram`]).
    pub fn new() -> Self {
        Histogram { core: Arc::new(HistCore::new()) }
    }

    pub(crate) fn from_core(core: Arc<HistCore<S>>) -> Self {
        Histogram { core }
    }

    pub(crate) fn core(&self) -> &Arc<HistCore<S>> {
        &self.core
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.core.record(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.core.count.load()
    }

    /// Mean of the recorded samples (exact — tracked via the running
    /// sum, not the buckets). 0 when empty.
    pub fn mean(&self) -> u64 {
        self.snapshot().mean()
    }

    /// The `p`-th percentile (0.0–100.0), interpolated within the target
    /// bucket and clamped to the observed min/max. 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// The largest recorded sample (exact). 0 when empty.
    pub fn max(&self) -> u64 {
        self.snapshot().max()
    }

    /// The smallest recorded sample (exact). 0 when empty.
    pub fn min(&self) -> u64 {
        self.snapshot().min()
    }

    /// An immutable snapshot of the current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        self.core.snapshot()
    }
}

/// A frozen copy of a histogram's state; what snapshots and merges work
/// with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> Self {
        HistSnapshot { buckets: vec![0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Exact observed maximum (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact observed minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The `p`-th percentile (0.0–100.0), linearly interpolated within
    /// the target bucket. Bucket edges are clamped to the observed
    /// min/max, so `percentile(100.0)` is exactly [`HistSnapshot::max`]
    /// even when the rank lands in the unbounded top bucket.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                // Interpolate inside this bucket, clamping its edges to
                // what was actually observed (the top-bucket-edge fix).
                let lo = lower_bound(i).max(self.min);
                let hi = upper_bound(i).min(self.max).max(lo);
                let need = rank - cum;
                if need >= c {
                    // The whole bucket is consumed: its (clamped) upper
                    // edge, exactly — no float round-trip, which would
                    // lose low bits on u64-scale spans.
                    return hi;
                }
                let frac = need as f64 / c as f64;
                return (lo + ((hi - lo) as f64 * frac).round() as u64).min(hi);
            }
            cum += c;
        }
        self.max
    }

    /// Folds `other` into `self` (bucket-wise addition; min/max/sum/count
    /// combine exactly).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(upper_bound, cumulative_count)` pairs, the
    /// shape Prometheus histogram exposition wants.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((upper_bound(i), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h: Histogram = Histogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        for p in [0.0, 50.0, 100.0] {
            let got = h.percentile(p);
            assert!(got < 8, "p{p} = {got}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.count(), 8);
        assert_eq!(h.mean(), 28 / 8);
    }

    #[test]
    fn bucket_index_bounds_roundtrip() {
        for v in (0..64).chain([100, 1000, 65_535, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let i = bucket_index(v);
            assert!(
                lower_bound(i) <= v && v <= upper_bound(i),
                "v={v} i={i} lo={} hi={}",
                lower_bound(i),
                upper_bound(i)
            );
        }
        // Bucket bounds tile the u64 range without gaps or overlaps.
        for i in 1..NUM_BUCKETS {
            assert_eq!(lower_bound(i), upper_bound(i - 1).wrapping_add(1), "gap at bucket {i}");
        }
    }

    #[test]
    fn percentiles_are_within_bucket_error() {
        let h: Histogram = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        for (p, exact) in [(50.0, 500u64), (90.0, 900), (99.0, 990)] {
            let got = h.percentile(p);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.13, "p{p}: got {got}, exact {exact}, err {err:.3}");
        }
    }

    #[test]
    fn top_bucket_percentile_clamps_to_observed_max() {
        let h: Histogram = Histogram::new();
        // One sample deep inside a wide bucket: every percentile must
        // report a value we actually saw, not the bucket edge.
        h.record(1_000_000);
        assert_eq!(h.percentile(100.0), 1_000_000);
        assert_eq!(h.percentile(99.0), 1_000_000);
        assert_eq!(h.percentile(0.0), 1_000_000);
        // Many samples, then one extreme outlier: p100 is the outlier
        // itself, never the (huge) top bucket edge.
        let h: Histogram = Histogram::new();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(u64::MAX / 3);
        assert_eq!(h.percentile(100.0), u64::MAX / 3);
        assert_eq!(h.max(), u64::MAX / 3);
    }

    #[test]
    fn merge_combines_everything() {
        let a: Histogram = Histogram::new();
        let b: Histogram = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
        }
        for v in 101..=200u64 {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 200);
        assert_eq!(m.min(), 1);
        assert_eq!(m.max(), 200);
        assert_eq!(m.sum(), (1..=200u64).sum::<u64>());
        let p50 = m.percentile(50.0);
        assert!((85..=115).contains(&p50), "merged p50 = {p50}");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h: Histogram = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h: Histogram = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
    }
}
