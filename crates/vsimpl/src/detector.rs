//! Adaptive accrual-style failure detection behind a policy seam.
//!
//! The paper's Section 8 membership sketch detects token loss with a
//! *fixed* timeout `π + (n+3)δ` derived from the assumed channel bound
//! δ. On a real network whose delays drift near that bound, the fixed
//! timeout thrashes: every late token triggers a view formation, the
//! formation resets the ring, and the group pays a full stabilization
//! round for a frame that was merely slow. Accrual failure detectors
//! (φ-detectors) replace the constant with a *measured* model of the
//! inter-arrival distribution, so the detection threshold tracks the
//! network instead of the spec sheet.
//!
//! This module keeps both worlds behind [`DetectorPolicy`]:
//!
//! - [`DetectorPolicy::Fixed`] (the default everywhere) preserves the
//!   paper's timers bit for bit — same timeouts, same wire behavior,
//!   same simulation digests.
//! - [`DetectorPolicy::Adaptive`] computes the token-loss timeout from
//!   an [`AccrualEstimator`] over the measured inter-arrival gaps of
//!   contiguous token receipts, clamped to `[fixed, CAP_FACTOR × fixed]`
//!   — the adaptive detector only ever *loosens* relative to the paper's
//!   derivation, so a genuinely crashed peer is still detected within a
//!   bounded multiple of the fixed deadline.
//!
//! Everything here is integer arithmetic over virtual milliseconds: no
//! floats, no wall clocks, no hashing — the same scenario replays to the
//! same digest on any machine and under any worker count, which is the
//! contract the deterministic simulation harness (`gcs-sim`) enforces.

use gcs_model::Time;
use std::collections::VecDeque;

/// How many inter-arrival samples the estimator retains. Old samples
/// age out, so a timeout widened by a past disturbance re-tightens once
/// the network has been quiet for a full window.
const WINDOW: usize = 16;

/// Minimum samples before the measured estimate is trusted; below this
/// the detector behaves exactly like the fixed policy (cold-start
/// safety).
const MIN_SAMPLES: usize = 4;

/// Safety margin applied to the tail estimate, in percent (200 =
/// suspect only after twice the largest plausible gap).
const MARGIN_PCT: Time = 200;

/// Upper clamp on the adaptive timeout, as a multiple of the fixed
/// timeout: a real crash is detected within `CAP_FACTOR ×` the paper's
/// deadline no matter what the estimator has absorbed.
const CAP_FACTOR: Time = 6;

/// Which failure-detection policy a node runs (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorPolicy {
    /// The paper's fixed `π + (n+3)δ` token-loss timeout. The default:
    /// wire behavior, benchmarks, and simulation digests are identical
    /// to the pre-seam protocol.
    Fixed,
    /// Accrual detection from measured token inter-arrival gaps.
    Adaptive,
}

/// Integer square root (largest `r` with `r² ≤ v`), Newton's method.
fn isqrt(v: u64) -> u64 {
    if v < 2 {
        return v;
    }
    let mut x = v;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x
}

/// A windowed estimator of one inter-arrival distribution, in integer
/// milliseconds.
///
/// [`AccrualEstimator::observe`] records the gap since the previous
/// arrival; [`AccrualEstimator::tail_estimate`] answers "how long a gap
/// is still plausible?" as `max(largest windowed gap, mean + 4σ)` — the
/// integer analog of the φ-detector's distribution tail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccrualEstimator {
    samples: VecDeque<Time>,
    last: Option<Time>,
}

impl AccrualEstimator {
    /// Records an arrival at `now`: the gap since the previous arrival
    /// becomes a sample (the first arrival only anchors).
    pub fn observe(&mut self, now: Time) {
        if let Some(last) = self.last {
            self.push_gap(now.saturating_sub(last));
        }
        self.last = Some(now);
    }

    /// Re-anchors the gap baseline at `now` without recording a sample —
    /// used across view installations, so formation time is not counted
    /// as an inter-arrival gap.
    pub fn reanchor(&mut self, now: Time) {
        self.last = Some(now);
    }

    /// Records a *censored* observation: the arrival never came, but a
    /// gap of at least `gap` ms was genuinely observed before the
    /// detector gave up. Feeding the timeout back in on every
    /// timeout-triggered formation gives the estimator RTO-style
    /// backoff: a disturbance the current estimate undershoots widens
    /// the next timeout instead of tripping at the same threshold
    /// forever.
    pub fn observe_censored(&mut self, gap: Time) {
        self.push_gap(gap);
    }

    fn push_gap(&mut self, gap: Time) {
        if self.samples.len() == WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back(gap);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been retained yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the windowed samples (0 when empty).
    pub fn mean(&self) -> Time {
        if self.samples.is_empty() {
            return 0;
        }
        self.samples.iter().sum::<Time>() / self.samples.len() as Time
    }

    /// Integer standard deviation of the windowed samples.
    fn stddev(&self) -> Time {
        let k = self.samples.len() as Time;
        if k < 2 {
            return 0;
        }
        let mean = self.mean();
        let var = self
            .samples
            .iter()
            .map(|&s| {
                let d = s.abs_diff(mean);
                d.saturating_mul(d)
            })
            .fold(0u64, u64::saturating_add)
            / k;
        isqrt(var)
    }

    /// Largest windowed gap (0 when empty).
    pub fn max_gap(&self) -> Time {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// The tail estimate `max(max_gap, mean + 4σ)`, or `None` with
    /// fewer than `MIN_SAMPLES` samples (cold start).
    pub fn tail_estimate(&self) -> Option<Time> {
        if self.samples.len() < MIN_SAMPLES {
            return None;
        }
        Some(self.max_gap().max(self.mean().saturating_add(4 * self.stddev())).max(1))
    }
}

/// The per-node adaptive detector state: the gaps between contiguous
/// token receipts — the ring heartbeat as this node experiences it —
/// driving the loss timeout.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveDetector {
    token_gaps: AccrualEstimator,
}

impl AdaptiveDetector {
    /// Records a contiguous token receipt at `now`.
    pub fn observe_token(&mut self, now: Time) {
        self.token_gaps.observe(now);
    }

    /// Re-anchors the token-gap baseline (on view installation).
    pub fn reanchor_token(&mut self, now: Time) {
        self.token_gaps.reanchor(now);
    }

    /// Records a timeout-triggered formation: the `elapsed` silence is a
    /// censored gap observation (see
    /// [`AccrualEstimator::observe_censored`]).
    pub fn observe_timeout(&mut self, elapsed: Time) {
        self.token_gaps.observe_censored(elapsed);
    }

    /// The adaptive token-loss timeout given the fixed-policy timeout
    /// `fixed` (stagger excluded): the margined tail estimate, clamped
    /// to `[fixed, CAP_FACTOR × fixed]`. Cold estimators fall back to
    /// `fixed` exactly.
    pub fn token_timeout(&self, fixed: Time) -> Time {
        match self.token_gaps.tail_estimate() {
            Some(est) => (est.saturating_mul(MARGIN_PCT) / 100)
                .clamp(fixed, fixed.saturating_mul(CAP_FACTOR)),
            None => fixed,
        }
    }

    /// The effective channel-delay bound δ̂ the current timeout implies,
    /// exported so the b/d monitors can widen the paper's formulas to
    /// what the detector is actually enforcing: `δ̂ = ⌈(timeout − π) /
    /// (n+3)⌉`, clamped to at least the configured δ, solves `timeout =
    /// π + (n+3)δ̂`, so `b̂ = 9δ̂ + max{π + (n+3)δ̂, μ}` again covers
    /// detection plus formation and `d̂ = 2π + nδ̂` covers two rotations.
    /// π itself is not adapted.
    pub fn delta_hat(&self, fixed: Time, pi: Time, n: u32, delta: Time) -> Time {
        let span = self.token_timeout(fixed).saturating_sub(pi);
        span.div_ceil(n as Time + 3).max(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isqrt_is_exact_floor() {
        for v in [0u64, 1, 2, 3, 4, 8, 9, 15, 16, 17, 99, 100, 1 << 40] {
            let r = isqrt(v);
            assert!(r * r <= v, "v={v}");
            assert!((r + 1) * (r + 1) > v, "v={v}");
        }
    }

    #[test]
    fn cold_estimator_falls_back_to_fixed() {
        let d = AdaptiveDetector::default();
        assert_eq!(d.token_timeout(180), 180);
        assert_eq!(d.delta_hat(180, 100, 5, 10), 10);
    }

    #[test]
    fn warm_estimator_loosens_but_stays_capped() {
        let mut d = AdaptiveDetector::default();
        let mut t = 0;
        for _ in 0..8 {
            t += 130;
            d.observe_token(t);
        }
        // Tail ≈ 130, margin 200% → 260; floor is the fixed timeout.
        assert_eq!(d.token_timeout(180), 260);
        assert_eq!(d.token_timeout(300), 300, "never below the fixed timeout");
        // A huge censored gap saturates at the cap.
        d.observe_timeout(1_000_000);
        assert_eq!(d.token_timeout(180), 6 * 180);
    }

    #[test]
    fn censored_observation_backs_off() {
        let mut d = AdaptiveDetector::default();
        for i in 1..=6u64 {
            d.observe_token(i * 100);
        }
        let before = d.token_timeout(180);
        d.observe_timeout(before);
        let after = d.token_timeout(180);
        assert!(after > before, "timeout must widen after a timeout-triggered formation");
    }

    #[test]
    fn window_ages_out_old_disturbances() {
        let mut d = AdaptiveDetector::default();
        d.observe_token(0);
        d.observe_timeout(900);
        // A full window of quiet gaps pushes the 900 ms outlier out.
        // (A censored sample does not move the anchor, so re-anchor as a
        // post-formation install would.)
        d.reanchor_token(1000);
        let mut t = 1000;
        for _ in 0..WINDOW {
            t += 100;
            d.observe_token(t);
        }
        assert!(d.token_timeout(180) <= 260, "old outlier must age out");
    }

    #[test]
    fn bounds_cover_the_adaptive_timeout() {
        let mut d = AdaptiveDetector::default();
        for i in 1..=8u64 {
            d.observe_token(i * 250);
        }
        let (fixed, pi, n, delta) = (180, 100, 5u32, 10);
        let delta_hat = d.delta_hat(fixed, pi, n, delta);
        // π + (n+3)·δ̂ must reach the enforced timeout.
        assert!(pi + (n as Time + 3) * delta_hat >= d.token_timeout(fixed));
        assert!(delta_hat >= delta);
    }
}
