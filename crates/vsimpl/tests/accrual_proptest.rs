//! Property-based tests of the accrual failure-detection estimator:
//! the laws the adaptive detector's safety argument rests on — cold
//! starts are indistinguishable from the fixed policy, the adaptive
//! timeout never leaves its `[fixed, 6 × fixed]` clamp no matter what
//! arrival history it absorbed, and the exported δ̂ covers the timeout.

use gcs_vsimpl::{AccrualEstimator, AdaptiveDetector};
use proptest::prelude::*;

/// An arbitrary arrival history: positive inter-arrival gaps (the
/// estimator never sees wall-clock time, only a monotone virtual
/// clock).
fn arb_gaps(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..2_000, 0..=max_len)
}

/// Replays `gaps` into a fresh detector as token observations starting
/// at t = 0, interleaving censored (timeout) observations where
/// `censor` says so, and returns it with the final virtual time.
fn detector_from(gaps: &[u64], censor: &[bool]) -> (AdaptiveDetector, u64) {
    let mut d = AdaptiveDetector::default();
    let mut now = 0u64;
    d.observe_token(now);
    for (i, &g) in gaps.iter().enumerate() {
        now += g;
        if censor.get(i).copied().unwrap_or(false) {
            d.observe_timeout(g);
            d.reanchor_token(now);
        } else {
            d.observe_token(now);
        }
    }
    (d, now)
}

proptest! {
    /// The adaptive token timeout is bounded whatever the history —
    /// jitter, spikes, censored timeouts — it never undercuts the fixed
    /// deadline (safety floor) and never exceeds the 6× cap (liveness
    /// ceiling).
    #[test]
    fn timeout_stays_inside_the_clamp(
        gaps in arb_gaps(64),
        censor in prop::collection::vec(any::<bool>(), 0..=64),
        fixed in 1u64..10_000,
    ) {
        let (d, _) = detector_from(&gaps, &censor);
        let t = d.token_timeout(fixed);
        let cap = fixed * 6;
        prop_assert!(t >= fixed, "timeout {t} fell below the fixed floor {fixed}");
        prop_assert!(t <= cap, "timeout {t} exceeded the cap {cap}");
    }

    /// Cold start: with fewer than four gap observations (the minimum
    /// sample count) the detector is *exactly* the fixed policy — same
    /// timeout, same effective δ. This is what keeps short-lived nodes
    /// and fresh incarnations byte-identical to the fixed-policy wire
    /// behavior.
    #[test]
    fn cold_start_is_exactly_fixed(
        gaps in arb_gaps(3), // up to 3 gaps stays cold
        fixed in 1u64..10_000,
    ) {
        let (d, _) = detector_from(&gaps, &[]);
        prop_assert_eq!(d.token_timeout(fixed), fixed);
        // With the deadline the standard config derives (π + (n+3)δ =
        // 180 for n = 5, δ = 10), a cold detector's δ̂ is exactly the
        // configured δ.
        prop_assert_eq!(d.delta_hat(180, 100, 5, 10), 10, "cold δ̂ must be the configured δ");
    }

    /// The sliding window bounds memory: however long the history, at
    /// most 16 samples are retained, and the tail estimate always
    /// dominates the windowed mean (it is max(max_gap, mean + 4σ)).
    #[test]
    fn window_is_bounded_and_tail_dominates_mean(
        gaps in arb_gaps(200),
    ) {
        let mut est = AccrualEstimator::default();
        let mut now = 0u64;
        est.observe(now);
        for g in &gaps {
            now += g;
            est.observe(now);
        }
        prop_assert!(est.len() <= 16, "window overflow: {}", est.len());
        if let Some(tail) = est.tail_estimate() {
            prop_assert!(tail >= est.mean());
            prop_assert!(tail >= est.max_gap());
        }
    }

    /// Effective bounds are conservative: δ̂ never undercuts the
    /// configured δ, and δ̂ is large enough that re-deriving the timeout
    /// from the bounds formula `π + (n+3)δ̂` covers the actual adaptive
    /// timeout.
    #[test]
    fn effective_bounds_cover_the_timeout(
        gaps in arb_gaps(64),
        censor in prop::collection::vec(any::<bool>(), 0..=64),
    ) {
        let (d, _) = detector_from(&gaps, &censor);
        let (fixed, pi, n, delta) = (180u64, 100u64, 5u32, 10u64);
        let delta_hat = d.delta_hat(fixed, pi, n, delta);
        prop_assert!(delta_hat >= delta);
        let implied = pi + (n as u64 + 3) * delta_hat;
        prop_assert!(
            implied >= d.token_timeout(fixed),
            "bounds imply {implied} < actual timeout {}",
            d.token_timeout(fixed)
        );
    }
}
