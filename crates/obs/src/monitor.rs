//! Online monitors for the paper's Section 8 timing bounds.
//!
//! The paper proves two conditional performance properties for the
//! membership/token stack, both relative to a network that has
//! *stabilized* (failure statuses stop changing):
//!
//! - **b = 9δ + max{π + (n+3)δ, μ}** — within `b` of stabilization,
//!   every group member has installed its final view (membership
//!   stabilization, Theorem 8.1 shape);
//! - **d = 2π + nδ** — a message sent in the stabilized view is
//!   delivered/safe everywhere within `d` (two token rotations).
//!
//! The monitors turn these offline theorems into runtime checks over the
//! [`crate::trace`] event stream. Network turbulence is what the stream
//! itself shows — [`EventKind::Fault`], [`EventKind::LinkUp`],
//! [`EventKind::LinkDown`] — so the monitors apply the bounds only where
//! the paper's hypothesis (a stable network) visibly holds:
//!
//! - [`StabilizationMonitor`] flags any view installation later than `b`
//!   after the last link disturbance (or after the stream start, when no
//!   disturbance was ever seen).
//! - [`TokenRoundMonitor`] tracks `Bcast → Brcv` pairs whose submit
//!   happened at least `b` past the last disturbance (so the view had
//!   time to stabilize) and flags pairs slower than `d`, as well as
//!   eligible submits still undelivered `d` after submission.
//!
//! A delay injected *below* the event stream — a slow network violating
//! the configured δ — is exactly what fires these monitors: the trace
//! shows a quiet network, but views form late and deliveries miss `d`.

use crate::trace::{EventKind, ObsEvent};
use std::collections::BTreeMap;

/// The protocol timing parameters the bounds are computed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BoundParams {
    /// Group size n.
    pub n: u32,
    /// Good-channel delay δ, in ms.
    pub delta_ms: u64,
    /// Token launch period π, in ms.
    pub pi_ms: u64,
    /// Merge-probe period μ, in ms.
    pub mu_ms: u64,
}

impl BoundParams {
    /// The standard derivation used across this repository:
    /// `π = 2nδ`, `μ = 4nδ`.
    pub fn standard(n: u32, delta_ms: u64) -> Self {
        BoundParams { n, delta_ms, pi_ms: 2 * n as u64 * delta_ms, mu_ms: 4 * n as u64 * delta_ms }
    }

    /// The membership stabilization bound `b = 9δ + max{π + (n+3)δ, μ}`.
    pub fn b_ms(&self) -> u64 {
        9 * self.delta_ms + (self.pi_ms + (self.n as u64 + 3) * self.delta_ms).max(self.mu_ms)
    }

    /// The token-round delivery bound `d = 2π + nδ`.
    pub fn d_ms(&self) -> u64 {
        2 * self.pi_ms + self.n as u64 * self.delta_ms
    }

    /// Folds in a δ̂ published by an adaptive detector
    /// ([`EventKind::DetectorBound`]): δ becomes the running maximum of
    /// the configured δ and every δ̂ seen, so the re-derived b/d only
    /// ever widen — sound (a run that violates the widest deadline the
    /// detector ever enforced is genuinely late) but conservative.
    fn absorb_delta_hat(&mut self, delta_hat_ms: u64) {
        self.delta_ms = self.delta_ms.max(delta_hat_ms);
    }
}

/// What a monitor concluded.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Which monitor produced this.
    pub name: &'static str,
    /// The bound that was enforced, in ms.
    pub bound_ms: u64,
    /// How many events/pairs were actually checked against the bound.
    pub checked: u64,
    /// Human-readable violation descriptions.
    pub violations: Vec<String>,
}

impl MonitorReport {
    /// Whether no violations were observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Online monitor for the membership stabilization bound `b`: every
/// view installation must happen within `b` of the last link
/// disturbance (or of the stream start, for a stream with no
/// disturbances at all). Feed events in stream order.
#[derive(Debug)]
pub struct StabilizationMonitor {
    params: BoundParams,
    last_disturbance: Option<u64>,
    checked: u64,
    violations: Vec<String>,
}

impl StabilizationMonitor {
    /// A monitor enforcing `params.b_ms()`. Under an adaptive detector
    /// the bound is re-derived from the published effective δ̂ (running
    /// maximum), so it can only widen.
    pub fn new(params: BoundParams) -> Self {
        StabilizationMonitor { params, last_disturbance: None, checked: 0, violations: Vec::new() }
    }

    /// The enforced bound, in ms.
    pub fn bound_ms(&self) -> u64 {
        self.params.b_ms()
    }

    /// Consumes one event.
    pub fn feed(&mut self, ev: &ObsEvent) {
        match &ev.kind {
            EventKind::Fault { .. } | EventKind::LinkUp { .. } | EventKind::LinkDown { .. } => {
                self.last_disturbance = Some(ev.t_ms);
            }
            EventKind::DetectorBound { delta_hat_ms, .. } => {
                self.params.absorb_delta_hat(*delta_hat_ms);
            }
            EventKind::ViewChange { node, epoch, size } => {
                self.checked += 1;
                // Baseline: the last disturbance, or the trace epoch
                // (t = 0) for an undisturbed stream.
                let t0 = self.last_disturbance.unwrap_or(0);
                let b_ms = self.params.b_ms();
                let deadline = t0 + b_ms;
                if ev.t_ms > deadline {
                    self.violations.push(format!(
                        "view (epoch {epoch}, {size} members) installed at node {node} at \
                         t={} ms, {} ms past the stabilization deadline {} (last \
                         disturbance at {t0} ms, b = {} ms)",
                        ev.t_ms,
                        ev.t_ms - deadline,
                        deadline,
                        b_ms
                    ));
                }
            }
            _ => {}
        }
    }

    /// Feeds a whole slice of events in order.
    pub fn feed_all(&mut self, events: &[ObsEvent]) {
        for ev in events {
            self.feed(ev);
        }
    }

    /// Violations observed so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// View installations checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Finalizes the monitor into a report.
    pub fn finish(self) -> MonitorReport {
        MonitorReport {
            name: "stabilization (b)",
            bound_ms: self.params.b_ms(),
            checked: self.checked,
            violations: self.violations,
        }
    }
}

/// Online monitor for the token-round delivery bound `d`: a value
/// submitted while the network is stable (at least `b` past the last
/// disturbance) must be delivered within `d`. Deliveries spanning a
/// disturbance are excused; eligible submits still pending `d` after
/// submission are flagged by [`TokenRoundMonitor::finish`]. Feed events
/// in stream order.
#[derive(Debug)]
pub struct TokenRoundMonitor {
    params: BoundParams,
    last_disturbance: Option<u64>,
    disturbances: Vec<u64>,
    /// value → submit time (first submit wins; values are assumed unique
    /// per run, as the load generators guarantee).
    pending: BTreeMap<u64, u64>,
    checked: u64,
    violations: Vec<String>,
}

impl TokenRoundMonitor {
    /// A monitor enforcing `params.d_ms()` for submits at least
    /// `params.b_ms()` past the last disturbance.
    pub fn new(params: BoundParams) -> Self {
        TokenRoundMonitor {
            params,
            last_disturbance: None,
            disturbances: Vec::new(),
            pending: BTreeMap::new(),
            checked: 0,
            violations: Vec::new(),
        }
    }

    /// The enforced bound, in ms.
    pub fn bound_ms(&self) -> u64 {
        self.params.d_ms()
    }

    /// Whether a submit at `t0` happened in a stabilized window: at
    /// least `b` past the last disturbance (or past the trace epoch,
    /// for an undisturbed stream).
    fn eligible(&self, t0: u64) -> bool {
        t0 >= self.last_disturbance.unwrap_or(0) + self.params.b_ms()
    }

    /// Whether any disturbance falls in `(t0, t1]`.
    fn disturbed_between(&self, t0: u64, t1: u64) -> bool {
        // Disturbance times are appended in order; scan from the back.
        self.disturbances.iter().rev().take_while(|&&d| d > t0).any(|&d| d <= t1)
    }

    /// Consumes one event.
    pub fn feed(&mut self, ev: &ObsEvent) {
        match &ev.kind {
            EventKind::Fault { .. } | EventKind::LinkUp { .. } | EventKind::LinkDown { .. } => {
                self.last_disturbance = Some(ev.t_ms);
                self.disturbances.push(ev.t_ms);
            }
            EventKind::DetectorBound { delta_hat_ms, .. } => {
                self.params.absorb_delta_hat(*delta_hat_ms);
            }
            EventKind::Bcast { value, .. } => {
                self.pending.entry(*value).or_insert(ev.t_ms);
            }
            EventKind::Brcv { value, node, .. } => {
                // First delivery anywhere closes the pair.
                if let Some(t0) = self.pending.remove(value) {
                    if !self.eligible(t0) || self.disturbed_between(t0, ev.t_ms) {
                        return;
                    }
                    self.checked += 1;
                    let lat = ev.t_ms.saturating_sub(t0);
                    let d_ms = self.params.d_ms();
                    if lat > d_ms {
                        self.violations.push(format!(
                            "value {value} submitted at {t0} ms first delivered (node \
                             {node}) after {lat} ms — exceeds d = {d_ms} ms"
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    /// Feeds a whole slice of events in order.
    pub fn feed_all(&mut self, events: &[ObsEvent]) {
        for ev in events {
            self.feed(ev);
        }
    }

    /// Violations observed so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Delivery pairs checked so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Finalizes at time `now_ms`: eligible submits still undelivered
    /// more than `d` after submission (with no intervening disturbance)
    /// are violations.
    pub fn finish(mut self, now_ms: u64) -> MonitorReport {
        let pending = std::mem::take(&mut self.pending);
        let d_ms = self.params.d_ms();
        for (value, t0) in pending {
            if self.eligible(t0)
                && !self.disturbed_between(t0, now_ms)
                && now_ms.saturating_sub(t0) > d_ms
            {
                self.violations.push(format!(
                    "value {value} submitted at {t0} ms still undelivered at {now_ms} ms \
                     — exceeds d = {d_ms} ms"
                ));
            }
        }
        MonitorReport {
            name: "token round (d)",
            bound_ms: d_ms,
            checked: self.checked,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FaultKind;

    fn ev(t_ms: u64, seq: u64, kind: EventKind) -> ObsEvent {
        ObsEvent { t_ms, seq, kind }
    }

    fn params() -> BoundParams {
        // n=3, δ=20 → π=120, μ=240, b = 180 + max(240, 240) = 420, d = 300.
        BoundParams::standard(3, 20)
    }

    #[test]
    fn bounds_match_the_paper_formulas() {
        let p = params();
        let (delta, pi, mu) = (20, 120, 240);
        assert_eq!(p.b_ms(), 9 * delta + (pi + 6 * delta).max(mu));
        assert_eq!(p.d_ms(), 2 * 120 + 3 * 20);
    }

    #[test]
    fn small_parameters_match_the_paper_formulas() {
        // n = 3, δ = 5, π = 20, μ = 40:
        // b = 45 + max(20 + 30, 40) = 95; d = 40 + 15 = 55.
        let p = BoundParams { n: 3, delta_ms: 5, pi_ms: 20, mu_ms: 40 };
        assert_eq!(p.b_ms(), 95);
        assert_eq!(p.d_ms(), 55);
    }

    #[test]
    fn mu_dominates_when_large() {
        // b = 9δ + μ when μ > π + (n+3)δ.
        let p = BoundParams { n: 3, delta_ms: 5, pi_ms: 20, mu_ms: 1000 };
        assert_eq!(p.b_ms(), 45 + 1000);
    }

    #[test]
    fn stabilization_passes_timely_views_and_flags_late_ones() {
        let p = params();
        let b = p.b_ms();

        // Views within b of the disturbance: clean.
        let mut m = StabilizationMonitor::new(p);
        m.feed_all(&[
            ev(5, 0, EventKind::ViewChange { node: 0, epoch: 1, size: 3 }),
            ev(1000, 1, EventKind::Fault { node: 0, peer: 2, kind: FaultKind::Sever }),
            ev(1000 + b - 1, 2, EventKind::ViewChange { node: 0, epoch: 2, size: 2 }),
        ]);
        let r = m.finish();
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.checked, 2);

        // A view later than b after the last disturbance: violation.
        let mut m = StabilizationMonitor::new(p);
        m.feed_all(&[
            ev(1000, 0, EventKind::Fault { node: 0, peer: 2, kind: FaultKind::Heal }),
            ev(1000 + b + 50, 1, EventKind::ViewChange { node: 1, epoch: 3, size: 3 }),
        ]);
        let r = m.finish();
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }

    #[test]
    fn stabilization_uses_stream_start_when_no_disturbance() {
        let p = params();
        let b = p.b_ms();
        let mut m = StabilizationMonitor::new(p);
        m.feed_all(&[
            ev(100, 0, EventKind::Bcast { node: 0, value: 1 }),
            ev(100 + b + 1, 1, EventKind::ViewChange { node: 0, epoch: 2, size: 3 }),
        ]);
        let r = m.finish();
        assert_eq!(r.violations.len(), 1, "churn on a quiet network must fire");
    }

    #[test]
    fn token_round_checks_only_stable_submits() {
        let p = params();
        let (b, d) = (p.b_ms(), p.d_ms());

        let mut m = TokenRoundMonitor::new(p);
        m.feed_all(&[
            // Submit before stabilization: ignored even though slow.
            ev(10, 0, EventKind::Bcast { node: 0, value: 1 }),
            ev(10 + d + 500, 1, EventKind::Brcv { node: 1, src: 0, value: 1 }),
            // Stable fast pair: checked, ok.
            ev(b + 100, 2, EventKind::Bcast { node: 0, value: 2 }),
            ev(b + 150, 3, EventKind::Brcv { node: 1, src: 0, value: 2 }),
            // Stable slow pair: violation.
            ev(b + 200, 4, EventKind::Bcast { node: 0, value: 3 }),
            ev(b + 200 + d + 1, 5, EventKind::Brcv { node: 2, src: 0, value: 3 }),
        ]);
        let r = m.finish(b + 200 + d + 10);
        assert_eq!(r.checked, 2);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }

    #[test]
    fn token_round_excuses_pairs_spanning_a_disturbance() {
        let p = params();
        let (b, d) = (p.b_ms(), p.d_ms());
        let mut m = TokenRoundMonitor::new(p);
        m.feed_all(&[
            ev(b + 10, 0, EventKind::Bcast { node: 0, value: 7 }),
            ev(b + 20, 1, EventKind::Fault { node: 0, peer: 1, kind: FaultKind::Sever }),
            ev(b + 20 + 2 * d, 2, EventKind::Brcv { node: 1, src: 0, value: 7 }),
        ]);
        let r = m.finish(b + 20 + 2 * d + 1);
        assert_eq!(r.checked, 0, "pair spans a partition, must be excused");
        assert!(r.ok());
    }

    #[test]
    fn detector_bounds_widen_the_stabilization_deadline() {
        let p = params();
        let b = p.b_ms();
        // δ̂ = 60 (3× the configured δ = 20):
        // b̂ = 9·60 + max(120 + 6·60, 240) = 540 + 480 = 1020 > b = 420.
        let b_hat = BoundParams { delta_ms: 60, ..p }.b_ms();
        assert!(b_hat > b);

        // A view past the fixed deadline but within the adaptive one is
        // clean once the detector has published the wider bound...
        let mut m = StabilizationMonitor::new(p);
        m.feed_all(&[
            ev(50, 0, EventKind::DetectorBound { node: 0, delta_hat_ms: 60 }),
            ev(1000, 1, EventKind::Fault { node: 0, peer: 2, kind: FaultKind::Sever }),
            ev(1000 + b + 100, 2, EventKind::ViewChange { node: 0, epoch: 2, size: 2 }),
        ]);
        let r = m.finish();
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.bound_ms, b_hat);

        // ...and still flagged past the widened deadline.
        let mut m = StabilizationMonitor::new(p);
        m.feed_all(&[
            ev(50, 0, EventKind::DetectorBound { node: 0, delta_hat_ms: 60 }),
            ev(1000, 1, EventKind::Fault { node: 0, peer: 2, kind: FaultKind::Sever }),
            ev(1000 + b_hat + 1, 2, EventKind::ViewChange { node: 0, epoch: 2, size: 2 }),
        ]);
        assert_eq!(m.finish().violations.len(), 1);
    }

    #[test]
    fn detector_bounds_take_running_maxima() {
        let p = params();
        let mut m = StabilizationMonitor::new(p);
        m.feed_all(&[
            ev(10, 0, EventKind::DetectorBound { node: 0, delta_hat_ms: 80 }),
            // A later, tighter report must not shrink the bound back.
            ev(20, 1, EventKind::DetectorBound { node: 1, delta_hat_ms: 25 }),
        ]);
        assert_eq!(m.bound_ms(), BoundParams { delta_ms: 80, ..p }.b_ms());
        // And δ̂ below the configured δ is floored at the constant.
        let mut m = StabilizationMonitor::new(p);
        m.feed(&ev(10, 0, EventKind::DetectorBound { node: 0, delta_hat_ms: 1 }));
        assert_eq!(m.bound_ms(), p.b_ms());
    }

    #[test]
    fn detector_bounds_widen_the_delivery_deadline() {
        let p = params();
        let d = p.d_ms();
        // δ̂ = 60 (3× the configured δ = 20): d̂ = 2·120 + 3·60 = 420 > d = 300.
        let p_hat = BoundParams { delta_ms: 60, ..p };
        let (b_hat, d_hat) = (p_hat.b_ms(), p_hat.d_ms());
        assert!(d_hat > d);

        // A delivery past the fixed d but within d̂ is clean.
        let mut m = TokenRoundMonitor::new(p);
        m.feed_all(&[
            ev(5, 0, EventKind::DetectorBound { node: 0, delta_hat_ms: 60 }),
            ev(b_hat + 10, 1, EventKind::Bcast { node: 0, value: 4 }),
            ev(b_hat + 10 + d + 50, 2, EventKind::Brcv { node: 1, src: 0, value: 4 }),
        ]);
        let r = m.finish(b_hat + 10 + d_hat + 1000);
        assert_eq!(r.checked, 1);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.bound_ms, d_hat);

        // Past d̂ it still fires.
        let mut m = TokenRoundMonitor::new(p);
        m.feed_all(&[
            ev(5, 0, EventKind::DetectorBound { node: 0, delta_hat_ms: 60 }),
            ev(b_hat + 10, 1, EventKind::Bcast { node: 0, value: 4 }),
            ev(b_hat + 10 + d_hat + 1, 2, EventKind::Brcv { node: 1, src: 0, value: 4 }),
        ]);
        assert_eq!(m.finish(b_hat + 10 + d_hat + 1000).violations.len(), 1);
    }

    #[test]
    fn token_round_flags_undelivered_submits_at_finish() {
        let p = params();
        let (b, d) = (p.b_ms(), p.d_ms());
        let mut m = TokenRoundMonitor::new(p);
        m.feed(&ev(b + 10, 0, EventKind::Bcast { node: 0, value: 9 }));
        let r = m.finish(b + 10 + d + 100);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }
}
