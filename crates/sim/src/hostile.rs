//! The hostile-network scenario corpus: the regimes where fixed δ/π
//! timeouts thrash views and an adaptive detector should hold
//! membership stable.
//!
//! Each [`HostileKind`] compiles to an explicit [`Scenario`] (no random
//! generation at run time — the corpus is parameterized by seed only
//! through frame-delay/jitter streams), and [`run_pair`] executes the
//! *same* scenario under both detector policies so view-change rate and
//! availability can be compared like-for-like:
//!
//! - **Flap** — a ring-adjacent link oscillates with a down period just
//!   past the fixed detection threshold. Fixed timeouts reform on every
//!   cycle; the accrual detector reforms once, feeds the censored
//!   silence back into its window, and rides out the rest.
//! - **AsymSlow** — one direction of a ring hop is stretched far past δ
//!   while the reverse stays fast. No frame is lost; fixed timeouts
//!   still fire because silence (not loss) is what they measure.
//! - **Bimodal** — WAN-like delays cluster-wide: most frames are fast,
//!   a fraction take tens of δ. The estimator absorbs the distribution's
//!   tail directly; fixed timeouts sit below the slow mode and thrash.
//! - **SplitStorm** — repeated full partitions and merges. Both
//!   policies *must* reform here (the membership changes are real); the
//!   corpus checks stability of the checkers and monitors, not view
//!   counts.
//! - **Churn** — a 50-node group with rolling crash/restarts: the scale
//!   stress for detector state and formation traffic.
//!
//! Scenario shape invariants the corpus maintains:
//!
//! - a warm-up phase (≥ 8 token periods) precedes the first fault, so
//!   the accrual estimator is past cold start when hostility begins;
//! - during link-level hostility, submits aim at the ring leader and
//!   are spaced widely enough that the launch pipeline keeps producing
//!   fresh rounds — a returning round drains the rounds lost to a flap
//!   and triggers floor retransmission, so the group heals holes
//!   without reformation;
//! - every fault is self-compensating, so the standard settle-phase
//!   convergence check applies unchanged.

use crate::scenario::{FaultOp, Scenario, ScheduledFault, ScheduledSubmit, SimConfig};
use crate::world::{run, RunReport};
use gcs_model::Time;

/// One hostile regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostileKind {
    /// Link flapping at the detection threshold.
    Flap,
    /// Asymmetric one-way slowdown.
    AsymSlow,
    /// WAN-like bimodal delay distribution.
    Bimodal,
    /// Repeated merge/split storms.
    SplitStorm,
    /// 50-node crash/restart churn.
    Churn,
}

impl HostileKind {
    /// Every corpus kind, in canonical order.
    pub const ALL: [HostileKind; 5] = [
        HostileKind::Flap,
        HostileKind::AsymSlow,
        HostileKind::Bimodal,
        HostileKind::SplitStorm,
        HostileKind::Churn,
    ];

    /// Stable name (used in reports and artifact file names).
    pub fn name(&self) -> &'static str {
        match self {
            HostileKind::Flap => "flap",
            HostileKind::AsymSlow => "asym-slow",
            HostileKind::Bimodal => "bimodal",
            HostileKind::SplitStorm => "split-storm",
            HostileKind::Churn => "churn",
        }
    }

    /// Parses a kind name as printed by [`HostileKind::name`].
    pub fn from_name(s: &str) -> Option<HostileKind> {
        HostileKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the regime gate ([`RegimeTotals::pass`]) demands
    /// *strictly* fewer view changes under the adaptive policy on this
    /// kind. Split storms and churn involve real membership changes both
    /// policies must react to, so only the pure-timing regimes are gated
    /// strictly.
    pub fn strict(&self) -> bool {
        matches!(self, HostileKind::Flap | HostileKind::Bimodal)
    }
}

/// The standard 5-node timing the link-level scenarios use: δ = 10 →
/// π = 100, fixed token deadline 180 + id stagger.
fn base_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        active_ms: 4_000,
        submits: 0, // filled in by the builder
        fault_budget: 0,
        ..SimConfig::default()
    }
}

/// Leader-aimed submits spaced `gap` apart starting at `from`: wide
/// enough that the pipeline never saturates with all-lost rounds, and
/// aimed at node 0 (the ring leader) so each submit forces a fresh
/// launch that drains rounds lost to a link window.
fn leader_submits(from: Time, gap: Time, count: u32) -> Vec<ScheduledSubmit> {
    (0..count)
        .map(|i| ScheduledSubmit { at: from + gap * i as Time, node: 0, value: i as u64 + 1 })
        .collect()
}

/// Round-robin submits over all nodes, for the whole-cluster regimes.
fn spread_submits(n: u32, from: Time, gap: Time, count: u32) -> Vec<ScheduledSubmit> {
    (0..count)
        .map(|i| ScheduledSubmit { at: from + gap * i as Time, node: i % n, value: i as u64 + 1 })
        .collect()
}

/// Round-robin submits over the *surviving* nodes only. A value
/// submitted at a node that crashes before broadcasting it dies with
/// the volatile state (the same reason `Scenario::generate` steers
/// submits away from crash windows), so the churn schedule must never
/// aim at a future victim.
fn survivor_submits(
    n: u32,
    victims: &[u32],
    from: Time,
    gap: Time,
    count: u32,
) -> Vec<ScheduledSubmit> {
    let survivors: Vec<u32> = (0..n).filter(|p| !victims.contains(p)).collect();
    (0..count)
        .map(|i| ScheduledSubmit {
            at: from + gap * i as Time,
            node: survivors[i as usize % survivors.len()],
            value: i as u64 + 1,
        })
        .collect()
}

/// Builds the corpus scenario for `kind` and `seed` under the given
/// detector policy. The schedule is identical for both policies (only
/// the `adaptive_detector` flag and the settle phase differ), so view
/// counts compare like-for-like.
pub fn build(kind: HostileKind, seed: u64, adaptive: bool) -> Scenario {
    let mut sc = match kind {
        HostileKind::Flap => {
            // Ring hop 1→2 flaps: down 220 ms (past every node's fixed
            // deadline of 180–184 ms), up 220 ms, five cycles starting
            // after a 900 ms warm-up.
            let mut config = base_config(seed);
            let submits = leader_submits(100, 150, 24);
            config.submits = submits.len() as u32;
            let faults = vec![ScheduledFault {
                at: 900,
                op: FaultOp::Flap { p: 1, q: 2, period_ms: 220, count: 5 },
            }];
            Scenario { config, submits, faults }
        }
        HostileKind::AsymSlow => {
            // The 1→2 direction stretches to 22δ = 220 ms for 1.6 s;
            // 2→1 stays at δ. Nothing is dropped, yet every fixed
            // deadline fires repeatedly inside the window.
            let mut config = base_config(seed);
            let submits = leader_submits(100, 150, 24);
            config.submits = submits.len() as u32;
            let faults = vec![ScheduledFault {
                at: 900,
                op: FaultOp::SlowOneWay { p: 1, q: 2, factor: 22, dur_ms: 1_600 },
            }];
            Scenario { config, submits, faults }
        }
        HostileKind::Bimodal => {
            // Cluster-wide WAN mode for 1.6 s: 20% of frames take 18δ.
            // One slow hop (180 ms) already pushes a token gap past
            // every fixed deadline (180–184 ms), so fixed thrashes; the
            // factor stays low enough that even an all-slow round
            // (5 × 180 ≈ 900 ms) fits inside the adaptive cap
            // (6 × 180 = 1080 ms), so a warmed-and-widened estimator
            // can always ride the whole window out.
            let mut config = base_config(seed);
            let submits = leader_submits(100, 150, 24);
            config.submits = submits.len() as u32;
            let faults = vec![ScheduledFault {
                at: 900,
                op: FaultOp::Bimodal { prob_pct: 20, factor: 18, dur_ms: 1_600 },
            }];
            Scenario { config, submits, faults }
        }
        HostileKind::SplitStorm => {
            // Three full partition/merge cycles with alternating
            // components, each held long enough (≥ b = 490 ms) for the
            // subgroups to stabilize before the merge.
            let mut config = base_config(seed);
            config.active_ms = 4_500;
            let submits = spread_submits(config.n, 100, 160, 24);
            config.submits = submits.len() as u32;
            let faults = vec![
                ScheduledFault {
                    at: 900,
                    op: FaultOp::Split { groups: vec![vec![0, 1, 2], vec![3, 4]], dur_ms: 700 },
                },
                ScheduledFault {
                    at: 2_300,
                    op: FaultOp::Split { groups: vec![vec![0, 3], vec![1, 2, 4]], dur_ms: 700 },
                },
                ScheduledFault {
                    at: 3_700,
                    op: FaultOp::Split { groups: vec![vec![0, 4], vec![1, 2, 3]], dur_ms: 700 },
                },
            ];
            Scenario { config, submits, faults }
        }
        HostileKind::Churn => {
            // 50 nodes, δ = 5 (π = 500): six rolling crash/restarts
            // staggered through the active window.
            let mut config = base_config(seed);
            config.n = 50;
            config.delta_ms = 5;
            config.active_ms = 5_000;
            // Distinct victims, spread across the id space, and never
            // node 0 (keeping the ring leader up keeps token cadence
            // observable for the estimator).
            let victims: Vec<u32> = (0..6u32).map(|i| 1 + i * 8).collect();
            let submits = survivor_submits(config.n, &victims, 200, 220, 20);
            config.submits = submits.len() as u32;
            let faults = victims
                .iter()
                .enumerate()
                .map(|(i, &p)| ScheduledFault {
                    // Warm-up is longer here: π = 500, so the accrual
                    // window needs ~2.5 s of quiet to pass cold start.
                    at: 2_600 + 600 * i as Time,
                    op: FaultOp::Crash { p, down_ms: 1_200 },
                })
                .collect();
            Scenario { config, submits, faults }
        }
    };
    sc.config.fault_budget = sc.faults.len() as u32;
    sc.config.adaptive_detector = adaptive;
    sc
}

/// The outcome of one corpus entry run under both policies.
#[derive(Clone, Debug)]
pub struct HostileOutcome {
    /// Which regime.
    pub kind: HostileKind,
    /// The seed (perturbs frame delays, not the schedule).
    pub seed: u64,
    /// The fixed-timeout run.
    pub fixed: RunReport,
    /// The adaptive-detector run.
    pub adaptive: RunReport,
}

impl HostileOutcome {
    /// All violations across both runs, labeled by policy.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.fixed.violations.iter().map(|v| format!("fixed: {v}")).collect();
        out.extend(self.adaptive.violations.iter().map(|v| format!("adaptive: {v}")));
        out
    }

    /// Whether this entry passes the per-run gate: zero checker and
    /// monitor violations under both policies. View counts are gated per
    /// regime, by [`RegimeTotals::pass`].
    pub fn pass(&self) -> bool {
        self.fixed.ok() && self.adaptive.ok()
    }
}

/// One regime's view and availability counts summed over its seeds.
#[derive(Clone, Copy, Debug)]
pub struct RegimeTotals {
    /// Which regime.
    pub kind: HostileKind,
    /// Views installed under fixed timeouts.
    pub fixed_views: usize,
    /// Views installed under the adaptive detector.
    pub adaptive_views: usize,
    /// Deliveries during disturbance under fixed timeouts.
    pub fixed_avail: usize,
    /// Deliveries during disturbance under the adaptive detector.
    pub adaptive_avail: usize,
}

impl RegimeTotals {
    /// Sums `outcomes`, the runs of `kind` over its seeds.
    pub fn of(kind: HostileKind, outcomes: &[HostileOutcome]) -> Self {
        let mut t = RegimeTotals {
            kind,
            fixed_views: 0,
            adaptive_views: 0,
            fixed_avail: 0,
            adaptive_avail: 0,
        };
        for o in outcomes {
            t.fixed_views += o.fixed.views_installed;
            t.adaptive_views += o.adaptive.views_installed;
            t.fixed_avail += o.fixed.delivered_during_disturbance;
            t.adaptive_avail += o.adaptive.delivered_during_disturbance;
        }
        t
    }

    /// The regime gate: on the strict kinds, the adaptive detector
    /// installs strictly fewer views than fixed timeouts in total. One
    /// seed may go either way — a single bimodal draw can hand the
    /// adaptive run the worse delay sequence — so the comparison is on
    /// the sum the detector is meant to lower.
    pub fn pass(&self) -> bool {
        !self.kind.strict() || self.adaptive_views < self.fixed_views
    }
}

/// Runs `kind` at `seed` under both detector policies.
pub fn run_pair(kind: HostileKind, seed: u64) -> HostileOutcome {
    let fixed = run(&build(kind, seed, false));
    let adaptive = run(&build(kind, seed, true));
    HostileOutcome { kind, seed, fixed, adaptive }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_scenarios_render_and_parse() {
        for kind in HostileKind::ALL {
            for adaptive in [false, true] {
                let sc = build(kind, 3, adaptive);
                let back = Scenario::parse(&sc.render()).expect("parse rendered corpus scenario");
                assert_eq!(sc, back, "{} adaptive={adaptive}", kind.name());
            }
        }
    }

    #[test]
    fn corpus_schedules_are_policy_invariant() {
        // Only the detector flag may differ between the two runs of a
        // pair — same submits, same faults, same seed.
        for kind in HostileKind::ALL {
            let a = build(kind, 9, false);
            let mut b = build(kind, 9, true);
            assert!(b.config.adaptive_detector);
            b.config.adaptive_detector = false;
            assert_eq!(a, b, "{}", kind.name());
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in HostileKind::ALL {
            assert_eq!(HostileKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(HostileKind::from_name("nope"), None);
    }

    #[test]
    fn warmup_precedes_first_fault() {
        // At least five token periods of quiet before hostility starts,
        // so the accrual estimator (min_samples = 4) is past cold start.
        for kind in HostileKind::ALL {
            let sc = build(kind, 0, true);
            let pi = 2 * sc.config.n as Time * sc.config.delta_ms;
            let first = sc.faults.iter().map(|f| f.at).min().unwrap_or(0);
            assert!(first >= 5 * pi, "{}: first fault at {first}", kind.name());
        }
    }
}
