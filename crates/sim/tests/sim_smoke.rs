//! Smoke, determinism, and monitor-boundary tests for the simulation
//! harness — every run drives the real `gcs-net` node runtime through
//! the full checker battery (VS/TO conformance, b/d bound monitors,
//! convergence).

use gcs_ioa::par_seeds_with;
use gcs_sim::world::run_traced;
use gcs_sim::{run, FaultOp, Scenario, ScheduledFault, SimConfig};

fn config(seed: u64) -> SimConfig {
    SimConfig { seed, ..SimConfig::default() }
}

/// A spread of seeded schedules passes every checker: the paper's
/// safety specifications, the Section 8 bound monitors, and post-settle
/// convergence.
#[test]
fn seeded_schedules_pass_all_checkers() {
    for seed in 0..10 {
        let report = run(&Scenario::generate(&config(seed)));
        assert!(report.ok(), "seed {seed} failed: {:?}", report.violations.first());
        assert_eq!(report.delivered, 40, "seed {seed} lost submissions");
        assert!(report.faults_applied > 0, "seed {seed} scheduled no faults");
        // Digests are compared across commits (`gcs-sim run --seeds N`),
        // so the digest function itself is pinned.
        if seed == 0 {
            assert_eq!(report.digest, 0x678d_35c9_b448_5dbb, "the run digest function changed");
        }
    }
}

/// The same scenario replays bit-for-bit: equal digests, equal
/// violation sets, equal frame counts.
#[test]
fn replay_is_bit_for_bit_deterministic() {
    let sc = Scenario::generate(&config(7));
    let a = run(&sc);
    let b = run(&sc);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.frames_sent, b.frames_sent);
    assert_eq!(a.events, b.events);
    assert_eq!(a.violations, b.violations);
}

/// Digests are identical at any worker count: the fan-out layer only
/// schedules runs, it never perturbs them.
#[test]
fn digests_are_invariant_under_worker_count() {
    let seeds: Vec<u64> = (0..6).collect();
    let one = par_seeds_with(&seeds, 1, |s| run(&Scenario::generate(&config(s))));
    let eight = par_seeds_with(&seeds, 8, |s| run(&Scenario::generate(&config(s))));
    let d1: Vec<u64> = one.iter().map(|r| r.digest).collect();
    let d8: Vec<u64> = eight.iter().map(|r| r.digest).collect();
    assert_eq!(d1, d8);
}

/// The false-positive guard for the bound monitors (Theorems 8.1/8.2):
/// a clean run in which *every* frame takes exactly the configured
/// good-channel delay δ — the worst case the bounds are derived for —
/// must not trip either monitor. A monitor that fires here has its
/// deadline arithmetic wrong by at least one δ.
#[test]
fn boundary_delay_run_is_monitor_clean() {
    let cfg = SimConfig { seed: 1, fixed_delay: true, fault_budget: 0, ..SimConfig::default() };
    let report = run(&Scenario::generate(&cfg));
    assert!(report.ok(), "monitor fired on a clean boundary-delay run: {:?}", report.violations);
    assert_eq!(report.faults_applied, 0);
    assert_eq!(report.delivered, 40);
}

/// Same guard under faults: boundary delay plus a fault schedule still
/// passes, because the monitors excuse exactly the disturbed windows.
#[test]
fn boundary_delay_with_faults_is_monitor_clean() {
    let cfg = SimConfig { seed: 3, fixed_delay: true, ..SimConfig::default() };
    let report = run(&Scenario::generate(&cfg));
    assert!(report.ok(), "{:?}", report.violations.first());
    assert!(report.faults_applied > 0);
}

/// A hand-written scenario exercises every fault-operation kind in one
/// run and still converges.
#[test]
fn all_fault_kinds_in_one_run() {
    let cfg = config(11);
    let mut sc = Scenario::generate(&cfg);
    sc.faults = vec![
        ScheduledFault {
            at: 300,
            op: FaultOp::Split { groups: vec![vec![0, 1, 2], vec![3, 4]], dur_ms: 400 },
        },
        ScheduledFault { at: 900, op: FaultOp::SeverPair { p: 0, q: 1, dur_ms: 30 } },
        ScheduledFault { at: 1200, op: FaultOp::SeverOneWay { p: 2, q: 3, dur_ms: 20 } },
        ScheduledFault { at: 1500, op: FaultOp::Kick { p: 1, q: 4 } },
        ScheduledFault { at: 1900, op: FaultOp::Crash { p: 4, down_ms: 350 } },
        ScheduledFault { at: 2900, op: FaultOp::Stall { p: 2, dur_ms: 60 } },
        ScheduledFault { at: 3300, op: FaultOp::Dup { p: 0, q: 1 } },
    ];
    let report = run(&sc);
    assert!(report.ok(), "{:?}", report.violations.first());
    assert_eq!(report.faults_applied, 7);
}

/// The traced variant returns the observability stream the monitors
/// consumed: fault events appear for every scheduled operation and view
/// changes for every reformation.
#[test]
fn traced_run_exposes_fault_and_view_events() {
    use gcs_obs::EventKind;
    let sc = Scenario::generate(&config(2));
    let (report, events) = run_traced(&sc);
    assert!(report.ok(), "{:?}", report.violations.first());
    let faults = events.iter().filter(|e| matches!(e.kind, EventKind::Fault { .. })).count();
    let views = events.iter().filter(|e| matches!(e.kind, EventKind::ViewChange { .. })).count();
    assert!(faults >= report.faults_applied, "faults missing from trace");
    assert_eq!(views, report.views_installed);
}
