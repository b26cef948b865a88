//! End-to-end proof that the harness has teeth: with
//! `SimConfig::bug_dup_token`, `Dup` operations deliver a duplicated
//! token whose per-member receipt counts are fabricated (every member
//! "has" everything), so receivers issue `safe` indications the VS
//! specification does not enable. The checkers must catch it, the
//! shrinker must reduce the schedule to a handful of operations, and
//! the minimized scenario must replay to the same failure.

use gcs_sim::{run, shrink, Scenario, SimConfig};

fn bugged(seed: u64) -> SimConfig {
    SimConfig { seed, bug_dup_token: true, ..SimConfig::default() }
}

#[test]
fn injected_ack_fabrication_is_caught_and_shrunk() {
    // The bug needs a Dup operation to land while the token carries
    // undelivered messages, so not every seed triggers it; scan a band.
    let mut failing = None;
    for seed in 0..40 {
        let sc = Scenario::generate(&bugged(seed));
        let report = run(&sc);
        if !report.ok() {
            failing = Some((sc, report));
            break;
        }
    }
    let (sc, report) = failing.expect("injected bug never fired in 40 seeds");

    // The failure is a *safety* finding from the spec checkers, not a
    // timing-monitor artifact.
    assert!(
        report.violations.iter().any(|v| !v.starts_with("monitor")),
        "only monitor findings: {:?}",
        report.violations
    );

    // The shrinker minimizes the schedule and the result still fails.
    let result = shrink(&sc).expect("failing scenario must stay failing under shrink(identity)");
    assert!(
        result.scenario.faults.len() <= 25,
        "shrunk schedule still has {} fault ops",
        result.scenario.faults.len()
    );
    assert!(result.scenario.faults.len() <= sc.faults.len());
    assert!(!result.report.ok());

    // The minimized scenario survives a render/parse round trip and
    // replays to a failure — the artifact a user gets on disk is
    // sufficient to reproduce.
    let replayed = Scenario::parse(&result.scenario.render()).expect("rendered scenario parses");
    assert_eq!(replayed, result.scenario);
    let again = run(&replayed);
    assert!(!again.ok(), "minimized scenario no longer fails on replay");
    assert_eq!(again.digest, result.report.digest, "replay diverged from shrink result");
}

/// The hook is inert without the config flag: the same seeds stay
/// green.
#[test]
fn bug_hook_requires_opt_in() {
    for seed in 0..5 {
        let report = run(&Scenario::generate(&SimConfig { seed, ..SimConfig::default() }));
        assert!(report.ok(), "seed {seed}: {:?}", report.violations.first());
    }
}
