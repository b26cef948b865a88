//! Pipelined-token coverage: a submit burst dense enough to keep
//! several rounds in flight (the pipeline depth's worth of tokens ahead of
//! the ack cursor), driven through a partition/merge cycle. The split
//! lands while the ring is mid-pipeline, so in-flight rounds die with
//! the view and their batches must survive into the merged view via
//! the VS state exchange — exactly the interaction the batched protocol
//! must not get wrong. Every checker (VS/TO conformance, b/d bound
//! monitors, convergence) stays green, and the run replays bit-for-bit.

use gcs_sim::{run, FaultOp, Scenario, ScheduledFault, ScheduledSubmit, SimConfig};

/// A hand-written scenario: 240 submissions at 8 per virtual
/// millisecond — far more than one rotation drains, forcing k-in-flight
/// batching — split across both sides of a partition that opens at
/// t=1500 and heals at t=2500, with traffic continuing on both sides
/// while it is open.
fn pipelined_partition_scenario(seed: u64) -> Scenario {
    let config =
        SimConfig { seed, submits: 240, active_ms: 6_000, fault_budget: 0, ..SimConfig::default() };
    let mut submits = Vec::new();
    for v in 1..=240u64 {
        // Three dense bursts: before the split, during it (hitting both
        // components), and after the merge.
        let at = match v {
            1..=120 => 100 + v / 8,
            121..=180 => 1_700 + (v - 120) / 8,
            _ => 2_800 + (v - 180) / 8,
        };
        submits.push(ScheduledSubmit { at, node: (v % 5) as u32, value: v });
    }
    submits.sort_by_key(|s| (s.at, s.value));
    let faults = vec![ScheduledFault {
        at: 1_500,
        op: FaultOp::Split { groups: vec![vec![0, 1, 2], vec![3, 4]], dur_ms: 1_000 },
    }];
    Scenario { config, submits, faults }
}

/// The burst pipeline survives the partition/merge cycle with every
/// checker green and nothing lost.
#[test]
fn k_in_flight_tokens_survive_partition_merge() {
    for seed in [5u64, 23, 71] {
        let report = run(&pipelined_partition_scenario(seed));
        assert!(report.ok(), "seed {seed} failed: {:?}", report.violations.first());
        assert_eq!(report.delivered, 240, "seed {seed} lost submissions");
        assert_eq!(report.faults_applied, 1);
        // The split and the heal each force at least one reformation.
        assert!(report.views_installed >= 2, "seed {seed}: no partition/merge views");
    }
}

/// The heavy-pipeline scenario is still deterministic: same scenario,
/// same digest.
#[test]
fn pipelined_partition_replay_is_deterministic() {
    let sc = pipelined_partition_scenario(5);
    let a = run(&sc);
    let b = run(&sc);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.frames_sent, b.frames_sent);
    assert_eq!(a.violations, b.violations);
}

/// A round that dies *after* collecting a member's sends, while later
/// rounds keep the view alive: the member's next batch must not be
/// sequenced past the lost one (a gap in its stream, which VS forbids
/// and the cause checker reports), and the lost batch must still arrive
/// — offered again, without a view change.
#[test]
fn round_lost_after_collecting_leaves_no_gap() {
    let path = format!("{}/tests/corpus/lost_collect.scenario", env!("CARGO_MANIFEST_DIR"));
    let sc = Scenario::parse(&std::fs::read_to_string(&path).expect("fixture exists"))
        .expect("fixture parses");
    let report = run(&sc);
    assert!(report.ok(), "{:?}", report.violations.first());
    assert_eq!((report.delivered, report.frames_dropped, report.views_installed), (3, 1, 0));
}
