//! Failure injection at the protocol's most delicate moments: crashes
//! during the state exchange, leader loss mid-rotation, flapping links,
//! and ugly (nondeterministically slow, lossy) periods. Safety must hold
//! unconditionally; liveness must return once the failure status
//! stabilizes, exactly as the conditional properties promise.

use pgcs::harness::{Stack, StackConfig};
use pgcs::model::failure::FailureScript;
use pgcs::model::{ProcId, Status, Time};
use pgcs::spec::cause::check_trace;
use pgcs::spec::completion::complete_and_replay;
use pgcs::spec::to_trace::check_to_trace;
use std::collections::BTreeSet;

fn assert_safe(stack: &Stack, n: u32, what: &str) {
    let to = check_to_trace(&stack.to_obs().untimed());
    assert!(to.ok(), "{what}: TO violation: {:?}", to.violations.first());
    let actions = stack.vs_actions();
    let cause = check_trace(&actions, &ProcId::range(n));
    assert!(cause.ok(), "{what}: Lemma 4.2 violation: {:?}", cause.violations.first());
    complete_and_replay(&actions, ProcId::range(n), ProcId::range(n))
        .unwrap_or_else(|(i, e)| panic!("{what}: VS inclusion at event {i}: {e}"));
}

/// Crash a member exactly while the group is reforming (between the
/// partition and the point the new view would have settled), so its
/// state-exchange summary goes missing; the survivors must reform again
/// without it and continue.
#[test]
fn crash_during_state_exchange_recovers() {
    let n = 4u32;
    let mut stack = Stack::new(StackConfig::standard(n, 5, 31));
    let pi = stack.config().proto.pi;
    let ambient = ProcId::range(n);
    let trio: BTreeSet<ProcId> = ProcId::range(3);
    let mut script = FailureScript::new();
    // Cut off p3, triggering reformation of {0,1,2}...
    script.partition(8 * pi, &[trio.clone(), [ProcId(3)].into()], &ambient);
    // ...and crash p1 a moment later, mid-exchange for most seeds.
    script.crash(8 * pi + stack.config().proto.delta, ProcId(1));
    stack.load_failures(&script);
    for i in 0..6u64 {
        stack.schedule_bcast(8 * pi + 5 + i * 30, ProcId((i % 2) as u32 * 2)); // p0, p2
    }
    stack.run_until(8 * pi + 300 * pi);
    // p0 and p2 form a majority? No — {0,2} is 2 of 4: not a quorum, so
    // nothing new confirms; but all pre-crash confirmations and all
    // traces must still be safe.
    assert_safe(&stack, n, "crash during exchange");
    // Now recover p1: the trio is a majority again and must drain the
    // queued traffic.
    let mut script2 = FailureScript::new();
    script2.recover(stack.now() + 1, ProcId(1));
    stack.load_failures(&script2);
    stack.run_until(stack.now() + 300 * pi);
    assert_safe(&stack, n, "after recovery");
    for p in [ProcId(0), ProcId(1), ProcId(2)] {
        assert_eq!(
            stack.delivered(p).len(),
            6,
            "{p} must deliver all queued traffic after recovery"
        );
    }
}

/// Crash the ring leader (p0) while traffic is in flight: the token is
/// lost with it, the timeout reforms the view without p0, and the
/// remaining majority re-confirms everything.
#[test]
fn leader_crash_loses_token_but_not_data() {
    let n = 3u32;
    let mut stack = Stack::new(StackConfig::standard(n, 5, 17));
    let pi = stack.config().proto.pi;
    let ambient = ProcId::range(n);
    let survivors: BTreeSet<ProcId> = [ProcId(1), ProcId(2)].into();
    // Traffic first, then kill the leader shortly after the messages go in.
    for i in 0..5u64 {
        stack.schedule_bcast(4 * pi + i * 3, ProcId(1));
    }
    let mut script = FailureScript::new();
    script.partition(4 * pi + 8, &[survivors.clone(), [ProcId(0)].into()], &ambient);
    stack.load_failures(&script);
    stack.run_until(4 * pi + 400 * pi);
    assert_safe(&stack, n, "leader crash");
    // The survivor pair is a majority of 3: everything confirms.
    for &p in &survivors {
        assert_eq!(stack.delivered(p).len(), 5, "{p} must deliver all 5");
    }
    for &p in &survivors {
        let v = stack.view_of(p).expect("view");
        assert_eq!(v.set, survivors);
    }
}

/// A link that flaps (bad ↔ good repeatedly) between two members delays
/// but never corrupts: safety holds throughout, and once the flapping
/// stops everything is delivered.
#[test]
fn flapping_link_is_only_a_delay() {
    let n = 3u32;
    let mut stack = Stack::new(StackConfig::standard(n, 5, 23));
    let pi = stack.config().proto.pi;
    let mut script = FailureScript::new();
    for k in 0..6u64 {
        let t = 4 * pi + k * 2 * pi;
        let status = if k % 2 == 0 { Status::Bad } else { Status::Good };
        script.set_pair(t, ProcId(0), ProcId(1), status);
    }
    script.set_pair(4 * pi + 12 * pi, ProcId(0), ProcId(1), Status::Good);
    stack.load_failures(&script);
    for i in 0..6u64 {
        stack.schedule_bcast(4 * pi + i * pi, ProcId((i % 3) as u32));
    }
    stack.run_until(4 * pi + 500 * pi);
    assert_safe(&stack, n, "flapping link");
    for i in 0..n {
        assert_eq!(stack.delivered(ProcId(i)).len(), 6, "p{i} must catch up");
    }
}

/// An ugly period (slow, lossy processor and links) followed by
/// stabilization: safety throughout, full delivery afterwards.
#[test]
fn ugly_period_then_stabilization() {
    let n = 3u32;
    let mut stack = Stack::new(StackConfig::standard(n, 5, 29));
    let pi = stack.config().proto.pi;
    let ambient = ProcId::range(n);
    let mut script = FailureScript::new();
    script.push(pgcs::model::FailureEvent::new(
        4 * pi,
        pgcs::model::Subject::Loc(ProcId(2)),
        Status::Ugly,
    ));
    script.set_pair(4 * pi, ProcId(0), ProcId(2), Status::Ugly);
    script.heal(30 * pi, &ambient);
    stack.load_failures(&script);
    for i in 0..6u64 {
        stack.schedule_bcast(4 * pi + 5 + i * 10, ProcId((i % 3) as u32));
    }
    stack.run_until(30 * pi + 400 * pi);
    assert_safe(&stack, n, "ugly period");
    for i in 0..n {
        assert_eq!(stack.delivered(ProcId(i)).len(), 6, "p{i} must catch up");
    }
}

/// Repeated rapid reconfigurations (every few token periods) with traffic
/// throughout: the adversarial-churn case the paper explicitly allows
/// ("arbitrary view changes during periods when the underlying network is
/// unstable"). Safety must never waver.
#[test]
fn rapid_reconfiguration_storm_is_safe() {
    let n = 5u32;
    let mut stack = Stack::new(StackConfig::standard(n, 5, 41));
    let pi = stack.config().proto.pi;
    let ambient = ProcId::range(n);
    let mut script = FailureScript::new();
    let splits: [&[u32]; 5] = [&[0, 1, 2], &[0, 1, 2, 3], &[2, 3, 4], &[0, 4], &[0, 1, 2, 3, 4]];
    for (k, left) in splits.iter().enumerate() {
        let lhs: BTreeSet<ProcId> = left.iter().map(|&i| ProcId(i)).collect();
        let rhs: BTreeSet<ProcId> = ambient.difference(&lhs).copied().collect();
        let t = 4 * pi + k as Time * 3 * pi;
        if rhs.is_empty() {
            script.heal(t, &ambient);
        } else {
            script.partition(t, &[lhs, rhs], &ambient);
        }
    }
    stack.load_failures(&script);
    for i in 0..12u64 {
        stack.schedule_bcast(4 * pi + i * pi, ProcId((i % 5) as u32));
    }
    stack.run_until(4 * pi + 15 * pi + 400 * pi);
    assert_safe(&stack, n, "reconfiguration storm");
    // After the final heal everything converges and delivers.
    for i in 0..n {
        assert_eq!(stack.delivered(ProcId(i)).len(), 12, "p{i} must deliver all");
        assert_eq!(stack.view_of(ProcId(i)).expect("view").set, ambient);
    }
}
