//! The hybrid initial-view approach (basic property 3 of the
//! introduction): processors in *P₀* start in the default initial view;
//! everyone else starts with an *undefined* view (⊥) and must be
//! discovered and brought in by the membership protocol. This exercises
//! the ⊥ paths of both layers: `VS-machine` ignores sends at ⊥, and a
//! `VStoTO` processor starting at ⊥ has no `highprimary` until its first
//! establishment.

use pgcs::harness::{Stack, StackConfig};
use pgcs::ioa::Runner;
use pgcs::model::{Majority, ProcId};
use pgcs::spec::adversary::SystemAdversary;
use pgcs::spec::cause::check_trace;
use pgcs::spec::completion::complete_and_replay;
use pgcs::spec::invariants::install_invariants;
use pgcs::spec::simulation::install_simulation_check;
use pgcs::spec::system::VsToToSystem;
use pgcs::spec::to_trace::check_to_trace;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Implementation stack: p3 starts outside P₀ = {p0,p1,p2}, gets
/// discovered by probing, joins the group, and receives the full history
/// (including values confirmed before it joined) through the state
/// exchange.
#[test]
fn outsider_joins_and_catches_up() {
    let n = 4u32;
    let p0: BTreeSet<ProcId> = ProcId::range(3);
    let mut cfg = StackConfig::standard(n, 5, 71);
    cfg.proto.p0 = p0.clone();
    cfg.quorums = Arc::new(Majority::new(3)); // quorums over the founders
    let pi = cfg.proto.pi;
    let mut stack = Stack::new(cfg);
    // Traffic among the founders before p3 is discovered.
    for i in 0..5u64 {
        stack.schedule_bcast(10 + i * 10, ProcId((i % 3) as u32));
    }
    stack.run_until(400 * pi);
    // p3 must have been pulled in by the probe/merge machinery…
    let v3 = stack.view_of(ProcId(3)).expect("p3 must install a view");
    assert_eq!(v3.set, ProcId::range(4), "p3 must end in the full group: {v3}");
    // …and received the entire pre-join history.
    assert_eq!(stack.delivered(ProcId(3)).len(), 5, "late joiner must catch up on all history");
    let d0 = stack.delivered(ProcId(0)).to_vec();
    assert_eq!(stack.delivered(ProcId(3)), &d0[..]);
    // Full safety checks with the reduced P₀.
    let to = check_to_trace(&stack.to_obs().untimed());
    assert!(to.ok(), "{:?}", to.violations.first());
    let actions = stack.vs_actions();
    let cause = check_trace(&actions, &p0);
    assert!(cause.ok(), "{:?}", cause.violations.first());
    complete_and_replay(&actions, ProcId::range(4), p0)
        .unwrap_or_else(|(i, e)| panic!("VS inclusion at event {i}: {e}"));
}

/// A submission at a ⊥-view processor stays in `delay` until the first
/// view arrives, then flows normally — nothing is lost.
#[test]
fn value_submitted_at_bottom_waits_for_first_view() {
    let n = 3u32;
    let p0: BTreeSet<ProcId> = ProcId::range(2);
    let mut cfg = StackConfig::standard(n, 5, 73);
    cfg.proto.p0 = p0;
    cfg.quorums = Arc::new(Majority::new(2));
    let pi = cfg.proto.pi;
    let mut stack = Stack::new(cfg);
    // p2 submits before it has any view.
    stack.schedule_bcast(1, ProcId(2));
    stack.run_until(400 * pi);
    for i in 0..n {
        assert_eq!(
            stack.delivered(ProcId(i)).len(),
            1,
            "p{i} must eventually deliver the ⊥-submitted value"
        );
    }
}

/// Abstract composed system with P₀ ⊂ P: the full invariant suite and the
/// simulation relation hold when some processors start at ⊥ (the
/// adversary's random views pull them in).
#[test]
fn spec_system_with_partial_p0_refines() {
    let procs = ProcId::range(4);
    let p0: BTreeSet<ProcId> = ProcId::range(2);
    for seed in 0..4 {
        let sys = VsToToSystem::new(procs.clone(), p0.clone(), Arc::new(Majority::new(4)));
        let mut runner = Runner::new(sys, SystemAdversary::default().with_view_prob(0.1), seed);
        install_invariants(&mut runner);
        let violations = install_simulation_check(&mut runner);
        runner.run(900).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(violations.borrow().is_empty(), "seed {seed}: {:?}", violations.borrow().first());
    }
}
