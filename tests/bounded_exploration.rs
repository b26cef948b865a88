//! Bounded exhaustive model checking of the composed `VStoTO-system`:
//! for a tiny configuration, *every* reachable state up to a depth bound
//! satisfies the full invariant suite, and every transition satisfies the
//! simulation relation — not just states sampled by random schedules.

use pgcs::ioa::{explore, Automaton, ExploreLimits};
use pgcs::model::{Majority, ProcId, Value, View, ViewId};
use pgcs::spec::derived::DerivedState;
use pgcs::spec::invariants::check_all;
use pgcs::spec::system::{SysAction, SysState, VsToToSystem};
use std::sync::Arc;

fn tiny_system() -> VsToToSystem {
    let procs = ProcId::range(2);
    VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(2)))
}

/// Adversary with a deterministic, finite proposal set: at most two
/// distinct client values (one per processor) and one extra view.
fn proposals(s: &SysState) -> Vec<SysAction> {
    let mut out = Vec::new();
    // One value per processor, submitted at most once each.
    for (i, p) in [ProcId(0), ProcId(1)].into_iter().enumerate() {
        let a = Value::from_u64(i as u64 + 1);
        let already = s.procs[&p].delay.iter().any(|v| *v == a)
            || s.procs[&p].content().values().any(|v| *v == a);
        if !already {
            out.push(SysAction::Bcast { p, a });
        }
    }
    // One adversarial view change: the pair view g1, then the solo view g2.
    let g1 = ViewId::new(1, ProcId(0));
    let g2 = ViewId::new(2, ProcId(1));
    if !s.vs.created_viewids().contains(&g1) {
        out.push(SysAction::CreateView(View::new(g1, ProcId::range(2))));
    } else if !s.vs.created_viewids().contains(&g2) {
        out.push(SysAction::CreateView(View::new(g2, [ProcId(1)].into())));
    }
    out
}

#[test]
fn every_reachable_state_satisfies_all_invariants() {
    let sys = tiny_system();
    let stats = explore(
        &sys,
        proposals,
        |s: &SysState| check_all(s, &DerivedState::new(s)),
        ExploreLimits { max_depth: 9, max_states: 150_000 },
    )
    .unwrap_or_else(|(path, e)| panic!("violation after {:?}: {e}", path));
    assert!(stats.states > 1_000, "exploration too shallow: {stats:?}");
}

#[test]
fn every_reachable_transition_respects_the_simulation() {
    use pgcs::spec::simulation::simulation_checker;
    let sys = tiny_system();
    let checker = simulation_checker(ProcId::range(2));
    checker.check_initial(&sys.initial()).expect("initial state");
    // Re-walk the frontier, checking each examined transition.
    let sys2 = tiny_system();
    let stats = explore(
        &sys,
        proposals,
        |s: &SysState| {
            // For each enabled action from s, check the simulated step.
            let mut actions = sys2.enabled(s);
            actions.extend(proposals(s).into_iter().filter(|a| sys2.is_enabled(s, a)));
            for a in actions {
                let post = sys2.step(s, &a);
                checker.check_step(s, &a, &post).map_err(|e| format!("simulating {a:?}: {e}"))?;
            }
            Ok(())
        },
        ExploreLimits { max_depth: 8, max_states: 40_000 },
    )
    .unwrap_or_else(|(path, e)| panic!("violation after {:?}: {e}", path));
    assert!(stats.transitions > 2_000, "too few transitions: {stats:?}");
}
