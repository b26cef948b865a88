//! The checkers, run on the schedules the implementation lives in.
//!
//! Section 7's `VStoTO'` is `VStoTO_p` plus one scheduling rule: a good
//! processor performs any enabled locally controlled action (`label`,
//! `gpsnd`, `confirm`, `brcv`) immediately. `gcs_vsimpl::TimedVsToTo`
//! implements exactly that. The uniform random scheduler behind E1/E5/E6
//! almost never produces such a run — it lets enabled actions sit while
//! the environment moves on — so this test biases it: locally controlled
//! actions get weight 1 and everything else weight 0, which
//! [`Runner::set_weights`] defines as "only when nothing with positive
//! weight is enabled". The 29 invariants and the forward simulation to
//! `TO-machine` must hold on these executions too, with view churn on.
//!
//! The adversary submits and churns at a third of its default rates
//! ([`BCAST_PROB`], [`VIEW_PROB`]): the checkers' cost per step grows
//! with views × summaries × order length, and over 2000 steps the
//! default rates cost ~15 s per run in a debug build against ~6 s here,
//! which still installs ~16 views and makes ~250 deliveries per seed.

use gcs_core::adversary::SystemAdversary;
use gcs_core::invariants::install_invariants;
use gcs_core::simulation::install_simulation_check;
use gcs_core::system::{SysAction, VsToToSystem};
use gcs_ioa::{Automaton, Runner};
use gcs_model::{Majority, ProcId};
use std::sync::Arc;

const SEEDS: u64 = 8;
const STEPS: usize = 2000;
const BCAST_PROB: f64 = 0.1;
const VIEW_PROB: f64 = 0.02;

fn is_locally_controlled(a: &SysAction) -> bool {
    matches!(
        a,
        SysAction::Label { .. }
            | SysAction::GpSnd { .. }
            | SysAction::Confirm { .. }
            | SysAction::Brcv { .. }
    )
}

fn check_eager_runs(n: u32) {
    for seed in 0..SEEDS {
        let procs = ProcId::range(n);
        let system = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)));
        let adversary =
            SystemAdversary::default().with_bcast_prob(BCAST_PROB).with_view_prob(VIEW_PROB);
        let mut runner = Runner::new(system, adversary, seed);
        install_invariants(&mut runner);
        let violations = install_simulation_check(&mut runner);
        runner.set_weights(|a| u32::from(is_locally_controlled(a)));
        let exec = runner.run(STEPS).unwrap_or_else(|e| panic!("n={n} seed {seed}: {e}"));
        let violations = violations.borrow();
        assert!(violations.is_empty(), "n={n} seed {seed}: {:?}", violations.first());

        // The run really was eager: whenever the scheduler took a step
        // that is not locally controlled, no locally controlled action
        // was enabled.
        let sys = runner.automaton();
        let mut s = sys.initial();
        for a in exec.actions() {
            if !is_locally_controlled(a) {
                let pending: Vec<SysAction> =
                    sys.enabled(&s).into_iter().filter(is_locally_controlled).collect();
                assert!(pending.is_empty(), "n={n} seed {seed}: {a:?} taken over {pending:?}");
            }
            sys.apply(&mut s, a);
        }
        let delivered = exec.actions().iter().any(|a| matches!(a, SysAction::Brcv { .. }));
        assert!(delivered, "n={n} seed {seed}: nothing was delivered");
    }
}

#[test]
fn checkers_hold_on_eager_schedules_n3() {
    check_eager_runs(3);
}

#[test]
fn checkers_hold_on_eager_schedules_n5() {
    check_eager_runs(5);
}
