//! The simulation relation *f* from `VStoTO-system` to `TO-machine`
//! (Section 6.2) and the executable counterpart of Theorem 6.26.
//!
//! `f` maps a global state of the composed system to a `TO-machine` state:
//!
//! 1. `queue` is the sequence of ⟨value, origin⟩ pairs corresponding to
//!    `allconfirm` (the lub of all confirmed prefixes), with values looked
//!    up in `allcontent`;
//! 2. `next[p]` is `nextreport_p`;
//! 3. `pending[p]` is the values of the labels with origin `p` known to
//!    the system but not yet in `allconfirm`, in label order, followed by
//!    the unlabelled values in `delay_p`.
//!
//! The step correspondence: `bcast` and `brcv` map to themselves;
//! `confirm_p` maps to `to-order` exactly when it extends `allconfirm`;
//! every other action of the composed system leaves `f` unchanged.
//! Checking this on every step of an execution (which
//! [`install_simulation_check`] does via a runner observer) verifies on
//! that execution what Theorem 6.26 proves in general: every trace of
//! `VStoTO-system` is a trace of `TO-machine`.

use crate::derived::DerivedState;
use crate::system::{SysAction, SysState, VsToToSystem};
use crate::to_machine::{ToAction, ToMachine, ToState};
use gcs_ioa::{ForwardSimulation, Runner};
use gcs_model::{Label, ProcId};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// The abstraction function *f* of Section 6.2.
///
/// # Panics
///
/// Panics if `allcontent` is not a function or the confirm prefixes are
/// inconsistent — those are invariant violations (Lemma 6.5,
/// Corollary 6.24) that the invariant suite reports with better context.
pub fn abstraction(s: &SysState) -> ToState {
    abstraction_with(s, &DerivedState::new(s))
}

/// The abstraction function over an already-computed [`DerivedState`]
/// snapshot — `allstate` is walked once instead of once per derived
/// variable.
pub fn abstraction_with(s: &SysState, d: &DerivedState<'_>) -> ToState {
    let content = d.allcontent.as_ref().expect("allcontent is a function (Lemma 6.5)");
    let confirm = d.allconfirm.as_ref().expect("allconfirm is defined (Corollary 6.24)");
    let confirmed: BTreeSet<Label> = confirm.iter().copied().collect();
    let queue = confirm
        .iter()
        .map(|l| ((*content.get(l).expect("confirmed label has content")).clone(), l.origin))
        .collect();
    let pending = s
        .procs
        .iter()
        .map(|(&p, proc)| {
            // Labels with origin p, known anywhere, not yet confirmed —
            // label order is the BTreeMap iteration order.
            let mut vals: std::collections::VecDeque<gcs_model::Value> = content
                .iter()
                .filter(|(l, _)| l.origin == p && !confirmed.contains(l))
                .map(|(_, a)| (*a).clone())
                .collect();
            vals.extend(proc.delay.iter().cloned());
            (p, vals)
        })
        .collect();
    let next = s.procs.iter().map(|(&p, proc)| (p, proc.nextreport)).collect();
    ToState { queue, pending, next }
}

/// The step correspondence: the abstract actions simulating one concrete
/// step from `pre`.
pub fn correspondence(pre: &SysState, action: &SysAction) -> Vec<ToAction> {
    match action {
        SysAction::Bcast { p, a } => vec![ToAction::Bcast { p: *p, a: a.clone() }],
        SysAction::Brcv { src, dst, a } => {
            vec![ToAction::Brcv { src: *src, dst: *dst, a: a.clone() }]
        }
        SysAction::Confirm { p } => {
            // One snapshot serves both allconfirm and allcontent.
            let d = DerivedState::new(pre);
            let confirm = d.allconfirm.as_ref().expect("allconfirm defined");
            let proc = &pre.procs[p];
            if proc.nextconfirm as usize <= confirm.len() {
                // Someone already confirmed this label; allconfirm is
                // unchanged, so no abstract step.
                Vec::new()
            } else {
                let l = proc.order()[proc.nextconfirm as usize - 1];
                let content = d.allcontent.as_ref().expect("allcontent is a function");
                let a = (*content.get(&l).expect("ordered label has content")).clone();
                vec![ToAction::ToOrder { p: l.origin, a }]
            }
        }
        _ => Vec::new(),
    }
}

/// The external projection used for trace preservation.
pub fn project(action: &SysAction) -> Option<ToAction> {
    match action {
        SysAction::Bcast { p, a } => Some(ToAction::Bcast { p: *p, a: a.clone() }),
        SysAction::Brcv { src, dst, a } => {
            Some(ToAction::Brcv { src: *src, dst: *dst, a: a.clone() })
        }
        _ => None,
    }
}

/// Builds the forward-simulation checker for a system over the given
/// processor set.
// The three `impl Fn` parameters cannot be factored into a `type` alias
// (impl Trait is not allowed there), so the spelled-out type stays.
#[allow(clippy::type_complexity)]
pub fn simulation_checker(
    procs: BTreeSet<ProcId>,
) -> ForwardSimulation<
    VsToToSystem,
    ToMachine,
    impl Fn(&SysState) -> ToState,
    impl Fn(&SysState, &SysAction) -> Vec<ToAction>,
    impl Fn(&SysAction) -> Option<ToAction>,
> {
    ForwardSimulation::<VsToToSystem, _, _, _, _>::new(
        ToMachine::new(procs),
        abstraction,
        correspondence,
        project,
    )
}

/// Installs the simulation check as a step observer on a runner for the
/// composed system. Returns a shared list of violation descriptions
/// (empty after the run ⇔ the execution's trace is a `TO-machine` trace).
pub fn install_simulation_check<E>(runner: &mut Runner<VsToToSystem, E>) -> Rc<RefCell<Vec<String>>>
where
    E: gcs_ioa::Environment<VsToToSystem>,
{
    let procs = runner.automaton().procs().clone();
    let checker = simulation_checker(procs);
    let violations: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    if let Err(e) = checker.check_initial(runner.state()) {
        violations.borrow_mut().push(e.to_string());
    }
    let sink = violations.clone();
    runner.add_observer(move |pre, action, post| {
        if let Err(e) = checker.check_step(pre, action, post) {
            sink.borrow_mut().push(e.to_string());
        }
    });
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SystemAdversary;
    use gcs_ioa::Automaton;
    use gcs_model::{Majority, Value};
    use std::sync::Arc;

    fn system(n: u32) -> VsToToSystem {
        let procs = ProcId::range(n);
        VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)))
    }

    #[test]
    fn abstraction_of_initial_state_is_initial() {
        let sys = system(3);
        let checker = simulation_checker(ProcId::range(3));
        checker.check_initial(&sys.initial()).unwrap();
    }

    #[test]
    fn bcast_maps_to_abstract_pending() {
        let sys = system(2);
        let mut s = sys.initial();
        sys.apply(&mut s, &SysAction::Bcast { p: ProcId(0), a: Value::from_u64(3) });
        let y = abstraction(&s);
        assert_eq!(y.pending[&ProcId(0)].len(), 1);
        assert!(y.queue.is_empty());
        // Labelling moves the value between representation halves of
        // pending[p] but leaves the abstract state unchanged.
        let before = abstraction(&s);
        sys.apply(&mut s, &SysAction::Label { p: ProcId(0) });
        assert_eq!(abstraction(&s), before);
    }

    #[test]
    fn simulation_holds_on_random_executions_with_churn() {
        for seed in 0..5 {
            let mut runner = Runner::new(system(3), SystemAdversary::default(), seed);
            let violations = install_simulation_check(&mut runner);
            runner.run(800).unwrap();
            let v = violations.borrow();
            assert!(v.is_empty(), "seed {seed}: {:?}", v.first());
        }
    }

    #[test]
    fn deliveries_appear_in_abstract_queue() {
        // Run until something is delivered, then check the abstract queue
        // matches what clients saw.
        let mut runner = Runner::new(system(3), SystemAdversary::default(), 1);
        let violations = install_simulation_check(&mut runner);
        let exec = runner.run(1500).unwrap();
        assert!(violations.borrow().is_empty());
        let delivered: Vec<&SysAction> =
            exec.actions().iter().filter(|a| matches!(a, SysAction::Brcv { .. })).collect();
        let y = abstraction(exec.final_state());
        for a in &delivered {
            if let SysAction::Brcv { src, a: val, .. } = a {
                assert!(
                    y.queue.iter().any(|(qa, qp)| qa == val && qp == src),
                    "delivered value missing from abstract queue"
                );
            }
        }
    }
}
