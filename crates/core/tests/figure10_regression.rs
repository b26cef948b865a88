//! Regression test for the Figure 10 corner case documented in DESIGN.md:
//! a value labelled *during recovery* (after `newview`, before the
//! summary is sent) must be delivered to clients exactly once, even
//! though its label reaches `order` both through `fullorder` at
//! establishment and through the ordinary message delivery.

use gcs_core::adversary::Scripted;
use gcs_core::msg::AppMsg;
use gcs_core::simulation::install_simulation_check;
use gcs_core::system::{SysAction, VsToToSystem};
use gcs_ioa::{Automaton, Runner};
use gcs_model::{Majority, ProcId, Value, View, ViewId};
use std::sync::Arc;

fn system() -> VsToToSystem {
    let procs = ProcId::range(2);
    VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(2)))
}

/// Drive the exact interleaving by hand: `bcast` lands between `newview`
/// and the summary send, so the label rides inside the summary's
/// `content` *and* goes out later as an ordinary message.
#[test]
fn value_labelled_during_recovery_is_delivered_exactly_once() {
    let sys = system();
    let g1 = ViewId::new(1, ProcId(0));
    let v1 = View::new(g1, ProcId::range(2));
    let a = Value::from_u64(42);

    let mut runner = Runner::new(sys.clone(), Scripted::<SysAction>::new(vec![]), 0);
    let violations = install_simulation_check(&mut runner);

    let do_act = |runner: &mut Runner<VsToToSystem, _>, act: SysAction| {
        assert!(
            runner.automaton().is_enabled(runner.state(), &act),
            "script error: {act:?} not enabled"
        );
        runner.perform(act).expect("no invariants fail");
    };

    // New view announced to both processors.
    do_act(&mut runner, SysAction::CreateView(v1.clone()));
    do_act(&mut runner, SysAction::NewView { p: ProcId(0), v: v1.clone() });
    do_act(&mut runner, SysAction::NewView { p: ProcId(1), v: v1.clone() });
    // The client submits at p0 *during recovery*; p0 labels it while its
    // status is still `send`.
    do_act(&mut runner, SysAction::Bcast { p: ProcId(0), a: a.clone() });
    do_act(&mut runner, SysAction::Label { p: ProcId(0) });
    // Summaries go out; p0's summary now contains the label in `con`.
    let x0 = runner.state().proc(ProcId(0)).gpsnd_ready().expect("summary");
    assert!(
        matches!(&x0, AppMsg::Summary(s) if s.con.len() == 1),
        "the label must ride in the summary: {x0:?}"
    );
    do_act(&mut runner, SysAction::GpSnd { p: ProcId(0), m: x0.clone() });
    let x1 = runner.state().proc(ProcId(1)).gpsnd_ready().expect("summary");
    do_act(&mut runner, SysAction::GpSnd { p: ProcId(1), m: x1.clone() });
    do_act(&mut runner, SysAction::VsOrder { p: ProcId(0), g: g1, m: x0.clone() });
    do_act(&mut runner, SysAction::VsOrder { p: ProcId(1), g: g1, m: x1.clone() });
    // Everyone receives both summaries: both establish; fullorder places
    // the label into order already.
    for dst in [ProcId(0), ProcId(1)] {
        do_act(&mut runner, SysAction::GpRcv { src: ProcId(0), dst, m: x0.clone() });
        do_act(&mut runner, SysAction::GpRcv { src: ProcId(1), dst, m: x1.clone() });
    }
    for p in [ProcId(0), ProcId(1)] {
        assert_eq!(
            runner.state().proc(p).order().len(),
            1,
            "establishment must order the exchanged label at {p}"
        );
    }
    // Now the buffered ordinary message goes out and is delivered — the
    // Figure 10 corner: an unguarded append would double the label here.
    let m = runner.state().proc(ProcId(0)).gpsnd_ready().expect("ordinary message");
    assert!(matches!(m, AppMsg::Val(..)));
    do_act(&mut runner, SysAction::GpSnd { p: ProcId(0), m: m.clone() });
    do_act(&mut runner, SysAction::VsOrder { p: ProcId(0), g: g1, m: m.clone() });
    for dst in [ProcId(0), ProcId(1)] {
        do_act(&mut runner, SysAction::GpRcv { src: ProcId(0), dst, m: m.clone() });
    }
    for p in [ProcId(0), ProcId(1)] {
        assert_eq!(
            runner.state().proc(p).order().len(),
            1,
            "no duplicate label in order at {p} (Figure 10 dedup guard)"
        );
    }
    // Make everything safe and confirm: the value is delivered exactly
    // once at each client. Safe events for the summaries then the value.
    for dst in [ProcId(0), ProcId(1)] {
        do_act(&mut runner, SysAction::Safe { src: ProcId(0), dst, m: x0.clone() });
        do_act(&mut runner, SysAction::Safe { src: ProcId(1), dst, m: x1.clone() });
        do_act(&mut runner, SysAction::Safe { src: ProcId(0), dst, m: m.clone() });
    }
    for p in [ProcId(0), ProcId(1)] {
        do_act(&mut runner, SysAction::Confirm { p });
        do_act(&mut runner, SysAction::Brcv { src: ProcId(0), dst: p, a: a.clone() });
        // A second delivery of the same value must be impossible.
        assert!(
            !runner.automaton().is_enabled(
                runner.state(),
                &SysAction::Brcv { src: ProcId(0), dst: p, a: a.clone() }
            ),
            "duplicate delivery enabled at {p}"
        );
        assert!(!runner.state().proc(p).confirm_ready(), "second confirm enabled at {p}");
    }
    assert!(
        violations.borrow().is_empty(),
        "simulation violated: {:?}",
        violations.borrow().first()
    );
}
