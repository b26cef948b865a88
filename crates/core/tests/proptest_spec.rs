//! Property-based tests on the specification layer: random action
//! sequences through the machines, summary algebra, and the createview
//! reordering construction.

use gcs_core::adversary::{SystemAdversary, VsAdversary};
use gcs_core::invariants::install_invariants;
use gcs_core::msg::AppMsg;
use gcs_core::simulation::install_simulation_check;
use gcs_core::system::VsToToSystem;
use gcs_core::vs_machine::{VsAction, VsMachine};
use gcs_core::vstoto::VsToToProc;
use gcs_core::weak_vs::{reorder_createviews, replay, WeakVsMachine};
use gcs_ioa::{Automaton, Runner};
use gcs_model::summary::{fullorder, maxnextconfirm, maxprimary, shortorder};
use gcs_model::{GotState, Label, Majority, ProcId, Summary, Value, View, ViewId};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_label() -> impl Strategy<Value = Label> {
    (0u64..4, 1u64..5, 0u32..4)
        .prop_map(|(e, s, o)| Label::new(ViewId::new(e, ProcId(0)), s, ProcId(o)))
}

fn arb_summary() -> impl Strategy<Value = Summary> {
    (prop::collection::btree_set(arb_label(), 0..6), 1u64..6, prop::option::of((0u64..4, 0u32..3)))
        .prop_map(|(labels, next, high)| {
            let ord: Vec<Label> = labels.iter().copied().collect();
            let con = labels.iter().map(|l| (*l, Value::from_u64(l.seqno))).collect();
            Summary { con, ord, next, high: high.map(|(e, o)| ViewId::new(e, ProcId(o))) }
        })
}

fn arb_gotstate() -> impl Strategy<Value = GotState> {
    prop::collection::btree_map((0u32..4).prop_map(ProcId), arb_summary().prop_map(Arc::new), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `fullorder` extends `shortorder` and contains exactly the labels of
    /// `knowncontent`, each once.
    #[test]
    fn fullorder_properties(y in arb_gotstate()) {
        let short = shortorder(&y);
        let full = fullorder(&y);
        prop_assert!(gcs_model::seq::is_prefix(&short, &full));
        let mut sorted = full.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), full.len(), "fullorder has duplicates");
        let known = gcs_model::summary::knowncontent(&y);
        for l in known.keys() {
            prop_assert!(full.contains(&l), "knowncontent label missing from fullorder");
        }
        // Labels beyond shortorder appear in ascending label order.
        let tail = &full[short.len()..];
        prop_assert!(tail.windows(2).all(|w| w[0] < w[1]));
        // And they are exactly the labels of knowncontent that
        // shortorder lacks: the spec function, built in full.
        let mut rest: Vec<Label> = known.keys().filter(|l| !short.contains(l)).collect();
        rest.sort();
        prop_assert_eq!(tail, &rest[..]);
    }

    /// `maxprimary` dominates every summary's high; `maxnextconfirm`
    /// dominates every summary's next.
    #[test]
    fn gotstate_maxima(y in arb_gotstate()) {
        let mp = maxprimary(&y);
        let mn = maxnextconfirm(&y);
        for x in y.values() {
            prop_assert!(x.high <= mp);
            prop_assert!(x.next <= mn);
        }
        prop_assert!(y.values().any(|x| x.next == mn));
    }

    /// `confirm` is always a prefix of `ord` with length `min(next-1, |ord|)`.
    #[test]
    fn confirm_shape(x in arb_summary()) {
        let c = x.confirm();
        prop_assert!(gcs_model::seq::is_prefix(&c, &x.ord));
        prop_assert_eq!(c.len() as u64, (x.next - 1).min(x.ord.len() as u64));
    }

    /// An untrusted summary — `ord` naming labels `con` does not bind,
    /// or the same label twice, `next` past the end — is adopted without
    /// a panic; `brcv` reports exactly the confirmed positions whose
    /// values are known, in order; and when every label then arrives as
    /// an ordinary message (twice), none is appended to `order` again.
    #[test]
    fn untrusted_summary_is_adopted_totally(
        x in arb_summary(),
        extra in prop::collection::vec(arb_label(), 0..4),
    ) {
        let mut x = x;
        x.ord.extend(extra);
        let x = Arc::new(x);
        let solo: std::collections::BTreeSet<ProcId> = [ProcId(0)].into();
        let mut p = VsToToProc::initial(ProcId(0), &solo, Arc::new(Majority::new(1)));
        p.newview(View::new(ViewId::new(9, ProcId(0)), solo));
        prop_assert!(matches!(p.gpsnd(), Some(AppMsg::Summary(_))));
        prop_assert!(p.gprcv(ProcId(0), &AppMsg::Summary(Arc::clone(&x))).established);
        let adopted = p.order().to_vec();
        prop_assert_eq!(&adopted, &fullorder(&[(ProcId(0), x.clone())].into()));
        let confirmed = adopted.len().min(x.next as usize - 1);
        let known = adopted[..confirmed].iter().take_while(|l| x.con.contains_key(l)).count();
        let value = |l: &Label| (l.origin, Value::from_u64(l.seqno));
        for l in &adopted[..known] {
            prop_assert_eq!(p.brcv(), Some(value(l)));
        }
        prop_assert_eq!(p.brcv(), None);
        for l in adopted.iter().chain(&adopted) {
            p.gprcv(ProcId(0), &AppMsg::Val(*l, Value::from_u64(l.seqno)));
        }
        prop_assert_eq!(p.order(), &adopted[..]);
        for l in &adopted[known..confirmed] {
            prop_assert_eq!(p.brcv(), Some(value(l)));
        }
        prop_assert_eq!(p.brcv(), None);
        prop_assert_eq!(p.reported(), adopted[..confirmed].iter().map(value).collect::<Vec<_>>());
    }

    /// Random seeds: the composed system satisfies all invariants and the
    /// simulation relation (the workhorse refinement property, driven by
    /// proptest-chosen seeds and adversary probabilities).
    #[test]
    fn composed_system_refines_to_machine(
        seed in any::<u64>(),
        bcast_prob in 0.05f64..0.9,
        view_prob in 0.0f64..0.3,
    ) {
        let procs = ProcId::range(3);
        let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(3)));
        let adv = SystemAdversary::default()
            .with_bcast_prob(bcast_prob)
            .with_view_prob(view_prob);
        let mut runner = Runner::new(sys, adv, seed);
        install_invariants(&mut runner);
        let violations = install_simulation_check(&mut runner);
        runner.run(350).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(violations.borrow().is_empty(),
            "{:?}", violations.borrow().first());
    }

    /// Weak executions always reorder into strong executions with the
    /// same trace.
    #[test]
    fn weak_reordering_roundtrip(seed in any::<u64>()) {
        let weak: WeakVsMachine<Value> =
            WeakVsMachine::new(ProcId::range(3), ProcId::range(3));
        // VsAdversary only proposes ascending ids; mix in descending ones
        // by running the weak machine and then injecting artificial
        // creations is already covered in E8 — here seeds explore the
        // scheduler space.
        let mut runner = Runner::new(weak, VsAdversary::default(), seed);
        let exec = runner.run(250).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let strong: VsMachine<Value> = VsMachine::new(ProcId::range(3), ProcId::range(3));
        let reordered = reorder_createviews(exec.actions());
        prop_assert!(replay(&strong, &reordered).is_ok());
        let ext = |acts: &[VsAction<Value>]| -> Vec<VsAction<Value>> {
            acts.iter().filter(|a| strong.kind(a).is_external()).cloned().collect()
        };
        prop_assert_eq!(ext(exec.actions()), ext(&reordered));
    }

    /// The VS machine's own executions always pass the Lemma 4.2 cause
    /// checker and complete back into the specification.
    #[test]
    fn vs_machine_traces_selfcheck(seed in any::<u64>()) {
        let m: VsMachine<Value> = VsMachine::new(ProcId::range(3), ProcId::range(3));
        let mut runner = Runner::new(m, VsAdversary::default(), seed);
        let exec = runner.run(300).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let r = gcs_core::cause::check_trace(exec.actions(), &ProcId::range(3));
        prop_assert!(r.ok(), "{:?}", r.violations.first());
        let external: Vec<VsAction<Value>> = exec
            .actions()
            .iter()
            .filter(|a| !matches!(a, VsAction::CreateView(_) | VsAction::VsOrder { .. }))
            .cloned()
            .collect();
        let incl = gcs_core::completion::complete_and_replay(
            &external,
            ProcId::range(3),
            ProcId::range(3),
        );
        prop_assert!(incl.is_ok(), "{:?}", incl.err());
    }
}
