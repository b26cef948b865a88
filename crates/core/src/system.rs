//! The composed `VStoTO-system` (Section 6): `VS-machine` composed with
//! `VStoTO_p` for every `p ∈ P`, with the `gpsnd`/`gprcv`/`safe`/`newview`
//! actions hidden, plus the history variables `established[p,g]` and
//! `buildorder[p,g]` used by the invariants and the simulation relation.

use crate::msg::AppMsg;
use crate::vs_machine::{VsAction, VsMachine, VsState};
use crate::vstoto::VsToToProc;
use gcs_ioa::{ActionKind, Automaton};
use gcs_model::{Label, ProcId, QuorumSystem, Value, View, ViewId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// An action of the composed system. `Bcast` and `Brcv` are the external
/// interface (matching `TO-machine`); everything else is internal — the
/// actions shared between the layers (`NewView`, `GpSnd`, `GpRcv`, `Safe`)
/// are hidden by the composition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SysAction {
    /// Input `bcast(a)_p`.
    Bcast {
        /// Submitting location.
        p: ProcId,
        /// The data value.
        a: Value,
    },
    /// Output `brcv(a)_{q,p}`: deliver `a` (originated at `src`) to `dst`.
    Brcv {
        /// Origin of the value.
        src: ProcId,
        /// Receiving location.
        dst: ProcId,
        /// The data value.
        a: Value,
    },
    /// Internal `label(a)_p`.
    Label {
        /// The labelling processor.
        p: ProcId,
    },
    /// Internal `confirm_p`.
    Confirm {
        /// The confirming processor.
        p: ProcId,
    },
    /// Hidden `createview(v)` (internal to `VS-machine`).
    CreateView(
        /// The view being created.
        View,
    ),
    /// Hidden `newview(v)_p`.
    NewView {
        /// The processor being informed.
        p: ProcId,
        /// The new view.
        v: View,
    },
    /// Hidden `gpsnd(m)_p`.
    GpSnd {
        /// The sending processor.
        p: ProcId,
        /// The message.
        m: AppMsg,
    },
    /// Hidden `vs-order(m,p,g)`.
    VsOrder {
        /// The sender whose message is ordered.
        p: ProcId,
        /// The view of the message.
        g: ViewId,
        /// The message.
        m: AppMsg,
    },
    /// Hidden `gprcv(m)_{p,q}`.
    GpRcv {
        /// The original sender.
        src: ProcId,
        /// The receiving processor.
        dst: ProcId,
        /// The message.
        m: AppMsg,
    },
    /// Hidden `safe(m)_{p,q}`.
    Safe {
        /// The original sender.
        src: ProcId,
        /// The processor receiving the indication.
        dst: ProcId,
        /// The message.
        m: AppMsg,
    },
}

/// The global state of `VStoTO-system`.
#[derive(Clone, PartialEq, Debug)]
pub struct SysState {
    /// The `VS-machine` component.
    pub vs: VsState<AppMsg>,
    /// One `VStoTO_p` component per processor.
    pub procs: BTreeMap<ProcId, VsToToProc>,
    /// History variable `established[p,g]` (stored as the set of true
    /// entries; initially `{(p, g₀) : p ∈ P₀}`).
    pub established: BTreeSet<(ProcId, ViewId)>,
    /// History variable `buildorder[p,g]`: the last value of `order_p`
    /// while `p` was in view `g`.
    pub buildorder: BTreeMap<(ProcId, ViewId), Vec<Label>>,
}

impl SysState {
    /// The `VStoTO_p` component.
    pub fn proc(&self, p: ProcId) -> &VsToToProc {
        &self.procs[&p]
    }

    /// History variable accessor: whether `p` has established view `g`.
    pub fn is_established(&self, p: ProcId, g: ViewId) -> bool {
        self.established.contains(&(p, g))
    }

    /// History variable accessor: `buildorder[p,g]` (empty if never set).
    pub fn buildorder(&self, p: ProcId, g: ViewId) -> &[Label] {
        self.buildorder.get(&(p, g)).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// The composed automaton.
#[derive(Clone)]
pub struct VsToToSystem {
    vs: VsMachine<AppMsg>,
    procs: BTreeSet<ProcId>,
    p0: BTreeSet<ProcId>,
    quorums: Arc<dyn QuorumSystem>,
}

impl VsToToSystem {
    /// Creates the system over ambient set `procs` with initial membership
    /// `p0` and quorum system `quorums`.
    pub fn new(
        procs: BTreeSet<ProcId>,
        p0: BTreeSet<ProcId>,
        quorums: Arc<dyn QuorumSystem>,
    ) -> Self {
        VsToToSystem { vs: VsMachine::new(procs.clone(), p0.clone()), procs, p0, quorums }
    }

    /// The ambient processor set *P*.
    pub fn procs(&self) -> &BTreeSet<ProcId> {
        &self.procs
    }

    /// The initial membership *P₀*.
    pub fn p0(&self) -> &BTreeSet<ProcId> {
        &self.p0
    }

    /// The quorum system 𝒬.
    pub fn quorums(&self) -> &Arc<dyn QuorumSystem> {
        &self.quorums
    }

    /// The embedded `VS-machine`.
    pub fn vs_machine(&self) -> &VsMachine<AppMsg> {
        &self.vs
    }

    /// Record `buildorder[p, current.id_p] ← order_p` (called after any
    /// step of `p` that may assign to `order_p`).
    fn record_buildorder(s: &mut SysState, p: ProcId) {
        if let Some(g) = s.procs[&p].current_id() {
            let order = s.procs[&p].order().to_vec();
            s.buildorder.insert((p, g), order);
        }
    }
}

impl Automaton for VsToToSystem {
    type State = SysState;
    type Action = SysAction;

    fn initial(&self) -> SysState {
        let procs = self
            .procs
            .iter()
            .map(|&p| (p, VsToToProc::initial(p, &self.p0, self.quorums.clone())))
            .collect();
        let established = self.p0.iter().map(|&p| (p, ViewId::initial())).collect();
        SysState { vs: self.vs.initial(), procs, established, buildorder: BTreeMap::new() }
    }

    fn enabled(&self, s: &SysState) -> Vec<SysAction> {
        let mut out = Vec::new();
        // VS-machine's enumerable locally controlled actions. Its GpRcv /
        // Safe / NewView outputs are inputs of the VStoTO components
        // (always enabled there); VsOrder is VS-internal.
        for a in self.vs.enabled(&s.vs) {
            out.push(match a {
                VsAction::NewView { p, v } => SysAction::NewView { p, v },
                VsAction::VsOrder { p, g, m } => SysAction::VsOrder { p, g, m },
                VsAction::GpRcv { src, dst, m } => SysAction::GpRcv { src, dst, m },
                VsAction::Safe { src, dst, m } => SysAction::Safe { src, dst, m },
                VsAction::CreateView(v) => SysAction::CreateView(v),
                VsAction::GpSnd { .. } => continue_marker(),
            });
        }
        // VStoTO components' locally controlled actions. Their GpSnd
        // output is an input of VS-machine (always enabled there).
        for (&p, proc) in &s.procs {
            if proc.label_ready().is_some() {
                out.push(SysAction::Label { p });
            }
            if let Some(m) = proc.gpsnd_ready() {
                out.push(SysAction::GpSnd { p, m });
            }
            if proc.confirm_ready() {
                out.push(SysAction::Confirm { p });
            }
            if let Some((src, a)) = proc.brcv_ready_ref() {
                out.push(SysAction::Brcv { src, dst: p, a: a.clone() });
            }
        }
        out
    }

    fn is_enabled(&self, s: &SysState, action: &SysAction) -> bool {
        match action {
            SysAction::Bcast { p, .. } => self.procs.contains(p),
            SysAction::Brcv { src, dst, a } => {
                s.procs.get(dst).is_some_and(|proc| proc.brcv_ready_ref() == Some((*src, a)))
            }
            SysAction::Label { p } => {
                s.procs.get(p).is_some_and(|proc| proc.label_ready().is_some())
            }
            SysAction::Confirm { p } => s.procs.get(p).is_some_and(|proc| proc.confirm_ready()),
            SysAction::CreateView(v) => self.vs.createview_enabled(&s.vs, v),
            SysAction::NewView { p, v } => self.vs.newview_enabled(&s.vs, *p, v),
            SysAction::GpSnd { p, m } => s.procs.get(p).is_some_and(|proc| proc.gpsnd_matches(m)),
            SysAction::VsOrder { p, g, m } => self.vs.vsorder_enabled(&s.vs, *p, *g, m),
            SysAction::GpRcv { src, dst, m } => self.vs.gprcv_enabled(&s.vs, *src, *dst, m),
            SysAction::Safe { src, dst, m } => self.vs.safe_enabled(&s.vs, *src, *dst, m),
        }
    }

    fn apply(&self, s: &mut SysState, action: &SysAction) {
        match action {
            SysAction::Bcast { p, a } => {
                s.procs.get_mut(p).expect("unknown processor").bcast(a.clone());
            }
            SysAction::Brcv { src, dst, a } => {
                let done = s.procs.get_mut(dst).expect("unknown processor").brcv();
                assert!(done.is_some_and(|(q, b)| q == *src && b == *a), "brcv not enabled");
            }
            SysAction::Label { p } => {
                s.procs.get_mut(p).expect("unknown processor").label().expect("label not enabled");
            }
            SysAction::Confirm { p } => {
                let proc = s.procs.get_mut(p).expect("unknown processor");
                proc.confirm().expect("confirm not enabled");
            }
            SysAction::CreateView(v) => {
                self.vs.apply(&mut s.vs, &VsAction::CreateView(v.clone()));
            }
            SysAction::NewView { p, v } => {
                self.vs.apply(&mut s.vs, &VsAction::NewView { p: *p, v: v.clone() });
                s.procs.get_mut(p).expect("unknown processor").newview(v.clone());
            }
            SysAction::GpSnd { p, m } => {
                let sent = s.procs.get_mut(p).expect("unknown processor").gpsnd();
                assert_eq!(sent.as_ref(), Some(m), "gpsnd of an unready message");
                self.vs.apply(&mut s.vs, &VsAction::GpSnd { p: *p, m: m.clone() });
            }
            SysAction::VsOrder { p, g, m } => {
                self.vs.apply(&mut s.vs, &VsAction::VsOrder { p: *p, g: *g, m: m.clone() });
            }
            SysAction::GpRcv { src, dst, m } => {
                self.vs.apply(&mut s.vs, &VsAction::GpRcv { src: *src, dst: *dst, m: m.clone() });
                let outcome = s.procs.get_mut(dst).expect("unknown processor").gprcv(*src, m);
                // History variables: order may have been assigned (ordinary
                // message in a primary, or establishment).
                VsToToSystem::record_buildorder(s, *dst);
                if outcome.established {
                    let g = s.procs[dst].current_id().expect("established at ⊥");
                    s.established.insert((*dst, g));
                }
            }
            SysAction::Safe { src, dst, m } => {
                self.vs.apply(&mut s.vs, &VsAction::Safe { src: *src, dst: *dst, m: m.clone() });
                s.procs.get_mut(dst).expect("unknown processor").safe(*src, m);
            }
        }
    }

    fn kind(&self, action: &SysAction) -> ActionKind {
        match action {
            SysAction::Bcast { .. } => ActionKind::Input,
            SysAction::Brcv { .. } => ActionKind::Output,
            _ => ActionKind::Internal,
        }
    }
}

/// Helper used to skip `GpSnd` in the match over VS-enabled actions
/// (VS-machine never enumerates its inputs, so this is unreachable).
fn continue_marker() -> SysAction {
    unreachable!("VS-machine does not enumerate input actions")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_model::Majority;

    fn system(n: u32) -> VsToToSystem {
        let procs = ProcId::range(n);
        VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)))
    }

    /// Drive a full round by hand in the initial (primary) view:
    /// bcast at p0 → label → gpsnd → vs-order → gprcv at all → safe at all
    /// → confirm → brcv, checking enabledness at each stage.
    #[test]
    fn hand_driven_round_delivers_to_all() {
        let sys = system(3);
        let mut s = sys.initial();
        let a = Value::from_u64(42);
        sys.apply(&mut s, &SysAction::Bcast { p: ProcId(0), a: a.clone() });
        assert!(sys.is_enabled(&s, &SysAction::Label { p: ProcId(0) }));
        sys.apply(&mut s, &SysAction::Label { p: ProcId(0) });
        let m = s.proc(ProcId(0)).gpsnd_ready().expect("send ready");
        sys.apply(&mut s, &SysAction::GpSnd { p: ProcId(0), m: m.clone() });
        let g0 = ViewId::initial();
        sys.apply(&mut s, &SysAction::VsOrder { p: ProcId(0), g: g0, m: m.clone() });
        for q in 0..3 {
            sys.apply(&mut s, &SysAction::GpRcv { src: ProcId(0), dst: ProcId(q), m: m.clone() });
        }
        for q in 0..3 {
            sys.apply(&mut s, &SysAction::Safe { src: ProcId(0), dst: ProcId(q), m: m.clone() });
        }
        for q in 0..3 {
            assert!(sys.is_enabled(&s, &SysAction::Confirm { p: ProcId(q) }), "confirm p{q}");
            sys.apply(&mut s, &SysAction::Confirm { p: ProcId(q) });
            let brcv = SysAction::Brcv { src: ProcId(0), dst: ProcId(q), a: a.clone() };
            assert!(sys.is_enabled(&s, &brcv));
            sys.apply(&mut s, &brcv);
        }
        for q in 0..3 {
            assert_eq!(s.proc(ProcId(q)).nextreport, 2);
        }
    }

    #[test]
    fn initial_history_variables() {
        let sys = system(2);
        let s = sys.initial();
        assert!(s.is_established(ProcId(0), ViewId::initial()));
        assert!(s.is_established(ProcId(1), ViewId::initial()));
        assert!(s.buildorder(ProcId(0), ViewId::initial()).is_empty());
    }

    #[test]
    fn establishment_is_recorded_after_state_exchange() {
        let sys = system(2);
        let mut s = sys.initial();
        let g1 = ViewId::new(1, ProcId(0));
        let v1 = View::new(g1, ProcId::range(2));
        sys.apply(&mut s, &SysAction::CreateView(v1.clone()));
        for q in 0..2 {
            sys.apply(&mut s, &SysAction::NewView { p: ProcId(q), v: v1.clone() });
        }
        assert!(!s.is_established(ProcId(0), g1));
        // Exchange summaries.
        for q in 0..2 {
            let m = s.proc(ProcId(q)).gpsnd_ready().expect("summary ready");
            sys.apply(&mut s, &SysAction::GpSnd { p: ProcId(q), m: m.clone() });
            sys.apply(&mut s, &SysAction::VsOrder { p: ProcId(q), g: g1, m });
        }
        // Deliver both summaries to both processors, in queue order.
        for dst in 0..2 {
            for idx in 0..2 {
                let (m, src) = s.vs.queue_of(g1)[idx].clone();
                sys.apply(&mut s, &SysAction::GpRcv { src, dst: ProcId(dst), m });
            }
            assert!(s.is_established(ProcId(dst), g1), "p{dst} established g1");
        }
    }

    #[test]
    fn enumerated_actions_are_all_enabled_under_random_drive() {
        use crate::adversary::SystemAdversary;
        use gcs_ioa::Runner;
        let mut runner = Runner::new(system(3), SystemAdversary::default(), 5);
        let exec = runner.run(600).unwrap();
        // Replay, re-checking the enumeration at every state.
        let sys = system(3);
        let mut s = sys.initial();
        for a in exec.actions() {
            for cand in sys.enabled(&s) {
                assert!(sys.is_enabled(&s, &cand), "enumerated {cand:?} not enabled");
            }
            assert!(sys.is_enabled(&s, a), "recorded action {a:?} not enabled on replay");
            sys.apply(&mut s, a);
        }
    }
}
