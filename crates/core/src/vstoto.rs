//! The per-processor `VStoTO` algorithm (Figures 9 and 10).
//!
//! `VsToToProc` is the state of one `VStoTO_p` automaton together with its
//! transition functions. There is exactly one implementation of each
//! transition: the four locally controlled actions are
//! [`VsToToProc::label`], [`VsToToProc::gpsnd`], [`VsToToProc::confirm`]
//! and [`VsToToProc::brcv`], each testing its precondition and performing
//! its effect in one walk, and both drivers call them — the abstract
//! composed system ([`crate::system::VsToToSystem::apply`], where a
//! scheduler resolves nondeterminism) and the timed implementation stack
//! (`gcs_vsimpl::TimedVsToTo::pump`, where a good processor performs
//! enabled actions immediately). So the code that the 29 invariants and
//! the forward simulation to `TO-machine` check is the code that runs on
//! the network. Two things keep it that way: `gcs-lint`'s unsuppressible
//! `spec_coverage` check fails unless both drivers call all four
//! functions, and `tests/eager_schedule.rs` runs the checkers on the
//! eager schedules the implementation lives in, which a uniform random
//! scheduler almost never produces.
//!
//! ## Normal activity
//!
//! Client values are queued in `delay`, given system-wide unique labels
//! (`label(a)_p`), stored in `content`, and multicast in the current view
//! (`gpsnd(⟨l,a⟩)_p`). Delivered ⟨label, value⟩ pairs are appended to the
//! tentative `order` when the view is primary; `safe` indications mark
//! labels confirmable, `confirm_p` advances the confirmed prefix, and
//! `brcv(a)_{q,p}` releases confirmed values to the client.
//!
//! ## Recovery activity
//!
//! On `newview`, the processor sends a summary of its state and collects
//! the summaries of all members (`gotstate`). When the last summary
//! arrives it *establishes* the view: it adopts `maxnextconfirm` and, for
//! a primary view, `fullorder(gotstate)` (setting `highprimary` to the new
//! view id), or for a non-primary view, `shortorder(gotstate)` (adopting
//! the representative's `highprimary`). Once every member's summary is
//! reported safe, all exchanged labels become safe in a primary view.

use crate::msg::AppMsg;
use gcs_model::summary::{fullorder, maxnextconfirm, maxprimary, shortorder};
use gcs_model::{
    ContentMap, GotState, Label, LabelSet, ProcId, QuorumSystem, Summary, Value, View, ViewId,
};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// The processing status of a `VStoTO_p` automaton.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcStatus {
    /// Anywhere other than in the first phase of recovery.
    Normal,
    /// After a `newview`, before sending the state-exchange message.
    Send,
    /// Waiting for some members' state-exchange messages.
    Collect,
}

/// The state of one `VStoTO_p` automaton (Figure 9), plus its processor
/// identifier and the quorum system 𝒬 (fixed configuration).
#[derive(Clone)]
pub struct VsToToProc {
    /// This processor's identifier (the subscript *p*).
    pub id: ProcId,
    /// The quorum system used for the `primary` test.
    pub quorums: Arc<dyn QuorumSystem>,
    /// `current ∈ views⊥`: the current view.
    pub current: Option<View>,
    /// `highprimary ∈ G⊥`.
    pub highprimary: Option<ViewId>,
    /// `status`.
    pub status: ProcStatus,
    /// `delay`: client values not yet labelled.
    pub delay: VecDeque<Value>,
    /// `content ⊆ L × A` (a partial function by Lemma 6.5), stored as a
    /// [`ContentMap`]: dense per-⟨view, origin⟩ seqno vectors instead of
    /// one ever-growing ordered map, so the per-label touches on the
    /// token hot path cost a small-group walk plus an index rather than
    /// an O(log *history*) tree descent. Read through
    /// [`VsToToProc::content`]; private because its marks follow `order`.
    content: ContentMap,
    /// `nextseqno ∈ ℕ⁺`.
    pub nextseqno: u64,
    /// `buffer`: labelled values not yet multicast.
    pub buffer: VecDeque<Label>,
    /// `order ∈ L*`: the tentative total order (read through
    /// [`VsToToProc::order`]). `gprcv` is the only writer, and it marks
    /// in `content` exactly the labels that occur here — the
    /// duplicate-membership test a receipt needs, answered where the
    /// label's value is stored instead of by a linear `order.contains`
    /// (every receipt O(|order|), a long run quadratic). The marks are
    /// not automaton state: `ContentMap`'s equality ignores them.
    order: Vec<Label>,
    /// How long a prefix of `order` is the `fullorder(gotstate)` the
    /// current primary view was established with (0 before that). Only
    /// `gprcv` appends to `order` afterwards, and `gotstate` is complete,
    /// so the prefix stays that order until the next `newview`; the
    /// summary exchange turning safe reads it here instead of sorting
    /// every summary's labels again. Not automaton state: equality
    /// ignores it.
    established: usize,
    /// `nextconfirm ∈ ℕ⁺`.
    pub nextconfirm: u64,
    /// `nextreport ∈ ℕ⁺`.
    pub nextreport: u64,
    /// `gotstate`: summaries collected in the current recovery.
    pub gotstate: GotState,
    /// `safe-exch ⊆ P`: members whose summaries are safe.
    pub safe_exch: BTreeSet<ProcId>,
    /// `safe-labels ⊆ L`.
    pub safe_labels: LabelSet,
}

impl PartialEq for VsToToProc {
    fn eq(&self, other: &Self) -> bool {
        // Configuration (id, quorums) aside, compare the automaton state.
        self.id == other.id
            && self.current == other.current
            && self.highprimary == other.highprimary
            && self.status == other.status
            && self.delay == other.delay
            && self.content == other.content
            && self.nextseqno == other.nextseqno
            && self.buffer == other.buffer
            && self.order == other.order
            && self.nextconfirm == other.nextconfirm
            && self.nextreport == other.nextreport
            && self.gotstate == other.gotstate
            && self.safe_exch == other.safe_exch
            && self.safe_labels == other.safe_labels
    }
}

impl fmt::Debug for VsToToProc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VsToToProc")
            .field("id", &self.id)
            .field("current", &self.current)
            .field("highprimary", &self.highprimary)
            .field("status", &self.status)
            .field("delay", &self.delay)
            .field("nextseqno", &self.nextseqno)
            .field("buffer", &self.buffer)
            .field("order", &self.order)
            .field("nextconfirm", &self.nextconfirm)
            .field("nextreport", &self.nextreport)
            .field("gotstate_dom", &self.gotstate.keys().collect::<Vec<_>>())
            .field("safe_exch", &self.safe_exch)
            .field("safe_labels", &self.safe_labels)
            .field("content_len", &self.content.len())
            .finish()
    }
}

/// What a `gprcv` effect did, so the composed system can maintain its
/// history variables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GprcvOutcome {
    /// Whether this receipt completed the state exchange (the processor
    /// *established* its current view: `status` became `Normal`).
    pub established: bool,
}

impl VsToToProc {
    /// The start state for processor `p`: members of `P₀` begin in the
    /// initial view with `highprimary = g₀`; everyone else at ⊥.
    pub fn initial(id: ProcId, p0: &BTreeSet<ProcId>, quorums: Arc<dyn QuorumSystem>) -> Self {
        let in_p0 = p0.contains(&id);
        // Figure 9 initializes highprimary to g₀ for members of P₀ — which
        // presumes the initial view is primary. When P₀ does not contain a
        // quorum, that initialization contradicts Lemma 6.11(2) in the very
        // start state (established non-primary view with highprimary equal
        // to the current id); see DESIGN.md "Findings". We therefore treat
        // g₀ as having affected the order only when ⟨g₀, P₀⟩ is primary,
        // which is also semantically accurate: a non-primary initial view
        // never orders anything.
        let v0_primary = quorums.is_quorum(p0);
        VsToToProc {
            id,
            quorums,
            current: in_p0.then(|| View::initial(p0.clone())),
            highprimary: (in_p0 && v0_primary).then(ViewId::initial),
            status: ProcStatus::Normal,
            delay: VecDeque::new(),
            content: ContentMap::new(),
            nextseqno: 1,
            buffer: VecDeque::new(),
            order: Vec::new(),
            established: 0,
            nextconfirm: 1,
            nextreport: 1,
            gotstate: GotState::new(),
            safe_exch: BTreeSet::new(),
            safe_labels: LabelSet::default(),
        }
    }

    /// The derived variable `primary`: the current view is defined and its
    /// membership contains a quorum.
    pub fn primary(&self) -> bool {
        self.current.as_ref().is_some_and(|v| self.quorums.is_quorum(&v.set))
    }

    /// The current view identifier, if defined.
    pub fn current_id(&self) -> Option<ViewId> {
        self.current.as_ref().map(|v| v.id)
    }

    /// `content`: the known ⟨label, value⟩ pairs.
    pub fn content(&self) -> &ContentMap {
        &self.content
    }

    /// `order`: the tentative total order.
    pub fn order(&self) -> &[Label] {
        &self.order
    }

    /// Replaces `order` wholesale (view establishment). A label the new
    /// order repeats — only an untrusted summary can — stays repeated,
    /// as Figure 10 has it; the marks only keep `gprcv` from adding one.
    fn replace_order(&mut self, order: Vec<Label>) {
        self.content.clear_marks();
        for l in &order {
            self.content.mark(*l);
        }
        self.order = order;
    }

    /// Everything reported to the client so far, in order: the first
    /// `nextreport − 1` positions of `order` with their values. That
    /// prefix lies inside the confirmed prefix, which establishment
    /// preserves (Corollary 6.24), so it is the delivery history itself.
    pub fn reported(&self) -> Vec<(ProcId, Value)> {
        self.order[..self.nextreport as usize - 1]
            .iter()
            .map(|l| (l.origin, self.content.get(l).expect("brcv read it from content").clone()))
            .collect()
    }

    /// This processor's state summary
    /// `⟨content, order, nextconfirm, highprimary⟩`.
    pub fn summary(&self) -> Summary {
        Summary {
            con: self.content.clone(),
            ord: self.order.clone(),
            next: self.nextconfirm,
            high: self.highprimary,
        }
    }

    // ------------------------------------------------------------------
    // Input actions
    // ------------------------------------------------------------------

    /// Input `bcast(a)_p`: append `a` to `delay`.
    pub fn bcast(&mut self, a: Value) {
        self.delay.push_back(a);
    }

    /// Input `newview(v)_p`: start recovery for view `v`.
    pub fn newview(&mut self, v: View) {
        self.current = Some(v);
        self.nextseqno = 1;
        self.buffer.clear();
        self.established = 0;
        self.gotstate.clear();
        self.safe_exch.clear();
        self.safe_labels.clear();
        self.status = ProcStatus::Send;
    }

    /// Input `gprcv(m)_{q,p}` for both message kinds.
    pub fn gprcv(&mut self, src: ProcId, m: &AppMsg) -> GprcvOutcome {
        match m {
            AppMsg::Val(l, a) => {
                // Figure 10 appends unconditionally; the mark test is a
                // necessary correction. A value labelled during recovery
                // (after `newview`, before the summary goes out) is part of
                // the summary's `con`, so on establishment `fullorder`
                // already places its label in `order`; when the ordinary
                // message later arrives, an unconditional append would
                // duplicate the label — and a duplicate in `order` gets
                // confirmed and delivered twice, violating `TO-machine`.
                // (Caught by the executable simulation check of
                // Theorem 6.26; see DESIGN.md.)
                if !self.primary() {
                    self.content.insert(*l, a.clone());
                } else if self.content.insert_marked(*l, a.clone()) {
                    self.order.push(*l);
                }
                GprcvOutcome { established: false }
            }
            AppMsg::Summary(x) => {
                for (l, a) in x.con.iter() {
                    self.content.insert(l, a.clone());
                }
                self.gotstate.insert(src, Arc::clone(x));
                let complete = self
                    .current
                    .as_ref()
                    .is_some_and(|v| self.gotstate.keys().copied().eq(v.set.iter().copied()));
                if complete && self.status == ProcStatus::Collect {
                    self.nextconfirm = maxnextconfirm(&self.gotstate);
                    if self.primary() {
                        let order = fullorder(&self.gotstate);
                        self.established = order.len();
                        self.replace_order(order);
                        self.highprimary = self.current_id();
                    } else {
                        self.replace_order(shortorder(&self.gotstate));
                        self.highprimary = maxprimary(&self.gotstate);
                    }
                    self.status = ProcStatus::Normal;
                    GprcvOutcome { established: true }
                } else {
                    GprcvOutcome { established: false }
                }
            }
        }
    }

    /// Input `safe(m)_{q,p}` for both message kinds.
    pub fn safe(&mut self, src: ProcId, m: &AppMsg) {
        match m {
            AppMsg::Val(l, _) => {
                if self.primary() {
                    self.safe_labels.insert(*l);
                }
            }
            AppMsg::Summary(_) => {
                self.safe_exch.insert(src);
                let all = self
                    .current
                    .as_ref()
                    .is_some_and(|v| self.safe_exch.iter().copied().eq(v.set.iter().copied()));
                if all && self.primary() {
                    // Every member's summary is safe, so every summary
                    // reached this processor and it established the view
                    // with `fullorder(gotstate)`, the first `established`
                    // labels of `order`. Positions below `nextconfirm − 1`
                    // are confirmed and `confirm` never probes them again
                    // (see its comment).
                    let confirmed = self.nextconfirm as usize - 1;
                    let exchanged = self.order.get(confirmed..self.established).unwrap_or_default();
                    self.safe_labels.extend(exchanged.iter().copied());
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Locally controlled actions: one function each (`None`, and nothing
    // changed, when not enabled), plus the pure probes a scheduler needs
    // to enumerate enabled actions without performing them.
    // ------------------------------------------------------------------

    /// Whether internal `label(a)_p` is enabled (head of `delay` exists and
    /// the current view is defined); returns the value that would be
    /// labelled.
    pub fn label_ready(&self) -> Option<&Value> {
        if self.current.is_some() {
            self.delay.front()
        } else {
            None
        }
    }

    /// Internal `label(a)_p`: gives the head of `delay` the next label of
    /// the current view, records the pair in `content` and queues the
    /// label in `buffer`. Returns the label, or `None` if not enabled.
    pub fn label(&mut self) -> Option<Label> {
        let g = self.current.as_ref()?.id;
        let a = self.delay.pop_front()?;
        let l = Label::new(g, self.nextseqno, self.id);
        self.content.insert(l, a);
        self.buffer.push_back(l);
        self.nextseqno += 1;
        Some(l)
    }

    /// Whether output `gpsnd(m)_p` is enabled, and for which message:
    /// the state-exchange summary when `status = send`, or the head of
    /// `buffer` when `status = normal`.
    pub fn gpsnd_ready(&self) -> Option<AppMsg> {
        match self.status {
            ProcStatus::Send => Some(AppMsg::Summary(Arc::new(self.summary()))),
            ProcStatus::Normal => {
                let l = self.buffer.front()?;
                let a = self.content.get(l)?;
                Some(AppMsg::Val(*l, a.clone()))
            }
            ProcStatus::Collect => None,
        }
    }

    /// Whether `gpsnd(m)_p` is enabled *for this specific message* —
    /// equivalent to `gpsnd_ready() == Some(m)` but compared
    /// component-wise against the live state, so no summary or value is
    /// materialized per test (the scheduler calls this on every
    /// enabledness probe).
    pub fn gpsnd_matches(&self, m: &AppMsg) -> bool {
        match m {
            AppMsg::Summary(x) => {
                self.status == ProcStatus::Send
                    && x.next == self.nextconfirm
                    && x.high == self.highprimary
                    && x.ord == self.order
                    && x.con == self.content
            }
            AppMsg::Val(l, a) => {
                self.status == ProcStatus::Normal
                    && self.buffer.front() == Some(l)
                    && self.content.get(l) == Some(a)
            }
        }
    }

    /// Output `gpsnd(m)_p`: with `status = send`, sends the state summary
    /// and moves to `collect`; with `status = normal`, sends the head of
    /// `buffer` with its value. Returns the message sent, or `None` if
    /// not enabled.
    pub fn gpsnd(&mut self) -> Option<AppMsg> {
        let m = self.gpsnd_ready()?;
        match m {
            AppMsg::Val(..) => {
                self.buffer.pop_front();
            }
            AppMsg::Summary(_) => self.status = ProcStatus::Collect,
        }
        Some(m)
    }

    /// Whether internal `confirm_p` is enabled:
    /// `primary ∧ order(nextconfirm) ∈ safe-labels`.
    pub fn confirm_ready(&self) -> bool {
        self.primary()
            && self
                .order
                .get(self.nextconfirm as usize - 1)
                .is_some_and(|l| self.safe_labels.contains(l))
    }

    /// Internal `confirm_p`: advances `nextconfirm` past
    /// `order(nextconfirm)` when that label is safe. Returns the
    /// confirmed label, or `None` if not enabled.
    ///
    /// The confirmed label also leaves `safe-labels` (test and removal
    /// are one walk), which keeps the set at the in-flight window instead
    /// of the view's whole history. Figure 10 keeps it monotone within a
    /// view, but nothing reads a confirmed label's membership again:
    /// `confirm` only probes `order(nextconfirm)`, now past it; Lemma 6.20
    /// quantifies over the members of `safe-labels`, so a smaller set
    /// only weakens its antecedent; the simulation relation never reads
    /// it. For the same reason a summary exchange that turns safe adds
    /// only the unconfirmed part of the exchanged order.
    pub fn confirm(&mut self) -> Option<Label> {
        if !self.primary() {
            return None;
        }
        let l = *self.order.get(self.nextconfirm as usize - 1)?;
        if !self.safe_labels.remove(&l) {
            return None;
        }
        self.nextconfirm += 1;
        Some(l)
    }

    /// Whether output `brcv(a)_{q,p}` is enabled; returns `(q, a)` =
    /// (origin of the next confirmed label, its value) without cloning
    /// the value — the form the scheduler's enabledness test uses.
    pub fn brcv_ready_ref(&self) -> Option<(ProcId, &Value)> {
        if self.nextreport < self.nextconfirm {
            let l = self.order.get(self.nextreport as usize - 1)?;
            let a = self.content.get(l)?;
            Some((l.origin, a))
        } else {
            None
        }
    }

    /// Output `brcv(a)_{q,p}`: reports the value of `order(nextreport)`
    /// to the client once that label is confirmed and its value known.
    /// Returns `(q, a)`, or `None` if not enabled (which includes a
    /// recovery order that ran ahead of its content: the label waits).
    pub fn brcv(&mut self) -> Option<(ProcId, Value)> {
        let (q, a) = self.brcv_ready_ref()?;
        let delivery = (q, a.clone());
        self.nextreport += 1;
        Some(delivery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_model::Majority;

    fn proc(id: u32, n: u32) -> VsToToProc {
        VsToToProc::initial(ProcId(id), &ProcId::range(n), Arc::new(Majority::new(n as usize)))
    }

    fn send_own(p: &mut VsToToProc, x: u64) -> (Label, Value) {
        let a = Value::from_u64(x);
        p.bcast(a.clone());
        let l = p.label().expect("label enabled");
        assert_eq!(p.gpsnd(), Some(AppMsg::Val(l, a.clone())));
        (l, a)
    }

    #[test]
    fn initial_state_depends_on_p0_membership() {
        let inside = proc(0, 3);
        assert!(inside.current.is_some());
        assert_eq!(inside.highprimary, Some(ViewId::initial()));
        let outside = VsToToProc::initial(ProcId(9), &ProcId::range(3), Arc::new(Majority::new(3)));
        assert!(outside.current.is_none());
        assert!(outside.highprimary.is_none());
        assert!(outside.label_ready().is_none());
    }

    #[test]
    fn normal_flow_confirms_and_reports_in_order() {
        // Single-processor group: p0 alone is a majority of 1.
        let mut p = proc(0, 1);
        let (l, a) = send_own(&mut p, 7);
        // VS loops the message back.
        p.gprcv(ProcId(0), &AppMsg::Val(l, a.clone()));
        assert_eq!(p.order, vec![l]);
        assert!(!p.confirm_ready()); // not yet safe
        p.safe(ProcId(0), &AppMsg::Val(l, a.clone()));
        assert!(p.confirm_ready());
        assert_eq!(p.confirm(), Some(l));
        assert!(p.safe_labels.is_empty(), "a confirmed label leaves safe-labels");
        assert_eq!(p.confirm(), None);
        assert_eq!(p.brcv_ready_ref(), Some((ProcId(0), &a)));
        assert_eq!(p.brcv(), Some((ProcId(0), a.clone())));
        assert!(p.brcv_ready_ref().is_none());
        assert_eq!(p.brcv(), None);
        assert_eq!(p.reported(), vec![(ProcId(0), a)]);
    }

    #[test]
    fn actions_that_are_not_enabled_change_nothing() {
        let mut p = proc(0, 1);
        let before = p.clone();
        assert_eq!(p.label(), None);
        assert_eq!(p.gpsnd(), None);
        assert_eq!(p.confirm(), None);
        assert_eq!(p.brcv(), None);
        assert_eq!(p, before);
        // No view: a queued value cannot be labelled and stays queued.
        let mut q = VsToToProc::initial(ProcId(9), &ProcId::range(3), Arc::new(Majority::new(3)));
        q.bcast(Value::from_u64(1));
        assert_eq!(q.label(), None);
        assert_eq!(q.delay.len(), 1);
    }

    #[test]
    fn non_primary_records_content_but_does_not_order() {
        let mut p = proc(0, 3); // majority of 3 needs 2 members
        let v = View::new(ViewId::new(1, ProcId(0)), [ProcId(0)].into());
        p.newview(v);
        assert!(!p.primary());
        // Recover through the (solo) state exchange.
        let x = p.gpsnd().unwrap();
        let out = p.gprcv(ProcId(0), &x);
        assert!(out.established);
        let (l, a) = send_own(&mut p, 1);
        p.gprcv(ProcId(0), &AppMsg::Val(l, a.clone()));
        assert!(p.content.contains_key(&l));
        assert!(p.order.is_empty(), "non-primary must not extend order");
        p.safe(ProcId(0), &AppMsg::Val(l, a));
        assert!(p.safe_labels.is_empty(), "non-primary ignores safe");
    }

    #[test]
    fn newview_resets_recovery_state_but_keeps_history() {
        let mut p = proc(0, 1);
        let (l, a) = send_own(&mut p, 3);
        p.gprcv(ProcId(0), &AppMsg::Val(l, a.clone()));
        p.safe(ProcId(0), &AppMsg::Val(l, a));
        p.confirm();
        let order_before = p.order.clone();
        let v = View::new(ViewId::new(1, ProcId(0)), [ProcId(0)].into());
        p.newview(v);
        assert_eq!(p.status, ProcStatus::Send);
        assert_eq!(p.nextseqno, 1);
        assert!(p.buffer.is_empty() && p.safe_labels.is_empty() && p.gotstate.is_empty());
        assert_eq!(p.order, order_before, "order survives view change");
        assert_eq!(p.nextconfirm, 2, "confirmed prefix survives view change");
    }

    #[test]
    fn state_exchange_in_primary_adopts_fullorder_and_new_highprimary() {
        // Two of three processors form a primary view and exchange state.
        let g1 = ViewId::new(1, ProcId(0));
        let v = View::new(g1, [ProcId(0), ProcId(1)].into());
        let mut p0 = proc(0, 3);
        let mut p1 = proc(1, 3);
        // p1 knows a label that p0 does not.
        let (l1, _a1) = send_own(&mut p1, 10);
        p0.newview(v.clone());
        p1.newview(v.clone());
        let x0 = p0.gpsnd().unwrap();
        let x1 = p1.gpsnd().unwrap();
        // Deliver both summaries to p0 (VS order).
        assert!(!p0.gprcv(ProcId(0), &x0).established);
        let out = p0.gprcv(ProcId(1), &x1);
        assert!(out.established);
        assert!(p0.primary());
        assert_eq!(p0.highprimary, Some(g1));
        assert!(p0.order.contains(&l1), "fullorder must pick up p1's label");
        assert_eq!(p0.status, ProcStatus::Normal);
        // Safe exchange: labels become safe only when both summaries are safe.
        p0.safe(ProcId(0), &x0);
        assert!(p0.safe_labels.is_empty());
        p0.safe(ProcId(1), &x1);
        assert!(p0.safe_labels.contains(&l1));
    }

    #[test]
    fn state_exchange_in_non_primary_adopts_representative_order() {
        let quorums: Arc<dyn QuorumSystem> = Arc::new(Majority::new(5));
        let p0_set = ProcId::range(5);
        let mut p0 = VsToToProc::initial(ProcId(0), &p0_set, quorums.clone());
        let mut p1 = VsToToProc::initial(ProcId(1), &p0_set, quorums);
        // Minority view {p0, p1} of the 5-processor system.
        let g1 = ViewId::new(1, ProcId(0));
        let v = View::new(g1, [ProcId(0), ProcId(1)].into());
        // p1 has a more advanced history: highprimary g0 with an order.
        let l = Label::new(ViewId::initial(), 1, ProcId(1));
        assert!(p1.content.insert_marked(l, Value::from_u64(5)));
        p1.order.push(l);
        p0.newview(v.clone());
        p1.newview(v.clone());
        let x0 = p0.gpsnd().unwrap();
        let x1 = p1.gpsnd().unwrap();
        p0.gprcv(ProcId(0), &x0);
        let out = p0.gprcv(ProcId(1), &x1);
        assert!(out.established);
        assert!(!p0.primary());
        // Both reps have high = g0; chosenrep is the max id (p1), whose
        // order contains l.
        assert_eq!(p0.order, vec![l]);
        assert_eq!(p0.highprimary, Some(ViewId::initial()));
    }

    /// What only an untrusted summary can say: `ord` names a label that
    /// `con` does not bind, and says it is confirmed. The label is
    /// adopted, `brcv` waits for its value, and the ordinary message
    /// that brings the value does not append the label again.
    #[test]
    fn order_ahead_of_content_waits_for_the_value_and_is_not_appended_twice() {
        let mut p = proc(0, 1);
        p.newview(View::new(ViewId::new(1, ProcId(0)), [ProcId(0)].into()));
        let Some(AppMsg::Summary(mut x)) = p.gpsnd() else { panic!("summary first") };
        let l = Label::new(ViewId::initial(), 1, ProcId(0));
        let y = Arc::make_mut(&mut x);
        y.ord.push(l);
        y.next = 2;
        assert!(p.gprcv(ProcId(0), &AppMsg::Summary(x)).established);
        assert_eq!((p.order(), p.nextconfirm), (&[l][..], 2));
        let waiting = p.clone();
        assert_eq!(p.brcv_ready_ref(), None);
        assert_eq!(p.brcv(), None);
        assert_eq!(p, waiting);
        assert!(p.reported().is_empty());
        let a = Value::from_u64(4);
        for _ in 0..2 {
            p.gprcv(ProcId(0), &AppMsg::Val(l, a.clone()));
            assert_eq!(p.order(), [l]);
        }
        assert_eq!(p.brcv(), Some((ProcId(0), a.clone())));
        assert_eq!(p.brcv(), None);
        assert_eq!(p.reported(), vec![(ProcId(0), a)]);
    }

    /// A repeated label in an adopted order stays repeated (Figure 10
    /// adopts the order as given); later receipts still add nothing.
    #[test]
    fn adopted_order_keeps_its_repeats_and_receipts_add_none() {
        let mut p = proc(0, 1);
        p.newview(View::new(ViewId::new(1, ProcId(0)), [ProcId(0)].into()));
        let Some(AppMsg::Summary(mut x)) = p.gpsnd() else { panic!("summary first") };
        let l = Label::new(ViewId::initial(), 1, ProcId(0));
        let y = Arc::make_mut(&mut x);
        y.con.insert(l, Value::from_u64(1));
        y.ord = vec![l, l];
        p.gprcv(ProcId(0), &AppMsg::Summary(x));
        assert_eq!(p.order(), [l, l]);
        p.gprcv(ProcId(0), &AppMsg::Val(l, Value::from_u64(1)));
        assert_eq!(p.order(), [l, l]);
    }

    #[test]
    fn gotstate_keeps_the_received_summary_itself() {
        let v = View::new(ViewId::new(1, ProcId(0)), [ProcId(0), ProcId(1)].into());
        let (mut p, mut q) = (proc(0, 2), proc(1, 2));
        send_own(&mut q, 5);
        p.newview(v.clone());
        q.newview(v);
        let Some(AppMsg::Summary(x)) = q.gpsnd() else { panic!("summary first") };
        p.gprcv(ProcId(1), &AppMsg::Summary(Arc::clone(&x)));
        assert!(Arc::ptr_eq(&p.gotstate[&ProcId(1)], &x));
    }

    #[test]
    fn safe_exchange_adds_only_the_unconfirmed_part_of_the_order() {
        let mut p = proc(0, 1);
        let (l1, a1) = send_own(&mut p, 1);
        p.gprcv(ProcId(0), &AppMsg::Val(l1, a1.clone()));
        p.safe(ProcId(0), &AppMsg::Val(l1, a1));
        assert_eq!(p.confirm(), Some(l1));
        let (l2, a2) = send_own(&mut p, 2);
        p.gprcv(ProcId(0), &AppMsg::Val(l2, a2));
        p.newview(View::new(ViewId::new(1, ProcId(0)), [ProcId(0)].into()));
        let x = p.gpsnd().unwrap();
        assert!(p.gprcv(ProcId(0), &x).established);
        assert_eq!((p.order(), p.nextconfirm), (&[l1, l2][..], 2));
        p.safe(ProcId(0), &x);
        assert!(p.safe_labels.iter().eq([&l2]), "l1 is confirmed: nothing probes it again");
        assert_eq!(p.confirm(), Some(l2));
        assert_eq!(p.confirm(), None);
    }

    #[test]
    fn gpsnd_blocked_while_collecting() {
        let mut p = proc(0, 1);
        let v = View::new(ViewId::new(1, ProcId(0)), [ProcId(0)].into());
        p.newview(v);
        p.bcast(Value::from_u64(1));
        p.label().expect("labelling is allowed during recovery");
        // status = Send: the only send allowed is the summary.
        let x = p.gpsnd().unwrap();
        assert!(matches!(x, AppMsg::Summary(_)));
        // status = Collect: nothing may be sent.
        assert!(p.gpsnd_ready().is_none());
        assert_eq!(p.gpsnd(), None);
        p.gprcv(ProcId(0), &x);
        // status = Normal again: the buffered label may go out.
        assert!(matches!(p.gpsnd_ready(), Some(AppMsg::Val(..))));
    }

    #[test]
    fn labels_are_unique_and_increasing_per_view() {
        let mut p = proc(0, 1);
        p.bcast(Value::from_u64(1));
        p.bcast(Value::from_u64(2));
        let l1 = p.label().unwrap();
        let l2 = p.label().unwrap();
        assert!(l1 < l2);
        assert_eq!(l1.seqno, 1);
        assert_eq!(l2.seqno, 2);
    }
}
