//! Derived variables of `VStoTO-system` (Section 6): `allstate`,
//! `allcontent`, and `allconfirm`, used by the invariants and by the
//! simulation relation *f*.
//!
//! The centerpiece is [`DerivedState`]: a borrowed snapshot of every
//! derived variable, computed **once per state** and shared by all ~29
//! invariant checks and the simulation abstraction. Building it walks
//! each summary source (processor components, `pending`, `queue`,
//! `gotstate`) exactly once and records `&Summary` borrows instead of
//! clones, so a full invariant sweep costs one pass over the state
//! rather than one quadratic reconstruction per check.

use crate::msg::AppMsg;
use crate::system::SysState;
use gcs_model::seq::is_prefix;
use gcs_model::{ContentMap, Label, ProcId, Summary, Value, View, ViewId};
use std::collections::{BTreeMap, BTreeSet};

/// A borrowed view of a [`Summary`] (or of the equivalent components of
/// a processor state), avoiding the `con`/`ord` clones that building an
/// owned `Summary` would cost.
#[derive(Clone, Copy, Debug)]
pub struct SummaryRef<'a> {
    /// The known ⟨label, value⟩ pairs (*x.con*).
    pub con: &'a ContentMap,
    /// The tentative total order of labels (*x.ord*).
    pub ord: &'a [Label],
    /// One past the number of confirmed labels (*x.next*).
    pub next: u64,
    /// The highest established-primary view affecting `ord` (*x.high*).
    pub high: Option<ViewId>,
}

impl<'a> SummaryRef<'a> {
    /// Borrows an owned summary.
    pub fn of(x: &'a Summary) -> Self {
        SummaryRef { con: &x.con, ord: &x.ord, next: x.next, high: x.high }
    }

    /// The summary of a processor's current components, without
    /// materializing it (the borrowed equivalent of
    /// [`crate::vstoto::VsToToProc::summary`]).
    pub fn of_proc(p: &'a crate::vstoto::VsToToProc) -> Self {
        SummaryRef { con: p.content(), ord: p.order(), next: p.nextconfirm, high: p.highprimary }
    }

    /// The confirmed prefix *x.confirm* as a borrowed slice: the prefix
    /// of `ord` of length `min(next − 1, |ord|)`.
    pub fn confirm(&self) -> &'a [Label] {
        let n = usize::try_from(self.next.saturating_sub(1)).unwrap_or(usize::MAX);
        &self.ord[..n.min(self.ord.len())]
    }

    /// Clones into an owned [`Summary`].
    pub fn to_summary(&self) -> Summary {
        Summary { con: self.con.clone(), ord: self.ord.to_vec(), next: self.next, high: self.high }
    }
}

/// Every derived variable of Section 6, computed once from a state and
/// borrowed from it. Invariant checks and the simulation abstraction
/// all read from one snapshot instead of recomputing per check.
pub struct DerivedState<'a> {
    /// All `(p, g, summary)` entries of `allstate`, sorted by `(p, g)`
    /// with each group in source order (own components, `pending`,
    /// `queue`, `gotstate`).
    pub entries: Vec<(ProcId, ViewId, SummaryRef<'a>)>,
    /// `allcontent`: the union of `x.con` over `allstate`, or the first
    /// label bound to two distinct values (a Lemma 6.5 violation).
    pub allcontent: Result<BTreeMap<Label, &'a Value>, Label>,
    /// `allconfirm`: the lub of `x.confirm` over `allstate`, or `None`
    /// if the prefixes are inconsistent (a Corollary 6.24 violation).
    pub allconfirm: Option<Vec<Label>>,
    /// Identifiers of every created view.
    pub created_ids: BTreeSet<ViewId>,
    /// The created views whose membership contains a quorum.
    pub quorum_views: Vec<&'a View>,
}

impl<'a> DerivedState<'a> {
    /// Computes the full snapshot in one pass over each summary source.
    pub fn new(s: &'a SysState) -> Self {
        // Group summaries by the (processor, view) they are attributed
        // to. Each source is walked once; the per-group push order (own,
        // pending, queue, gotstate) is the case order of the paper's
        // definition of allstate[p,g].
        let mut buckets: BTreeMap<(ProcId, ViewId), Vec<SummaryRef<'a>>> = BTreeMap::new();
        // Case 1: p's own components, while p's current view is g.
        for (&p, proc) in &s.procs {
            if let Some(g) = proc.current_id() {
                buckets.entry((p, g)).or_default().push(SummaryRef::of_proc(proc));
            }
        }
        // Case 2: summaries in pending[p, g].
        for ((p, g), pend) in &s.vs.pending {
            for m in pend {
                if let AppMsg::Summary(x) = m {
                    buckets.entry((*p, *g)).or_default().push(SummaryRef::of(x));
                }
            }
        }
        // Case 3: summaries ⟨x, p⟩ in queue[g].
        for (g, queue) in &s.vs.queue {
            for (m, sender) in queue {
                if let AppMsg::Summary(x) = m {
                    buckets.entry((*sender, *g)).or_default().push(SummaryRef::of(x));
                }
            }
        }
        // Case 4: gotstate(p)_q for members q currently in g, in
        // ascending q order (the order the per-(p,g) scan visited them).
        for q in s.procs.values() {
            if let Some(g) = q.current_id() {
                for (&p, x) in &q.gotstate {
                    buckets.entry((p, g)).or_default().push(SummaryRef::of(x));
                }
            }
        }
        let mut entries = Vec::with_capacity(buckets.values().map(Vec::len).sum());
        for ((p, g), refs) in buckets {
            for r in refs {
                entries.push((p, g, r));
            }
        }

        // allcontent: first-conflict error, in entry order.
        let allcontent = (|| {
            let mut out: BTreeMap<Label, &'a Value> = BTreeMap::new();
            for (_, _, x) in &entries {
                for (l, a) in x.con.iter() {
                    if let Some(prev) = out.get(&l) {
                        if *prev != a {
                            return Err(l);
                        }
                    } else {
                        out.insert(l, a);
                    }
                }
            }
            Ok(out)
        })();

        // allconfirm: lub of the confirm slices (no per-entry Vec).
        let allconfirm = (|| {
            let mut best: &[Label] = &[];
            for (_, _, x) in &entries {
                let c = x.confirm();
                if is_prefix(best, c) {
                    best = c;
                } else if !is_prefix(c, best) {
                    return None;
                }
            }
            Some(best.to_vec())
        })();

        let created_ids = s.vs.created_viewids();
        let quorum_views = match s.procs.values().next() {
            Some(any) => s.vs.created.iter().filter(|v| any.quorums.is_quorum(&v.set)).collect(),
            None => Vec::new(),
        };

        DerivedState { entries, allcontent, allconfirm, created_ids, quorum_views }
    }

    /// `allstate[p,g]` as borrows: every summary attributable to
    /// processor `p` in view `g` — its own state summary while its
    /// current view is `g`, plus every state-exchange summary it sent in
    /// `g` that is still held in `VS-machine`'s `pending`/`queue` or
    /// recorded in some member's `gotstate`.
    ///
    /// `entries` is sorted by `(p, g)`, so the group is one contiguous
    /// run located by binary search.
    pub fn for_pg(&self, p: ProcId, g: ViewId) -> &[(ProcId, ViewId, SummaryRef<'a>)] {
        let start = self.entries.partition_point(|&(ep, eg, _)| (ep, eg) < (p, g));
        let end = start + self.entries[start..].partition_point(|&(ep, eg, _)| (ep, eg) == (p, g));
        &self.entries[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{SysAction, VsToToSystem};
    use gcs_ioa::Automaton;
    use gcs_model::{Majority, View};
    use std::sync::Arc;

    fn system(n: u32) -> VsToToSystem {
        let procs = ProcId::range(n);
        VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)))
    }

    #[test]
    fn initial_allstate_contains_each_processor_summary() {
        let sys = system(3);
        let s = sys.initial();
        let d = DerivedState::new(&s);
        for p in ProcId::range(3) {
            let xs = d.for_pg(p, ViewId::initial());
            assert_eq!(xs.len(), 1, "exactly the local summary for {p}");
            assert_eq!(xs[0].2.to_summary(), s.proc(p).summary());
        }
        assert!(d.allcontent.unwrap().is_empty());
        assert_eq!(d.allconfirm, Some(vec![]));
    }

    #[test]
    fn summaries_in_flight_are_tracked() {
        let sys = system(2);
        let mut s = sys.initial();
        let g1 = ViewId::new(1, ProcId(0));
        let v1 = View::new(g1, ProcId::range(2));
        sys.apply(&mut s, &SysAction::CreateView(v1.clone()));
        sys.apply(&mut s, &SysAction::NewView { p: ProcId(0), v: v1.clone() });
        let m = s.proc(ProcId(0)).gpsnd_ready().unwrap();
        sys.apply(&mut s, &SysAction::GpSnd { p: ProcId(0), m: m.clone() });
        // Now p0's summary sits in pending[p0, g1] *and* in its own state.
        assert_eq!(DerivedState::new(&s).for_pg(ProcId(0), g1).len(), 2);
        // Order it into the queue: still tracked (case 3).
        sys.apply(&mut s, &SysAction::VsOrder { p: ProcId(0), g: g1, m: m.clone() });
        assert_eq!(DerivedState::new(&s).for_pg(ProcId(0), g1).len(), 2);
        // Deliver to p0 itself: recorded in gotstate (case 4), dequeued
        // from VS (next pointer moves but the queue keeps the element;
        // allstate intentionally counts the queue copy).
        sys.apply(&mut s, &SysAction::GpRcv { src: ProcId(0), dst: ProcId(0), m });
        assert_eq!(DerivedState::new(&s).for_pg(ProcId(0), g1).len(), 3);
    }

    #[test]
    fn allcontent_accumulates_labelled_values() {
        let sys = system(2);
        let mut s = sys.initial();
        sys.apply(&mut s, &SysAction::Bcast { p: ProcId(1), a: Value::from_u64(5) });
        let unlabelled = DerivedState::new(&s).allcontent.unwrap();
        assert!(unlabelled.is_empty(), "unlabelled values are not content");
        sys.apply(&mut s, &SysAction::Label { p: ProcId(1) });
        let ac = DerivedState::new(&s).allcontent.unwrap();
        assert_eq!(ac.len(), 1);
        let (l, a) = ac.iter().next().unwrap();
        assert_eq!(l.origin, ProcId(1));
        assert_eq!(*a, &Value::from_u64(5));
    }

    /// `for_pg` returns exactly the `(p, g)` runs of the entry list, on
    /// a state with churn in flight.
    #[test]
    fn for_pg_groups_partition_the_entries_mid_execution() {
        use crate::adversary::SystemAdversary;
        use gcs_ioa::Runner;
        for seed in [2u64, 9] {
            let mut runner = Runner::new(system(3), SystemAdversary::default(), seed);
            let exec = runner.run(500).expect("no invariants installed");
            let d = DerivedState::new(exec.final_state());
            assert!(d.entries.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
            for &(p, g, _) in &d.entries {
                let group = d.for_pg(p, g);
                assert!(!group.is_empty());
                assert!(group.iter().all(|&(ep, eg, _)| ep == p && eg == g));
                let expected = d.entries.iter().filter(|&&(ep, eg, _)| (ep, eg) == (p, g)).count();
                assert_eq!(group.len(), expected);
            }
        }
    }
}
