//! State-exchange summaries and the operations on them (Figure 8).
//!
//! During recovery each member of a new view sends a summary of its state;
//! the functions in this module (`knowncontent`, `maxprimary`, `reps`,
//! `chosenrep`, `shortorder`, `fullorder`, `maxnextconfirm`) combine the
//! summaries collected in a `gotstate` map exactly as prescribed by the
//! algorithm's auxiliary definitions.

use crate::{ContentMap, Label, ProcId, ViewId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A state-exchange summary:
/// *summaries = 𝒫(L × A) × L\* × ℕ⁺ × G⊥* with selectors
/// `con`, `ord`, `next`, `high`.
///
/// # Example
///
/// ```
/// use gcs_model::{Label, ProcId, Summary, Value, ViewId};
/// let g = ViewId::new(1, ProcId(0));
/// let l = Label::new(g, 1, ProcId(0));
/// let mut s = Summary::empty();
/// s.con.insert(l, Value::from_u64(7));
/// s.ord.push(l);
/// s.next = 2;
/// assert_eq!(s.confirm(), vec![l]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Summary {
    /// The known ⟨label, value⟩ pairs (*x.con*). An invariant of the
    /// algorithm (Lemma 6.5) is that this relation is a partial function,
    /// so it is represented as a map — the same [`ContentMap`] a
    /// processor keeps its *content* in.
    pub con: ContentMap,
    /// The tentative total order of labels (*x.ord*).
    pub ord: Vec<Label>,
    /// One past the number of confirmed labels (*x.next ∈ ℕ⁺*).
    pub next: u64,
    /// The highest established-primary view identifier that has affected
    /// `ord` (*x.high ∈ G⊥*); `None` encodes ⊥, which is below every
    /// identifier, matching the paper's order on *G⊥*.
    pub high: Option<ViewId>,
}

impl Summary {
    /// The summary of a freshly started processor: nothing known, nothing
    /// ordered, `next = 1`, `high = ⊥`.
    pub fn empty() -> Self {
        Summary { con: ContentMap::new(), ord: Vec::new(), next: 1, high: None }
    }

    /// The confirmed prefix *x.confirm*: the prefix of `ord` of length
    /// `min(next − 1, |ord|)`.
    pub fn confirm(&self) -> Vec<Label> {
        let n = usize::try_from(self.next.saturating_sub(1)).unwrap_or(usize::MAX);
        self.ord[..n.min(self.ord.len())].to_vec()
    }
}

impl Default for Summary {
    fn default() -> Self {
        Summary::empty()
    }
}

/// The `gotstate` map collected during recovery: a partial function from
/// processor identifiers to summaries. Each summary is the one the
/// sender built (or the receiver decoded), shared rather than copied.
pub type GotState = BTreeMap<ProcId, Arc<Summary>>;

/// *knowncontent(Y) = ⋃_{q ∈ dom(Y)} Y(q).con* — every ⟨label, value⟩ pair
/// appearing in any summary.
pub fn knowncontent(y: &GotState) -> ContentMap {
    let mut out = ContentMap::new();
    for s in y.values() {
        for (l, a) in s.con.iter() {
            out.insert(l, a.clone());
        }
    }
    out
}

/// *maxprimary(Y)* — the greatest `high` component among the summaries
/// (`None`, i.e. ⊥, if all are ⊥ or `Y` is empty).
pub fn maxprimary(y: &GotState) -> Option<ViewId> {
    y.values().map(|s| s.high).max().flatten()
}

/// *reps(Y)* — the members whose summaries carry the maximal `high`.
pub fn reps(y: &GotState) -> Vec<ProcId> {
    let m = y.values().map(|s| s.high).max();
    match m {
        None => Vec::new(),
        Some(m) => y.iter().filter(|(_, s)| s.high == m).map(|(q, _)| *q).collect(),
    }
}

/// *chosenrep(Y)* — a consistently chosen element of *reps(Y)*.
///
/// Any deterministic rule works as long as identical information yields an
/// identical choice everywhere; following the paper's suggestion we take the
/// representative with the highest processor identifier. Returns `None` only
/// for an empty `Y`.
pub fn chosenrep(y: &GotState) -> Option<ProcId> {
    reps(y).into_iter().max()
}

/// *shortorder(Y) = Y(chosenrep(Y)).ord* — the order adopted in a
/// non-primary view.
///
/// # Panics
///
/// Panics if `Y` is empty; the algorithm only evaluates `shortorder` once
/// all members' summaries (in particular the local one) are collected.
pub fn shortorder(y: &GotState) -> Vec<Label> {
    let rep = chosenrep(y).expect("shortorder of an empty gotstate");
    y[&rep].ord.clone()
}

/// *fullorder(Y)* — `shortorder(Y)` followed by the remaining elements of
/// *dom(knowncontent(Y))* in label order; the order adopted in a primary
/// view.
///
/// # Panics
///
/// Panics if `Y` is empty (see [`shortorder`]).
pub fn fullorder(y: &GotState) -> Vec<Label> {
    let mut order = shortorder(y);
    let seen: BTreeSet<Label> = order.iter().copied().collect();
    // The labels of knowncontent(Y), without building it: only the
    // labels are read, so no value is cloned.
    let mut rest: Vec<Label> =
        y.values().flat_map(|s| s.con.keys()).filter(|l| !seen.contains(l)).collect();
    rest.sort_unstable();
    rest.dedup();
    order.append(&mut rest);
    order
}

/// *maxnextconfirm(Y)* — the highest reported `next` value (1 if `Y` is
/// empty, matching the initial pointer).
pub fn maxnextconfirm(y: &GotState) -> u64 {
    y.values().map(|s| s.next).max().unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn lab(epoch: u64, seq: u64, origin: u32) -> Label {
        Label::new(ViewId::new(epoch, ProcId(0)), seq, ProcId(origin))
    }

    fn summary(ord: Vec<Label>, next: u64, high: Option<ViewId>) -> Summary {
        let con = ord.iter().map(|l| (*l, Value::from_u64(l.seqno))).collect();
        Summary { con, ord, next, high }
    }

    #[test]
    fn confirm_is_clamped_to_ord_length() {
        let s = summary(vec![lab(1, 1, 0)], 5, None);
        assert_eq!(s.confirm().len(), 1);
        let s = summary(vec![lab(1, 1, 0), lab(1, 2, 0)], 2, None);
        assert_eq!(s.confirm(), vec![lab(1, 1, 0)]);
    }

    #[test]
    fn empty_summary_has_empty_confirm() {
        assert!(Summary::empty().confirm().is_empty());
    }

    #[test]
    fn knowncontent_unions_all() {
        let mut y = GotState::new();
        y.insert(ProcId(0), Arc::new(summary(vec![lab(1, 1, 0)], 1, None)));
        y.insert(ProcId(1), Arc::new(summary(vec![lab(1, 2, 1)], 1, None)));
        let kc = knowncontent(&y);
        assert_eq!(kc.len(), 2);
    }

    #[test]
    fn maxprimary_treats_bottom_as_least() {
        let mut y = GotState::new();
        y.insert(ProcId(0), Arc::new(summary(vec![], 1, None)));
        assert_eq!(maxprimary(&y), None);
        y.insert(ProcId(1), Arc::new(summary(vec![], 1, Some(ViewId::new(2, ProcId(1))))));
        y.insert(ProcId(2), Arc::new(summary(vec![], 1, Some(ViewId::new(1, ProcId(0))))));
        assert_eq!(maxprimary(&y), Some(ViewId::new(2, ProcId(1))));
    }

    #[test]
    fn chosenrep_is_max_id_among_reps() {
        let g = Some(ViewId::new(3, ProcId(0)));
        let mut y = GotState::new();
        y.insert(ProcId(0), Arc::new(summary(vec![], 1, g)));
        y.insert(ProcId(1), Arc::new(summary(vec![], 1, g)));
        y.insert(ProcId(2), Arc::new(summary(vec![], 1, None)));
        assert_eq!(reps(&y), vec![ProcId(0), ProcId(1)]);
        assert_eq!(chosenrep(&y), Some(ProcId(1)));
    }

    #[test]
    fn fullorder_extends_shortorder_in_label_order_without_duplicates() {
        let g = Some(ViewId::new(3, ProcId(0)));
        let l1 = lab(1, 1, 0);
        let l2 = lab(1, 2, 1);
        let l3 = lab(2, 1, 0);
        let mut y = GotState::new();
        // Representative (max high) knows order [l2]; others know l1, l3.
        y.insert(ProcId(0), Arc::new(summary(vec![l2], 1, g)));
        let mut other = summary(vec![], 1, None);
        other.con.insert(l1, Value::from_u64(1));
        other.con.insert(l3, Value::from_u64(3));
        other.con.insert(l2, Value::from_u64(2));
        // Two labels the content store walks in the other order (it
        // groups by origin before seqno).
        let (l4, l5) = (lab(1, 3, 0), lab(1, 2, 2));
        other.con.insert(l4, Value::from_u64(4));
        other.con.insert(l5, Value::from_u64(5));
        y.insert(ProcId(1), Arc::new(other));
        assert_eq!(shortorder(&y), vec![l2]);
        assert_eq!(fullorder(&y), vec![l2, l1, l5, l4, l3]);
    }

    #[test]
    fn maxnextconfirm_defaults_to_one() {
        assert_eq!(maxnextconfirm(&GotState::new()), 1);
        let mut y = GotState::new();
        y.insert(ProcId(0), Arc::new(summary(vec![], 4, None)));
        y.insert(ProcId(1), Arc::new(summary(vec![], 2, None)));
        assert_eq!(maxnextconfirm(&y), 4);
    }
}
