//! Message labels: *L = G × ℕ⁺ × P* (Figure 8).

use crate::{ProcId, ViewId};
use std::fmt;

/// A system-wide unique message label, *⟨id, seqno, origin⟩ ∈ L*.
///
/// The `VStoTO` algorithm assigns each submitted data value a label made of
/// the view identifier current at the submitting processor, a per-view
/// sequence number, and the processor identifier. Labels are ordered
/// lexicographically; this order is total because identifiers break ties,
/// and it is the order used by `fullorder` when a primary view arranges
/// leftover labels (Figure 8).
///
/// # Example
///
/// ```
/// use gcs_model::{Label, ProcId, ViewId};
/// let g = ViewId::new(1, ProcId(0));
/// let a = Label::new(g, 1, ProcId(2));
/// let b = Label::new(g, 2, ProcId(0));
/// assert!(a < b); // seqno dominates origin
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label {
    /// The view identifier current when the value was labelled (*l.id*).
    pub view: ViewId,
    /// The per-view sequence number, starting at 1 (*l.seqno*).
    pub seqno: u64,
    /// The processor where the value originated (*l.origin*).
    pub origin: ProcId,
}

impl Label {
    /// Creates a label.
    ///
    /// # Panics
    ///
    /// Panics if `seqno` is zero; sequence numbers are drawn from ℕ⁺.
    pub fn new(view: ViewId, seqno: u64, origin: ProcId) -> Self {
        assert!(seqno > 0, "label sequence numbers start at 1");
        Label { view, seqno, origin }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{},{}⟩", self.view, self.seqno, self.origin)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// `safe-labels` (Figure 9): a set of labels kept as a vector sorted in
/// decreasing order, without duplicates. It holds the labels reported
/// safe but not yet confirmed. `confirm` takes them in increasing label
/// order, so removing one is a pop from the end: in steady state a safe
/// indication pushes into the empty set and `confirm` pops it, and after
/// a state exchange adds a whole unconfirmed tail at once, confirming
/// that tail costs O(1) per label. No tree walk and, once the vector has
/// its capacity, no allocation. Equality and `Debug` are those of the set.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct LabelSet(Vec<Label>);

impl LabelSet {
    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `Ok(index)` of `l`, or `Err(index)` where it would go.
    fn find(&self, l: &Label) -> Result<usize, usize> {
        self.0.binary_search_by(|x| l.cmp(x))
    }

    /// Whether `l` is a member.
    pub fn contains(&self, l: &Label) -> bool {
        self.find(l).is_ok()
    }

    /// Adds `l`; returns whether it was absent.
    pub fn insert(&mut self, l: Label) -> bool {
        let Err(i) = self.find(&l) else { return false };
        self.0.insert(i, l);
        true
    }

    /// Removes `l`; returns whether it was present.
    pub fn remove(&mut self, l: &Label) -> bool {
        let Ok(i) = self.find(l) else { return false };
        self.0.remove(i);
        true
    }

    /// Removes every label, keeping the capacity.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The labels in increasing order.
    pub fn iter(&self) -> std::iter::Rev<std::slice::Iter<'_, Label>> {
        self.0.iter().rev()
    }
}

impl Extend<Label> for LabelSet {
    fn extend<I: IntoIterator<Item = Label>>(&mut self, iter: I) {
        self.0.extend(iter);
        self.0.sort_unstable_by(|a, b| b.cmp(a));
        self.0.dedup();
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_lexicographic_view_seqno_origin() {
        let g1 = ViewId::new(1, ProcId(0));
        let g2 = ViewId::new(2, ProcId(0));
        assert!(Label::new(g1, 9, ProcId(9)) < Label::new(g2, 1, ProcId(0)));
        assert!(Label::new(g1, 1, ProcId(9)) < Label::new(g1, 2, ProcId(0)));
        assert!(Label::new(g1, 1, ProcId(0)) < Label::new(g1, 1, ProcId(1)));
    }

    #[test]
    #[should_panic(expected = "sequence numbers start at 1")]
    fn zero_seqno_rejected() {
        let _ = Label::new(ViewId::initial(), 0, ProcId(0));
    }

    /// A tail added at once and confirmed in increasing order is taken
    /// off the end of the vector, one pop per label, never shifting the rest.
    #[test]
    fn least_label_sits_at_the_end() {
        let g = ViewId::new(1, ProcId(0));
        let tail: Vec<Label> = (1..=100).map(|s| Label::new(g, s, ProcId(0))).collect();
        let mut set = LabelSet::default();
        set.extend(tail.iter().copied());
        for l in &tail {
            assert_eq!(set.0.last(), Some(l));
            assert!(set.remove(l));
        }
        assert!(set.is_empty());
    }
}
