//! [`ContentMap`]: the one representation of a ⟨label, value⟩ relation
//! — *content* in the `VStoTO` processor state and *con* in every
//! summary — keyed for the protocol's access pattern.
//!
//! A plain ordered map pays one O(log *total*) tree walk per label
//! touch, where *total* is every message the processor has ever seen.
//! But the protocol's labels are anything but random: a label is
//! ⟨view, seqno, origin⟩ with `seqno` assigned densely from 1 within
//! each ⟨view, origin⟩ stream. `ContentMap` exploits that shape — per
//! ⟨view, origin⟩ group it keeps a dense vector of slots indexed by
//! `seqno − 1`, so the common lookup is one small-tree walk over the
//! handful of live groups plus one vector index.
//!
//! Labels that arrive from the wire are untrusted, so density is never
//! assumed: a label whose seqno would leave more than [`DENSE_GAP`]
//! empty slots (or overflow `usize`, or be zero — expressible by
//! constructing `Label` literally) falls back to a sparse ordered map
//! beside its group's vector. This bounds memory amplification per
//! insert while keeping the hot path allocation-tight.

use crate::ProcId;
use crate::{Label, Value, ViewId};
use std::collections::BTreeMap;
use std::fmt;

/// The largest run of empty slots a dense group vector may grow past
/// its current length for one insert. Labels beyond the gap go to the
/// sparse fallback, so an adversarial seqno cannot force a huge
/// allocation.
const DENSE_GAP: usize = 4096;

/// One label's place in the store: its value once known, and the
/// owner's mark (see [`ContentMap::mark`]).
#[derive(Clone, Default)]
struct Slot {
    /// Meaningful only when `bound`: an `Option<Value>` would be 8 bytes
    /// wider, and there is one slot per label ever seen.
    value: Value,
    bound: bool,
    marked: bool,
}

impl Slot {
    fn value(&self) -> Option<&Value> {
        self.bound.then_some(&self.value)
    }

    /// Binds `a`, returning the value bound before, if any.
    fn bind(&mut self, a: Value) -> Option<Value> {
        let old = std::mem::replace(&mut self.value, a);
        std::mem::replace(&mut self.bound, true).then_some(old)
    }
}

/// The labels of one ⟨view, origin⟩ stream.
#[derive(Clone, Default)]
struct Group {
    /// Slots indexed by `seqno − 1`.
    dense: Vec<Slot>,
    /// Fallback, keyed by seqno, for labels that would blow the density
    /// bound.
    sparse: BTreeMap<u64, Slot>,
    /// Number of bound labels across both.
    len: usize,
}

impl Group {
    /// The dense index for a seqno, if it is dense-eligible at all
    /// (≥ 1 and representable).
    fn index(seqno: u64) -> Option<usize> {
        usize::try_from(seqno.checked_sub(1)?).ok()
    }

    /// The slot of `seqno`, created empty if it was never touched.
    fn slot_mut(&mut self, seqno: u64) -> &mut Slot {
        let cur = self.dense.len();
        let Some(idx) = Self::index(seqno).filter(|&idx| idx < cur || idx - cur <= DENSE_GAP)
        else {
            return self.sparse.entry(seqno).or_default();
        };
        if idx >= cur {
            self.dense.resize(idx + 1, Slot::default());
        }
        // The same label may have landed sparse earlier, when the vector
        // was still short of it; it lives in one place from now on.
        if !self.sparse.is_empty() {
            if let Some(moved) = self.sparse.remove(&seqno) {
                self.dense[idx] = moved;
            }
        }
        &mut self.dense[idx]
    }

    fn get(&self, seqno: u64) -> Option<&Value> {
        let dense = Self::index(seqno).and_then(|idx| self.dense.get(idx)?.value());
        dense.or_else(|| self.sparse.get(&seqno)?.value())
    }

    /// The bound seqnos with their values: dense, then sparse.
    fn iter(&self) -> impl Iterator<Item = (u64, &Value)> {
        let dense = self.dense.iter().zip(1u64..);
        let sparse = self.sparse.iter().map(|(&seqno, slot)| (slot, seqno));
        dense.chain(sparse).filter_map(|(slot, seqno)| Some((seqno, slot.value()?)))
    }
}

/// A partial function from [`Label`] to [`Value`] specialized for the
/// protocol's dense per-⟨view, origin⟩ seqno streams. Insert-only (like
/// *content* itself — Lemma 6.5 makes it a growing partial function).
///
/// Iteration order is *grouped* — by ⟨view, origin⟩, then seqno — not
/// the lexicographic [`Label`] order; a reader that needs label order
/// (the wire encoding, `fullorder`) sorts what it walks.
///
/// Beside each binding the store keeps one bit for its owner, set by
/// [`ContentMap::mark`] and reset by [`ContentMap::clear_marks`]:
/// `VStoTO` marks the labels it has placed in `order`, so membership in
/// `order` is answered where the label's value already lives. Marks are
/// derived data: clones carry them, equality and iteration ignore them.
#[derive(Clone, Default)]
pub struct ContentMap {
    /// One map and nothing else: every summary and every `gotstate`
    /// entry carries a *con*, so the handle stays as small as the
    /// ordered map it replaced.
    groups: BTreeMap<(ViewId, ProcId), Group>,
}

impl ContentMap {
    /// An empty map.
    pub fn new() -> Self {
        ContentMap::default()
    }

    /// Number of ⟨label, value⟩ entries (a sum over the groups).
    pub fn len(&self) -> usize {
        self.groups.values().map(|g| g.len).sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn group_mut(&mut self, l: &Label) -> &mut Group {
        self.groups.entry((l.view, l.origin)).or_default()
    }

    /// Inserts a binding, returning the previously bound value if any.
    pub fn insert(&mut self, l: Label, a: Value) -> Option<Value> {
        let group = self.group_mut(&l);
        let old = group.slot_mut(l.seqno).bind(a);
        if old.is_none() {
            group.len += 1;
        }
        old
    }

    /// Sets the mark of `l` (bound or not); returns whether it was clear.
    pub fn mark(&mut self, l: Label) -> bool {
        let slot = self.group_mut(&l).slot_mut(l.seqno);
        !std::mem::replace(&mut slot.marked, true)
    }

    /// [`ContentMap::insert`] and [`ContentMap::mark`] in one walk;
    /// returns what `mark` returns.
    pub fn insert_marked(&mut self, l: Label, a: Value) -> bool {
        let group = self.group_mut(&l);
        let slot = group.slot_mut(l.seqno);
        let fresh = !std::mem::replace(&mut slot.marked, true);
        if slot.bind(a).is_none() {
            group.len += 1;
        }
        fresh
    }

    /// Clears every mark.
    pub fn clear_marks(&mut self) {
        for group in self.groups.values_mut() {
            for slot in group.dense.iter_mut().chain(group.sparse.values_mut()) {
                slot.marked = false;
            }
        }
    }

    /// Looks up the value bound to a label.
    pub fn get(&self, l: &Label) -> Option<&Value> {
        self.groups.get(&(l.view, l.origin))?.get(l.seqno)
    }

    /// Whether a label is bound.
    pub fn contains_key(&self, l: &Label) -> bool {
        self.get(l).is_some()
    }

    /// Iterates the entries in grouped order (⟨view, origin⟩ group,
    /// then its dense seqnos, then its sparse ones). Labels are
    /// reconstructed from the group key and seqno, so they are yielded
    /// by value.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &Value)> {
        self.groups.iter().flat_map(|(&(view, origin), group)| {
            group.iter().map(move |(seqno, a)| (Label { view, seqno, origin }, a))
        })
    }

    /// Iterates the bound labels in grouped order.
    pub fn keys(&self) -> impl Iterator<Item = Label> + '_ {
        self.iter().map(|(l, _)| l)
    }

    /// Iterates the bound values in grouped order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.iter().map(|(_, a)| a)
    }
}

impl PartialEq for ContentMap {
    fn eq(&self, other: &Self) -> bool {
        // Two maps with the same entries may split dense/sparse
        // differently depending on insertion order, so compare contents,
        // not representation.
        self.len() == other.len() && self.iter().all(|(l, a)| other.get(&l) == Some(a))
    }
}

impl Eq for ContentMap {}

impl fmt::Debug for ContentMap {
    /// Prints as the label-ordered map, whatever the insertion history.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter().collect::<BTreeMap<_, _>>()).finish()
    }
}

impl FromIterator<(Label, Value)> for ContentMap {
    fn from_iter<I: IntoIterator<Item = (Label, Value)>>(iter: I) -> Self {
        let mut m = ContentMap::new();
        for (l, a) in iter {
            m.insert(l, a);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(epoch: u64, seqno: u64, origin: u32) -> Label {
        Label::new(ViewId::new(epoch, ProcId(origin)), seqno, ProcId(origin))
    }

    fn sparse_len(m: &ContentMap) -> usize {
        m.groups.values().map(|g| g.sparse.len()).sum()
    }

    /// Every `Summary` embeds a `ContentMap` by value, and `gotstate`
    /// keeps one summary per member. `AppMsg` holds its summary behind
    /// an `Arc`, so the handle's width rides in no token entry or trace
    /// event (the per-operation sizes are pinned in `gcs-net`'s
    /// `per_operation_types_keep_their_footprint`); this pin keeps the
    /// handle one map wide all the same.
    #[test]
    fn handle_is_as_small_as_an_ordered_map() {
        use std::mem::size_of;
        assert_eq!(size_of::<ContentMap>(), size_of::<BTreeMap<Label, Value>>());
    }

    #[test]
    fn insert_get_roundtrip_dense() {
        let mut m = ContentMap::new();
        for s in 1..=100u64 {
            assert_eq!(m.insert(l(1, s, 0), Value::from_u64(s)), None);
        }
        assert_eq!(m.len(), 100);
        for s in 1..=100u64 {
            assert_eq!(m.get(&l(1, s, 0)), Some(&Value::from_u64(s)));
        }
        assert!(!m.contains_key(&l(1, 101, 0)));
        assert!(!m.contains_key(&l(2, 1, 0)));
    }

    #[test]
    fn reinsert_returns_the_old_value_and_keeps_len() {
        let mut m = ContentMap::new();
        assert_eq!(m.insert(l(1, 3, 2), Value::from_u64(7)), None);
        assert_eq!(m.insert(l(1, 3, 2), Value::from_u64(8)), Some(Value::from_u64(7)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&l(1, 3, 2)), Some(&Value::from_u64(8)));
    }

    #[test]
    fn far_seqnos_fall_back_to_sparse_without_huge_allocation() {
        let mut m = ContentMap::new();
        let far = l(1, 1 << 40, 0);
        assert_eq!(m.insert(far, Value::from_u64(1)), None);
        assert_eq!(m.get(&far), Some(&Value::from_u64(1)));
        assert_eq!(m.len(), 1);
        // A later in-gap insert for the same group still works.
        m.insert(l(1, 1, 0), Value::from_u64(2));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&l(1, 1, 0)), Some(&Value::from_u64(2)));
    }

    #[test]
    fn zero_seqno_labels_are_storable_totally() {
        // `Label::new` rejects seqno 0, but the struct is constructible
        // literally; the map must stay total over it.
        let weird = Label { view: ViewId::new(1, ProcId(0)), seqno: 0, origin: ProcId(0) };
        let mut m = ContentMap::new();
        assert_eq!(m.insert(weird, Value::from_u64(9)), None);
        assert_eq!(m.get(&weird), Some(&Value::from_u64(9)));
    }

    #[test]
    fn equality_ignores_dense_sparse_split() {
        let far = l(1, DENSE_GAP as u64 + 100, 0);
        // m1: the far label first (sparse, and it stays there: nothing
        // touches it again), then the prefix (dense).
        let mut m1 = ContentMap::new();
        m1.insert(far, Value::from_u64(42));
        for s in 1..=200u64 {
            m1.insert(l(1, s, 0), Value::from_u64(s));
        }
        assert_eq!(sparse_len(&m1), 1);
        // m2: the prefix first, so the far label is within the gap.
        let mut m2 = ContentMap::new();
        for s in 1..=200u64 {
            m2.insert(l(1, s, 0), Value::from_u64(s));
        }
        m2.insert(far, Value::from_u64(42));
        assert_eq!(sparse_len(&m2), 0);
        assert_eq!(m1, m2);
        assert_eq!(format!("{m1:?}"), format!("{m2:?}"));
        m2.insert(l(1, 1, 0), Value::from_u64(0));
        assert_ne!(m1, m2);
    }

    #[test]
    fn debug_prints_in_label_order() {
        // One view, two origins: grouping puts origin before seqno.
        let g = ViewId::new(1, ProcId(0));
        let (second, first) = (Label::new(g, 2, ProcId(0)), Label::new(g, 1, ProcId(1)));
        let mut m = ContentMap::new();
        m.insert(second, Value::from_u64(2));
        m.insert(first, Value::from_u64(1));
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![second, first], "grouped order");
        let printed = format!("{m:?}");
        let one = printed.find("v1").unwrap();
        let two = printed.find("v2").unwrap();
        assert!(one < two, "seqno 1 sorts before seqno 2: {printed}");
    }

    #[test]
    fn marks_are_exact_for_bound_unbound_dense_and_sparse_labels() {
        let far = l(1, 1 << 40, 0);
        let unbound = l(3, 2, 1);
        let mut m = ContentMap::new();
        m.insert(l(1, 1, 0), Value::from_u64(1));
        m.insert(far, Value::from_u64(2));
        for x in [l(1, 1, 0), far, unbound] {
            assert!(m.mark(x), "first mark of {x}");
            assert!(!m.mark(x), "second mark of {x}");
        }
        assert_eq!(m.len(), 2, "a mark binds nothing");
        assert!(!m.contains_key(&unbound));
        assert_eq!(m.keys().count(), 2);
        // Marks are not part of the relation.
        let mut plain = ContentMap::new();
        plain.insert(l(1, 1, 0), Value::from_u64(1));
        plain.insert(far, Value::from_u64(2));
        assert_eq!(m, plain);
        // Binding a marked label keeps the mark; insert_marked reports it.
        assert!(!m.insert_marked(unbound, Value::from_u64(3)));
        assert_eq!(m.len(), 3);
        assert!(m.insert_marked(l(1, 2, 0), Value::from_u64(4)));
        assert_eq!(m.get(&l(1, 2, 0)), Some(&Value::from_u64(4)));
        m.clear_marks();
        for x in [l(1, 1, 0), far, unbound, l(1, 2, 0)] {
            assert!(m.mark(x), "{x} after clear_marks");
        }
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn a_sparse_label_keeps_value_and_mark_when_its_group_grows_to_it() {
        let late = l(1, DENSE_GAP as u64 + 10, 0);
        let mut m = ContentMap::new();
        m.insert(late, Value::from_u64(9));
        assert!(m.mark(late));
        for s in 1..=20u64 {
            m.insert(l(1, s, 0), Value::from_u64(s));
        }
        // Now within the gap of the dense vector: the next touch moves it.
        assert!(!m.mark(late));
        assert_eq!(sparse_len(&m), 0);
        assert_eq!(m.get(&late), Some(&Value::from_u64(9)));
        assert_eq!(m.insert(late, Value::from_u64(10)), Some(Value::from_u64(9)));
        assert_eq!(m.len(), 21);
    }

    #[test]
    fn values_sees_every_entry() {
        let mut m = ContentMap::new();
        m.insert(l(1, 1, 0), Value::from_u64(10));
        m.insert(l(1, 1, 1), Value::from_u64(11));
        assert!(m.values().any(|v| *v == Value::from_u64(11)));
        assert_eq!(m.values().count(), 2);
    }
}
