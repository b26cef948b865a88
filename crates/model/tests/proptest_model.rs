//! Property-based tests of the model layer: quorum intersection (the
//! property the whole primary-view mechanism rests on), failure-script
//! algebra, view/label ordering laws, and `LabelSet` against the ordered
//! set it replaces.

use gcs_model::failure::FailureScript;
use gcs_model::{
    FailureMap, Label, LabelSet, Majority, ProcId, QuorumSystem, View, ViewId, Weighted,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_set(n: u32) -> impl Strategy<Value = BTreeSet<ProcId>> {
    prop::collection::btree_set((0..n).prop_map(ProcId), 0..=n as usize)
}

/// Labels from a small space, so that sequences repeat labels, arrive
/// out of order, and remove labels that are absent.
fn arb_label() -> impl Strategy<Value = Label> {
    (0u64..3, 1u64..6, 0u32..3)
        .prop_map(|(e, s, o)| Label::new(ViewId::new(e, ProcId(0)), s, ProcId(o)))
}

proptest! {
    /// Any two majority quorums intersect — so two disjoint views can
    /// never both be primary.
    #[test]
    fn majority_quorums_intersect(
        n in 1usize..=9,
        a in arb_set(9),
        b in arb_set(9),
    ) {
        let q = Majority::new(n);
        let a: BTreeSet<ProcId> = a.into_iter().filter(|p| (p.0 as usize) < n).collect();
        let b: BTreeSet<ProcId> = b.into_iter().filter(|p| (p.0 as usize) < n).collect();
        if q.is_quorum(&a) && q.is_quorum(&b) {
            prop_assert!(!a.is_disjoint(&b), "disjoint majorities of {n}: {a:?} {b:?}");
        }
    }

    /// Weighted quorums (strict majority of total weight) also pairwise
    /// intersect, for any weight assignment.
    #[test]
    fn weighted_quorums_intersect(
        weights in prop::collection::vec(0u64..5, 1..8),
        a in arb_set(8),
        b in arb_set(8),
    ) {
        let total: u64 = weights.iter().sum();
        prop_assume!(total > 0);
        let q = Weighted::new(
            weights.iter().enumerate().map(|(i, &w)| (ProcId(i as u32), w)),
        );
        let n = weights.len() as u32;
        let a: BTreeSet<ProcId> = a.into_iter().filter(|p| p.0 < n).collect();
        let b: BTreeSet<ProcId> = b.into_iter().filter(|p| p.0 < n).collect();
        if q.is_quorum(&a) && q.is_quorum(&b) {
            prop_assert!(!a.is_disjoint(&b), "disjoint weighted quorums: {a:?} {b:?}");
        }
    }

    /// Applying a partition script always yields a map that satisfies the
    /// stabilization hypothesis for each scripted group.
    #[test]
    fn partition_scripts_stabilize_their_groups(
        n in 2u32..=6,
        cut in 1u32..=5,
    ) {
        let cut = cut.min(n - 1);
        let ambient = ProcId::range(n);
        let left = ProcId::range(cut);
        let right: BTreeSet<ProcId> = ambient.difference(&left).copied().collect();
        let mut script = FailureScript::new();
        script.partition(7, &[left.clone(), right.clone()], &ambient);
        let mut fm = FailureMap::all_good();
        for ev in script.sorted_events() {
            fm.apply(&ev);
        }
        prop_assert!(fm.stabilized_for(&left, &ambient));
        prop_assert!(fm.stabilized_for(&right, &ambient));
        prop_assert!(!fm.stabilized_for(&ambient, &ambient));
    }

    /// Label order is lexicographic and total: any two distinct labels
    /// compare, and view dominates seqno dominates origin.
    #[test]
    fn label_order_laws(
        e1 in 0u64..4, s1 in 1u64..4, o1 in 0u32..4,
        e2 in 0u64..4, s2 in 1u64..4, o2 in 0u32..4,
    ) {
        let l1 = Label::new(ViewId::new(e1, ProcId(0)), s1, ProcId(o1));
        let l2 = Label::new(ViewId::new(e2, ProcId(0)), s2, ProcId(o2));
        if e1 != e2 {
            prop_assert_eq!(l1 < l2, e1 < e2);
        } else if s1 != s2 {
            prop_assert_eq!(l1 < l2, s1 < s2);
        } else {
            prop_assert_eq!(l1 < l2, o1 < o2);
        }
    }

    /// Ring successors visit every member exactly once per lap.
    #[test]
    fn ring_traversal_is_a_cycle(members in prop::collection::btree_set(0u32..10, 1..8)) {
        let set: BTreeSet<ProcId> = members.iter().map(|&i| ProcId(i)).collect();
        let v = View::new(ViewId::new(1, ProcId(0)), set.clone());
        let start = v.leader().expect("nonempty");
        let mut seen = vec![start];
        let mut cur = start;
        for _ in 1..set.len() {
            cur = v.ring_successor(cur).expect("member");
            seen.push(cur);
        }
        prop_assert_eq!(v.ring_successor(cur), Some(start), "lap must close");
        let distinct: BTreeSet<ProcId> = seen.iter().copied().collect();
        prop_assert_eq!(distinct, set);
    }

    /// `LabelSet` is `BTreeSet<Label>` by every observation, over random
    /// sequences of inserts, removes, extends and clears.
    #[test]
    fn label_set_matches_an_ordered_set(
        ops in prop::collection::vec(
            (0u8..8, arb_label(), prop::collection::vec(arb_label(), 0..6)),
            0..60,
        ),
    ) {
        let mut set = LabelSet::default();
        let mut oracle = BTreeSet::new();
        for (kind, l, many) in ops {
            match kind {
                0..=2 => prop_assert_eq!(set.insert(l), oracle.insert(l)),
                3..=5 => prop_assert_eq!(set.remove(&l), oracle.remove(&l)),
                6 => {
                    set.extend(many.iter().copied());
                    oracle.extend(many.iter().copied());
                }
                _ => {
                    set.clear();
                    oracle.clear();
                }
            }
            prop_assert_eq!(set.is_empty(), oracle.is_empty());
            prop_assert!(set.iter().eq(oracle.iter()), "{:?} vs {:?}", set, oracle);
            prop_assert_eq!(set.contains(&l), oracle.contains(&l));
            prop_assert_eq!(format!("{set:?}"), format!("{oracle:?}"));
            let mut rebuilt = LabelSet::default();
            rebuilt.extend(oracle.iter().rev().copied());
            prop_assert_eq!(&set, &rebuilt);
        }
    }
}
