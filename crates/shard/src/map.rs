//! The shard map: which group owns a key, and who is in each group.
//!
//! One keyspace is hash-partitioned across `G` independent VS/TO group
//! instances: a key belongs to group `fnv1a(key) mod G` for the life of
//! the deployment (groups are never split or merged — the paper's
//! dynamic-membership machinery operates *inside* each group). What does
//! change is each group's live member set: views installed by the group
//! members are pushed to subscribed clients as `View` frames, and the
//! router folds them into its cached map, bumping a version so staleness
//! is observable.

use gcs_model::{fnv1a, ProcId, View, FNV1A_OFFSET};
use std::collections::BTreeSet;

/// A client-side snapshot of the sharded deployment: group → member
/// set, with a version that advances on every fold of a view change.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    version: u64,
    groups: Vec<BTreeSet<ProcId>>,
}

impl ShardMap {
    /// A map over the given per-group member sets (group id = index).
    pub fn new(groups: Vec<BTreeSet<ProcId>>) -> ShardMap {
        ShardMap { version: 0, groups }
    }

    /// The map version: 0 at construction, +1 per folded view change.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The group owning `key`, for the life of the deployment.
    pub fn key_group(&self, key: &str) -> u32 {
        if self.groups.is_empty() {
            return 0;
        }
        (fnv1a(FNV1A_OFFSET, key.as_bytes()) % self.groups.len() as u64) as u32
    }

    /// The current member set of `group` (empty for unknown groups).
    pub fn members(&self, group: u32) -> &BTreeSet<ProcId> {
        static EMPTY: BTreeSet<ProcId> = BTreeSet::new();
        self.groups.get(group as usize).unwrap_or(&EMPTY)
    }

    /// Folds a view-change notification for `group` into the map.
    /// Returns whether anything changed (the version advances iff so).
    pub fn apply_view(&mut self, group: u32, view: &View) -> bool {
        let Some(members) = self.groups.get_mut(group as usize) else {
            return false;
        };
        if *members == view.set {
            return false;
        }
        *members = view.set.clone();
        self.version += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_model::{View, ViewId};

    fn map3() -> ShardMap {
        ShardMap::new(vec![
            [ProcId(0), ProcId(1)].into_iter().collect(),
            [ProcId(1), ProcId(2)].into_iter().collect(),
            [ProcId(2), ProcId(0)].into_iter().collect(),
        ])
    }

    #[test]
    fn key_group_is_stable_and_in_range() {
        let m = map3();
        // Placement is part of the deployment's identity (a key never
        // moves): the groups are pinned, not just in range.
        for (key, group) in [("a", 1), ("b", 1), ("account/7", 2), ("k013", 1), ("", 2)] {
            assert_eq!(m.key_group(key), group, "placement of {key:?} moved");
        }
    }

    #[test]
    fn keys_spread_over_all_groups() {
        let m = map3();
        let hit: BTreeSet<u32> = (0..64).map(|i| m.key_group(&format!("k{i:03}"))).collect();
        assert_eq!(hit.len(), 3, "64 keys must hit every group");
    }

    #[test]
    fn apply_view_updates_members_and_version() {
        let mut m = map3();
        let v = View::new(ViewId::new(3, ProcId(1)), [ProcId(1)].into_iter().collect());
        assert!(m.apply_view(1, &v));
        assert_eq!(m.version(), 1);
        assert_eq!(m.members(1).len(), 1);
        // Folding the same membership again is a no-op.
        assert!(!m.apply_view(1, &v));
        assert_eq!(m.version(), 1);
        // Unknown groups are ignored.
        assert!(!m.apply_view(9, &v));
    }
}
