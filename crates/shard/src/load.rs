//! The keyed value source for one group of a sharded deployment: the
//! encoded [`KvCmd`]s whose keys hash to the target group, in seed
//! order. `gcs_net::run_load` is the generator — it tags the group's
//! frames and matches deliveries by fingerprint; this only decides
//! *what* it submits.

use crate::map::ShardMap;
use gcs_apps::KvCmd;
use gcs_model::Value;

/// The seeds at or above `seed_base`, in order, whose derived key (over
/// a keyspace of `keys`) belongs to `group` under `map`. Scanning
/// (rather than striding) keeps the mapping honest for any group count.
/// Distinct generators against one cluster must use disjoint seed ranges
/// so fingerprints (and KV tags) stay unique.
pub fn plan_seeds(
    map: &ShardMap,
    group: u32,
    keys: u64,
    seed_base: u64,
) -> impl Iterator<Item = u64> + '_ {
    (seed_base..).filter(move |&seed| map.key_group(KvCmd::from_seed(seed, keys).key()) == group)
}

/// The value source to hand `gcs_net::run_load` for `group`: its
/// successive calls yield the commands of [`plan_seeds`], encoded.
pub fn kv_values(
    map: &ShardMap,
    group: u32,
    keys: u64,
    seed_base: u64,
) -> impl FnMut(u64) -> Value + '_ {
    let mut seeds = plan_seeds(map, group, keys, seed_base);
    move |_| seeds.next().map(|seed| KvCmd::from_seed(seed, keys).encode()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardClusterConfig;
    use std::collections::BTreeSet;

    fn ring_map() -> ShardMap {
        ShardClusterConfig::ring(5, 4, 3, 20).shard_map()
    }

    #[test]
    fn planned_seeds_all_route_to_the_target_group() {
        let map = ring_map();
        for g in 0..4 {
            let seeds: Vec<u64> = plan_seeds(&map, g, 16, 1000).take(50).collect();
            assert_eq!(seeds.len(), 50);
            assert!(seeds.windows(2).all(|w| w[0] < w[1]) && seeds[0] >= 1000);
            for s in seeds {
                assert_eq!(map.key_group(KvCmd::from_seed(s, 16).key()), g);
            }
        }
    }

    #[test]
    fn disjoint_seed_ranges_produce_disjoint_fingerprints() {
        let map = ring_map();
        let mut seen = BTreeSet::new();
        for g in 0..4u32 {
            let mut values = kv_values(&map, g, 16, u64::from(g) * 1_000_000);
            for i in 0..30 {
                assert!(
                    seen.insert(values(i).fingerprint()),
                    "fingerprint collision across generators"
                );
            }
        }
    }
}
