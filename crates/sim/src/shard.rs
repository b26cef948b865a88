//! Cross-shard simulation: several VS/TO group instances, one fault
//! schedule.
//!
//! A sharded deployment hosts G *independent* group instances over one
//! physical node set; the groups share fate only through the faults of
//! the machines and links under them. That independence is exactly what
//! makes cross-shard scenarios compilable: a [`ShardScenario`] names its
//! groups by global node id and schedules faults against the global
//! topology, and [`run_shard`] *projects* the schedule into one
//! single-group [`Scenario`] per shard — member ids densely renumbered,
//! faults restricted to the members they touch — and runs each through
//! the unchanged deterministic [`World`](crate::world) with its full
//! VS/TO conformance, b/d monitor, and convergence checking.
//!
//! A `Split` that does not separate any two members of a group projects
//! to nothing for that group; a crash of a node hosting three groups
//! projects to a crash in all three. So "partition group 0 while the
//! other groups keep serving" and "crash the node hosting three shards"
//! fall out of the projection rather than needing a multi-group world.
//!
//! On top of the per-group protocol checks, each group's delivered
//! streams are interpreted as sharded key-value commands (the
//! deterministic seed mapping [`gcs_apps::kv::KvCmd::from_seed`]) and
//! run through [`gcs_apps::kv::check_per_key_linearizable`] — the
//! application-level obligation the TO order is supposed to discharge.
//! The combined run digest folds every group's digest, so a cross-shard
//! run is bit-for-bit reproducible like a single-group one.

use crate::scenario::{FaultOp, Scenario, ScheduledFault, ScheduledSubmit, SimConfig};
use crate::world::{fold_digest, run_with_deliveries, RunReport};
use gcs_apps::kv::{check_per_key_linearizable, KvCmd};
use gcs_model::{Time, FNV1A_OFFSET};
use std::collections::BTreeMap;

/// How many distinct keys the derived key-value workload spreads each
/// group's commands over.
pub const SHARD_KEYS: u64 = 16;

/// A cross-shard scenario: group memberships by global node id, a
/// per-group submission count, and a fault schedule against the global
/// topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardScenario {
    /// The template configuration every projected group run inherits
    /// (δ, active window, queue bound, seed). `n` and `submits` are
    /// overridden per group by the projection.
    pub base: SimConfig,
    /// Member sets per group, in global node ids. Groups may overlap —
    /// that is the point.
    pub groups: Vec<Vec<u32>>,
    /// Client submissions per group (values are disjoint across groups).
    pub submits_per_group: u32,
    /// Faults, scheduled against global node ids.
    pub faults: Vec<ScheduledFault>,
}

/// What one cross-shard run produced.
#[derive(Clone, Debug)]
pub struct ShardRunReport {
    /// Per-group reports, in group order (protocol checks included).
    pub per_group: Vec<RunReport>,
    /// Violations from the per-key key-value consistency check, labeled
    /// with their group.
    pub kv_violations: Vec<String>,
    /// Fold of every group digest (the run digest's own byte fold): the
    /// cross-shard determinism digest.
    pub digest: u64,
}

impl ShardRunReport {
    /// Whether every group run and the key-value checks all passed.
    pub fn ok(&self) -> bool {
        self.kv_violations.is_empty() && self.per_group.iter().all(RunReport::ok)
    }

    /// All violations across groups, labeled.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .per_group
            .iter()
            .enumerate()
            .flat_map(|(g, r)| r.violations.iter().map(move |v| format!("group {g}: {v}")))
            .collect();
        out.extend(self.kv_violations.iter().cloned());
        out
    }
}

/// Projects one global fault operation onto a group's member set
/// (`local` maps global id → dense local id). Returns `None` when the
/// operation cannot disturb the group.
fn project_op(op: &FaultOp, local: &BTreeMap<u32, u32>) -> Option<FaultOp> {
    let both = |p: &u32, q: &u32| Some((*local.get(p)?, *local.get(q)?));
    match op {
        FaultOp::Split { groups, dur_ms } => {
            // Restrict each component to the members; the group is only
            // disturbed if at least two components remain non-empty.
            let comps: Vec<Vec<u32>> = groups
                .iter()
                .map(|c| c.iter().filter_map(|p| local.get(p).copied()).collect::<Vec<u32>>())
                .filter(|c| !c.is_empty())
                .collect();
            (comps.len() >= 2).then_some(FaultOp::Split { groups: comps, dur_ms: *dur_ms })
        }
        FaultOp::SeverPair { p, q, dur_ms } => {
            both(p, q).map(|(p, q)| FaultOp::SeverPair { p, q, dur_ms: *dur_ms })
        }
        FaultOp::SeverOneWay { p, q, dur_ms } => {
            both(p, q).map(|(p, q)| FaultOp::SeverOneWay { p, q, dur_ms: *dur_ms })
        }
        FaultOp::Kick { p, q } => both(p, q).map(|(p, q)| FaultOp::Kick { p, q }),
        FaultOp::Crash { p, down_ms } => {
            local.get(p).map(|&p| FaultOp::Crash { p, down_ms: *down_ms })
        }
        FaultOp::Stall { p, dur_ms } => {
            local.get(p).map(|&p| FaultOp::Stall { p, dur_ms: *dur_ms })
        }
        FaultOp::Dup { p, q } => both(p, q).map(|(p, q)| FaultOp::Dup { p, q }),
        FaultOp::Flap { p, q, period_ms, count } => {
            both(p, q).map(|(p, q)| FaultOp::Flap { p, q, period_ms: *period_ms, count: *count })
        }
        FaultOp::SlowOneWay { p, q, factor, dur_ms } => {
            both(p, q).map(|(p, q)| FaultOp::SlowOneWay { p, q, factor: *factor, dur_ms: *dur_ms })
        }
        // Bimodal is cluster-wide: it disturbs every group as-is.
        FaultOp::Bimodal { prob_pct, factor, dur_ms } => {
            Some(FaultOp::Bimodal { prob_pct: *prob_pct, factor: *factor, dur_ms: *dur_ms })
        }
    }
}

/// Compiles the projection of a cross-shard scenario onto one group: a
/// plain single-group [`Scenario`] over densely renumbered members.
///
/// Submissions round-robin over the members at evenly spaced times in
/// the active window; values are `g·submits+1 ..` so the groups' value
/// spaces stay disjoint (each group's trace checker wants per-run
/// uniqueness, and disjointness keeps cross-group confusion impossible
/// even in merged logs).
pub fn project_group(sc: &ShardScenario, g: usize) -> Scenario {
    let members = &sc.groups[g];
    let local: BTreeMap<u32, u32> =
        members.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
    let k = members.len() as u32;

    let config = SimConfig {
        n: k,
        submits: sc.submits_per_group,
        // Distinct seeds keep the groups' frame-delay streams
        // independent, like distinct sockets would be.
        seed: sc.base.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(g as u64 + 1)),
        ..sc.base.clone()
    };

    let faults: Vec<ScheduledFault> = sc
        .faults
        .iter()
        .filter_map(|f| project_op(&f.op, &local).map(|op| ScheduledFault { at: f.at, op }))
        .collect();

    // Submissions round-robin over the members at evenly spaced times —
    // but never at a node inside a crash window (the value would die
    // with the incarnation before being broadcast), the same rule the
    // single-group generator applies.
    let b = gcs_obs::BoundParams::standard(k, config.delta_ms).b_ms();
    let crash_windows: Vec<(u32, Time, Time)> = faults
        .iter()
        .filter_map(|f| match f.op {
            FaultOp::Crash { p, down_ms } => Some((p, f.at, f.at + down_ms + b)),
            _ => None,
        })
        .collect();
    let span = config.active_ms.max(2);
    let mut submits = Vec::new();
    for i in 0..sc.submits_per_group {
        let at: Time = 10 + (u64::from(i) * (span - 1)) / u64::from(sc.submits_per_group.max(1));
        let mut node = i % k;
        for _ in 0..k {
            let crashed = crash_windows.iter().any(|&(p, s, e)| p == node && at >= s && at <= e);
            if !crashed {
                break;
            }
            node = (node + 1) % k;
        }
        submits.push(ScheduledSubmit {
            at,
            node,
            value: (g as u64) * u64::from(sc.submits_per_group) + u64::from(i) + 1,
        });
    }

    Scenario { config, submits, faults }
}

/// Runs every group of a cross-shard scenario through the deterministic
/// world and folds the results (see the module docs).
pub fn run_shard(sc: &ShardScenario) -> ShardRunReport {
    let mut per_group = Vec::new();
    let mut kv_violations = Vec::new();
    let mut digest = FNV1A_OFFSET;
    for g in 0..sc.groups.len() {
        let scenario = project_group(sc, g);
        let (report, delivered) = run_with_deliveries(&scenario);

        // Interpret each node's delivered stream as the key-value
        // workload (the deterministic seed mapping) and check per-key
        // consistency across the group's replicas.
        let streams: Vec<Vec<gcs_model::Value>> = delivered
            .iter()
            .map(|d| {
                d.iter()
                    .filter_map(|(_, v)| v.as_u64())
                    .map(|seed| KvCmd::from_seed(seed, SHARD_KEYS).encode())
                    .collect()
            })
            .collect();
        if let Err(e) = check_per_key_linearizable(&streams) {
            kv_violations.push(format!("group {g}: kv: {e}"));
        }

        digest = fold_digest(digest, &report.digest.to_le_bytes());
        per_group.push(report);
    }
    ShardRunReport { per_group, kv_violations, digest }
}

/// The two canonical cross-shard scenarios over 5 nodes and 4
/// overlapping 3-member groups (`g_i = {i, i+1, i+2} mod 5`):
///
/// - `partition_one_group`: sever the (0,1) and (0,2) link pairs for
///   `dur_ms`. Only group 0 contains both endpoints of a severed pair,
///   so it partitions into `{0} | {1, 2}` — the majority side keeps a
///   primary and keeps serving — while groups 1–3 run undisturbed.
/// - `crash_shared_host`: crash node 2, which hosts groups 0, 1, and 2;
///   all three lose a member and must reform, group 3 never notices.
pub fn canonical_groups() -> Vec<Vec<u32>> {
    (0..4u32).map(|i| (0..3u32).map(|j| (i + j) % 5).collect()).collect()
}

/// The "partition one group while the others serve" scenario (see
/// [`canonical_groups`]).
pub fn partition_one_group(seed: u64, dur_ms: Time) -> ShardScenario {
    let base = SimConfig { n: 5, active_ms: 4_000, ..SimConfig::default() };
    ShardScenario {
        base: SimConfig { seed, ..base },
        groups: canonical_groups(),
        submits_per_group: 24,
        faults: vec![
            ScheduledFault { at: 600, op: FaultOp::SeverPair { p: 0, q: 1, dur_ms } },
            ScheduledFault { at: 600, op: FaultOp::SeverPair { p: 0, q: 2, dur_ms } },
        ],
    }
}

/// The "crash a node hosting three groups" scenario (see
/// [`canonical_groups`]).
pub fn crash_shared_host(seed: u64, down_ms: Time) -> ShardScenario {
    let base = SimConfig { n: 5, active_ms: 4_000, ..SimConfig::default() };
    ShardScenario {
        base: SimConfig { seed, ..base },
        groups: canonical_groups(),
        submits_per_group: 24,
        faults: vec![ScheduledFault { at: 700, op: FaultOp::Crash { p: 2, down_ms } }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_renumbers_and_filters() {
        let sc = partition_one_group(1, 500);
        // Group 0 = {0,1,2}: both severed pairs project (identity ids).
        let g0 = project_group(&sc, 0);
        assert_eq!(g0.config.n, 3);
        assert_eq!(g0.faults.len(), 2);
        // Group 1 = {1,2,3}: node 0 is not a member, nothing projects.
        let g1 = project_group(&sc, 1);
        assert_eq!(g1.faults.len(), 0);
        // Group 3 = {3,4,0}: members renumber densely (3→0, 4→1, 0→2)
        // and the severs vanish because 1 and 2 are outside.
        let g3 = project_group(&sc, 3);
        assert_eq!(g3.config.n, 3);
        assert_eq!(g3.faults.len(), 0);
    }

    #[test]
    fn split_projection_needs_two_components() {
        let local: BTreeMap<u32, u32> = [(1, 0), (2, 1), (3, 2)].into_iter().collect();
        // {1,2,3} all land in one component: no disturbance.
        let op = FaultOp::Split { groups: vec![vec![0, 4], vec![1, 2, 3]], dur_ms: 100 };
        assert_eq!(project_op(&op, &local), None);
        // {1,2} | {3} does split the group.
        let op = FaultOp::Split { groups: vec![vec![0, 1, 2], vec![3, 4]], dur_ms: 100 };
        assert_eq!(
            project_op(&op, &local),
            Some(FaultOp::Split { groups: vec![vec![0, 1], vec![2]], dur_ms: 100 })
        );
    }

    #[test]
    fn value_spaces_are_disjoint_across_groups() {
        let sc = crash_shared_host(2, 400);
        let mut all: Vec<u64> = Vec::new();
        for g in 0..sc.groups.len() {
            all.extend(project_group(&sc, g).submits.iter().map(|s| s.value));
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
