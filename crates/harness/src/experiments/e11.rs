//! E11 — quorum systems and primary-view availability (Section 5).
//!
//! The algorithm fixes a pairwise-intersecting quorum set 𝒬 and calls a
//! view primary when its membership contains a quorum. This experiment
//! enumerates every 2-way partition of a 5-processor system and reports,
//! per quorum system, how often some side can make progress (availability)
//! — verifying as a side effect that *both* sides are never primary
//! (which pairwise intersection guarantees). A live run confirms that a
//! weighted system lets a 2-processor side containing the heavy processor
//! confirm messages where majority cannot.

use crate::{row, Table};
use crate::{Stack, StackConfig};
use gcs_ioa::par_seeds;
use gcs_model::failure::FailureScript;
use gcs_model::{Majority, ProcId, QuorumSystem, Weighted};
use std::collections::BTreeSet;
use std::sync::Arc;

fn all_splits(n: u32) -> Vec<(BTreeSet<ProcId>, BTreeSet<ProcId>)> {
    let ambient: Vec<ProcId> = ProcId::range(n).into_iter().collect();
    let mut out = Vec::new();
    // Nonempty proper subsets, up to complement symmetry.
    for mask in 1u32..(1 << n) - 1 {
        if mask & 1 == 0 {
            continue; // fix p0 on the left to halve the enumeration
        }
        let left: BTreeSet<ProcId> =
            ambient.iter().copied().filter(|p| mask & (1 << p.0) != 0).collect();
        let right: BTreeSet<ProcId> =
            ambient.iter().copied().filter(|p| mask & (1 << p.0) == 0).collect();
        out.push((left, right));
    }
    out
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let n = 5u32;
    let systems: Vec<(&str, Arc<dyn QuorumSystem>)> = vec![
        ("majority", Arc::new(Majority::new(n as usize))),
        (
            "weighted (p0 has 3 votes)",
            Arc::new(Weighted::new((0..n).map(|i| (ProcId(i), if i == 0 { 3 } else { 1 })))),
        ),
    ];

    let mut avail = Table::new(
        "E11a — primary availability across all 2-way partitions (n = 5)",
        &["quorum system", "splits", "some side primary", "both sides primary", "availability"],
    );
    for (name, q) in &systems {
        let splits = all_splits(n);
        let mut some = 0usize;
        let mut both = 0usize;
        for (l, r) in &splits {
            let lp = q.is_quorum(l);
            let rp = q.is_quorum(r);
            if lp || rp {
                some += 1;
            }
            if lp && rp {
                both += 1;
            }
        }
        avail.row(row![
            name,
            splits.len(),
            some,
            both,
            format!("{:.0}%", 100.0 * some as f64 / splits.len() as f64)
        ]);
    }
    avail.note("'both sides primary' must be 0: quorums pairwise intersect.");

    // Live confirmation: side {p0, p1} after a partition. Under majority
    // it is a minority (no progress); under the weighted system p0's 3
    // votes make it primary (progress).
    let mut live = Table::new(
        "E11b — live run: partition {p0,p1} | {p2,p3,p4}, traffic on the left side",
        &["quorum system", "left side primary", "left deliveries", "right deliveries"],
    );
    let msgs = if quick { 4 } else { 12 };
    // The two quorum systems simulate independently: fan the live runs out.
    let idx: Vec<u64> = (0..systems.len() as u64).collect();
    for cells in par_seeds(&idx, |i| {
        let (name, q) = &systems[i as usize];
        let mut cfg = StackConfig::standard(n, 5, 901);
        cfg.quorums = q.clone();
        let pi = cfg.proto.pi;
        let ambient = ProcId::range(n);
        let left: BTreeSet<ProcId> = [ProcId(0), ProcId(1)].into();
        let right: BTreeSet<ProcId> = ambient.difference(&left).copied().collect();
        let mut script = FailureScript::new();
        script.partition(8 * pi, &[left.clone(), right.clone()], &ambient);
        let mut stack = Stack::new(cfg);
        stack.load_failures(&script);
        for i in 0..msgs {
            stack.schedule_bcast(8 * pi + 10 + i as u64 * 20, ProcId(i as u32 % 2));
        }
        stack.run_until(8 * pi + 300 * pi);
        let left_primary = q.is_quorum(&left);
        let ld = stack.delivered(ProcId(0)).len();
        let rd = stack.delivered(ProcId(2)).len();
        row![name, left_primary, ld, rd].to_vec()
    }) {
        live.row(&cells);
    }
    live.note(
        "Expected shape: under majority the 2-member side confirms nothing; \
         under the weighted system it is primary and delivers its traffic. \
         The right side receives nothing new in either case (its traffic \
         sources are on the left).",
    );
    vec![avail, live]
}

#[cfg(test)]
mod tests {
    #[test]
    fn intersection_safety_and_weighted_progress() {
        let tables = super::run(true);
        for r in tables[0].rows() {
            assert_eq!(r[3], "0", "two concurrent primaries possible: {r:?}");
        }
        let rows = tables[1].rows();
        assert_eq!(rows[0][1], "false");
        assert_eq!(rows[0][2], "0", "minority side must not deliver under majority");
        assert_eq!(rows[1][1], "true");
        assert_ne!(rows[1][2], "0", "weighted primary side must deliver");
    }
}
