//! E5 — the simulation relation *f* (Section 6.2, Theorem 6.26),
//! checked step-by-step on random executions of the composed system.
//!
//! Stress variants: heavy view churn, quiescing churn (system settles),
//! submission-heavy, and non-majority quorum systems.

use crate::{row, Table};
use gcs_core::adversary::SystemAdversary;
use gcs_core::simulation::install_simulation_check;
use gcs_core::system::VsToToSystem;
use gcs_ioa::par_seeds;
use gcs_ioa::Runner;
use gcs_model::{Explicit, Majority, ProcId, QuorumSystem};
use std::sync::Arc;

/// One seed's worth of per-step simulation checking: returns
/// `(steps checked, violations)`. Public so the parallel-determinism
/// regression test can drive it with explicit worker counts.
pub fn seed_counts(
    n: u32,
    quorums: &Arc<dyn QuorumSystem>,
    adv: &SystemAdversary,
    seed: u64,
    steps: usize,
) -> (usize, usize) {
    let procs = ProcId::range(n);
    let sys = VsToToSystem::new(procs.clone(), procs, quorums.clone());
    let mut runner = Runner::new(sys, adv.clone(), seed);
    let v = install_simulation_check(&mut runner);
    let exec = runner.run(steps).expect("no invariants installed");
    let violations = v.borrow().len();
    (exec.actions().len(), violations)
}

fn variant(
    t: &mut Table,
    name: &str,
    n: u32,
    quorums: Arc<dyn QuorumSystem>,
    adv: SystemAdversary,
    seeds: u64,
    steps: usize,
) {
    let seed_list: Vec<u64> = (0..seeds).collect();
    let per_seed = par_seeds(&seed_list, |seed| seed_counts(n, &quorums, &adv, seed, steps));
    let checked: usize = per_seed.iter().map(|(c, _)| c).sum();
    let violations: usize = per_seed.iter().map(|(_, v)| v).sum();
    t.row(row![name, n, seeds, checked, violations]);
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E5 — forward simulation f : VStoTO-system → TO-machine (Thm 6.26), \
         per-step checking on random executions",
        &["variant", "n", "seeds", "steps checked", "violations"],
    );
    let seeds = if quick { 2 } else { 12 };
    let steps = if quick { 400 } else { 2_500 };
    variant(
        &mut t,
        "default churn",
        3,
        Arc::new(Majority::new(3)),
        SystemAdversary::default(),
        seeds,
        steps,
    );
    variant(
        &mut t,
        "heavy churn",
        4,
        Arc::new(Majority::new(4)),
        SystemAdversary::default().with_view_prob(0.2),
        seeds,
        steps,
    );
    variant(
        &mut t,
        "quiescing",
        3,
        Arc::new(Majority::new(3)),
        SystemAdversary::quiescing(steps / 4, steps / 2),
        seeds,
        steps,
    );
    variant(
        &mut t,
        "submission heavy",
        3,
        Arc::new(Majority::new(3)),
        SystemAdversary::default().with_bcast_prob(0.8).with_view_prob(0.02),
        seeds,
        steps,
    );
    let grid = Explicit::new(vec![
        [ProcId(0), ProcId(1)].into(),
        [ProcId(0), ProcId(2)].into(),
        [ProcId(1), ProcId(2)].into(),
    ])
    .expect("valid quorums");
    variant(
        &mut t,
        "explicit quorums",
        3,
        Arc::new(grid),
        SystemAdversary::default(),
        seeds,
        steps,
    );
    t.note("Each concrete step is mapped through f and replayed in TO-machine.");
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn zero_violations_quick() {
        let tables = super::run(true);
        for r in tables[0].rows() {
            assert_eq!(r.last().unwrap(), "0", "simulation failed: {r:?}");
        }
    }
}
