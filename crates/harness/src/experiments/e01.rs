//! E1 — `TO-machine` (Figure 3) trace conformance.
//!
//! Two systems must produce only `TO-machine` traces: the abstract
//! composed `VStoTO-system` (checked on-line via the simulation relation)
//! and the full implementation stack (checked black-box on its recorded
//! client trace). Expected result: zero violations everywhere.

use crate::scenarios;
use crate::{row, Table};
use gcs_core::adversary::SystemAdversary;
use gcs_core::simulation::install_simulation_check;
use gcs_core::system::{SysAction, VsToToSystem};
use gcs_core::to_trace::check_to_trace;
use gcs_ioa::par_seeds;
use gcs_ioa::Runner;
use gcs_model::{Majority, ProcId};
use std::sync::Arc;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let seeds: u64 = if quick { 3 } else { 20 };
    let steps = if quick { 400 } else { 2_000 };

    let mut abs = Table::new(
        "E1a — abstract VStoTO-system conformance to TO-machine (Thm 6.26, executable)",
        &["n", "seeds", "steps/seed", "brcv events", "trace violations"],
    );
    for n in [3u32, 4, 5] {
        let seed_list: Vec<u64> = (0..seeds).collect();
        let per_seed = par_seeds(&seed_list, |seed| {
            let procs = ProcId::range(n);
            let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(n as usize)));
            let mut runner = Runner::new(sys, SystemAdversary::default(), seed);
            let v = install_simulation_check(&mut runner);
            let exec = runner.run(steps).expect("no invariants installed");
            let brcvs =
                exec.actions().iter().filter(|a| matches!(a, SysAction::Brcv { .. })).count();
            let violations = v.borrow().len();
            (brcvs, violations)
        });
        let brcvs: usize = per_seed.iter().map(|(b, _)| b).sum();
        let violations: usize = per_seed.iter().map(|(_, v)| v).sum();
        abs.row(row![n, seeds, steps, brcvs, violations]);
    }
    abs.note("Every step is checked against the simulation relation f of Section 6.2.");

    let mut impl_table = Table::new(
        "E1b — implementation stack conformance to TO-machine (black-box trace check)",
        &["scenario", "n", "bcast", "brcv", "trace violations"],
    );
    for sc in scenarios::battery(7) {
        let stack = sc.run();
        let report = check_to_trace(&stack.to_obs().untimed());
        impl_table.row(row![
            sc.name,
            sc.config.n(),
            report.bcasts,
            report.brcvs,
            report.violations.len()
        ]);
    }
    impl_table.note(
        "Checked: integrity, no duplication, common total order, per-sender FIFO \
         (the trace characterization of Figure 3).",
    );
    vec![abs, impl_table]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_reports_zero_violations() {
        for t in super::run(true) {
            for r in t.rows() {
                assert_eq!(r.last().unwrap(), "0", "violations in {t}");
            }
        }
    }
}
