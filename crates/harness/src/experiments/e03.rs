//! E3 — `VS-machine` (Figure 6) trace conformance via the `cause`
//! function of Lemma 4.2.
//!
//! The implementation stack's recorded VS interface trace is checked for
//! the existence of the cause mapping with all four Lemma 4.2 properties,
//! plus view monotonicity/self-inclusion and the per-view prefix total
//! order. Expected: zero violations in every scenario.

use crate::scenarios;
use crate::{row, Table};
use gcs_core::cause::check_trace;
use gcs_ioa::par_seeds;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E3 — implementation VS traces satisfy Lemma 4.2 (cause function) and \
         per-view prefix order",
        &["scenario", "n", "gprcv", "safe", "newview", "views", "violations"],
    );
    let seeds = if quick { 1 } else { 3 };
    // Building the batteries is cheap plain data; flatten the seed × battery
    // nest so every scenario runs in parallel, rows appended in loop order.
    let scs: Vec<_> = (0..seeds).flat_map(|s| scenarios::battery(200 + s * 31)).collect();
    let idx: Vec<u64> = (0..scs.len() as u64).collect();
    let rows = par_seeds(&idx, |i| {
        let sc = &scs[i as usize];
        let stack = sc.run();
        let actions = stack.vs_actions();
        let r = check_trace(&actions, &sc.config.proto.p0);
        row![
            sc.name,
            sc.config.n(),
            r.gprcv_checked,
            r.safe_checked,
            r.newview_checked,
            r.views_seen,
            r.violations.len()
        ]
        .to_vec()
    });
    for cells in rows {
        t.row(&cells);
    }
    t.note(
        "Checked per event: message integrity (same value, sending view = \
         delivery view), no duplication, no reordering, no losses (per-sender \
         prefix), safe-after-delivery-everywhere, newview monotonicity and \
         self-inclusion, and cross-member prefix-related receive sequences.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn zero_violations_quick() {
        let tables = super::run(true);
        for r in tables[0].rows() {
            assert_eq!(r.last().unwrap(), "0", "VS conformance failed: {r:?}");
        }
    }
}
