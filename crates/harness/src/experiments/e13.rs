//! E13 (extension) — the cost of full-state exchange.
//!
//! The `VStoTO` algorithm exchanges each member's *entire* `content` and
//! `order` on every view change (Figure 10's summary); the paper inherits
//! this from the data-replication algorithms it abstracts (\[35\], \[36\])
//! and does not garbage-collect history. This extension experiment
//! quantifies the consequence: summary size grows linearly with all
//! traffic ever sent, so recovery bandwidth grows without bound over the
//! system's lifetime — the scalability issue that the state-transfer
//! optimizations the paper cites in footnote 4 (\[1\]) address.

use crate::{row, Table};
use crate::{Stack, StackConfig};
use gcs_core::msg::AppMsg;
use gcs_ioa::par_seeds;
use gcs_ioa::TraceEvent;
use gcs_model::failure::FailureScript;
use gcs_model::{ProcId, Time};
use gcs_vsimpl::ImplEvent;
use std::collections::BTreeSet;

/// Runs the experiment: for increasing pre-reconfiguration traffic,
/// report the size of the summaries exchanged at the next view change.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E13 — state-exchange summary growth with history (extension)",
        &[
            "values sent before reconfig",
            "view changes",
            "max summary |con|",
            "max summary |ord|",
            "total exchange payload (labels)",
        ],
    );
    let n = 3u32;
    let sizes: &[usize] = if quick { &[5, 20] } else { &[5, 20, 80, 320] };
    let rows = par_seeds(&sizes.iter().map(|&m| m as u64).collect::<Vec<_>>(), |m64| {
        let msgs = m64 as usize;
        let mut stack = Stack::new(StackConfig::standard(n, 5, 77));
        let pi = stack.config().proto.pi;
        let start = 4 * pi;
        for i in 0..msgs {
            stack.schedule_bcast(start + i as Time * 5, ProcId(i as u32 % n));
        }
        // One reconfiguration after the traffic: drop p2, then heal.
        let ambient = ProcId::range(n);
        let pair: BTreeSet<ProcId> = [ProcId(0), ProcId(1)].into();
        let solo: BTreeSet<ProcId> = [ProcId(2)].into();
        let t_part = start + msgs as Time * 5 + 20 * pi;
        let mut script = FailureScript::new();
        script.partition(t_part, &[pair, solo], &ambient);
        script.heal(t_part + 30 * pi, &ambient);
        stack.load_failures(&script);
        stack.run_until(t_part + 120 * pi);

        let mut max_con = 0usize;
        let mut max_ord = 0usize;
        let mut total = 0usize;
        let mut views = 0usize;
        for ev in stack.trace().events() {
            match &ev.action {
                TraceEvent::App(ImplEvent::GpSnd { m: AppMsg::Summary(x), .. }) => {
                    max_con = max_con.max(x.con.len());
                    max_ord = max_ord.max(x.ord.len());
                    total += x.con.len();
                }
                TraceEvent::App(ImplEvent::NewView { .. }) => views += 1,
                _ => {}
            }
        }
        row![msgs, views, max_con, max_ord, total].to_vec()
    });
    for cells in rows {
        t.row(&cells);
    }
    t.note(
        "Shape: summary size tracks the total history (the algorithm never \
         prunes content/order), so exchange cost is O(lifetime traffic) per \
         view change — the motivation for the efficient-state-transfer work \
         the paper cites in footnote 4.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn summary_size_grows_with_history() {
        let tables = super::run(true);
        let rows = tables[0].rows();
        let small: usize = rows[0][2].parse().unwrap();
        let large: usize = rows[1][2].parse().unwrap();
        assert!(large >= small + 10, "summary size must track history ({small} vs {large})");
    }
}
