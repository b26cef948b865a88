//! E8 — `WeakVS-machine` trace equivalence (Section 4.1, Remark).
//!
//! Random executions of `WeakVS-machine` (views created in arbitrary
//! identifier order) are rewritten by the createview-reordering
//! construction and replayed in the strict `VS-machine`; external traces
//! must match exactly.

use crate::{row, Table};
use gcs_core::vs_machine::{VsAction, VsMachine};
use gcs_core::weak_vs::{reorder_createviews, replay, WeakVsMachine};
use gcs_ioa::automaton::FnEnvironment;
use gcs_ioa::par_seeds;
use gcs_ioa::{Automaton, Runner};
use gcs_model::{ProcId, Value, View, ViewId};
use rand::Rng;

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E8 — WeakVS-machine ≡ VS-machine on finite traces (createview reordering)",
        &[
            "seeds",
            "actions",
            "createviews",
            "out-of-order runs",
            "strong replay ok",
            "traces equal",
        ],
    );
    let seeds = if quick { 4 } else { 30 };
    let steps = if quick { 300 } else { 1_200 };
    let n = 3u32;
    // Each seeded run is independent; fan out and aggregate the counters
    // afterwards (sums are order-insensitive, so the table is unchanged).
    let seed_list: Vec<u64> = (0..seeds).collect();
    let per_seed = par_seeds(&seed_list, |seed| {
        let weak: WeakVsMachine<Value> = WeakVsMachine::new(ProcId::range(n), ProcId::range(n));
        // Adversary that coins view identifiers in arbitrary order —
        // allowed by the weak machine, not by the strong one.
        let mut counter = 0u64;
        let env = FnEnvironment(
            move |s: &gcs_core::vs_machine::VsState<Value>,
                  _step: usize,
                  rng: &mut dyn rand::RngCore| {
                let mut out = Vec::new();
                if rng.gen_bool(0.4) {
                    counter += 1;
                    out.push(VsAction::GpSnd {
                        p: ProcId(rng.gen_range(0..n)),
                        m: Value::from_u64(counter),
                    });
                }
                if rng.gen_bool(0.15) {
                    let max_epoch = s.created.iter().map(|v| v.id.epoch).max().unwrap_or(0);
                    let epoch = rng.gen_range(1..=max_epoch + 2);
                    let origin = ProcId(rng.gen_range(0..n));
                    let members =
                        (0..n).filter(|_| rng.gen_bool(0.6)).map(ProcId).chain([origin]).collect();
                    out.push(VsAction::CreateView(View::new(ViewId::new(epoch, origin), members)));
                }
                out
            },
        );
        let mut runner = Runner::new(weak, env, seed);
        let exec = runner.run(steps).expect("no invariants installed");
        let actions = exec.actions().to_vec();
        let creates: Vec<ViewId> = actions
            .iter()
            .filter_map(|a| match a {
                VsAction::CreateView(v) => Some(v.id),
                _ => None,
            })
            .collect();
        let ooo = creates.windows(2).any(|w| w[0] > w[1]);
        let strong: VsMachine<Value> = VsMachine::new(ProcId::range(n), ProcId::range(n));
        let reordered = reorder_createviews(&actions);
        let ok = replay(&strong, &reordered).is_ok();
        let ext = |acts: &[VsAction<Value>]| -> Vec<VsAction<Value>> {
            acts.iter().filter(|a| strong.kind(a).is_external()).cloned().collect()
        };
        let eq = ext(&actions) == ext(&reordered);
        (actions.len(), creates.len(), ooo, ok, eq)
    });
    let total_actions: usize = per_seed.iter().map(|r| r.0).sum();
    let total_creates: usize = per_seed.iter().map(|r| r.1).sum();
    let out_of_order = per_seed.iter().filter(|r| r.2).count();
    let replay_ok = per_seed.iter().filter(|r| r.3).count();
    let trace_eq = per_seed.iter().filter(|r| r.4).count();
    t.row(row![seeds, total_actions, total_creates, out_of_order, replay_ok, trace_eq]);
    t.note(
        "'strong replay ok' and 'traces equal' must equal 'seeds'; \
         'out-of-order runs' counts executions where the weak machine actually \
         created views out of identifier order (the interesting cases).",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn equivalence_holds_quick() {
        let tables = super::run(true);
        let r = &tables[0].rows()[0];
        assert_eq!(r[0], r[4], "strong replay failed somewhere");
        assert_eq!(r[0], r[5], "trace mismatch somewhere");
    }
}
