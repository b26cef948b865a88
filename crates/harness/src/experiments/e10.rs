//! E10 — ablation: 3-round vs 1-round membership (Section 8,
//! footnote 7).
//!
//! After a partition heals, both variants must converge to one view over
//! the full group; the 1-round protocol forms views from stale
//! "recently heard" information, so it needs more reformation rounds and
//! stabilizes later — the paper's footnote predicts exactly this
//! ("a different implementation could use the one-round protocol …
//! however, this would stabilize less quickly").

use crate::{row, Table};
use crate::{Stack, StackConfig};
use gcs_ioa::par_seeds;
use gcs_ioa::TraceEvent;
use gcs_model::failure::FailureScript;
use gcs_model::{ProcId, Time};
use gcs_vsimpl::{ImplEvent, MembershipMode};
use std::collections::BTreeSet;

struct Outcome {
    converge_time: Option<Time>,
    newviews: usize,
}

fn run_merge(mode: MembershipMode, n: u32, seed: u64) -> Outcome {
    let mut cfg = StackConfig::standard(n, 5, seed);
    cfg.proto.mode = mode;
    let pi = cfg.proto.pi;
    let ambient = ProcId::range(n);
    let left = ProcId::range(n / 2 + 1);
    let right: BTreeSet<ProcId> = ambient.difference(&left).copied().collect();
    let t_part = 8 * pi;
    let t_heal = t_part + 40 * pi;
    let mut script = FailureScript::new();
    script.partition(t_part, &[left, right], &ambient);
    script.heal(t_heal, &ambient);
    let mut stack = Stack::new(cfg);
    stack.load_failures(&script);
    stack.run_until(t_heal + 400 * pi);
    // Converged when every processor's *final* view is the full group;
    // the convergence time is the last newview event.
    let converged = ambient.iter().all(|&p| stack.view_of(p).is_some_and(|v| v.set == ambient));
    let mut last_nv = None;
    let mut newviews = 0usize;
    for ev in stack.trace().events() {
        if ev.time >= t_heal {
            if let TraceEvent::App(ImplEvent::NewView { .. }) = &ev.action {
                last_nv = Some(ev.time);
                newviews += 1;
            }
        }
    }
    Outcome { converge_time: converged.then(|| last_nv.map(|t| t - t_heal)).flatten(), newviews }
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E10 — membership ablation: 3-round (call/accept/join) vs 1-round (footnote 7)",
        &[
            "protocol",
            "n",
            "seeds",
            "converged",
            "mean heal→stable",
            "max heal→stable",
            "mean newviews after heal",
        ],
    );
    let n = if quick { 4 } else { 6 };
    let seeds: u64 = if quick { 2 } else { 8 };
    for (name, mode) in
        [("3-round", MembershipMode::ThreeRound), ("1-round", MembershipMode::OneRound)]
    {
        let seed_list: Vec<u64> = (0..seeds).collect();
        let outcomes = par_seeds(&seed_list, |seed| run_merge(mode, n, 300 + seed));
        let mut times = Vec::new();
        let mut converged = 0usize;
        let mut views = 0usize;
        for o in &outcomes {
            if let Some(t) = o.converge_time {
                converged += 1;
                times.push(t);
            }
            views += o.newviews;
        }
        let mean =
            if times.is_empty() { 0 } else { times.iter().sum::<Time>() / times.len() as Time };
        let max = times.iter().max().copied().unwrap_or(0);
        t.row(row![
            name,
            n,
            seeds,
            format!("{converged}/{seeds}"),
            mean,
            max,
            format!("{:.1}", views as f64 / seeds as f64)
        ]);
    }
    t.note(
        "Expected shape: both converge; the 1-round variant needs more view \
         installations and/or longer to settle after the heal.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_protocols_converge_quick() {
        let tables = super::run(true);
        for r in tables[0].rows() {
            let (c, s) = r[3].split_once('/').unwrap();
            assert_eq!(c, s, "{} failed to converge: {r:?}", r[0]);
        }
    }
}
