//! E7 — decomposition of recovery (the `VStoTO-property` of Figure 11
//! and the performance argument of Figure 12).
//!
//! After a partition heals, recovery proceeds in phases: (1) membership
//! converges (last `newview`), (2) the state exchange completes and its
//! summaries become safe at every member, (3) reconciled values reach the
//! clients. The series shows how each phase scales with group size.

use crate::scenarios;
use crate::{check_figure11, Figure11Params, Stack};
use crate::{row, Table};
use gcs_core::msg::AppMsg;
use gcs_ioa::par_seeds;
use gcs_ioa::TraceEvent;
use gcs_model::Time;
use gcs_obs::BoundParams;
use gcs_vsimpl::ImplEvent;

struct Phases {
    views_done: Option<Time>,
    exchange_safe: Option<Time>,
    first_delivery: Option<Time>,
}

fn phases_after(stack: &Stack, t0: Time) -> Phases {
    let mut views_done = None;
    let mut exchange_safe = None;
    let mut first_delivery = None;
    for ev in stack.trace().events() {
        if ev.time < t0 {
            continue;
        }
        match &ev.action {
            TraceEvent::App(ImplEvent::NewView { .. }) => views_done = Some(ev.time),
            TraceEvent::App(ImplEvent::Safe { m: AppMsg::Summary(_), .. }) => {
                exchange_safe = Some(ev.time)
            }
            TraceEvent::App(ImplEvent::Brcv { .. })
                if first_delivery.is_none() && exchange_safe.is_some() =>
            {
                first_delivery = Some(ev.time);
            }
            _ => {}
        }
    }
    Phases { views_done, exchange_safe, first_delivery }
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E7 — recovery decomposition after a partition heals (merge scenario)",
        &[
            "n",
            "δ",
            "π",
            "heal→views settled",
            "→state exchange safe",
            "→first reconciled brcv",
            "total",
            "Fig11 α‴ ≤ d",
        ],
    );
    let sizes: &[u32] = if quick { &[4] } else { &[4, 6, 8] };
    let rows = par_seeds(&sizes.iter().map(|&n| n as u64).collect::<Vec<_>>(), |n64| {
        let n = n64 as u32;
        let sc = scenarios::merge(n, n - 1, 5, if quick { 6 } else { 12 }, 70 + n as u64);
        let t_heal = sc.script.last_time();
        let stack = sc.run();
        let ph = phases_after(&stack, t_heal);
        let views = ph.views_done.map(|t| t - t_heal);
        let exch = ph.exchange_safe.map(|t| t - t_heal);
        let deliver = ph.first_delivery.map(|t| t - t_heal);
        let fmt = |x: Option<Time>| x.map(|v| v.to_string()).unwrap_or("—".into());
        let cfg = &sc.config.proto;
        let nq = sc.q.len() as u32;
        let d = BoundParams { n: nq, delta_ms: cfg.delta, pi_ms: cfg.pi, mu_ms: cfg.mu }.d_ms();
        let f11 = check_figure11(
            stack.trace(),
            &Figure11Params {
                d,
                q: sc.q.clone(),
                ambient: gcs_model::ProcId::range(sc.config.n()),
            },
        );
        row![
            n,
            sc.config.proto.delta,
            sc.config.proto.pi,
            fmt(views),
            fmt(exch.zip(views).map(|(e, v)| e.saturating_sub(v))),
            fmt(deliver.zip(exch).map(|(d, e)| d.saturating_sub(e))),
            fmt(deliver),
            format!(
                "{} ({} ≤ {})",
                if f11.premises_hold && f11.holds { "✓" } else { "✗" },
                f11.measured_alpha3,
                d
            )
        ]
        .to_vec()
    });
    for cells in rows {
        t.row(&cells);
    }
    t.note(
        "Phases: membership (probe + 3-round formation), then the summary \
         exchange riding the token until safe at all members, then client \
         deliveries of reconciled values. The membership phase is dominated \
         by μ (probe period); the exchange by token rotations (π).",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn recovery_completes_quick() {
        let tables = super::run(true);
        for r in tables[0].rows() {
            assert_ne!(r[6], "—", "recovery did not complete: {r:?}");
            assert!(r[7].starts_with('✓'), "Figure 11 failed: {r:?}");
        }
    }
}
