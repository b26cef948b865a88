//! The `VStoTO-property` of Figure 11 — the conditional property at the
//! heart of the Theorem 7.1 proof — checked on recorded stack traces.
//!
//! Figure 11 is the bridge between the layers: *assuming* the VS layer
//! has stabilized (no more `newview`s at Q, one final view ⟨g, S⟩ with
//! S = Q, and in-view messages safe within d — the conclusions of
//! `VS-property`), the `VStoTO` layer needs at most one further interval
//! of length ≤ d (the second phase of recovery: collecting the safe
//! indications for the state-exchange messages) before every data value —
//! including pre-stabilization ones recovered through the exchange — is
//! delivered to all of Q within d of its submission or of the interval's
//! end. Figure 12 is the composition picture: `VS-property`'s (b, d)
//! plus this property yields `TO-property(b+d, d, Q)`.
//!
//! The checker locates the stabilization split exactly as the paper's
//! operational argument does: `ltime(α′)` is the later of the failure
//! stabilization point and the last `newview` at Q; premises 1–6 are then
//! verified (not assumed), and the conclusion's interval `ltime(α‴)` is
//! measured as the minimal extra slack that satisfies every delivery
//! deadline — the property holds iff that slack is at most d.

use gcs_ioa::{TimedTrace, TraceEvent};
use gcs_model::{FailureMap, ProcId, Time, Value, View};
use gcs_vsimpl::ImplEvent;
use std::collections::{BTreeMap, BTreeSet};

/// Parameters: the safe-delivery bound d of the VS layer and the
/// stabilized set Q within the ambient set.
#[derive(Clone, Debug)]
pub struct Figure11Params {
    /// The VS safe-delivery bound d.
    pub d: Time,
    /// The stabilized set Q.
    pub q: BTreeSet<ProcId>,
    /// The ambient processor set.
    pub ambient: BTreeSet<ProcId>,
}

/// The checker's report.
#[derive(Clone, Debug)]
pub struct Figure11Report {
    /// Whether the premises (VS stabilization) held on this trace.
    pub premises_hold: bool,
    /// Which premise failed, if any.
    pub premise_failure: Option<String>,
    /// `ltime(α′)`: the stabilization split point.
    pub alpha_prime: Time,
    /// Measured `ltime(α‴)`: the minimal extra interval.
    pub measured_alpha3: Time,
    /// Delivery obligations resolved / censored by the horizon.
    pub resolved: usize,
    /// Obligations censored by the end of the trace.
    pub censored: usize,
    /// Conclusion violations.
    pub violations: Vec<String>,
    /// Whether `VStoTO-property` holds: premises ⇒ `measured_alpha3 ≤ d`
    /// and no violations (vacuously true if the premises fail —
    /// conditional properties say nothing then).
    pub holds: bool,
}

/// Checks the property on a recorded stack trace.
pub fn check_figure11(
    trace: &TimedTrace<TraceEvent<ImplEvent>>,
    params: &Figure11Params,
) -> Figure11Report {
    let mut report = Figure11Report {
        premises_hold: false,
        premise_failure: None,
        alpha_prime: 0,
        measured_alpha3: 0,
        resolved: 0,
        censored: 0,
        violations: Vec::new(),
        holds: true,
    };
    let horizon = trace.last_time();

    // Premises 4–6: failure stabilization for Q.
    let mut fm = FailureMap::all_good();
    let mut last_fail_q: Time = 0;
    for ev in trace.events() {
        if let TraceEvent::Fail { subject, status } = &ev.action {
            fm.set(*subject, *status);
            let touches = match subject {
                gcs_model::Subject::Loc(p) => params.q.contains(p),
                gcs_model::Subject::Link(p, r) => params.q.contains(p) || params.q.contains(r),
            };
            if touches {
                last_fail_q = ev.time;
            }
        }
    }
    if !fm.stabilized_for(&params.q, &params.ambient) {
        report.premise_failure = Some("failure status never stabilized for Q".into());
        return report; // vacuously holds
    }

    // Premises 1–2: last newview at Q; final views all ⟨g, S⟩ with S = Q.
    let mut last_view: BTreeMap<ProcId, (View, Time)> = BTreeMap::new();
    for ev in trace.events() {
        if let TraceEvent::App(ImplEvent::NewView { p, v }) = &ev.action {
            if params.q.contains(p) {
                last_view.insert(*p, (v.clone(), ev.time));
            }
        }
    }
    let mut final_view: Option<View> = None;
    let mut last_nv: Time = 0;
    for &p in &params.q {
        match last_view.get(&p) {
            None if params.q.len() == params.ambient.len() => {
                // Initial view counts when Q is everyone and no newview
                // ever fired (fully stable run).
                final_view.get_or_insert(View::initial(params.ambient.clone()));
            }
            None => {
                report.premise_failure = Some(format!("{p} never installed a view"));
                return report;
            }
            Some((v, t)) => {
                last_nv = last_nv.max(*t);
                match &final_view {
                    None => final_view = Some(v.clone()),
                    Some(w) if w != v => {
                        report.premise_failure = Some(format!("final views diverge: {w} vs {v}"));
                        return report;
                    }
                    _ => {}
                }
            }
        }
    }
    let final_view = final_view.expect("Q nonempty");
    if final_view.set != params.q {
        report.premise_failure = Some(format!("final membership {:?} ≠ Q", final_view.set));
        return report;
    }
    let alpha_prime = last_fail_q.max(last_nv);
    report.alpha_prime = alpha_prime;

    // Premise 3: every message sent from Q in the final view becomes safe
    // at all of Q within max(t, alpha_prime) + d (with horizon censoring).
    let mut current: BTreeMap<ProcId, Option<View>> =
        params.ambient.iter().map(|&p| (p, Some(View::initial(params.ambient.clone())))).collect();
    let mut safes: BTreeMap<u64, BTreeMap<ProcId, Time>> = BTreeMap::new();
    let mut in_view_sends: Vec<(u64, Time)> = Vec::new();
    for ev in trace.events() {
        match &ev.action {
            TraceEvent::App(ImplEvent::NewView { p, v }) => {
                current.insert(*p, Some(v.clone()));
            }
            TraceEvent::App(ImplEvent::GpSnd { p, mid, .. })
                if params.q.contains(p)
                    && current.get(p).cloned().flatten().as_ref() == Some(&final_view) =>
            {
                in_view_sends.push((*mid, ev.time));
            }
            TraceEvent::App(ImplEvent::Safe { dst, mid, .. }) => {
                safes.entry(*mid).or_default().entry(*dst).or_insert(ev.time);
            }
            _ => {}
        }
    }
    for (mid, t) in &in_view_sends {
        let deadline = (*t).max(alpha_prime) + params.d;
        let missing: Vec<ProcId> = params
            .q
            .iter()
            .copied()
            .filter(|r| safes.get(mid).and_then(|m| m.get(r)).is_none_or(|&ts| ts > deadline))
            .collect();
        if !missing.is_empty() && deadline <= horizon {
            report.premise_failure = Some(format!(
                "message #{mid} (t={t}) not safe at {missing:?} by {deadline} — \
                 VS conclusion does not hold on this trace"
            ));
            return report;
        }
    }
    report.premises_hold = true;

    // Conclusion: measure the minimal alpha3 such that every value sent
    // from Q (resp. delivered within Q) at time t reaches all of Q by
    // max(t, alpha_prime + alpha3) + d.
    let mut sent: BTreeMap<Value, (ProcId, Time)> = BTreeMap::new();
    let mut delivered: BTreeMap<Value, BTreeMap<ProcId, Time>> = BTreeMap::new();
    for ev in trace.events() {
        match &ev.action {
            TraceEvent::App(ImplEvent::Bcast { p, a }) => {
                sent.insert(a.clone(), (*p, ev.time));
            }
            TraceEvent::App(ImplEvent::Brcv { dst, a, .. }) => {
                delivered.entry(a.clone()).or_default().entry(*dst).or_insert(ev.time);
            }
            _ => {}
        }
    }
    let mut alpha3: Time = 0;
    let mut check_value = |what: &str, trigger: Time, a: &Value, report: &mut Figure11Report| {
        let at = delivered.get(a);
        let missing: Vec<ProcId> =
            params.q.iter().copied().filter(|r| !at.is_some_and(|m| m.contains_key(r))).collect();
        if missing.is_empty() {
            let t_v = at.expect("delivered everywhere").values().copied().max().expect("nonempty");
            if t_v > trigger.max(alpha_prime) + params.d {
                // Needs slack: alpha_prime + alpha3 ≥ t_v − d.
                alpha3 = alpha3.max((t_v - params.d).saturating_sub(alpha_prime));
            }
            report.resolved += 1;
        } else {
            let deadline = trigger.max(alpha_prime + params.d) + params.d;
            if deadline <= horizon {
                report.violations.push(format!(
                    "{what} {a:?} (t={trigger}) undelivered at {missing:?} by {deadline}"
                ));
            } else {
                report.censored += 1;
            }
        }
    };
    for (a, (p, t)) in &sent {
        if params.q.contains(p) {
            check_value("value sent from Q", *t, a, &mut report);
        }
    }
    for (a, at) in &delivered.clone() {
        if let Some(first_q) =
            at.iter().filter(|(r, _)| params.q.contains(r)).map(|(_, &t)| t).min()
        {
            check_value("value delivered within Q", first_q, a, &mut report);
        }
    }
    report.measured_alpha3 = alpha3;
    report.holds = alpha3 <= params.d && report.violations.is_empty();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stack, StackConfig};
    use gcs_model::failure::FailureScript;
    use gcs_obs::BoundParams;

    /// The Section 8 delivery bound d for a group of `n` under `stack`'s
    /// protocol config.
    fn d_for(stack: &Stack, n: u32) -> Time {
        let cfg = &stack.config().proto;
        BoundParams { n, delta_ms: cfg.delta, pi_ms: cfg.pi, mu_ms: cfg.mu }.d_ms()
    }

    #[test]
    fn stable_run_satisfies_figure11() {
        let mut stack = Stack::new(StackConfig::standard(3, 5, 13));
        let pi = stack.config().proto.pi;
        for i in 0..8u64 {
            stack.schedule_bcast(4 * pi + i * 10, ProcId((i % 3) as u32));
        }
        stack.run_until(4 * pi + 80 * pi);
        let d = d_for(&stack, 3);
        let r = check_figure11(
            stack.trace(),
            &Figure11Params { d, q: ProcId::range(3), ambient: ProcId::range(3) },
        );
        assert!(r.premises_hold, "{:?}", r.premise_failure);
        assert!(r.holds, "alpha3={} d={d} {:?}", r.measured_alpha3, r.violations);
        assert!(r.resolved > 0);
    }

    #[test]
    fn partitioned_q_satisfies_figure11() {
        let mut stack = Stack::new(StackConfig::standard(5, 5, 19));
        let pi = stack.config().proto.pi;
        let ambient = ProcId::range(5);
        let q = ProcId::range(3);
        let rest: BTreeSet<ProcId> = ambient.difference(&q).copied().collect();
        let mut script = FailureScript::new();
        script.partition(8 * pi, &[q.clone(), rest], &ambient);
        stack.load_failures(&script);
        for i in 0..6u64 {
            stack.schedule_bcast(8 * pi + 10 + i * 20, ProcId((i % 3) as u32));
        }
        stack.run_until(8 * pi + 200 * pi);
        let d = d_for(&stack, 3);
        let r = check_figure11(stack.trace(), &Figure11Params { d, q, ambient });
        assert!(r.premises_hold, "{:?}", r.premise_failure);
        assert!(r.holds, "alpha3={} d={d} {:?}", r.measured_alpha3, r.violations);
    }

    #[test]
    fn unstabilized_trace_is_vacuous() {
        let mut stack = Stack::new(StackConfig::standard(3, 5, 23));
        stack.run_until(100);
        // Q smaller than ambient, but no partition was scripted: premises fail.
        let r = check_figure11(
            stack.trace(),
            &Figure11Params { d: 100, q: ProcId::range(2), ambient: ProcId::range(3) },
        );
        assert!(!r.premises_hold);
        assert!(r.holds, "conditional properties hold vacuously");
    }
}
