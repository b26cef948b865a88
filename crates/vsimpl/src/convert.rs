//! Converters from recorded implementation traces to the shapes the
//! checkers of `gcs-core` consume.

use crate::wire::ImplEvent;
use gcs_core::msg::AppMsg;
use gcs_core::properties::{ToObs, VsObs};
use gcs_core::vs_machine::VsAction;
use gcs_ioa::{TimedTrace, TraceEvent};

/// The untimed `VS` action sequence of a trace (for the Lemma 4.2 cause
/// checker, [`gcs_core::cause::check_trace`]).
pub fn vs_actions(trace: &TimedTrace<TraceEvent<ImplEvent>>) -> Vec<VsAction<AppMsg>> {
    trace
        .events()
        .iter()
        .filter_map(|ev| match &ev.action {
            TraceEvent::App(ImplEvent::NewView { p, v }) => {
                Some(VsAction::NewView { p: *p, v: v.clone() })
            }
            TraceEvent::App(ImplEvent::GpSnd { p, m, .. }) => {
                Some(VsAction::GpSnd { p: *p, m: m.clone() })
            }
            TraceEvent::App(ImplEvent::GpRcv { src, dst, m, .. }) => {
                Some(VsAction::GpRcv { src: *src, dst: *dst, m: m.clone() })
            }
            TraceEvent::App(ImplEvent::Safe { src, dst, m, .. }) => {
                Some(VsAction::Safe { src: *src, dst: *dst, m: m.clone() })
            }
            _ => None,
        })
        .collect()
}

/// The timed `VsObs` trace (for [`gcs_core::properties::check_vs_property`]).
pub fn vs_obs(trace: &TimedTrace<TraceEvent<ImplEvent>>) -> TimedTrace<VsObs> {
    trace
        .events()
        .iter()
        .filter_map(|ev| {
            let obs = match &ev.action {
                TraceEvent::App(ImplEvent::NewView { p, v }) => {
                    VsObs::NewView { p: *p, v: v.clone() }
                }
                TraceEvent::App(ImplEvent::GpSnd { p, mid, .. }) => {
                    VsObs::GpSnd { p: *p, mid: *mid }
                }
                TraceEvent::App(ImplEvent::GpRcv { src, dst, mid, .. }) => {
                    VsObs::GpRcv { src: *src, dst: *dst, mid: *mid }
                }
                TraceEvent::App(ImplEvent::Safe { src, dst, mid, .. }) => {
                    VsObs::Safe { src: *src, dst: *dst, mid: *mid }
                }
                TraceEvent::Fail { subject, status } => {
                    VsObs::Fail { subject: *subject, status: *status }
                }
                _ => return None,
            };
            Some((ev.time, obs))
        })
        .collect()
}

/// The timed `ToObs` trace (for [`gcs_core::properties::check_to_property`]
/// and `TO-machine` trace conformance).
pub fn to_obs(trace: &TimedTrace<TraceEvent<ImplEvent>>) -> TimedTrace<ToObs> {
    trace
        .events()
        .iter()
        .filter_map(|ev| {
            let obs = match &ev.action {
                TraceEvent::App(ImplEvent::Bcast { p, a }) => ToObs::Bcast { p: *p, a: a.clone() },
                TraceEvent::App(ImplEvent::Brcv { src, dst, a }) => {
                    ToObs::Brcv { src: *src, dst: *dst, a: a.clone() }
                }
                TraceEvent::Fail { subject, status } => {
                    ToObs::Fail { subject: *subject, status: *status }
                }
                _ => return None,
            };
            Some((ev.time, obs))
        })
        .collect()
}
