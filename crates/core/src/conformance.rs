//! One entry point for checking an *implementation* trace against both
//! runtime safety specifications at once.
//!
//! Every harness that records a real execution — the TCP loopback
//! cluster, the deterministic simulation harness — ends up with the same two questions: is the `TO` face of the trace a
//! `TO-machine` trace ([`crate::to_trace`]), and does the `VS` face
//! satisfy Lemma 4.2 and per-view prefix delivery ([`crate::cause`])?
//! [`check_conformance`] answers both and folds the outcome into a single
//! [`ConformanceReport`], so drivers (and their failure artifacts) have
//! one summary to print and one `ok()` to gate on.
//!
//! This crate cannot name the implementation's event type (the
//! implementation layers depend on `gcs-core`, not the other way
//! around), so the entry point takes the two *converted* faces — exactly
//! what `gcs_vsimpl::convert::{vs_actions, to_obs}` produce from a merged
//! recording.

use crate::cause::{check_trace, CauseReport};
use crate::msg::AppMsg;
use crate::properties::ToObs;
use crate::to_trace::{check_to_trace, ToTraceReport};
use crate::vs_machine::VsAction;
use gcs_model::ProcId;
use std::collections::BTreeSet;
use std::fmt;

/// The combined outcome of the `TO-machine` trace check and the `VS`
/// cause check over one implementation trace.
#[derive(Clone, Debug)]
pub struct ConformanceReport {
    /// The `TO-machine` trace-membership result.
    pub to: ToTraceReport,
    /// The Lemma 4.2 / prefix-delivery result.
    pub cause: CauseReport,
}

impl ConformanceReport {
    /// Whether both checkers passed.
    pub fn ok(&self) -> bool {
        self.to.ok() && self.cause.ok()
    }

    /// Every violation from both checkers, each prefixed with the
    /// checker that produced it.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> =
            self.to.violations.iter().map(|v| format!("to-trace: {v}")).collect();
        out.extend(self.cause.violations.iter().map(|v| format!("cause: {v}")));
        out
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}; {}", self.to, self.cause)
    }
}

/// Checks both runtime safety specifications over one recorded
/// execution: `vs` is the `VS` action face and `to` the untimed `TO`
/// interface face of the same merged trace; `p0` is the initial
/// membership *P₀*.
pub fn check_conformance(
    vs: &[VsAction<AppMsg>],
    to: &[ToObs],
    p0: &BTreeSet<ProcId>,
) -> ConformanceReport {
    ConformanceReport { to: check_to_trace(to), cause: check_trace(vs, p0) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_conforms() {
        let report = check_conformance(&[], &[], &ProcId::range(3));
        assert!(report.ok());
        assert!(report.violations().is_empty());
    }

    #[test]
    fn violations_carry_their_checker_prefix() {
        use gcs_model::Value;
        // A delivery of a value never broadcast: integrity violation.
        let to = [ToObs::Brcv { dst: ProcId(1), src: ProcId(0), a: Value::from_u64(9) }];
        let report = check_conformance(&[], &to, &ProcId::range(2));
        assert!(!report.ok());
        let vs = report.violations();
        assert!(vs.iter().all(|v| v.starts_with("to-trace: ")), "{vs:?}");
    }
}
