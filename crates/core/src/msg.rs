//! The message alphabet used by the `VStoTO` algorithm.

use gcs_model::{Label, Summary, Value};
use std::fmt;
use std::sync::Arc;

/// A message of the `VStoTO` algorithm: *M = (L × A) ∪ summaries*
/// (Figure 9).
///
/// Ordinary messages carry a labelled data value; state-exchange messages
/// carry a summary of the sender's state.
#[derive(Clone, PartialEq, Eq)]
pub enum AppMsg {
    /// An ordinary ⟨label, value⟩ message.
    Val(Label, Value),
    /// A state-exchange summary, behind a pointer: only state exchange
    /// sends one, and every token entry and trace event is as wide as
    /// this enum. Shared and never mutated once built, so the sender's
    /// log entry, the trace events and every `gotstate` holding it are
    /// one allocation per sender (per decode, over a wire).
    Summary(Arc<Summary>),
}

impl AppMsg {
    /// The label, for ordinary messages.
    pub fn label(&self) -> Option<Label> {
        match self {
            AppMsg::Val(l, _) => Some(*l),
            AppMsg::Summary(_) => None,
        }
    }

    /// The summary, for state-exchange messages.
    pub fn summary(&self) -> Option<&Summary> {
        match self {
            AppMsg::Val(..) => None,
            AppMsg::Summary(x) => Some(x),
        }
    }
}

impl fmt::Debug for AppMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppMsg::Val(l, a) => write!(f, "⟨{l},{a:?}⟩"),
            AppMsg::Summary(x) => write!(
                f,
                "Σ(|con|={}, |ord|={}, next={}, high={:?})",
                x.con.len(),
                x.ord.len(),
                x.next,
                x.high
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_model::{ProcId, ViewId};

    #[test]
    fn accessors_distinguish_variants() {
        let l = Label::new(ViewId::new(1, ProcId(0)), 1, ProcId(0));
        let m = AppMsg::Val(l, Value::from_u64(1));
        assert_eq!(m.label(), Some(l));
        assert!(m.summary().is_none());
        let s = AppMsg::Summary(Arc::new(Summary::empty()));
        assert!(s.label().is_none());
        assert!(s.summary().is_some());
    }
}
