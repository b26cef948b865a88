//! The timed `VStoTO'` layer (Section 7): the verified `VStoTO_p`
//! automaton driven eagerly over the implemented VS service.

use gcs_core::msg::AppMsg;
use gcs_core::vstoto::VsToToProc;
use gcs_model::{ProcId, QuorumSystem, Value, View};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A client of the VS service, plugged into a [`crate::VsNode`].
///
/// Handlers receive VS events and may return messages to `gpsnd` (the
/// node multicasts them in the current view via the token) and values to
/// deliver to the TO client (`brcv`).
pub trait VsClient {
    /// A new view was installed.
    fn on_newview(&mut self, v: &View, effects: &mut ClientEffects);
    /// A group message was delivered.
    fn on_gprcv(&mut self, src: ProcId, m: &AppMsg, effects: &mut ClientEffects);
    /// A group message became safe.
    fn on_safe(&mut self, src: ProcId, m: &AppMsg, effects: &mut ClientEffects);
    /// The local TO client submitted a value.
    fn on_input(&mut self, a: Value, effects: &mut ClientEffects);
}

/// Effects a [`VsClient`] hands back to its node.
#[derive(Default, Debug)]
pub struct ClientEffects {
    /// Messages to `gpsnd` in the current view, in order.
    pub gpsnd: Vec<AppMsg>,
    /// Values to deliver to the TO client, in order, with their origins.
    pub brcv: Vec<(ProcId, Value)>,
}

/// The timed `VStoTO'_p`: the exact [`VsToToProc`] state machine of
/// `gcs-core`, with its locally controlled actions (`label`, `gpsnd`,
/// `confirm`, `brcv`) performed immediately whenever enabled — the "good
/// processor" discipline of Section 7. Processor crashes need no special
/// handling here: the network simulator freezes the whole node, which
/// models a `bad` status, and replays its events on recovery. The layer
/// is `Clone` so crash/recovery harnesses can persist it as part of a
/// node's [`crate::StableState`].
#[derive(Clone)]
pub struct TimedVsToTo {
    proc: VsToToProc,
}

impl TimedVsToTo {
    /// Creates the layer for processor `id`.
    pub fn new(id: ProcId, p0: &BTreeSet<ProcId>, quorums: Arc<dyn QuorumSystem>) -> Self {
        TimedVsToTo { proc: VsToToProc::initial(id, p0, quorums) }
    }

    /// Everything delivered to the TO client at this location, in order
    /// (derived from the algorithm's own state, see
    /// [`VsToToProc::reported`]).
    pub fn delivered(&self) -> Vec<(ProcId, Value)> {
        self.proc.reported()
    }

    /// Performs every enabled locally controlled action until quiescent.
    ///
    /// One pass in this order is enough: `label` can only enable `gpsnd`
    /// and `confirm` can only enable `brcv`; nothing later in the list
    /// enables anything earlier.
    fn pump(&mut self, effects: &mut ClientEffects) {
        while self.proc.label().is_some() {}
        while let Some(m) = self.proc.gpsnd() {
            effects.gpsnd.push(m);
        }
        while self.proc.confirm().is_some() {}
        while let Some(delivery) = self.proc.brcv() {
            effects.brcv.push(delivery);
        }
    }
}

impl VsClient for TimedVsToTo {
    fn on_newview(&mut self, v: &View, effects: &mut ClientEffects) {
        self.proc.newview(v.clone());
        self.pump(effects);
    }

    fn on_gprcv(&mut self, src: ProcId, m: &AppMsg, effects: &mut ClientEffects) {
        let out = self.proc.gprcv(src, m);
        // A steady-state `Val` receipt cannot enable any locally
        // controlled action: `label`/`gpsnd` depend only on the local
        // client queues, `confirm` needs the freshly appended label to
        // already be safe (the VS service indicates safe only after
        // receipt, so it cannot be), and `brcv` can only have been
        // waiting on this content if a recovery order ran ahead of it
        // (`nextreport < nextconfirm`). Skipping the no-op pump here
        // removes a map probe from every receipt on the ring's hot path.
        if matches!(m, AppMsg::Summary(_))
            || out.established
            || self.proc.nextreport < self.proc.nextconfirm
        {
            self.pump(effects);
        }
    }

    fn on_safe(&mut self, src: ProcId, m: &AppMsg, effects: &mut ClientEffects) {
        self.proc.safe(src, m);
        self.pump(effects);
    }

    fn on_input(&mut self, a: Value, effects: &mut ClientEffects) {
        self.proc.bcast(a);
        self.pump(effects);
    }
}

/// A trivial VS client used to exercise the VS service alone: it
/// multicasts each client value once, as a `Val` message under a
/// synthetic label, and records every view, receipt and safe indication
/// it is given. It never delivers anything to the TO client. Used by
/// VS-level tests and experiments that do not need the TO layer.
#[derive(Default)]
pub struct EchoClient {
    /// Messages received, with sender.
    pub received: Vec<(ProcId, AppMsg)>,
    /// Messages reported safe, with sender.
    pub safe: Vec<(ProcId, AppMsg)>,
    /// Views installed.
    pub views: Vec<View>,
    counter: u64,
    id: u32,
}

impl EchoClient {
    /// Creates an echo client; `id` seeds label uniqueness.
    pub fn new(id: u32) -> Self {
        EchoClient { id, ..Default::default() }
    }
}

impl VsClient for EchoClient {
    fn on_newview(&mut self, v: &View, _effects: &mut ClientEffects) {
        self.views.push(v.clone());
    }

    fn on_gprcv(&mut self, src: ProcId, m: &AppMsg, _effects: &mut ClientEffects) {
        self.received.push((src, m.clone()));
    }

    fn on_safe(&mut self, src: ProcId, m: &AppMsg, _effects: &mut ClientEffects) {
        self.safe.push((src, m.clone()));
    }

    fn on_input(&mut self, a: Value, effects: &mut ClientEffects) {
        // Send the raw value in a ⟨label, value⟩ message with a synthetic
        // label (view id is irrelevant to the VS service itself).
        self.counter += 1;
        let l = gcs_model::Label::new(
            gcs_model::ViewId::new(u64::MAX, ProcId(self.id)),
            self.counter,
            ProcId(self.id),
        );
        effects.gpsnd.push(AppMsg::Val(l, a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_model::Majority;

    #[test]
    fn solo_group_pumps_to_delivery() {
        // One processor, quorum of one: a submitted value must come back
        // once VS loops the message and reports it safe.
        let p0: BTreeSet<ProcId> = [ProcId(0)].into();
        let mut layer = TimedVsToTo::new(ProcId(0), &p0, Arc::new(Majority::new(1)));
        let mut eff = ClientEffects::default();
        layer.on_input(Value::from_u64(9), &mut eff);
        assert_eq!(eff.gpsnd.len(), 1, "label+gpsnd must happen eagerly");
        let m = eff.gpsnd.pop().unwrap();
        let mut eff = ClientEffects::default();
        layer.on_gprcv(ProcId(0), &m, &mut eff);
        assert!(eff.brcv.is_empty(), "not confirmed before safe");
        let mut eff = ClientEffects::default();
        layer.on_safe(ProcId(0), &m, &mut eff);
        assert_eq!(eff.brcv, vec![(ProcId(0), Value::from_u64(9))]);
        assert_eq!(layer.delivered().len(), 1);
    }

    #[test]
    fn newview_triggers_summary_send() {
        let p0 = ProcId::range(2);
        let mut layer = TimedVsToTo::new(ProcId(0), &p0, Arc::new(Majority::new(2)));
        let mut eff = ClientEffects::default();
        let v = View::new(gcs_model::ViewId::new(1, ProcId(0)), p0);
        layer.on_newview(&v, &mut eff);
        assert_eq!(eff.gpsnd.len(), 1);
        assert!(matches!(eff.gpsnd[0], AppMsg::Summary(_)));
    }
}
