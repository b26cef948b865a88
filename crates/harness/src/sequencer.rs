//! A fixed-sequencer totally ordered broadcast — the classic non-fault-
//! tolerant baseline for the cost comparison of experiment E14.
//!
//! The lowest processor acts as the sequencer: every submission is
//! unicast to it, it stamps a global sequence number and rebroadcasts,
//! and every processor delivers in stamp order. In a stable network this
//! is hard to beat — two message hops (≈ 2δ) of latency and `n + 1`
//! packets per value — but it provides none of what the paper's stack
//! provides: no membership, no safe indications, and a single point of
//! failure (if the sequencer's location goes bad, the service stops
//! until it recovers; there is deliberately no failover here).
//!
//! The baseline emits the same `Bcast`/`Brcv` trace events as the real
//! stack, so the `TO-machine` trace checker applies to it unchanged.

use gcs_ioa::{Context, Process};
use gcs_model::{ProcId, Value};
use gcs_vsimpl::ImplEvent;
use std::collections::{BTreeMap, BTreeSet};

/// A wire message of the sequencer protocol.
#[derive(Clone, PartialEq, Debug)]
pub enum SeqWire {
    /// A client value forwarded to the sequencer.
    Submit {
        /// The submitting processor.
        origin: ProcId,
        /// The value.
        a: Value,
    },
    /// A stamped value rebroadcast by the sequencer.
    Stamped {
        /// The global sequence number (1-based).
        seqno: u64,
        /// The submitting processor.
        origin: ProcId,
        /// The value.
        a: Value,
    },
}

/// One node of the fixed-sequencer baseline.
pub struct SequencerNode {
    id: ProcId,
    procs: BTreeSet<ProcId>,
    sequencer: ProcId,
    next_stamp: u64,
    next_deliver: u64,
    pending: BTreeMap<u64, (ProcId, Value)>,
    delivered: Vec<(ProcId, Value)>,
}

impl SequencerNode {
    /// Creates a node; the sequencer is the least processor of the set.
    pub fn new(id: ProcId, procs: BTreeSet<ProcId>) -> Self {
        let sequencer = *procs.iter().next().expect("nonempty system");
        SequencerNode {
            id,
            procs,
            sequencer,
            next_stamp: 1,
            next_deliver: 1,
            pending: BTreeMap::new(),
            delivered: Vec::new(),
        }
    }

    /// What this node has delivered, in order.
    pub fn delivered(&self) -> &[(ProcId, Value)] {
        &self.delivered
    }

    fn deliver_ready(&mut self, ctx: &mut Context<'_, SeqWire, ImplEvent>) {
        while let Some((origin, a)) = self.pending.remove(&self.next_deliver) {
            self.next_deliver += 1;
            self.delivered.push((origin, a.clone()));
            ctx.emit(ImplEvent::Brcv { src: origin, dst: self.id, a });
        }
    }
}

impl Process for SequencerNode {
    type Msg = SeqWire;
    type Input = Value;
    type Event = ImplEvent;

    fn id(&self) -> ProcId {
        self.id
    }

    fn on_start(&mut self, _ctx: &mut Context<'_, SeqWire, ImplEvent>) {}

    fn on_message(
        &mut self,
        _from: ProcId,
        msg: SeqWire,
        ctx: &mut Context<'_, SeqWire, ImplEvent>,
    ) {
        match msg {
            SeqWire::Submit { origin, a } => {
                debug_assert_eq!(self.id, self.sequencer, "only the sequencer stamps");
                let seqno = self.next_stamp;
                self.next_stamp += 1;
                for &q in &self.procs.clone() {
                    ctx.send(q, SeqWire::Stamped { seqno, origin, a: a.clone() });
                }
            }
            SeqWire::Stamped { seqno, origin, a } => {
                self.pending.insert(seqno, (origin, a));
                self.deliver_ready(ctx);
            }
        }
    }

    fn on_timer(&mut self, _kind: u64, _ctx: &mut Context<'_, SeqWire, ImplEvent>) {}

    fn on_input(&mut self, a: Value, ctx: &mut Context<'_, SeqWire, ImplEvent>) {
        ctx.emit(ImplEvent::Bcast { p: self.id, a: a.clone() });
        ctx.send(self.sequencer, SeqWire::Submit { origin: self.id, a });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::to_trace::check_to_trace;
    use gcs_netsim::{Engine, NetConfig};

    #[test]
    fn sequencer_orders_and_delivers_everywhere() {
        let procs = ProcId::range(3);
        let nodes = procs.iter().map(|&p| SequencerNode::new(p, procs.clone()));
        let mut engine = Engine::new(nodes, NetConfig::default(), 5);
        for i in 0..8u64 {
            engine.schedule_input(10 + i * 7, ProcId((i % 3) as u32), Value::from_u64(i + 1));
        }
        engine.run_until(2_000);
        let d0 = engine.process(ProcId(0)).delivered().to_vec();
        assert_eq!(d0.len(), 8);
        for i in 1..3 {
            assert_eq!(engine.process(ProcId(i)).delivered(), &d0[..]);
        }
        let to = check_to_trace(&gcs_vsimpl::convert::to_obs(engine.trace()).untimed());
        assert!(to.ok(), "{:?}", to.violations.first());
    }

    #[test]
    fn sequencer_is_a_single_point_of_failure() {
        use gcs_model::failure::FailureScript;
        let procs = ProcId::range(3);
        let nodes = procs.iter().map(|&p| SequencerNode::new(p, procs.clone()));
        let mut engine = Engine::new(nodes, NetConfig::default(), 5);
        let mut script = FailureScript::new();
        script.crash(5, ProcId(0)); // the sequencer
        engine.load_failures(&script);
        engine.schedule_input(10, ProcId(1), Value::from_u64(1));
        engine.run_until(2_000);
        // Nothing delivers anywhere — the baseline has no failover.
        for i in 0..3 {
            assert!(engine.process(ProcId(i)).delivered().is_empty());
        }
    }
}
