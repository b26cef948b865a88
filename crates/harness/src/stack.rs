//! Assembly of the full TO service stack (Figure 1): clients → `VStoTO`
//! layer → VS service (membership + token ring) → simulated network.

use gcs_core::properties::{ToObs, VsObs};
use gcs_core::vs_machine::VsAction;
use gcs_core::AppMsg;
use gcs_ioa::{TimedTrace, TraceEvent};
use gcs_model::failure::FailureScript;
use gcs_model::{Majority, ProcId, QuorumSystem, Time, Value};
use gcs_netsim::{Engine, NetConfig};
use gcs_vsimpl::{convert, ImplEvent, ProtoConfig, TimedVsToTo, VsNode};
use std::sync::Arc;

/// Configuration of a full stack simulation.
#[derive(Clone)]
pub struct StackConfig {
    /// The protocol parameters every node runs with (ambient set, *P₀*,
    /// δ, π, μ, membership variant, safe delivery, detector policy).
    pub proto: ProtoConfig,
    /// The quorum system (defaults to majority of *n*).
    pub quorums: Arc<dyn QuorumSystem>,
    /// RNG seed for the network simulation.
    pub seed: u64,
}

impl StackConfig {
    /// [`ProtoConfig::standard`] (everyone in *P₀*, `π = 2nδ`,
    /// `μ = 4nδ`) with majority quorums.
    pub fn standard(n: u32, delta: Time, seed: u64) -> Self {
        StackConfig {
            proto: ProtoConfig::standard(n, delta),
            quorums: Arc::new(Majority::new(n as usize)),
            seed,
        }
    }

    /// Number of processors (the ambient set is `{p0..p(n-1)}`).
    pub fn n(&self) -> u32 {
        self.proto.procs.len() as u32
    }
}

/// A built stack: the discrete-event engine hosting one
/// [`VsNode`]`<`[`TimedVsToTo`]`>` per processor.
pub struct Stack {
    engine: Engine<VsNode<TimedVsToTo>>,
    config: StackConfig,
    next_value: u64,
}

impl Stack {
    /// Builds the stack.
    pub fn new(config: StackConfig) -> Self {
        let proto = &config.proto;
        let nodes = proto.procs.iter().map(|&p| {
            VsNode::new(p, proto.clone(), TimedVsToTo::new(p, &proto.p0, config.quorums.clone()))
        });
        let net = NetConfig { delta_min: 1, delta: proto.delta, ..NetConfig::default() };
        let engine = Engine::new(nodes, net, config.seed);
        Stack { engine, config, next_value: 0 }
    }

    /// The configuration this stack was built with.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Loads a failure script.
    pub fn load_failures(&mut self, script: &FailureScript) {
        self.engine.load_failures(script);
    }

    /// Schedules a client broadcast of a fresh unique value at `time` on
    /// processor `p`; returns the value.
    pub fn schedule_bcast(&mut self, time: Time, p: ProcId) -> Value {
        self.next_value += 1;
        let a = Value::from_u64(self.next_value);
        self.engine.schedule_input(time, p, a.clone());
        a
    }

    /// Schedules a specific value (caller must keep values unique for the
    /// trace checkers).
    pub fn schedule_value(&mut self, time: Time, p: ProcId, a: Value) {
        self.engine.schedule_input(time, p, a);
    }

    /// Runs the simulation to `t_end`.
    pub fn run_until(&mut self, t_end: Time) -> usize {
        self.engine.run_until(t_end)
    }

    /// The raw recorded trace.
    pub fn trace(&self) -> &TimedTrace<TraceEvent<ImplEvent>> {
        self.engine.trace()
    }

    /// The untimed `VS` action sequence (for the cause checker).
    pub fn vs_actions(&self) -> Vec<VsAction<AppMsg>> {
        convert::vs_actions(self.trace())
    }

    /// The timed `VsObs` trace (for `VS-property`).
    pub fn vs_obs(&self) -> TimedTrace<VsObs> {
        convert::vs_obs(self.trace())
    }

    /// The timed `ToObs` trace (for `TO-property` and trace conformance).
    pub fn to_obs(&self) -> TimedTrace<ToObs> {
        convert::to_obs(self.trace())
    }

    /// What the TO client at `p` has been delivered, in order.
    pub fn delivered(&self, p: ProcId) -> Vec<(ProcId, Value)> {
        self.engine.process(p).client().delivered()
    }

    /// The current view at `p`, if any.
    pub fn view_of(&self, p: ProcId) -> Option<&gcs_model::View> {
        self.engine.process(p).current_view()
    }

    /// Direct access to a node.
    pub fn node(&self, p: ProcId) -> &VsNode<TimedVsToTo> {
        self.engine.process(p)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// Network-level counters (packets routed/dropped, events stashed).
    pub fn net_stats(&self) -> gcs_netsim::NetStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::cause::check_trace;
    use gcs_core::to_trace::check_to_trace;
    use std::collections::BTreeSet;

    #[test]
    fn stable_group_delivers_everything_in_order() {
        let mut stack = Stack::new(StackConfig::standard(3, 5, 42));
        for i in 0..10u32 {
            stack.schedule_bcast(50 + 10 * i as Time, ProcId(i % 3));
        }
        stack.run_until(2_000);
        // Everyone delivered all ten values, identically ordered.
        let d0 = stack.delivered(ProcId(0)).to_vec();
        assert_eq!(d0.len(), 10, "p0 delivered {} of 10", d0.len());
        for i in 1..3 {
            assert_eq!(stack.delivered(ProcId(i)), &d0[..], "divergence at p{i}");
        }
        // The TO trace is a TO-machine trace.
        let r = check_to_trace(&stack.to_obs().untimed());
        assert!(r.ok(), "{:?}", r.violations.first());
        // The VS trace satisfies Lemma 4.2.
        let r = check_trace(&stack.vs_actions(), &ProcId::range(3));
        assert!(r.ok(), "{:?}", r.violations.first());
    }

    #[test]
    fn partition_forms_separate_views_and_primary_side_progresses() {
        let mut stack = Stack::new(StackConfig::standard(5, 5, 7));
        let ambient = ProcId::range(5);
        let left = ProcId::range(3); // {0,1,2}: majority
        let right: BTreeSet<ProcId> = ambient.difference(&left).copied().collect();
        let mut script = FailureScript::new();
        script.partition(500, &[left.clone(), right.clone()], &ambient);
        stack.load_failures(&script);
        // Traffic after the partition from the majority side.
        for i in 0..5u32 {
            stack.schedule_bcast(1_000 + 50 * i as Time, ProcId(i % 3));
        }
        stack.run_until(6_000);
        // Majority side converged to a view of exactly {0,1,2} and
        // delivered the post-partition traffic.
        for p in &left {
            let v = stack.view_of(*p).expect("view installed");
            assert_eq!(v.set, left, "wrong membership at {p}: {v}");
        }
        assert_eq!(stack.delivered(ProcId(0)).len(), 5);
        // Minority side converged to {3,4} but confirmed nothing new.
        for p in &right {
            let v = stack.view_of(*p).expect("view installed");
            assert_eq!(v.set, right, "wrong membership at {p}: {v}");
        }
        // Safety held throughout.
        let r = check_to_trace(&stack.to_obs().untimed());
        assert!(r.ok(), "{:?}", r.violations.first());
        let r = check_trace(&stack.vs_actions(), &ProcId::range(5));
        assert!(r.ok(), "{:?}", r.violations.first());
    }

    #[test]
    fn merge_reconciles_minority_traffic() {
        let mut stack = Stack::new(StackConfig::standard(4, 5, 11));
        let ambient = ProcId::range(4);
        let left = ProcId::range(3);
        let right: BTreeSet<ProcId> = ambient.difference(&left).copied().collect();
        let mut script = FailureScript::new();
        script.partition(200, &[left.clone(), right.clone()], &ambient);
        script.heal(3_000, &ambient);
        stack.load_failures(&script);
        // p3 (minority, alone) submits during the partition: its value is
        // labelled but cannot be confirmed until the merge.
        stack.schedule_bcast(1_000, ProcId(3));
        stack.run_until(10_000);
        // After healing, everyone is in one view and p3's value reached
        // every client.
        for p in &ambient {
            let v = stack.view_of(*p).expect("view installed");
            assert_eq!(v.set, ambient, "post-merge membership at {p}: {v}");
        }
        for p in &ambient {
            let got = stack.delivered(*p);
            assert!(
                got.iter().any(|(src, _)| *src == ProcId(3)),
                "{p} missing the minority value after merge: {got:?}"
            );
        }
        let r = check_to_trace(&stack.to_obs().untimed());
        assert!(r.ok(), "{:?}", r.violations.first());
    }

    #[test]
    fn safe_delivery_mode_still_delivers_correctly() {
        let mut cfg = StackConfig::standard(3, 5, 21);
        cfg.proto.safe_delivery = true;
        let mut stack = Stack::new(cfg);
        for i in 0..8u32 {
            stack.schedule_bcast(50 + 20 * i as Time, ProcId(i % 3));
        }
        stack.run_until(3_000);
        let d0 = stack.delivered(ProcId(0)).to_vec();
        assert_eq!(d0.len(), 8, "p0 delivered {} of 8", d0.len());
        for i in 1..3 {
            assert_eq!(stack.delivered(ProcId(i)), &d0[..]);
        }
        let r = check_to_trace(&stack.to_obs().untimed());
        assert!(r.ok(), "{:?}", r.violations.first());
        // The paper's point (introduction, difference #5) made concrete:
        // Totem-style safe delivery does NOT satisfy VS-machine's safe
        // semantics — a safe indication can precede delivery at other
        // members, which the Lemma 4.2 checker flags. In a stable run the
        // TO service above is still correct, but the VS contract is not met.
        let r = check_trace(&stack.vs_actions(), &ProcId::range(3));
        assert!(!r.ok(), "safe-delivery mode unexpectedly satisfied VS semantics");
        assert!(
            r.violations.iter().all(|v| v.contains("before delivery")),
            "only safe-coverage violations expected: {:?}",
            r.violations.first()
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let run = |seed| {
            let mut stack = Stack::new(StackConfig::standard(3, 5, seed));
            for i in 0..5u32 {
                stack.schedule_bcast(100 + 30 * i as Time, ProcId(i % 3));
            }
            stack.run_until(2_000);
            format!("{:?}", stack.trace())
        };
        assert_eq!(run(9), run(9));
    }

    /// Over the real stack: lock acquires from all three processors; the
    /// grants come back identical everywhere, in one FIFO order.
    #[test]
    fn lock_service_over_the_stack() {
        use gcs_apps::{LockOp, LockTable, Replica};
        let acq = |who: u32, tag: u64| LockOp::Acquire { name: "m".into(), who, tag }.encode();
        let mut stack = Stack::new(StackConfig::standard(3, 5, 61));
        let pi = stack.config().proto.pi;
        let t0 = 4 * pi;
        stack.schedule_value(t0, ProcId(0), acq(0, 1));
        stack.schedule_value(t0 + 10, ProcId(1), acq(1, 2));
        stack.schedule_value(t0 + 20, ProcId(2), acq(2, 3));
        stack.schedule_value(
            t0 + 200,
            ProcId(0),
            LockOp::Release { name: "m".into(), who: 0 }.encode(),
        );
        stack.run_until(t0 + 60 * pi);
        let mut tables = Vec::new();
        for i in 0..3 {
            let mut r = Replica::new(LockTable::default());
            for (_, a) in &stack.delivered(ProcId(i)) {
                r.apply_payload(a);
            }
            tables.push(r);
        }
        for t in &tables {
            assert_eq!(t.applied(), 4, "all four ops must be delivered");
        }
        let g0 = tables[0].state().grants().to_vec();
        assert_eq!(g0.len(), 2, "initial grant plus one handoff");
        for t in &tables[1..] {
            assert_eq!(t.state().grants(), &g0[..], "grant histories diverge");
        }
    }
}
