//! Adversarial environments for the specification automata.
//!
//! The specifications leave two choices entirely to the environment: when
//! clients submit values (`bcast`/`gpsnd` inputs) and when views form
//! (`createview`, an internal action with an unbounded parameter — the
//! paper allows "arbitrary view changes during periods when the underlying
//! network is unstable"). These environments exercise both, with seeded
//! randomness, so that random executions reach deep states: multiple
//! concurrent views, partitions without primaries, merges, and recoveries.

use crate::system::{SysAction, SysState, VsToToSystem};
use crate::vs_machine::{VsAction, VsMachine, VsState};
use gcs_ioa::Environment;
use gcs_model::{ProcId, Value, View, ViewId};
use rand::{Rng, RngCore};
use std::collections::BTreeSet;

fn random_membership(procs: &[ProcId], rng: &mut dyn RngCore) -> BTreeSet<ProcId> {
    loop {
        let set: BTreeSet<ProcId> = procs.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        if !set.is_empty() {
            return set;
        }
    }
}

/// An adversary for the composed [`VsToToSystem`]: proposes client
/// submissions with globally unique values and capricious view changes.
#[derive(Clone, Debug)]
pub struct SystemAdversary {
    /// Probability of proposing a `bcast` each step.
    pub bcast_prob: f64,
    /// Probability of proposing a `createview` each step.
    pub view_prob: f64,
    /// Stop proposing view changes after this step (lets executions
    /// quiesce into a final view, mirroring stabilization). `usize::MAX`
    /// keeps churning forever.
    pub churn_until: usize,
    /// Stop proposing submissions after this step.
    pub bcast_until: usize,
    next_value: u64,
}

impl Default for SystemAdversary {
    fn default() -> Self {
        SystemAdversary {
            bcast_prob: 0.3,
            view_prob: 0.05,
            churn_until: usize::MAX,
            bcast_until: usize::MAX,
            next_value: 0,
        }
    }
}

impl SystemAdversary {
    /// An adversary that churns views until `churn_until`, then lets the
    /// system quiesce.
    pub fn quiescing(churn_until: usize, bcast_until: usize) -> Self {
        SystemAdversary { churn_until, bcast_until, ..Default::default() }
    }

    /// Overrides the per-step `bcast` proposal probability.
    pub fn with_bcast_prob(mut self, p: f64) -> Self {
        self.bcast_prob = p;
        self
    }

    /// Overrides the per-step `createview` proposal probability.
    pub fn with_view_prob(mut self, p: f64) -> Self {
        self.view_prob = p;
        self
    }

    fn next_view(s: &SysState, procs: &[ProcId], rng: &mut dyn RngCore) -> View {
        let epoch = s.vs.created.iter().map(|v| v.id.epoch).max().unwrap_or(0) + 1;
        let origin = procs[rng.gen_range(0..procs.len())];
        View::new(ViewId::new(epoch, origin), random_membership(procs, rng))
    }
}

impl Environment<VsToToSystem> for SystemAdversary {
    fn propose(&mut self, s: &SysState, step: usize, rng: &mut dyn RngCore) -> Vec<SysAction> {
        let procs: Vec<ProcId> = s.procs.keys().copied().collect();
        let mut out = Vec::new();
        if step < self.bcast_until && rng.gen_bool(self.bcast_prob) {
            let p = procs[rng.gen_range(0..procs.len())];
            out.push(SysAction::Bcast { p, a: Value::from_u64(self.next_value) });
            self.next_value += 1;
        }
        if step < self.churn_until && rng.gen_bool(self.view_prob) {
            out.push(SysAction::CreateView(Self::next_view(s, &procs, rng)));
        }
        out
    }
}

/// An adversary for a bare [`VsMachine`]: proposes `gpsnd` inputs carrying
/// unique values and capricious `createview` actions.
#[derive(Clone, Debug)]
pub struct VsAdversary {
    /// Probability of proposing a `gpsnd` each step.
    pub send_prob: f64,
    /// Probability of proposing a `createview` each step.
    pub view_prob: f64,
    next_value: u64,
}

impl Default for VsAdversary {
    fn default() -> Self {
        VsAdversary { send_prob: 0.4, view_prob: 0.08, next_value: 0 }
    }
}

impl Environment<VsMachine<Value>> for VsAdversary {
    fn propose(
        &mut self,
        s: &VsState<Value>,
        _step: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<VsAction<Value>> {
        let procs: Vec<ProcId> = s.current_viewid.keys().copied().collect();
        let mut out = Vec::new();
        if rng.gen_bool(self.send_prob) {
            let p = procs[rng.gen_range(0..procs.len())];
            out.push(VsAction::GpSnd { p, m: Value::from_u64(self.next_value) });
            self.next_value += 1;
        }
        if rng.gen_bool(self.view_prob) {
            let epoch = s.created.iter().map(|v| v.id.epoch).max().unwrap_or(0) + 1;
            let origin = procs[rng.gen_range(0..procs.len())];
            out.push(VsAction::CreateView(View::new(
                ViewId::new(epoch, origin),
                random_membership(&procs, rng),
            )));
        }
        out
    }
}

impl Environment<crate::weak_vs::WeakVsMachine<Value>> for VsAdversary {
    fn propose(
        &mut self,
        s: &VsState<Value>,
        step: usize,
        rng: &mut dyn RngCore,
    ) -> Vec<VsAction<Value>> {
        // Same proposals as for the strict machine; the weak machine
        // additionally tolerates out-of-order identifiers, which E8's
        // dedicated adversary exercises.
        <Self as Environment<VsMachine<Value>>>::propose(self, s, step, rng)
    }
}

/// The same adversary shape for a `VsMachine<AppMsg>` is not needed — the
/// composed system's clients go through `bcast` — but scripted sequences
/// are: an environment that proposes a fixed action list in order.
#[derive(Clone, Debug)]
pub struct Scripted<A> {
    script: Vec<A>,
    pos: usize,
}

impl<A> Scripted<A> {
    /// Creates a scripted environment proposing `script` one action at a
    /// time (each until it is taken — callers should ensure proposals are
    /// eventually enabled).
    pub fn new(script: Vec<A>) -> Self {
        Scripted { script, pos: 0 }
    }
}

impl<M, A> Environment<M> for Scripted<A>
where
    M: gcs_ioa::Automaton<Action = A>,
    A: Clone + std::fmt::Debug + PartialEq,
{
    fn propose(&mut self, s: &M::State, _step: usize, _rng: &mut dyn RngCore) -> Vec<A> {
        let _ = s;
        match self.script.get(self.pos) {
            Some(a) => {
                self.pos += 1;
                vec![a.clone()]
            }
            None => Vec::new(),
        }
    }
}

/// Convenience: drive a composed system for `steps` steps under the
/// default adversary and return the number of `brcv` deliveries (a quick
/// health signal used by tests and benches).
pub fn drive_system(system: &VsToToSystem, seed: u64, steps: usize) -> usize {
    use gcs_ioa::Runner;
    let mut runner = Runner::new(system.clone(), SystemAdversary::default(), seed);
    let exec = runner.run(steps).expect("no invariants installed");
    exec.actions().iter().filter(|a| matches!(a, SysAction::Brcv { .. })).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_model::Majority;
    use std::sync::Arc;

    #[test]
    fn default_adversary_reaches_deliveries() {
        let procs = ProcId::range(3);
        let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(3)));
        // In the stable initial view, random scheduling should confirm and
        // deliver at least something within a few hundred steps.
        let delivered = drive_system(&sys, 1, 1500);
        assert!(delivered > 0, "no deliveries in 1500 steps");
    }

    #[test]
    fn churn_stops_after_deadline() {
        let procs = ProcId::range(3);
        let sys = VsToToSystem::new(procs.clone(), procs, Arc::new(Majority::new(3)));
        let adv = SystemAdversary::quiescing(100, usize::MAX);
        let mut runner = gcs_ioa::Runner::new(sys, adv, 3);
        let exec = runner.run(800).unwrap();
        let last_create =
            exec.actions().iter().rposition(|a| matches!(a, SysAction::CreateView(_)));
        if let Some(idx) = last_create {
            assert!(idx <= 100, "createview proposed after churn deadline");
        }
    }
}
