//! Reusable failure/workload scenarios over the implementation stack.

use crate::{Stack, StackConfig};
use gcs_apps::Workload;
use gcs_model::failure::FailureScript;
use gcs_model::{ProcId, Time};
use std::collections::BTreeSet;

/// A named scenario: a stack configuration plus a failure script and a
/// workload, with a run horizon.
pub struct Scenario {
    /// Short name for tables.
    pub name: &'static str,
    /// The stack configuration.
    pub config: StackConfig,
    /// The failure script.
    pub script: FailureScript,
    /// The workload.
    pub workload: Workload,
    /// Simulation horizon.
    pub horizon: Time,
    /// The set the conditional properties quantify over (stabilized,
    /// quorate side), with the stabilization already scripted.
    pub q: BTreeSet<ProcId>,
}

impl Scenario {
    /// Builds and runs the scenario, returning the stack at the horizon.
    pub fn run(&self) -> Stack {
        let mut stack = Stack::new(self.config.clone());
        stack.load_failures(&self.script);
        for (t, p, a) in self.workload.schedule() {
            stack.schedule_value(t, p, a);
        }
        let mut stack = stack;
        stack.run_until(self.horizon);
        stack
    }
}

/// A stable group: no failures at all. `Q` is everyone — note the
/// conditional properties are vacuous here (cross links never go bad),
/// so this scenario is used for throughput/latency and safety checks.
pub fn stable(n: u32, delta: Time, msgs: usize, seed: u64) -> Scenario {
    let config = StackConfig::standard(n, delta, seed);
    let pi = config.proto.pi;
    let start = 4 * pi;
    Scenario {
        name: "stable",
        workload: Workload::uniform(n, msgs, start, delta.max(2)),
        horizon: start + msgs as Time * delta.max(2) + 60 * pi,
        script: FailureScript::new(),
        q: ProcId::range(n),
        config,
    }
}

/// A clean partition at `t_part` into a majority side `{p0..}` of size
/// `left` and the rest; traffic continues on the majority side. `Q` is
/// the majority side.
pub fn partition(n: u32, left: u32, delta: Time, msgs: usize, seed: u64) -> Scenario {
    assert!(left < n && 2 * left > n, "left side must be a strict majority");
    let config = StackConfig::standard(n, delta, seed);
    let pi = config.proto.pi;
    let ambient = ProcId::range(n);
    let q = ProcId::range(left);
    let rest: BTreeSet<ProcId> = ambient.difference(&q).copied().collect();
    let t_part = 8 * pi;
    let mut script = FailureScript::new();
    script.partition(t_part, &[q.clone(), rest], &ambient);
    let start = t_part + 1;
    let mut workload = Workload::uniform(left, msgs, start, pi / 2);
    workload.seed = seed;
    Scenario { name: "partition", horizon: t_part + 200 * pi, workload, script, q, config }
}

/// Partition at `t_part`, heal at `t_heal`; traffic from both sides
/// during the partition. `Q` is everyone (stabilized after the heal).
pub fn merge(n: u32, left: u32, delta: Time, msgs: usize, seed: u64) -> Scenario {
    assert!(left < n);
    let config = StackConfig::standard(n, delta, seed);
    let pi = config.proto.pi;
    let ambient = ProcId::range(n);
    let lhs = ProcId::range(left);
    let rhs: BTreeSet<ProcId> = ambient.difference(&lhs).copied().collect();
    let t_part = 8 * pi;
    let t_heal = t_part + 60 * pi;
    let mut script = FailureScript::new();
    script.partition(t_part, &[lhs, rhs], &ambient);
    script.heal(t_heal, &ambient);
    let mut workload = Workload::uniform(n, msgs, t_part + 1, pi / 2);
    workload.seed = seed;
    Scenario { name: "merge", horizon: t_heal + 300 * pi, workload, script, q: ambient, config }
}

/// One processor crashes at `t_crash` and recovers much later; the
/// survivors (a majority) are `Q` after the crash is scripted as a
/// partition (crashed processor bad, links to it bad).
pub fn crash(n: u32, delta: Time, msgs: usize, seed: u64) -> Scenario {
    assert!(n >= 3);
    let config = StackConfig::standard(n, delta, seed);
    let pi = config.proto.pi;
    let ambient = ProcId::range(n);
    let dead = ProcId(n - 1);
    let q: BTreeSet<ProcId> = ambient.iter().copied().filter(|&p| p != dead).collect();
    let t_crash = 8 * pi;
    let mut script = FailureScript::new();
    // The survivors' side stays good; the crashed processor and all its
    // links go bad — exactly the property hypothesis for Q = survivors.
    script.partition(t_crash, &[q.clone(), BTreeSet::new()], &ambient);
    let mut workload = Workload::uniform(n - 1, msgs, t_crash + 1, pi / 2);
    workload.seed = seed;
    Scenario { name: "crash", horizon: t_crash + 200 * pi, workload, script, q, config }
}

/// Repeated partition churn (three reconfigurations), then stabilization
/// into the full group. Exercises recovery under adversity; `Q` is
/// everyone after the last heal.
pub fn cascade(n: u32, delta: Time, msgs: usize, seed: u64) -> Scenario {
    assert!(n >= 4);
    let config = StackConfig::standard(n, delta, seed);
    let ambient = ProcId::range(n);
    let mut script = FailureScript::new();
    let p = config.proto.pi;
    let half: BTreeSet<ProcId> = ProcId::range(n / 2);
    let other: BTreeSet<ProcId> = ambient.difference(&half).copied().collect();
    let third: BTreeSet<ProcId> = ProcId::range(n - 1);
    let last: BTreeSet<ProcId> = [ProcId(n - 1)].into();
    script.partition(8 * p, &[half.clone(), other.clone()], &ambient);
    script.heal(40 * p, &ambient);
    script.partition(60 * p, &[third, last], &ambient);
    script.heal(100 * p, &ambient);
    let mut workload = Workload::uniform(n, msgs, 8 * p + 1, p / 2);
    workload.seed = seed;
    Scenario { name: "cascade", horizon: 100 * p + 300 * p, workload, script, q: ambient, config }
}

/// The standard scenario battery used by the conformance experiments.
pub fn battery(seed: u64) -> Vec<Scenario> {
    vec![
        stable(3, 5, 20, seed),
        stable(5, 5, 30, seed + 1),
        partition(5, 3, 5, 15, seed + 2),
        merge(4, 3, 5, 12, seed + 3),
        crash(4, 5, 12, seed + 4),
        cascade(5, 5, 15, seed + 5),
    ]
}

/// The scenario called `name` at the sizes `exp_all scenario` takes
/// (majority side `n/2 + 1` where a side is needed).
pub fn by_name(name: &str, n: u32, delta: Time, msgs: usize, seed: u64) -> Option<Scenario> {
    Some(match name {
        "stable" => stable(n, delta, msgs, seed),
        "partition" => partition(n, n / 2 + 1, delta, msgs, seed),
        "merge" => merge(n, n / 2 + 1, delta, msgs, seed),
        "crash" => crash(n, delta, msgs, seed),
        "cascade" => cascade(n.max(4), delta, msgs, seed),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::to_trace::check_to_trace;

    #[test]
    fn battery_runs_and_stays_safe() {
        for sc in battery(100) {
            let stack = sc.run();
            let r = check_to_trace(&stack.to_obs().untimed());
            assert!(r.ok(), "{}: {:?}", sc.name, r.violations.first());
        }
    }

    #[test]
    fn stable_scenario_delivers_all_messages() {
        let sc = stable(3, 5, 10, 5);
        let stack = sc.run();
        assert_eq!(stack.delivered(ProcId(0)).len(), 10);
    }

    #[test]
    fn partition_q_converges() {
        let sc = partition(5, 3, 5, 5, 9);
        let stack = sc.run();
        for &p in &sc.q {
            assert_eq!(stack.view_of(p).unwrap().set, sc.q);
        }
    }
}
