//! Property-based testing of the full stack: random partition scripts,
//! random workloads, and random protocol parameters must never violate
//! safety (TO-machine trace membership, Lemma 4.2, VS trace inclusion).

use pgcs::harness::{Stack, StackConfig};
use pgcs::model::failure::FailureScript;
use pgcs::model::{ProcId, Time};
use pgcs::spec::cause::check_trace;
use pgcs::spec::completion::complete_and_replay;
use pgcs::spec::to_trace::check_to_trace;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random sequence of partition/heal reconfigurations.
fn arb_script(n: u32, horizon: Time) -> impl Strategy<Value = FailureScript> {
    let group = prop::collection::vec(0..n, 0..=n as usize);
    prop::collection::vec((1..horizon, group), 0..4).prop_map(move |events| {
        let ambient = ProcId::range(n);
        let mut script = FailureScript::new();
        let mut times: Vec<_> = events;
        times.sort_by_key(|(t, _)| *t);
        for (t, members) in times {
            let left: BTreeSet<ProcId> = members.into_iter().map(ProcId).collect();
            let right: BTreeSet<ProcId> = ambient.difference(&left).copied().collect();
            if left.is_empty() || right.is_empty() {
                script.heal(t, &ambient);
            } else {
                script.partition(t, &[left, right], &ambient);
            }
        }
        script
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Arbitrary reconfiguration schedules and workloads preserve every
    /// safety property the specifications demand.
    #[test]
    fn random_partitions_preserve_safety(
        seed in 0u64..1_000,
        n in 3u32..=5,
        script in (3u32..=5).prop_flat_map(|n| arb_script(n, 4_000)).no_shrink(),
        sends in prop::collection::vec((0u64..4_000, 0u32..5), 1..12),
    ) {
        let mut stack = Stack::new(StackConfig::standard(n, 5, seed));
        stack.load_failures(&script);
        for (t, p) in sends {
            stack.schedule_bcast(t, ProcId(p % n));
        }
        stack.run_until(6_000);

        let to = check_to_trace(&stack.to_obs().untimed());
        prop_assert!(to.ok(), "TO: {:?}", to.violations.first());

        let actions = stack.vs_actions();
        let cause = check_trace(&actions, &ProcId::range(n));
        prop_assert!(cause.ok(), "cause: {:?}", cause.violations.first());

        let incl = complete_and_replay(&actions, ProcId::range(n), ProcId::range(n));
        prop_assert!(incl.is_ok(), "VS inclusion: {:?}", incl.err());
    }

    /// Random protocol parameters (δ, π, μ) keep the stable-group case
    /// live and safe.
    #[test]
    fn random_parameters_stay_live_and_safe(
        seed in 0u64..1_000,
        delta in 1u64..=12,
        pi_factor in 2u64..=5,
        mu_factor in 2u64..=8,
    ) {
        let n = 3u32;
        let mut cfg = StackConfig::standard(n, delta, seed);
        cfg.proto.pi = pi_factor * n as Time * delta;
        cfg.proto.mu = mu_factor * n as Time * delta;
        let pi = cfg.proto.pi;
        let mut stack = Stack::new(cfg);
        for i in 0..5u64 {
            stack.schedule_bcast(4 * pi + i * delta.max(2), ProcId((i % 3) as u32));
        }
        stack.run_until(4 * pi + 100 * pi);
        for i in 0..n {
            prop_assert_eq!(
                stack.delivered(ProcId(i)).len(),
                5,
                "p{} missed deliveries", i
            );
        }
        let to = check_to_trace(&stack.to_obs().untimed());
        prop_assert!(to.ok(), "TO: {:?}", to.violations.first());
    }
}
