//! End-to-end integration: the full implementation stack against every
//! specification-level checker the repository has, on a battery of
//! failure scenarios.

use pgcs::harness::scenarios;
use pgcs::model::ProcId;
use pgcs::spec::cause::check_trace;
use pgcs::spec::completion::complete_and_replay;
use pgcs::spec::to_trace::check_to_trace;

/// Every scenario's client trace is a `TO-machine` trace, and its VS
/// interface trace satisfies Lemma 4.2 *and* is literally a trace of
/// `WeakVS-machine` (full trace inclusion via internal-action
/// reconstruction).
#[test]
fn battery_passes_all_specification_checkers() {
    for sc in scenarios::battery(1234) {
        let stack = sc.run();
        let name = sc.name;

        let to = check_to_trace(&stack.to_obs().untimed());
        assert!(to.ok(), "{name}: TO conformance: {:?}", to.violations.first());
        assert!(to.brcvs > 0, "{name}: nothing was delivered");

        let procs = ProcId::range(sc.config.n());
        let vs_actions = stack.vs_actions();
        let cause = check_trace(&vs_actions, &sc.config.proto.p0);
        assert!(cause.ok(), "{name}: Lemma 4.2: {:?}", cause.violations.first());

        complete_and_replay(&vs_actions, procs, sc.config.proto.p0.clone())
            .unwrap_or_else(|(i, e)| panic!("{name}: VS trace inclusion at event {i}: {e}"));
    }
}

/// The same battery across several seeds: determinism means identical
/// traces per seed, and distinct seeds explore different behaviours.
#[test]
fn battery_is_deterministic_per_seed() {
    let run_digest = |seed: u64| -> Vec<usize> {
        scenarios::battery(seed).iter().map(|sc| sc.run().to_obs().len()).collect()
    };
    assert_eq!(run_digest(42), run_digest(42));
}

/// Delivered prefixes agree pairwise in every scenario (the client-facing
/// consequence of the common total order).
#[test]
fn delivered_sequences_are_pairwise_prefixes() {
    for sc in scenarios::battery(77) {
        let stack = sc.run();
        let seqs: Vec<Vec<_>> =
            (0..sc.config.n()).map(|i| stack.delivered(ProcId(i)).to_vec()).collect();
        for (i, a) in seqs.iter().enumerate() {
            for b in &seqs[i + 1..] {
                let ok = pgcs::model::seq::is_prefix(a, b) || pgcs::model::seq::is_prefix(b, a);
                assert!(ok, "{}: delivered sequences diverge", sc.name);
            }
        }
    }
}
