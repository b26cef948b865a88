//! The conditional performance properties at full experiment size:
//! `VS-property(b, d, Q)` and `TO-property(b+d, d, Q)` with the
//! analytical bounds of Section 8, on partition, merge, and crash
//! scenarios.

use gcs_obs::BoundParams;
use pgcs::harness::scenarios::{self, Scenario};
use pgcs::spec::properties::{check_to_property, check_vs_property, PropertyParams};
use pgcs::vsimpl::ProtoConfig;

/// The Section 8 bounds `(b, d)` for a stabilized group of `nq` under
/// `cfg`.
fn bounds(nq: usize, cfg: &ProtoConfig) -> (u64, u64) {
    let bp = BoundParams { n: nq as u32, delta_ms: cfg.delta, pi_ms: cfg.pi, mu_ms: cfg.mu };
    (bp.b_ms(), bp.d_ms())
}

fn assert_both_properties(sc: &Scenario) {
    let nq = sc.q.len();
    let cfg = &sc.config.proto;
    let (b, d) = bounds(nq, cfg);
    let stack = sc.run();
    let ambient = cfg.procs.clone();

    let vs = check_vs_property(
        &stack.vs_obs(),
        &PropertyParams { b, d, q: sc.q.clone(), ambient: ambient.clone() },
    );
    assert!(vs.applicable, "{}: VS hypothesis never held", sc.name);
    assert!(
        vs.holds,
        "{}: VS-property failed (l'={} ≤ b={}? violations: {:?})",
        sc.name,
        vs.measured_l_prime,
        b,
        vs.violations.first()
    );

    let to = check_to_property(
        &stack.to_obs(),
        &PropertyParams { b: b + d, d, q: sc.q.clone(), ambient },
    );
    assert!(to.applicable, "{}: TO hypothesis never held", sc.name);
    assert!(
        to.holds,
        "{}: TO-property failed (l'={} ≤ b+d={}? violations: {:?})",
        sc.name,
        to.measured_l_prime,
        b + d,
        to.violations.first()
    );
    assert!(to.resolved > 0, "{}: no delivery obligations resolved", sc.name);
}

#[test]
fn partition_scenarios_meet_bounds() {
    assert_both_properties(&scenarios::partition(5, 3, 5, 15, 501));
    assert_both_properties(&scenarios::partition(7, 4, 5, 15, 502));
    assert_both_properties(&scenarios::partition(5, 3, 10, 10, 503));
}

#[test]
fn merge_scenarios_meet_bounds() {
    assert_both_properties(&scenarios::merge(4, 3, 5, 12, 601));
    assert_both_properties(&scenarios::merge(6, 4, 5, 12, 602));
}

#[test]
fn crash_scenarios_meet_bounds() {
    assert_both_properties(&scenarios::crash(4, 5, 12, 701));
    assert_both_properties(&scenarios::crash(5, 8, 12, 702));
}

#[test]
fn cascade_scenario_meets_bounds_after_final_heal() {
    assert_both_properties(&scenarios::cascade(5, 5, 15, 801));
}

/// The Figure 12 composition, checked as three facts about one trace:
/// `VS-property(b, d, Q)` holds, the `VStoTO-property` of Figure 11 holds
/// (its premises are VS's conclusions; its interval α‴ fits in d), and
/// therefore `TO-property(b+d, d, Q)` holds — Theorem 7.1 end to end.
#[test]
fn figure12_composition_on_one_trace() {
    use pgcs::harness::{check_figure11, Figure11Params};
    for sc in [scenarios::partition(5, 3, 5, 12, 811), scenarios::merge(4, 3, 5, 12, 812)] {
        let nq = sc.q.len();
        let cfg = &sc.config.proto;
        let (b, d) = bounds(nq, cfg);
        let stack = sc.run();
        let ambient = cfg.procs.clone();

        let vs = check_vs_property(
            &stack.vs_obs(),
            &PropertyParams { b, d, q: sc.q.clone(), ambient: ambient.clone() },
        );
        assert!(vs.applicable && vs.holds, "{}: VS link broken", sc.name);

        let f11 = check_figure11(
            stack.trace(),
            &Figure11Params { d, q: sc.q.clone(), ambient: ambient.clone() },
        );
        assert!(f11.premises_hold, "{}: {:?}", sc.name, f11.premise_failure);
        assert!(
            f11.holds,
            "{}: Figure 11 interval α‴ = {} exceeds d = {d}",
            sc.name, f11.measured_alpha3
        );

        let to = check_to_property(
            &stack.to_obs(),
            &PropertyParams { b: b + d, d, q: sc.q.clone(), ambient },
        );
        assert!(to.applicable && to.holds, "{}: TO conclusion broken", sc.name);
    }
}

/// The bounds really are bounds: an artificially tightened b must fail on
/// a merge (stabilization takes longer than a couple of δ).
#[test]
fn tightened_bounds_are_violated() {
    let sc = scenarios::merge(4, 3, 5, 10, 901);
    let cfg = &sc.config.proto;
    let stack = sc.run();
    let vs = check_vs_property(
        &stack.vs_obs(),
        &PropertyParams {
            b: 1, // absurdly tight
            d: bounds(sc.q.len(), cfg).1,
            q: sc.q.clone(),
            ambient: cfg.procs.clone(),
        },
    );
    assert!(vs.applicable);
    assert!(!vs.holds, "a 1-tick stabilization bound cannot hold");
}
