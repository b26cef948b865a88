//! The hostile-network corpus as a CI gate: every regime runs under
//! both detector policies, the acceptance comparison holds (zero checker
//! or monitor violations on every run; adaptive strictly fewer view
//! changes on the pure-timing regimes, summed over the regime's seeds),
//! replay is bit-for-bit deterministic at any worker count, and the
//! committed scenario fixtures in `tests/corpus/` stay in lockstep with
//! the builders.

use gcs_ioa::par_seeds_with;
use gcs_sim::{build_hostile, run, run_pair, HostileKind, RegimeTotals, Scenario};

/// What each smoke-seed run produces, pinned so a refactor of the
/// detector or the node cannot move a run unnoticed: (kind, seed,
/// adaptive, digest, views installed, deliveries during disturbance).
const PINS: [(HostileKind, u64, bool, u64, usize, usize); 20] = [
    (HostileKind::Flap, 0, false, 0xa893_6bf1_7268_c9f3, 30, 14),
    (HostileKind::Flap, 0, true, 0x0a08_7dd6_60a8_49b9, 0, 14),
    (HostileKind::Flap, 1, false, 0xf50a_80ba_3135_e6ce, 30, 14),
    (HostileKind::Flap, 1, true, 0xbe28_5b33_a0ee_98ca, 0, 14),
    (HostileKind::AsymSlow, 0, false, 0x287e_77c2_a53e_a98f, 57, 10),
    (HostileKind::AsymSlow, 0, true, 0xa346_de10_d103_c99e, 0, 10),
    (HostileKind::AsymSlow, 1, false, 0xe5dd_4095_02a3_faa2, 55, 10),
    (HostileKind::AsymSlow, 1, true, 0xb524_4c52_cf24_787f, 0, 9),
    (HostileKind::Bimodal, 0, false, 0x8096_2885_00d3_f3d8, 87, 0),
    (HostileKind::Bimodal, 0, true, 0x9462_8d0f_baaa_c629, 0, 10),
    (HostileKind::Bimodal, 1, false, 0x83d5_f1fa_f1ba_cc66, 59, 7),
    (HostileKind::Bimodal, 1, true, 0xe7ba_3d07_2b8b_8c14, 0, 10),
    (HostileKind::SplitStorm, 0, false, 0xd853_8405_8a84_4d59, 30, 7),
    (HostileKind::SplitStorm, 0, true, 0x797f_bfb2_0bd2_36b4, 32, 7),
    (HostileKind::SplitStorm, 1, false, 0xd688_2a1c_1f25_41f6, 31, 7),
    (HostileKind::SplitStorm, 1, true, 0x87f8_3cba_6d4f_5599, 31, 7),
    (HostileKind::Churn, 0, false, 0x109b_16d4_b70c_2eb1, 307, 10),
    (HostileKind::Churn, 0, true, 0x237a_2a4a_1ae7_a9db, 368, 10),
    (HostileKind::Churn, 1, false, 0x055a_c1d6_e27e_e49e, 222, 10),
    (HostileKind::Churn, 1, true, 0x3e72_7ba0_25eb_b9b5, 304, 10),
];

/// Every corpus entry at the smoke seeds passes the per-run gate (zero
/// violations under both policies) and reproduces its pinned digest and
/// counts, and every regime passes the regime gate (strictly fewer views
/// in total under the adaptive detector on the strict flap/bimodal
/// kinds).
#[test]
fn corpus_passes_the_acceptance_gate() {
    for kind in HostileKind::ALL {
        let outcomes = par_seeds_with(&[0, 1], 2, |seed| run_pair(kind, seed));
        for o in &outcomes {
            assert!(
                o.pass(),
                "{} seed {} failed: {:?}",
                kind.name(),
                o.seed,
                o.violations().first()
            );
            for (adaptive, r) in [(false, &o.fixed), (true, &o.adaptive)] {
                let got = (r.digest, r.views_installed, r.delivered_during_disturbance);
                let pin = PINS
                    .iter()
                    .find(|p| p.0 == kind && p.1 == o.seed && p.2 == adaptive)
                    .map(|p| (p.3, p.4, p.5));
                assert_eq!(Some(got), pin, "{} seed {} adaptive={adaptive}", kind.name(), o.seed);
            }
        }
        let t = RegimeTotals::of(kind, &outcomes);
        assert!(
            t.pass(),
            "{}: views fixed={} adaptive={} — not strictly fewer",
            kind.name(),
            t.fixed_views,
            t.adaptive_views
        );
    }
}

/// The flap regime is the detector's headline: fixed timeouts reform on
/// every down cycle while the warm accrual estimator rides the whole
/// storm out, and availability does not regress.
#[test]
fn flap_adaptive_rides_out_what_fixed_thrashes_on() {
    let o = run_pair(HostileKind::Flap, 0);
    assert!(o.fixed.views_installed >= 10, "fixed should thrash: {}", o.fixed.views_installed);
    assert!(
        o.adaptive.views_installed * 5 <= o.fixed.views_installed,
        "adaptive {} vs fixed {}: expected at least a 5x reduction",
        o.adaptive.views_installed,
        o.fixed.views_installed
    );
    assert!(o.adaptive.delivered_during_disturbance >= o.fixed.delivered_during_disturbance);
}

/// Seed-reproducibility audit: hostile runs — both policies — produce
/// identical digests at any worker count. The corpus perturbs delivery
/// schedules through the seeded RNG only, so the fan-out layer must not
/// introduce any nondeterminism.
#[test]
fn hostile_digests_are_invariant_under_worker_count() {
    let seeds: Vec<u64> = (0..4).collect();
    for kind in [HostileKind::Flap, HostileKind::Bimodal, HostileKind::SplitStorm] {
        for adaptive in [false, true] {
            let one = par_seeds_with(&seeds, 1, |s| run(&build_hostile(kind, s, adaptive)).digest);
            let eight =
                par_seeds_with(&seeds, 8, |s| run(&build_hostile(kind, s, adaptive)).digest);
            assert_eq!(one, eight, "{} adaptive={adaptive}", kind.name());
        }
    }
}

/// The same corpus entry replays bit-for-bit under both policies:
/// equal digests, violation sets, and frame counts across runs.
#[test]
fn hostile_replay_is_bit_for_bit_deterministic() {
    for adaptive in [false, true] {
        let sc = build_hostile(HostileKind::Churn, 1, adaptive);
        let a = run(&sc);
        let b = run(&sc);
        assert_eq!(a.digest, b.digest, "adaptive={adaptive}");
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.violations, b.violations);
    }
}

/// The committed fixture artifacts replay clean under both policies and
/// match the builders byte-for-byte — a drifted builder or a bitrotted
/// fixture fails here, not in a nightly sweep.
#[test]
fn corpus_fixtures_replay_clean_and_match_builders() {
    for kind in [HostileKind::Flap, HostileKind::AsymSlow, HostileKind::Bimodal] {
        let path = format!("{}/tests/corpus/{}.scenario", env!("CARGO_MANIFEST_DIR"), kind.name());
        let text = std::fs::read_to_string(&path).expect("fixture exists");
        assert_eq!(
            text,
            build_hostile(kind, 0, false).render(),
            "{path} drifted from the builder; regenerate it"
        );

        let fixed = Scenario::parse(&text).expect("fixture parses");
        let report = run(&fixed);
        assert!(report.ok(), "{path} (fixed): {:?}", report.violations.first());

        let mut adaptive = fixed.clone();
        adaptive.config.adaptive_detector = true;
        let report = run(&adaptive);
        assert!(report.ok(), "{path} (adaptive): {:?}", report.violations.first());
    }
}

/// Availability accounting sanity: the disturbance metrics the corpus
/// gate reads are populated — every hostile run has a nonzero disturbed
/// span, and deliveries during disturbance never exceed total
/// deliveries.
#[test]
fn disturbance_accounting_is_populated() {
    for kind in HostileKind::ALL {
        let r = run(&build_hostile(kind, 0, true));
        assert!(r.disturbed_ms > 0, "{}: no disturbed span recorded", kind.name());
        assert!(
            r.delivered_during_disturbance <= r.delivered,
            "{}: {} delivered during disturbance out of {} total",
            kind.name(),
            r.delivered_during_disturbance,
            r.delivered
        );
    }
}
