//! π is not in a follower's latency path — and is still enough on its
//! own. The scenario is `gcs_sim::follower` (fixed δ, good links, five
//! nodes, node 2 submitting at every phase against the heartbeat).

use gcs_sim::follower::{bounds, run_follower};

/// With requests: every value is back at its submitter after exactly
/// the `2n + 3` hops of the module's diagram, whatever the phase, and
/// at some node after `2n`. (At the parent commit the same run spreads
/// over 12δ..22δ: the value waits for the heartbeat.)
#[test]
fn a_follower_submission_costs_hops_not_heartbeats() {
    let run = run_follower(true);
    let (delta, hops, _) = bounds();
    assert_eq!(run.failures(hops), Vec::<String>::new());
    assert_eq!(hops, 13 * delta);
    // Phase-independent: a heartbeat token that happens to be passing
    // can only pick a value up earlier, never later.
    let at_budget = run.own_ms.iter().filter(|&&ms| ms == hops).count();
    assert!(at_budget * 2 > run.own_ms.len(), "{:?}", run.own_ms);
    assert!(run.first_ms.iter().all(|&ms| ms <= 10 * delta), "{:?}", run.first_ms);
}

/// With every request lost: the heartbeat picks each value up within π,
/// everything is delivered inside `d`, and neither bound monitor (nor
/// any checker) has anything to say — so a request can be dropped,
/// duplicated or ignored at no cost to the paper's bounds.
#[test]
fn with_every_request_lost_the_heartbeat_still_meets_d() {
    let run = run_follower(false);
    let (delta, hops, d) = bounds();
    assert_eq!(run.failures(d), Vec::<String>::new());
    // The run really did fall back: some value waited for the heartbeat.
    assert!(run.own_ms.iter().any(|&ms| ms > hops), "{:?}", run.own_ms);
    assert!(run.own_ms.iter().all(|&ms| ms <= 22 * delta), "{:?}", run.own_ms);
}
