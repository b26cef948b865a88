//! Router failover under view flapping: the client-side [`RouterCore`]
//! replayed against the view-churn storm the hostile corpus inflicts on
//! the server side. The router must keep producing live targets with a
//! bounded number of `retry_next` rotations per stale-map episode, and
//! must not livelock on a stale map once the storm subsides.

use gcs_model::{ProcId, View, ViewId};
use gcs_shard::{RouterCore, ShardMap};
use std::collections::BTreeSet;

fn procs(ids: &[u32]) -> BTreeSet<ProcId> {
    ids.iter().map(|&i| ProcId(i)).collect()
}

/// The benchmark topology: 5 nodes, 4 groups of 3 in a ring layout.
fn router() -> RouterCore {
    let groups = (0..4u32).map(|i| procs(&[i, (i + 1) % 5, (i + 2) % 5])).collect();
    RouterCore::new(ShardMap::new(groups))
}

/// A flap storm replayed as the stream of `View` frames the server push
/// channel would deliver: one member of the group oscillates out of and
/// back into the view, one epoch per half-cycle. Throughout the storm
/// every routing decision must land on a member of the *current* view,
/// and the map version must advance monotonically with each fold.
#[test]
fn flap_storm_views_never_route_to_departed_members() {
    let mut r = router();
    let group = 0u32;
    let full = r.map().members(group).clone();
    let flapper = *full.iter().last().expect("group has members");
    let survivors: BTreeSet<ProcId> = full.iter().copied().filter(|&p| p != flapper).collect();

    let mut last_version = r.map().version();
    for cycle in 0..50u64 {
        // Down half-cycle: the flapper drops out.
        let down = View::new(ViewId::new(2 * cycle + 1, flapper), survivors.clone());
        r.on_view(group, &down);
        assert!(r.map().version() > last_version, "view fold must bump the map version");
        last_version = r.map().version();
        let p = r.member_for(group).expect("survivors remain routable");
        assert!(survivors.contains(&p), "cycle {cycle}: routed to departed member {p}");

        // Up half-cycle: the flapper merges back.
        let up = View::new(ViewId::new(2 * cycle + 2, flapper), full.clone());
        r.on_view(group, &up);
        assert!(r.map().version() > last_version, "merge fold must bump the map version");
        last_version = r.map().version();
        let p = r.member_for(group).expect("full view is routable");
        assert!(full.contains(&p), "cycle {cycle}: routed outside the merged view");
    }
}

/// A stale-map episode mid-flap: the cached map still lists the full
/// group but the preferred member sits on the wrong side of the flap.
/// Rotation must visit every *other* member within `|group| - 1`
/// retries — the bound the TCP client's retry budget is set from — and
/// once every alternative is down-marked, report exhaustion rather
/// than cycling forever.
#[test]
fn stale_map_retry_rotations_are_bounded() {
    let mut r = router();
    let group = 1u32;
    let size = r.map().members(group).len();
    let first = r.member_for(group).expect("initial target");

    // Pure rotation (no failures yet) visits every other member before
    // coming back around: |group| - 1 distinct alternatives.
    let mut seen = BTreeSet::new();
    seen.insert(first);
    for i in 0..size - 1 {
        let next = r.retry_next(group).expect("alternatives remain");
        assert!(seen.insert(next), "rotation revisited {next} after {i} retries");
    }
    assert_eq!(seen.len(), size, "rotation must offer every member within one cycle");

    // Now the episode turns out to be a real outage: each rotated-to
    // member's connection dies in turn. Exhaustion must surface within
    // |group| down-marks, never a livelock.
    let mut last = r.member_for(group).expect("still routable");
    for _ in 0..size - 1 {
        r.mark_down(last);
        last = r.retry_next(group).expect("a live alternative remains");
    }
    r.mark_down(last);
    assert_eq!(r.retry_next(group), None, "all members down must report exhaustion");
    assert_eq!(r.member_for(group), None);
}

/// No stale-map livelock: after a storm leaves the router pointing at a
/// member that then disappears in the *final* view, the next routing
/// decision redirects immediately — one view fold, zero retries — and
/// subsequent decisions are stable (no oscillation between members).
#[test]
fn post_storm_map_converges_without_livelock() {
    let mut r = router();
    let group = 2u32;
    let full = r.map().members(group).clone();

    // Storm: every member flaps out and back once, in turn.
    let mut epoch = 1u64;
    for &victim in &full {
        let rest: BTreeSet<ProcId> = full.iter().copied().filter(|&p| p != victim).collect();
        r.on_view(group, &View::new(ViewId::new(epoch, victim), rest));
        epoch += 1;
        r.on_view(group, &View::new(ViewId::new(epoch, victim), full.clone()));
        epoch += 1;
    }

    // The storm settles on a final view missing the current preferred
    // member: routing must redirect on the very next call.
    let preferred = r.member_for(group).expect("routable after storm");
    let final_set: BTreeSet<ProcId> = full.iter().copied().filter(|&p| p != preferred).collect();
    r.on_view(group, &View::new(ViewId::new(epoch, preferred), final_set.clone()));
    let redirected = r.member_for(group).expect("redirect target");
    assert_ne!(redirected, preferred, "kept routing to a member the final view excludes");
    assert!(final_set.contains(&redirected));

    // Stability: repeated decisions stick to one member (no ping-pong).
    for _ in 0..10 {
        assert_eq!(r.member_for(group), Some(redirected), "target oscillated after settling");
    }
}

/// Down-marks and view pushes interleave during a flap without leaking
/// state: a member marked down while out of the view is revived by the
/// merge view that lists it, and the down-set never blocks routing to
/// fresh-view members.
#[test]
fn down_marks_are_revived_by_merge_views() {
    let mut r = router();
    let group = 3u32;
    let full = r.map().members(group).clone();
    let flapper = *full.iter().next().expect("group has members");
    let rest: BTreeSet<ProcId> = full.iter().copied().filter(|&p| p != flapper).collect();

    for epoch in 0..20u64 {
        // The connection to the flapper dies, then the shrunk view
        // arrives (the server side noticed too).
        r.mark_down(flapper);
        r.on_view(group, &View::new(ViewId::new(2 * epoch + 1, flapper), rest.clone()));
        let p = r.member_for(group).expect("survivors routable");
        assert!(rest.contains(&p));

        // The merge view lists the flapper again: it must be routable
        // without any explicit up-mark (the view *is* the up-mark).
        r.on_view(group, &View::new(ViewId::new(2 * epoch + 2, flapper), full.clone()));
        r.mark_down(p); // push traffic off the survivor...
        let q = r.member_for(group).expect("flapper revived by merge view");
        assert_ne!(q, p);
        // ...and revive it for the next cycle.
        r.on_view(group, &View::new(ViewId::new(2 * epoch + 2, flapper), full.clone()));
    }
}
