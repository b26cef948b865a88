//! Crash/recovery integration test: a node stops abruptly (losing its
//! volatile view, token, and buffers), the majority reforms without it,
//! and a restarted incarnation recovers from its stable-storage
//! snapshot, re-merges, and catches up on everything it missed — with
//! no value delivered twice at any location and the merged
//! cross-incarnation trace passing the VS/TO safety checkers.

use gcs_core::check_conformance;
use gcs_model::{ProcId, Value};
use gcs_net::cluster::{wait_for, ClusterConfig, LoopbackCluster};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use std::collections::HashSet;
use std::time::Duration;

fn full_view_everywhere(cluster: &LoopbackCluster) -> bool {
    let n = cluster.n();
    cluster.views().iter().all(|vs| vs.last().is_some_and(|v| v.size() == n as usize))
}

#[test]
fn crash_and_restart_recovers_without_duplicate_deliveries() {
    let n = 3u32;
    let mut cluster = LoopbackCluster::start(ClusterConfig::patient(n)).expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(20), || full_view_everywhere(&cluster)),
        "initial view never formed: {:?}",
        cluster.views()
    );

    // Phase 1: steady state with everyone up.
    for i in 1..=20u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i));
    }
    assert!(cluster.await_deliveries(20, Duration::from_secs(30)), "phase 1 stalled");

    // Crash p2 abruptly. The survivors must install a view without it.
    let epoch_before = cluster.views()[0].last().expect("has view").id.epoch;
    cluster.crash(ProcId(2));
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster.views()[..2]
                .iter()
                .all(|vs| vs.last().is_some_and(|v| !v.set.contains(&ProcId(2))))
        }),
        "majority never reformed without p2: {:?}",
        cluster.views()
    );

    // Phase 2: the majority keeps delivering while p2 is down.
    // (`await_deliveries` only counts live nodes.)
    for i in 21..=40u64 {
        cluster.submit(ProcId((i % 2) as u32), Value::from_u64(i));
    }
    assert!(cluster.await_deliveries(40, Duration::from_secs(60)), "majority stalled");

    // Restart p2 from stable storage: it rebinds the same port under a
    // fresh incarnation, re-merges into a full view, and the state
    // exchange brings it everything it missed.
    cluster.restart(ProcId(2)).expect("restart p2");
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster
                .views()
                .iter()
                .all(|vs| vs.last().is_some_and(|v| v.size() == 3 && v.id.epoch > epoch_before))
        }),
        "post-restart merge never formed: {:?}",
        cluster.views()
    );

    // Phase 3: steady state again, restarted node included.
    for i in 41..=60u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i));
    }
    assert!(
        cluster.await_deliveries(60, Duration::from_secs(120)),
        "post-restart deliveries stalled: {:?}",
        cluster.delivered().iter().map(|d| d.len()).collect::<Vec<_>>()
    );

    // One total order everywhere, spanning p2's two incarnations: the
    // concatenation of its pre-crash and post-restart deliveries is the
    // client-visible sequence, and recovery must neither replay a value
    // already delivered nor skip one it missed while down.
    let delivered = cluster.delivered();
    for (i, d) in delivered.iter().enumerate() {
        assert!(d.len() >= 60, "node {i} delivered only {} of 60", d.len());
        assert_eq!(&delivered[0][..60], &d[..60], "total orders diverge at node {i}");
        let distinct: HashSet<&Value> = d.iter().map(|(_, a)| a).collect();
        assert_eq!(distinct.len(), d.len(), "node {i} delivered a value twice");
    }

    // The merged trace — every incarnation of every node — satisfies the
    // same specifications the simulator is checked against, and shutdown
    // leaks no threads.
    let (trace, shutdown) = cluster.stop_report();
    assert!(shutdown.clean(), "leaked {} transport threads", shutdown.leaked);
    let report =
        check_conformance(&vs_actions(&trace), &to_obs(&trace).untimed(), &ProcId::range(n));
    assert!(report.ok(), "conformance failed: {:?}", report.violations().first());
}
