//! Shutdown-hygiene test: a calm cluster tears down deterministically.
//! Every transport thread (accept loop, per-peer writers, per-connection
//! readers) must join within its bounded deadline, and a well-behaved
//! run must not have silently shed frames to a full send queue — drops
//! the protocol would paper over with retransmission timers, hiding a
//! slow-consumer problem from every later assertion.

use gcs_model::{ProcId, Value};
use gcs_net::cluster::{wait_for, ClusterConfig, LoopbackCluster};
use std::time::Duration;

#[test]
fn calm_cluster_stops_clean_with_no_queue_full_drops() {
    let n = 3u32;
    let cluster = LoopbackCluster::start(ClusterConfig::patient(n)).expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(20), || {
            cluster.views().iter().all(|vs| vs.last().is_some_and(|v| v.size() == n as usize))
        }),
        "initial view never formed: {:?}",
        cluster.views()
    );
    for i in 1..=15u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i));
    }
    assert!(cluster.await_deliveries(15, Duration::from_secs(30)), "deliveries stalled");

    // No send queue ever filled: every frame either went out or was
    // dropped for an explicit, recorded reason (blocked link, stale
    // generation) — never silently for backpressure.
    for p in 0..n {
        let t = cluster.node(ProcId(p)).transport();
        assert_eq!(t.queue_full_drops(), 0, "node {p} shed frames to a full send queue");
        assert!(t.frames_sent() > 0, "node {p} sent nothing");
    }

    let (_, shutdown) = cluster.stop_report();
    assert!(
        shutdown.clean(),
        "leaked {} of {} transport threads",
        shutdown.leaked,
        shutdown.joined + shutdown.leaked
    );
    assert!(shutdown.joined > 0, "shutdown joined no threads at all");
}
