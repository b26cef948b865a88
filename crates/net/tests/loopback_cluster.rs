//! Integration tests for the TCP stack: a loopback cluster delivering
//! client operations in total order, surviving socket loss and emulated
//! partitions, with every recorded trace passing the same VS/TO safety
//! checkers the simulator runs against.

use gcs_core::check_conformance;
use gcs_model::{ProcId, Value, View};
use gcs_net::cluster::{wait_for, ClusterConfig, LoopbackCluster};
use gcs_net::load::{run_load, LoadConfig, LoadMode};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use std::time::Duration;

/// Every node has installed a view containing exactly the full set.
fn full_view_everywhere(cluster: &LoopbackCluster) -> bool {
    let n = cluster.n();
    cluster.views().iter().all(|vs| vs.last().is_some_and(|v| v.size() == n as usize))
}

fn assert_total_order_prefix(delivered: &[Vec<(ProcId, Value)>], count: usize) {
    for (i, d) in delivered.iter().enumerate() {
        assert!(d.len() >= count, "node {i} delivered only {} of {count}", d.len());
        assert_eq!(&delivered[0][..count], &d[..count], "total orders diverge at node {i}");
    }
}

fn assert_checkers_pass(
    trace: &gcs_ioa::TimedTrace<gcs_ioa::TraceEvent<gcs_vsimpl::ImplEvent>>,
    n: u32,
) {
    let report = check_conformance(&vs_actions(trace), &to_obs(trace).untimed(), &ProcId::range(n));
    assert!(report.ok(), "conformance failed: {:?}", report.violations().first());
}

#[test]
fn three_node_cluster_delivers_in_total_order() {
    let cluster = LoopbackCluster::start(ClusterConfig::patient(3)).expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(20), || full_view_everywhere(&cluster)),
        "initial view never formed: {:?}",
        cluster.views()
    );
    for i in 0..30u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i + 1));
    }
    assert!(
        cluster.await_deliveries(30, Duration::from_secs(30)),
        "deliveries timed out: {:?}",
        cluster.delivered().iter().map(|d| d.len()).collect::<Vec<_>>()
    );
    let delivered = cluster.delivered();
    let trace = cluster.stop();
    assert_total_order_prefix(&delivered, 30);
    assert_checkers_pass(&trace, 3);
}

#[test]
fn tcp_client_load_generator_round_trips() {
    let cluster = LoopbackCluster::start(ClusterConfig::patient(3)).expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(20), || full_view_everywhere(&cluster)),
        "initial view never formed"
    );
    let report = run_load(
        cluster.addr(ProcId(0)),
        &LoadConfig {
            group: 0,
            ops: 200,
            mode: LoadMode::Closed { window: 16 },
            idle_timeout: Duration::from_secs(30),
            warmup: 0,
        },
        |i| Value::from_u64(i + 1),
    )
    .expect("client connects");
    assert_eq!(report.submitted, 200);
    assert_eq!(report.delivered, 200, "client lost operations");
    assert_eq!(report.latency_us.count(), 200);
    assert!(report.latency_us.mean() > 0);
    // The other nodes deliver the client's operations too.
    assert!(cluster.await_deliveries(200, Duration::from_secs(30)), "peers missed client traffic");
    let trace = cluster.stop();
    assert_checkers_pass(&trace, 3);
}

/// The ISSUE acceptance scenario: a 5-node loopback cluster delivers
/// ≥ 10k client operations in total order across all nodes, survives a
/// forced TCP disconnect/reconnect, a partition and a merge (both
/// observed as view changes), and the merged recorded trace passes the
/// existing VS/TO safety checkers.
#[test]
fn five_node_cluster_10k_ops_survives_partition_and_merge() {
    const TOTAL: u64 = 10_000;
    let n = 5u32;
    // δ sets the protocol's patience. At this volume the state-exchange
    // summaries carry thousands of entries, and (in debug builds) merging
    // them on view establishment can hold the token for hundreds of
    // milliseconds — a short token timeout would kill each freshly formed
    // view during its own establishment and churn forever. δ = 150 ms
    // gives a token timeout of π + (n+3)δ ≈ 2.7 s, comfortably above
    // that.
    let cluster =
        LoopbackCluster::start(ClusterConfig { n, delta_ms: 150, transport: Default::default() })
            .expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(30), || full_view_everywhere(&cluster)),
        "initial view never formed: {:?}",
        cluster.views()
    );

    // Phase 1: steady state. 4k operations round-robin.
    let mut next = 1u64;
    for _ in 0..4_000 {
        cluster.submit(ProcId((next % n as u64) as u32), Value::from_u64(next));
        next += 1;
    }
    assert!(
        cluster.await_deliveries(4_000, Duration::from_secs(120)),
        "phase 1 deliveries timed out: {:?}",
        cluster.delivered().iter().map(|d| d.len()).collect::<Vec<_>>()
    );

    // Forced TCP disconnect: kill the live sockets between p0 and p1.
    // The writers must reconnect (fresh connection generation) and the
    // ring must keep delivering.
    let t0 = cluster.node(ProcId(0)).transport();
    let gen_before = t0.generation(ProcId(1));
    cluster.kick_pair(ProcId(0), ProcId(1));
    assert!(
        wait_for(Duration::from_secs(10), || {
            t0.generation(ProcId(1)) > gen_before && t0.connected(ProcId(1))
        }),
        "p0 never re-established its link to p1"
    );

    // Phase 2: partition p4 away. The majority must reform without it
    // (partition observed as a view change) and keep delivering.
    let pre_partition_epoch = cluster.views()[0].last().expect("has view").id.epoch;
    cluster.isolate(ProcId(4));
    let majority_reformed = |vs: &[Vec<View>]| {
        (0..4).all(|i| {
            vs[i]
                .last()
                .is_some_and(|v| !v.set.contains(&ProcId(4)) && v.set.contains(&ProcId(i as u32)))
        })
    };
    assert!(
        wait_for(Duration::from_secs(60), || majority_reformed(&cluster.views())),
        "majority never reformed without p4: {:?}",
        cluster.views()
    );
    for _ in 0..3_000 {
        cluster.submit(ProcId((next % 4) as u32), Value::from_u64(next));
        next += 1;
    }
    let majority_caught_up = wait_for(Duration::from_secs(120), || {
        cluster.delivered()[..4].iter().all(|d| d.len() >= 7_000)
    });
    assert!(
        majority_caught_up,
        "majority stalled during partition: {:?}",
        cluster.delivered().iter().map(|d| d.len()).collect::<Vec<_>>()
    );

    // Phase 3: merge. Everyone must install a full view again with a
    // higher epoch, and p4 must catch up on everything it missed.
    cluster.rejoin(ProcId(4));
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster.views().iter().all(|vs| {
                vs.last().is_some_and(|v| v.size() == 5 && v.id.epoch > pre_partition_epoch)
            })
        }),
        "merge view never formed: {:?}",
        cluster.views()
    );
    for _ in 0..3_000 {
        cluster.submit(ProcId((next % n as u64) as u32), Value::from_u64(next));
        next += 1;
    }
    assert_eq!(next - 1, TOTAL);
    assert!(
        cluster.await_deliveries(TOTAL as usize, Duration::from_secs(300)),
        "final deliveries timed out: {:?}",
        cluster.delivered().iter().map(|d| d.len()).collect::<Vec<_>>()
    );

    // One total order across all five nodes, all 10k operations.
    let delivered = cluster.delivered();
    assert_total_order_prefix(&delivered, TOTAL as usize);

    // The partition and the merge were both observed as view changes at
    // the isolated node too.
    let p4_views = &cluster.views()[4];
    assert!(
        p4_views.iter().any(|v| v.size() < 5),
        "p4 never installed a minority view: {p4_views:?}"
    );
    let last4 = p4_views.last().expect("p4 has views");
    assert!(last4.size() == 5 && last4.id.epoch > pre_partition_epoch);

    // The merged wall-clock trace satisfies the same specifications the
    // simulator is checked against.
    let trace = cluster.stop();
    assert_checkers_pass(&trace, n);
}

/// The fault-injection satellite: kill a live TCP connection mid-view,
/// assert the transport reconnects with backoff (attempt counters and a
/// fresh connection generation), a new view forms after a real
/// partition, and the recorded traces still pass the safety checkers.
#[test]
fn fault_injection_reconnect_and_reform() {
    let cluster = LoopbackCluster::start(ClusterConfig::patient(3)).expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(20), || full_view_everywhere(&cluster)),
        "initial view never formed"
    );
    for i in 0..20u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i + 1));
    }
    assert!(cluster.await_deliveries(20, Duration::from_secs(30)), "warmup stalled");

    // Kill the live sockets between p0 and p1 mid-view.
    let t0 = cluster.node(ProcId(0)).transport();
    let attempts_before = t0.connect_attempts(ProcId(1));
    let gen_before = t0.generation(ProcId(1));
    cluster.kick_pair(ProcId(0), ProcId(1));
    assert!(
        wait_for(Duration::from_secs(10), || {
            t0.connect_attempts(ProcId(1)) > attempts_before
                && t0.generation(ProcId(1)) > gen_before
                && t0.connected(ProcId(1))
        }),
        "p0 did not reconnect to p1 after the socket was killed"
    );
    // The ring keeps delivering over the re-established link.
    for i in 20..40u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i + 1));
    }
    assert!(
        cluster.await_deliveries(40, Duration::from_secs(60)),
        "deliveries stalled after reconnect: {:?}",
        cluster.delivered().iter().map(|d| d.len()).collect::<Vec<_>>()
    );

    // A real partition now: p2 cut off long enough for the token to time
    // out, so a new (smaller) view must form; then heal and re-merge.
    let epoch_before = cluster.views()[0].last().expect("has view").id.epoch;
    cluster.isolate(ProcId(2));
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster.views()[0].last().is_some_and(|v| !v.set.contains(&ProcId(2)))
        }),
        "no new view formed after the partition: {:?}",
        cluster.views()
    );
    cluster.rejoin(ProcId(2));
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster
                .views()
                .iter()
                .all(|vs| vs.last().is_some_and(|v| v.size() == 3 && v.id.epoch > epoch_before))
        }),
        "merge never completed: {:?}",
        cluster.views()
    );
    for i in 40..60u64 {
        cluster.submit(ProcId((i % 3) as u32), Value::from_u64(i + 1));
    }
    assert!(
        cluster.await_deliveries(60, Duration::from_secs(60)),
        "deliveries stalled after merge"
    );

    let delivered = cluster.delivered();
    let trace = cluster.stop();
    assert_total_order_prefix(&delivered, 60);
    assert_checkers_pass(&trace, 3);
}
