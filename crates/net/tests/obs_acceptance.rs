//! The observability acceptance scenario: a five-node loopback cluster
//! under partition/merge fault injection serves a metrics endpoint whose
//! counters reconcile exactly with the merged trace ring, and the online
//! b/d bound monitors pass on a clean run but fire when a covert send
//! delay violates the configured δ underneath a quiet-looking network.

use gcs_core::check_conformance;
use gcs_model::{ProcId, Value};
use gcs_net::cluster::{wait_for, ClusterConfig, LoopbackCluster};
use gcs_net::transport::TransportConfig;
use gcs_obs::{BoundParams, EventKind, Obs, StabilizationMonitor, TokenRoundMonitor};
use gcs_vsimpl::convert::{to_obs, vs_actions};
use std::net::TcpListener;
use std::time::{Duration, Instant};

fn full_view_everywhere(cluster: &LoopbackCluster) -> bool {
    let n = cluster.n();
    cluster.views().iter().all(|vs| vs.last().is_some_and(|v| v.size() == n as usize))
}

fn assert_checkers_pass(
    cluster_trace: &gcs_ioa::TimedTrace<gcs_ioa::TraceEvent<gcs_vsimpl::ImplEvent>>,
    n: u32,
) {
    let report = check_conformance(
        &vs_actions(cluster_trace),
        &to_obs(cluster_trace).untimed(),
        &ProcId::range(n),
    );
    assert!(report.ok(), "conformance failed: {:?}", report.violations().first());
}

/// The latest disturbance (fault injection or link churn) in the stream,
/// or 0 for a stream without one.
fn last_disturbance_ms(obs: &Obs) -> u64 {
    obs.trace
        .snapshot()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Fault { .. } | EventKind::LinkUp { .. } | EventKind::LinkDown { .. }
            )
        })
        .map(|e| e.t_ms)
        .max()
        .unwrap_or(0)
}

/// Waits until the registry and trace have stopped moving (detached
/// reader threads finish their last event after a stop).
fn settle(obs: &Obs) {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = (0u64, String::new());
    while Instant::now() < deadline {
        let now = (obs.trace.recorded(), obs.registry.render_text());
        if now == last {
            return;
        }
        last = now;
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// Counters served over the metrics endpoint reconcile with the merged
/// trace ring: sends, receives, drops, rejects, view installs, submits
/// and deliveries each match their trace event counts one-for-one, and
/// `sent ≥ recv + rejected` (the residual is frames lost or buffered in
/// kicked sockets — frames are never conjured).
#[test]
fn metrics_endpoint_reconciles_with_merged_trace() {
    let n = 5u32;
    let obs = Obs::with_trace_capacity(1 << 20);
    let cluster = LoopbackCluster::start_with_obs(ClusterConfig::patient(n), obs.clone())
        .expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(30), || full_view_everywhere(&cluster)),
        "initial view never formed"
    );

    // Steady state.
    let mut next = 1u64;
    for _ in 0..100 {
        cluster.submit(ProcId((next % n as u64) as u32), Value::from_u64(next));
        next += 1;
    }
    assert!(cluster.await_deliveries(100, Duration::from_secs(60)), "phase 1 stalled");

    // Socket churn: kill the live p0↔p1 connections mid-view.
    let t0 = cluster.node(ProcId(0)).transport();
    let gen_before = t0.generation(ProcId(1));
    cluster.kick_pair(ProcId(0), ProcId(1));
    assert!(
        wait_for(Duration::from_secs(10), || {
            t0.generation(ProcId(1)) > gen_before && t0.connected(ProcId(1))
        }),
        "p0 never reconnected to p1"
    );

    // Partition p4 away, keep the majority delivering, then merge.
    let pre_partition_epoch = cluster.views()[0].last().expect("has view").id.epoch;
    cluster.isolate(ProcId(4));
    assert!(
        wait_for(Duration::from_secs(60), || {
            (0..4).all(|i| cluster.views()[i].last().is_some_and(|v| !v.set.contains(&ProcId(4))))
        }),
        "majority never reformed without p4"
    );
    for _ in 0..100 {
        cluster.submit(ProcId((next % 4) as u32), Value::from_u64(next));
        next += 1;
    }
    assert!(
        wait_for(Duration::from_secs(120), || {
            cluster.delivered()[..4].iter().all(|d| d.len() >= 200)
        }),
        "majority stalled during partition"
    );
    cluster.rejoin(ProcId(4));
    assert!(
        wait_for(Duration::from_secs(60), || {
            cluster.views().iter().all(|vs| {
                vs.last().is_some_and(|v| v.size() == 5 && v.id.epoch > pre_partition_epoch)
            })
        }),
        "merge view never formed"
    );
    for _ in 0..100 {
        cluster.submit(ProcId((next % n as u64) as u32), Value::from_u64(next));
        next += 1;
    }
    assert!(cluster.await_deliveries(300, Duration::from_secs(120)), "final stall");

    let delivered = cluster.delivered();
    let cluster_trace = cluster.stop();
    settle(&obs);
    for (i, d) in delivered.iter().enumerate() {
        assert_eq!(&delivered[0][..300], &d[..300], "total orders diverge at node {i}");
    }
    assert_checkers_pass(&cluster_trace, n);

    // The trace ring held the complete run.
    assert_eq!(obs.trace.evicted(), 0, "trace window must cover the whole run");
    let events = obs.trace.snapshot();
    let count =
        |pred: fn(&EventKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    let sends = count(|k| matches!(k, EventKind::Send { .. }));
    let recvs = count(|k| matches!(k, EventKind::Recv { .. }));
    let drops = count(|k| matches!(k, EventKind::Drop { .. }));
    let rejects = count(|k| matches!(k, EventKind::Reject { .. }));
    let views = count(|k| matches!(k, EventKind::ViewChange { .. }));
    let bcasts = count(|k| matches!(k, EventKind::Bcast { .. }));
    let brcvs = count(|k| matches!(k, EventKind::Brcv { .. }));
    let faults = count(|k| matches!(k, EventKind::Fault { .. }));

    // Counter ↔ trace reconciliation, name by name.
    let snap = obs.registry.snapshot();
    assert_eq!(snap.counter_total("net_frames_sent_total"), sends);
    assert_eq!(snap.counter_total("net_frames_recv_total"), recvs);
    assert_eq!(snap.counter_total("net_frames_dropped_total"), drops);
    assert_eq!(snap.counter_total("net_frames_rejected_total"), rejects);
    assert_eq!(snap.counter_total("node_views_installed_total"), views);
    assert_eq!(snap.counter_total("node_submits_total"), bcasts);
    assert_eq!(snap.counter_total("node_deliveries_total"), brcvs);
    assert_eq!(snap.counter_total("net_faults_injected_total"), faults);

    // Flow conservation: every frame handed to the runtime or rejected
    // was first written somewhere; the residual is in-flight/lost.
    assert!(sends >= recvs + rejects, "sends={sends} < recvs={recvs} + rejects={rejects}");
    assert!(drops > 0, "the partition must produce counted drops");
    assert!(views >= n as u64, "partition and merge must install views everywhere");
    assert_eq!(bcasts, 300, "every submit must be traced");
    assert_eq!(brcvs, delivered.iter().map(|d| d.len() as u64).sum::<u64>());

    // The endpoint serves exactly the registry's current rendering.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let addr = listener.local_addr().expect("metrics addr");
    let server = gcs_obs::serve(listener, obs.registry.clone()).expect("serve metrics");
    let body = gcs_obs::fetch_text(addr).expect("scrape metrics");
    server.stop();
    assert_eq!(body, obs.registry.render_text());
    assert!(body.contains("net_frames_sent_total{node=\"0\"}"));
    assert!(body.contains("node_deliveries_total{node=\"4\"}"));
}

/// On a clean run — patient δ, no fault injection — both bound monitors
/// pass: no view installs later than `b` after the network quiesces, and
/// every stable-window submit is delivered within `d`.
#[test]
fn bound_monitors_pass_on_a_clean_run() {
    let n = 5u32;
    let delta_ms = 200u64;
    let params = BoundParams::standard(n, delta_ms);
    let obs = Obs::with_trace_capacity(1 << 18);
    let cluster = LoopbackCluster::start_with_obs(
        ClusterConfig { n, delta_ms, transport: TransportConfig::default() },
        obs.clone(),
    )
    .expect("bind loopback");
    assert!(
        wait_for(Duration::from_secs(30), || full_view_everywhere(&cluster)),
        "initial view never formed"
    );

    // Let the boot-time link establishment age past b, so the submits
    // below land in a provably stabilized window.
    let quiesced = wait_for(Duration::from_secs(60), || {
        obs.trace.now_ms() > last_disturbance_ms(&obs) + params.b_ms() + 100
    });
    assert!(quiesced, "network never quiesced");

    const OPS: u64 = 25;
    for i in 1..=OPS {
        cluster.submit(ProcId((i % n as u64) as u32), Value::from_u64(i));
    }
    assert!(
        cluster.await_deliveries(OPS as usize, Duration::from_secs(60)),
        "clean-run deliveries stalled"
    );
    std::thread::sleep(Duration::from_millis(200));

    let events = obs.trace.snapshot();
    let now_ms = obs.trace.now_ms();
    let mut stab = StabilizationMonitor::new(params);
    let mut round = TokenRoundMonitor::new(params);
    stab.feed_all(&events);
    round.feed_all(&events);
    let stab = stab.finish();
    let round = round.finish(now_ms);
    assert!(stab.ok(), "stabilization violations on a clean run: {:?}", stab.violations);
    assert!(round.ok(), "token-round violations on a clean run: {:?}", round.violations);
    assert_eq!(round.checked, OPS, "every stable-window submit must be checked");
    cluster.stop();
}

/// A covert delay injected *below* the event stream — every outbound
/// frame sleeps 150 ms while the trace shows a quiet network — breaks
/// both bounds for δ = 20 ms, and the monitors catch it: views churn
/// past the stabilization deadline (token rotation now exceeds the token
/// timeout) and deliveries miss `d` or never arrive.
#[test]
fn bound_monitors_fire_under_covert_send_delay() {
    let n = 3u32;
    let delta_ms = 20u64;
    let params = BoundParams::standard(n, delta_ms); // b = 420 ms, d = 300 ms
    let obs = Obs::with_trace_capacity(1 << 18);
    let cluster = LoopbackCluster::start_with_obs(
        ClusterConfig {
            n,
            delta_ms,
            transport: TransportConfig {
                inject_send_delay: Some(Duration::from_millis(150)),
                ..Default::default()
            },
        },
        obs.clone(),
    )
    .expect("bind loopback");

    // Links come up promptly (the Hello handshake is not delayed); after
    // that the stream looks quiet while every frame crawls.
    assert!(
        wait_for(Duration::from_secs(10), || {
            (0..n).all(|p| {
                (0..n).all(|q| p == q || cluster.node(ProcId(p)).transport().connected(ProcId(q)))
            })
        }),
        "links never came up"
    );

    // Submit well past b from the boot disturbances so the pairs are
    // eligible, spread out so some land mid-churn.
    std::thread::sleep(Duration::from_millis(2 * params.b_ms()));
    for i in 1..=30u64 {
        cluster.submit(ProcId((i % n as u64) as u32), Value::from_u64(i));
        std::thread::sleep(Duration::from_millis(100));
    }
    std::thread::sleep(Duration::from_secs(2));

    let events = obs.trace.snapshot();
    let now_ms = obs.trace.now_ms();
    let mut stab = StabilizationMonitor::new(params);
    let mut round = TokenRoundMonitor::new(params);
    stab.feed_all(&events);
    round.feed_all(&events);
    let stab = stab.finish();
    let round = round.finish(now_ms);
    assert!(
        !stab.ok(),
        "a 150 ms per-frame delay must drive view churn past b = {} ms (checked {})",
        stab.bound_ms,
        stab.checked
    );
    assert!(
        !round.ok(),
        "deliveries over 150 ms hops cannot meet d = {} ms (checked {})",
        round.bound_ms,
        round.checked
    );
    cluster.stop();
}
